"""Import layering of the package modules, read from their source.

The modules form one stack, spaces < dimension < bounds < profiles <
solver < green < cli: each may import only modules below it, so no
import cycle can arise and none has to be hidden inside a function.
``__init__`` and ``__main__`` sit above the stack.  The input rules sit at
its bottom, in ``spaces``, each defined once for every layer to call,
so no other module raises on a finiteness test of its own.  Distance rows
have one owner too: only ``spaces`` searches graphs.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ringcap"
ORDER = ["spaces", "dimension", "bounds", "profiles", "solver", "green", "cli"]
RANK = dict({name: k for k, name in enumerate(ORDER)},
            __init__=len(ORDER), __main__=len(ORDER))
ROOT_NAMES = {"__version__"}  # what a module may take from the package root
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
RULES = ["_check_exponent", "_check_radii", "_check_positive", "_check_finite",
         "_check_dimension", "_check_node_ids", "_check_radius_floor"]


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def _imported_modules(tree):
    """(line, module) of each import from this package; a name taken from
    the package root counts as ``__init__`` unless it is in ROOT_NAMES."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # absolute
            full = ([node.module] if isinstance(node, ast.ImportFrom)
                    else [a.name for a in node.names])
            names = [name.partition(".")[2] or "__init__" for name in full
                     if name.split(".")[0] == "ringcap"]
        else:
            continue
        for name in names:
            name = name.split(".")[0]
            if name not in ROOT_NAMES:
                yield node.lineno, name if name in RANK else "__init__"


def test_every_module_has_a_layer():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_lower_layers(module):
    bad = [(line, name) for line, name in _imported_modules(_tree(module))
           if RANK[name] >= RANK[module]]
    assert not bad, f"{module} imports from its own layer or above: {bad}"


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    inner = [node.lineno
             for fn in ast.walk(_tree(module))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not inner, f"{module} imports inside a function at lines {inner}"


@pytest.mark.parametrize("rule", RULES)
def test_each_input_rule_has_one_owner(rule):
    owners = [module for module in MODULES for node in ast.walk(_tree(module))
              if isinstance(node, ast.FunctionDef) and node.name == rule]
    assert owners == ["spaces"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "spaces"])
def test_no_finiteness_rule_outside_spaces(module):
    # an ``if`` on isfinite that raises is a copy of _check_finite
    copies = [node.lineno for node in ast.walk(_tree(module))
              if isinstance(node, ast.If) and "isfinite(" in ast.unparse(node.test)
              and any(isinstance(inner, ast.Raise)
                      for stmt in node.body for inner in ast.walk(stmt))]
    assert not copies, f"{module} raises on its own isfinite test at lines {copies}"


@pytest.mark.parametrize("module", MODULES)
def test_only_spaces_searches_graphs(module):
    # every distance row comes from DiscreteSpace.distances_from
    def names(node):
        if isinstance(node, ast.ImportFrom):
            return [f"{node.module}.{a.name}" for a in node.names]
        return [a.name for a in node.names] if isinstance(node, ast.Import) else []

    searches = [node.lineno for node in ast.walk(_tree(module))
                if any(name.startswith("scipy.sparse.csgraph") for name in names(node))]
    assert not searches or module == "spaces", (
        f"{module} imports scipy.sparse.csgraph at lines {searches}")
