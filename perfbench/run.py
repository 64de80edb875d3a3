"""ringcap benchmark: one workload, timed end to end or traced per module.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``sweep`` (solver-bound ring solves),
``green`` (singular function through ``cli.run``) and ``geometry`` (spaces,
dimension, profiles and bounds; no solver).  A workload builds its spaces,
then repeats passes over a fixed set of library calls with inputs drawn from
``--seed`` and the pass number.  A pass is started only when one more pass
of the mean length so far still ends within ``--seconds``, so a run measures
for at most that long (and at least one pass).  Every pass is checked
against the workload's references.

``--trace 0`` prints the end-to-end metrics:

    setup_s      imports plus space set-up: the median of five import times
                 (this process and four fresh interpreters, one at a time)
                 plus the median of five set-ups in this process
    run_s        mean wall time of one pass (library calls only)
    rings_per_s  rings that converged and passed their checks, per second
                 of pass time (geometry has no solver and counts rings whose
                 profile energy, shell split and envelopes it evaluated)
    ring_p50_s   median wall time of one ring at each exponent p, as the
                 geometric mean over the exponents: a ring is a condenser
                 solve at tol 1e-6 (sweep, green) or one ring evaluation
                 (geometry)
    peak_rss_mb  peak resident set of this process
    ref_err      largest relative deviation from the workload's references

``--trace 1`` runs half the time untraced, then wraps the public entry
points of the seven modules (``spans.py``), sets up once more and runs the
other half traced.  It prints the per-layer metrics, each the traced set-up
plus the mean over traced passes, and ``trace.overhead_s``: the traced
passes repeat the inputs of the untraced ones, and it is the mean of the
traced minus the untraced time of each pass.  Spans go to
``.perfbench_out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the failed fraction
is ``failed / attempted``.  The exit status is 0 when the workload ran (even
if checks failed) and 2 when the package cannot be imported.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Run BLAS and OpenMP single-threaded; must happen before numpy loads.

    With two threads on two cores the conjugate-gradient solves ran about
    25% slower, used 2.5 times the CPU and spread more from run to run than
    with one: the vectors are too short for a second thread to pay off.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def keep_freed_memory():
    """Serve blocks up to 32 MiB from the heap and never hand it back.

    On a virtual machine whose balloon device reports free pages to the
    host, memory that glibc unmaps on ``free`` comes back as host page
    faults on its next use.  On the 2-core Xeon VM these cost about 16 us
    each, a sweep pass took about 80,000 of them (1.3 s of 9.4 s), and their
    cost moved with the host's state.  With freed blocks kept in the
    process a pass takes almost none.  A no-op where libc has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: largest value glibc accepts
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD (a C int): never shrink the heap


def cache_sizes():
    """Data and unified cache sizes of cpu0, as the kernel reports them."""
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            out.append({"level": int((index / "level").read_text()),
                        "size": (index / "size").read_text().strip(),
                        "shared_cpus": (index / "shared_cpu_list").read_text().strip()})
        except (OSError, ValueError):
            continue
    return out


def import_ringcap():
    """Import the package from ``src/``; returns the seconds the imports took."""
    src = ROOT / "src"
    if not (src / "ringcap" / "__init__.py").is_file():
        raise ImportError(f"no ringcap package under {src}")
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import ringcap
    import ringcap.cli  # noqa: F401  (the green workload drives it)
    seconds = time.perf_counter() - t
    if Path(ringcap.__file__).resolve().parent != (src / "ringcap").resolve():
        raise ImportError(f"ringcap imported from {ringcap.__file__}, not {src}")
    return seconds


def import_samples(first):
    """Import times of this process and of fresh interpreters, run one by one."""
    code = ("import time; t = time.perf_counter(); import ringcap, ringcap.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout))
    return samples


def run_passes(workload, seed, seconds, tracer, workload_id):
    """Run passes while one more of mean length fits in ``seconds``; at least one."""
    import numpy as np  # loaded after pin_threads
    from workloads import Pass

    passes = []
    start = time.perf_counter()
    while True:
        spent = time.perf_counter() - start
        if passes and spent * (len(passes) + 1) / len(passes) > seconds:
            break
        led = Pass(tracer)
        n_spans = len(tracer.spans) if tracer else 0
        workload.run_pass(np.random.default_rng([seed, workload_id, len(passes)]), led)
        if tracer is not None:
            bad = sum(s.info.get("nonconverged", 0) for s in tracer.spans[n_spans:]
                      if s.name == "solver.solve")
            with led.op("traced solves converged") as op:
                op.check(bad == 0, f"{bad} traced solves did not converge")
        passes.append(led)
    return passes


def end_to_end(passes, reference_ops, setup_s):
    ops = [op for led in passes for op in led.ops] + reference_ops
    good = [op for op in ops if not op.failures]
    pass_seconds = sum(led.seconds for led in passes)
    ring_times = {}
    for op in good:
        if op.ring_seconds is not None:
            ring_times.setdefault(op.exponent, []).append(op.ring_seconds)
    ring_p50 = [statistics.median(times) for times in ring_times.values()]
    deviations = [d for op in ops for d in op.deviations]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (pass_seconds / len(passes), "s"),
        "rings_per_s": (sum(op.rings for op in good) / pass_seconds, "1/s"),
        "ring_p50_s": (statistics.geometric_mean(ring_p50) if ring_p50 else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ref_err": (max(deviations) if deviations else 0.0, "ratio"),
    }, ring_times


def percentiles(samples):
    """The median and the highest percentile with ten samples above it."""
    n = len(samples)
    if n < 2:
        return [(50, x) for x in samples]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return [(q, cuts[q - 1]) for q in [50] + ([100 * (n - 10) // n] if n > 20 else [])]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "green", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_threads()
    keep_freed_memory()
    try:
        first_import_s = import_ringcap()
    except ImportError as exc:
        print(f"cannot import ringcap: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy
    import workloads

    print(f"env: cores {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
          f"BLAS/OpenMP threads {os.environ['OMP_NUM_THREADS']}, "
          f"python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}")
    for c in cache_sizes():
        print(f"env: L{c['level']} cache {c['size']} shared by cpus {c['shared_cpus']}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS)
    workload_id = names.index(args.workload)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workload.teardown()
        gc.collect()
        t = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t)
    imports = [first_import_s] if args.trace else import_samples(first_import_s)
    setup_s = statistics.median(imports) + statistics.median(setup_times)
    print("setup: imports " + ", ".join(f"{t:.4f}" for t in imports)
          + " s; space set-ups " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    for label, sizes in workload.working_set().items():
        print(f"working set (computed) {label}: "
              + ", ".join(f"{k} {v}" for k, v in sizes.items()))

    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(workload, args.seed, seconds, None, workload_id)
    reference = workloads.Pass(None)
    workload.check_references(reference)
    metrics, ring_times = end_to_end(passes, reference.ops, setup_s)
    all_passes = passes + [reference]

    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            workload.teardown()
            gc.collect()
            tracer.phase = "setup"
            workload.setup()
            tracer.phase = None
            traced = run_passes(workload, args.seed, seconds, tracer, workload_id)
        finally:
            tracer.phase = None
            tracer.uninstall()
        all_passes += traced
        metrics = spans.summarize(tracer.spans, len(traced))
        metrics["trace.overhead_s"] = (statistics.fmean(
            t.seconds - u.seconds for t, u in zip(traced, passes)), "s")
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        print(f"trace: {len(tracer.spans)} spans over {len(traced)} traced passes "
              f"written to {trace_path.relative_to(ROOT)}")

    ops = [op for led in all_passes for op in led.ops]
    failed = [op for op in ops if op.failures]
    print(f"operations attempted {len(ops)}, failed {len(failed)}, "
          f"failed_frac {len(failed) / len(ops):.6g} ratio")
    for op in failed[:10]:
        print(f"FAILED {op.name}: {'; '.join(op.failures)}")
    if not args.trace:
        print(f"run_s over {len(passes)} passes")
        for p, times in ring_times.items():
            print(f"ring times at p={p:g} over {len(times)} rings: "
                  + ", ".join(f"p{q} {v:.4g} s" for q, v in percentiles(times)))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
