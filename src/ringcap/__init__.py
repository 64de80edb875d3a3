"""Variational p-capacity of rings on discretized metric measure spaces.

The package assembles one pipeline:

``spaces``     build discrete metric measure spaces (grids, gauge lattice,
               cone, glued balls), verify metric axioms, and define the
               input rules that every layer checks;
``dimension``  estimate doubling constants and pointwise dimensions from
               ball masses;
``bounds``     closed-form lower/upper capacity bounds for rings, split by
               the regime of the exponent against the dimension;
``profiles``   radial test potentials and their discrete p-energies;
``solver``     convex minimization of the discrete p-energy under condenser
               constraints (the capacity itself);
``green``      singular functions built from capacitary potentials;
``cli``        deterministic experiment runner producing CSV/JSON artifacts.
"""

from .spaces import (
    DiscreteSpace,
    build_double_cone,
    build_euclidean_grid,
    build_glued_balls,
    build_heisenberg_grid,
    koranyi_distance,
    load_space,
    save_space,
    verify_metric,
)
from .dimension import (
    DimensionReport,
    ahlfors_regularity,
    analyze_dimension,
    check_volume_bounds,
    doubling_constant,
    fit_power_law,
    local_dimension,
    pointwise_dimension,
)
from .bounds import (
    RegimeEstimate,
    estimate_ring,
    lower_bound,
    regime,
    riesz_potential,
    upper_bound,
)
from .profiles import (
    PotentialField,
    RadialProfile,
    dyadic_shell_energy,
    field_from_values,
    log_profile,
    p_energy,
    power_profile,
    radialize,
)
from .solver import (
    CapacityResult,
    Condenser,
    monotonicity_suite,
    relative_capacity,
    ring_condenser,
    singleton_capacity_limit,
    solve_condenser,
    verify_sandwich,
)
from .green import (
    SingularFunction,
    blowup_trend,
    build_green,
    check_level_sets,
    maximum_principle_check,
)

__version__ = "0.1.0"
