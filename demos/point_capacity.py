"""Does a single point carry capacity?  Depends on the dimension.

Shrink the inner radius of the ring r < |x| < 1 and watch the harmonic
capacity.  On the line (p = 2 > Q = 1) the values settle at a positive
limit — points are "visible" to the Dirichlet energy.  In the plane
(p = Q) they slide to zero like 1/log(1/r): a point is invisible, which
is the discrete shadow of the classical polarity dichotomy at p = Q.
"""

import numpy as np

from ringcap import build_euclidean_grid
from ringcap.solver import singleton_capacity_limit

radii = [2.0 ** -k for k in range(1, 6)]
labels = ", ".join(f"1/{2 ** k}" for k in range(1, 6))
print(f"inner radii: {labels}; outer radius 1; p = 2")
print()

for n, h in ((1, 0.005), (2, 0.005)):
    sp = build_euclidean_grid(n, 1.05, h)
    c = sp.nearest_node(np.zeros(n))
    rep = singleton_capacity_limit(sp, c, 2.0, 1.0, radii, tol=1e-8)
    caps = "  ".join(f"{v:7.4f}" for v in rep.capacities)
    print(f"n = {n}:  {caps}")
    print(f"        tail change {rep.last_relative_change:.2%}, "
          f"limit estimate {rep.limit_estimate:.4f}"
          + ("  (positive: the point is charged)" if n == 1
             else "  (still draining toward zero)"))
print()
print("The 1-d limit is the series value 2/(1 - r) -> 2; the 2-d decay")
print("matches the critical estimate cap ~ 2*pi / log(1/r).")
