"""Where may the corridor sit without draining the buffer?

Scans the boundary magnitude k and reports where the collective account's
expected transfer balance is nonpositive.  With an asymmetric corridor the
admissible region can be disconnected: profitable near 0, loss-making in a
band around the stationary point, profitable again beyond it.
"""

import numpy as np

from corridor_pension import (
    CorridorPolicy,
    GbmParams,
    admissible_min_k,
    mp_stationary_points,
    profitability_lhs,
)

params = GbmParams(mu=0.015, sigma=0.03)
policy = CorridorPolicy(p=2.0, give_frac=0.25, help_frac=0.5)

print(f"market: mu={params.mu}, sigma={params.sigma}; corridor [-k, {policy.p}k]")
print(f"give {policy.give_frac} of the excess, claim {policy.help_frac} of the shortfall")
print()

ks = np.linspace(0.0, 0.3, 13)
print(f"{'k':>6} {'lhs':>12}  admissible")
for k in ks:
    lhs = profitability_lhs(params, policy, float(k))
    print(f"{k:6.3f} {lhs:12.3e}  {'yes' if lhs <= 1e-12 else 'NO'}")

print()
k_min = admissible_min_k(params, policy)
print(f"smallest admissible boundary: {k_min}")

for k, kind in mp_stationary_points(params, policy):
    lhs = profitability_lhs(params, policy, k)
    print(
        f"stationary {kind} of the transfer-only objective at k={k:.5f} "
        f"(upper boundary {policy.p * k:.5f}), where lhs={lhs:.3e}"
    )
print()
print("the unconstrained sweet spot of the transfer-only objective sits inside")
print("the loss-making band, so the admissibility constraint is what binds")
