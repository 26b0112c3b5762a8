"""Allocation indices for admission control of a birth--death queue.

Walks through the three routes to the same numbers: the closed pivot
recursion on the rates, the adaptive-greedy run on the uniformized
restless-bandit model, and the dynamic-programming oracle's critical
charges.  Ends with the piecewise-linear value function the indices
induce.
"""

import numpy as np

from pclindex import admission, bandit, dp
from pclindex.setsystem import threshold_family

# A 6-slot buffer with state-dependent service speedup and convex costs.
n = 6
lam = np.full(n + 1, 1.0)
mu = np.array([1.2, 1.35, 1.45, 1.5, 1.52, 1.53])
h = np.array([0.0, 1.0, 2.3, 3.9, 5.8, 8.0, 10.5])
model = admission.ACModel(n, lam, mu, h, alpha=0.1)

print("regularity check:", admission.validate_assumptions(model))

nu = admission.indices(model)
print("\nfair rejection charges by queue length (pivot recursion):")
for j, v in enumerate(nu):
    print(f"  occupancy {j}: {v:.6f}")

# Same numbers from the general restless-bandit machinery.
rb = admission.uniformize(model)
rep = bandit.pcl_index(rb, threshold_family(n))
print("\ngreedy route indexable:", rep.indexable)
print("max |recursion - greedy|:",
      max(abs(rep.nu_by_state[j] - nu[j]) for j in range(n)))

# And from the DP oracle, one bisection per state.
charges = [dp.fair_charge(rb, j) for j in range(n)]
print("max |recursion - DP bisection|:",
      max(abs(c - v) for c, v in zip(charges, nu)))

# The optimal cost as a function of the rejection charge is piecewise
# linear; its breakpoints are exactly the indices.
segs = bandit.value_breakpoints(rb, rep, i=0)
print("\nvalue-function breakpoints:", np.round(segs.breakpoints, 6))
grid = np.linspace(nu[0] - 0.5, nu[-1] + 0.5, 5)
print("value at sample charges (segments vs DP):")
for g in grid:
    print(f"  nu = {g:7.3f}: {segs.evaluate(float(g)):.6f}"
          f"  vs  {dp.solve(rb, float(g)).v[0]:.6f}")
