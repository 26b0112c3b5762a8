"""Optimal control under an average-activity constraint.

Under the long-run average criterion the minimal cost achievable at a
prescribed activity rate is piecewise linear in the target, randomizing
between two adjacent chain policies; each segment's sensitivity is the
index of the state being randomized.  The achieved-return curve is
concave: equal increments of allowed activity buy less and less.
"""

import numpy as np

from pclindex import admission, bandit
from pclindex.setsystem import threshold_family

n = 5
model = admission.ACModel(n, np.full(n + 1, 1.0), np.full(n, 1.6),
                          np.array([0.0, 1.0, 2.2, 3.6, 5.2, 7.0]), alpha=0.0)
rb = admission.uniformize(model)
fam = threshold_family(n)

rep = bandit.average_pcl_index(rb, fam)
print("average-criterion indices:", np.round([rep.nu_by_state[j] for j in range(n)], 4))

chain = list(rep.chain_states) + [frozenset()]
b_bars = [bandit.average_limits(rb, s).b_bar for s in chain]
v_bars = [bandit.average_limits(rb, s).v_bar for s in chain]
print("\nchain policies (rejection rate, holding cost rate):")
for s, b, v in zip(chain, b_bars, v_bars):
    print(f"  shut gate on {sorted(s) or '{}'}: ({b:.4f}, {v:.4f})")

print("\ntrading rejections for holding cost:")
for t in np.linspace(b_bars[-1] + 1e-6, b_bars[0] - 1e-6, 8):
    pol = bandit.constrained_policy(rb, rep, float(t))
    mix = ("deterministic" if pol.deterministic
           else f"randomize state {pol.randomized_state} at p={pol.p_active:.3f}")
    rate = "-" if pol.marginal_rate is None else f"{pol.marginal_rate:.4f}"
    print(f"  target rejection rate {t:.4f}: cost {pol.value:.4f}  [{mix}; "
          f"marginal value of one more rejection: {rate}]")
