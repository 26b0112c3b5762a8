"""Why the classic Whittle index can disagree with threshold policies.

With state-dependent arrival rates, charging passivity per unit TIME
(unit activity weights) can rank a shorter queue above a longer one, so
the induced policy is not a threshold policy.  Charging per REJECTION
(activity weights proportional to the arrival rate) restores monotone
indices.  The canned instance reproduces exact rational index values.
"""

import numpy as np

from pclindex import admission, bandit, dp
from pclindex.setsystem import powerset_family, threshold_family

model, expected = admission.whittle_counterexample()
print("buffer size:", model.n, " arrival rates:", model.lam,
      " service rate:", model.mu[0], " discount rate:", model.alpha)

whittle_rb = admission.whittle_variant(model)
path = dp.charge_path(whittle_rb)
print("\nWhittle indices (unit activity weights, per-time charge):")
for j in sorted(expected):
    got = dp.fair_charge(path, j)
    print(f"  state {j}: {got:.10f}   (exact {expected[j]:.10f})")

print("\nranking decreases with the queue length -> shutting the gate is "
      "preferred at SHORTER queues: inconsistent with threshold policies")

sweep = dp.nu_sweep(path, [-0.1, 0.25, 0.53, 0.7], family=threshold_family(3))
print("optimal rejection sets along the charge axis:",
      [sorted(s) for s in sweep.active_sets])
print("feasible (suffix) rejection sets?", sweep.in_family)

# The powerset greedy run reproduces the same values independently.
rep = bandit.pcl_index(whittle_rb, powerset_family(3))
print("\ngreedy-on-powerset route:", {j: round(v, 10)
                                      for j, v in rep.nu_by_state.items()})

# Rejection-charge weights: the extended index is monotone and the model
# is indexable relative to threshold policies.
rep_ext = bandit.pcl_index(admission.uniformize(model), threshold_family(model.n))
print("\nextended (per-rejection) indices:",
      [round(rep_ext.nu_by_state[j], 6) for j in range(model.n)])
print("indexable relative to threshold policies:", rep_ext.indexable)
