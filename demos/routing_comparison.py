"""Admission-and-routing to parallel queues: index policy vs baselines.

Two asymmetric queues share one arrival stream; the index policy routes
each customer to the queue whose current fair rejection charge is lowest
(below the actual charge), and rejects otherwise.  The switching curve of
the two-queue policy is asymptotically linear in heavy traffic.
"""

import numpy as np

from pclindex.policies import QueueSpec, RoutingSystem, routing_index_table, switching_curve
from pclindex.simulate import SimConfig, simulate_all

sys = RoutingSystem(
    lam=2.2,
    queues=(QueueSpec(n=10, mu=1.0, h=1.0),    # slow, cheap
            QueueSpec(n=10, mu=1.6, h=1.8)),   # fast, expensive
    alpha=0.0,
    nu=8.0,
)

print("index tables (fair rejection charge by occupancy):")
for k in range(2):
    print(f"  queue {k}:", np.round(routing_index_table(sys, k, 6), 3))

config = SimConfig(max_events=30_000, replications=10, seed=42)
print(f"\nlong-run average cost, {config.replications} replications x "
      f"{config.max_events} events:")
# one lockstep for all three policies, on the same replication streams
for rep in simulate_all(sys, ["index", "shortest", "naive"], config):
    half = 1.96 * rep.se
    print(f"  {rep.policy:>15}: {rep.mean:8.4f} +- {half:.4f} (95% CI)")

# Heavy traffic: the routing boundary approaches slope ln(rho1)/ln(rho2).
heavy = RoutingSystem(4.0, (QueueSpec(None, 1.0, 1.0), QueueSpec(None, 2.0, 1.0)),
                      alpha=0.0)
curve = switching_curve(heavy, bound=120, fit_from=50)
print(f"\nswitching curve: empirical slope {curve.empirical_slope:.3f}, "
      f"limit {curve.limit_slope:.3f}")
print("boundary sample (j1 -> smallest j2 preferring queue 1):",
      {j: curve.boundary[j] for j in (0, 25, 50, 100)})
