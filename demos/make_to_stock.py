"""Scheduling a multiclass make-to-stock facility with lost sales.

Producing an item is opening the entry gate of that product's stock
buffer, so each product is an admission-control project with the roles of
arrival and service rates swapped.  The index is the critical production
subsidy; the policy makes the product with the smallest index below the
running subsidy and idles when none qualifies.
"""

import numpy as np

from pclindex.policies import (MTSSystem, ProductSpec, mts_index_table,
                               mts_linear_index)
from pclindex.simulate import SimConfig, simulate_all

products = (
    ProductSpec(n=8, lam=0.9, mu=1.5, c=1.0, s=2.0, r=1.2),   # steady seller
    ProductSpec(n=8, lam=0.5, mu=1.1, c=0.6, s=4.0, r=2.0),   # pricey, rare
)
sys = MTSSystem(products, alpha=0.0, nu=0.0)

print("critical production subsidies by stock level:")
for k, p in enumerate(products):
    table = mts_index_table(sys, k, p.n)
    print(f"  product {k}:", np.round(table, 3))
    closed = [mts_linear_index(float(p.c), float(p.mu),
                               float(p.lam) / float(p.mu), p.s, float(p.r), j)
              for j in range(p.n)]
    print(f"   (closed form agrees to {max(abs(a - b) for a, b in zip(table, closed)):.2e})")

print("\nnegative index = producing is worth it even unsubsidized;")
print("the zero crossing is the product's base-stock level")

config = SimConfig(max_events=30_000, replications=10, seed=7)
for rep in simulate_all(sys, ["index", "least-stock"], config):
    half = 1.96 * rep.se
    print(f"  {rep.policy:>12}: net cost rate {rep.mean:8.4f} +- {half:.4f}")
