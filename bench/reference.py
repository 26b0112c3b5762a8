"""Exact expected discounted costs for the simulation checks.

The simulated systems are finite continuous-time Markov chains once the
infinite routing buffers are truncated the way the simulator truncates
them.  A policy's expected discounted cost from the empty state, which
is what every simulated replication estimates, is V[0] where
(alpha I - Q) V = r and r is the cost rate including the charges and
subsidies lumped at events (their rate times their amount).  The
decision rules are re-implemented here from their documented definitions
over numpy arrays; only the index tables come from pclindex.  The chains
are built from the model documents, not from pclindex's model objects.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve


def discounted_value(n_states: int, alpha: float, src, dst, rate, cost) -> float:
    """V[0] of (alpha I - Q) V = cost for the chain with the given
    transitions (duplicates add up)."""
    src, dst, rate = (np.concatenate(x) for x in (src, dst, rate))
    out = np.bincount(src, weights=rate, minlength=n_states)
    diag = np.arange(n_states)
    rows = np.concatenate([src, diag])
    cols = np.concatenate([dst, diag])
    vals = np.concatenate([-rate, alpha + out])
    a = coo_matrix((vals, (rows, cols)), shape=(n_states, n_states)).tocsc()
    # natural order keeps the fill inside the band of the grid of states
    value = spsolve(a, np.asarray(cost, dtype=float), permc_spec="NATURAL")
    return float(value[0])


def _choose(scores: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """Per state, the lowest-numbered eligible option with the smallest
    score, or -1 when none is eligible.  ``scores`` is (options, states)."""
    masked = np.where(eligible, scores, np.inf)
    pick = np.argmin(masked, axis=0)
    return np.where(eligible.any(axis=0), pick, -1)


def routing_value(doc: dict, policy: str, tables, truncation: int) -> float:
    """Exact discounted cost of a routing policy ("index", "shortest" or
    "naive") on the truncated chain, from empty queues.  Service rates and
    costs are per-state arrays, as the benchmark generates them."""
    queues = doc["queues"]
    lam, nu = float(doc["lambda"]), float(doc.get("nu", math.inf))
    caps = [q["n"] if q["n"] is not None else truncation for q in queues]
    # mu[k][j] and h[k][j] for occupancy j = 0..cap+1, with mu[k][0] = 0
    mu = [np.concatenate(([0.0], q["mu"][:cap + 1])) for q, cap in zip(queues, caps)]
    h = [np.asarray(q["h"][:cap + 2], dtype=float) for q, cap in zip(queues, caps)]
    shape = tuple(c + 1 for c in caps)
    n_states = int(np.prod(shape))
    occ = np.unravel_index(np.arange(n_states), shape)
    room = np.array([occ[k] < caps[k] for k in range(len(caps))])
    below = np.array([np.minimum(occ[k], caps[k] - 1) for k in range(len(caps))])
    if policy == "index":
        scores = np.array([np.asarray(tables[k])[below[k]] for k in range(len(caps))])
        choice = _choose(scores, room & (scores < nu))
    elif policy == "shortest":
        choice = _choose(np.array(occ, dtype=float), room)
    elif policy == "naive":
        scores = np.array([h[k][below[k] + 1] / mu[k][below[k] + 1] for k in range(len(caps))])
        choice = _choose(scores, room & (scores < nu))
    else:
        raise ValueError(f"unknown routing policy {policy!r}")
    strides = [int(np.prod(shape[k + 1:])) for k in range(len(shape))]
    states = np.arange(n_states)
    src, dst, rate = [], [], []
    for k in range(len(caps)):
        routed = choice == k
        src.append(states[routed])
        dst.append(states[routed] + strides[k])
        rate.append(np.full(int(routed.sum()), lam))
        busy = occ[k] > 0
        src.append(states[busy])
        dst.append(states[busy] - strides[k])
        rate.append(mu[k][occ[k][busy]])
    cost = sum(h[k][occ[k]] for k in range(len(caps)))
    if math.isfinite(nu):
        cost = cost + np.where(choice < 0, nu * lam, 0.0)
    return discounted_value(n_states, float(doc["alpha"]), src, dst, rate, cost)


def mts_value(doc: dict, policy: str, tables) -> float:
    """Exact discounted cost of a make-to-stock policy ("index" or
    "least-stock") with scalar rates and finite stock caps, from empty
    stock."""
    products = doc["products"]
    nu = float(doc.get("nu", 0.0))
    caps = [p["n"] for p in products]
    shape = tuple(c + 1 for c in caps)
    n_states = int(np.prod(shape))
    occ = np.unravel_index(np.arange(n_states), shape)
    room = np.array([occ[k] < caps[k] for k in range(len(caps))])
    if policy == "index":
        below = [np.minimum(occ[k], caps[k] - 1) for k in range(len(caps))]
        scores = np.array([np.asarray(tables[k])[below[k]] for k in range(len(caps))])
        target = _choose(scores, room & (scores < nu))
    elif policy == "least-stock":
        target = _choose(np.array(occ, dtype=float), room)
    else:
        raise ValueError(f"unknown make-to-stock policy {policy!r}")
    strides = [int(np.prod(shape[k + 1:])) for k in range(len(shape))]
    states = np.arange(n_states)
    src, dst, rate = [], [], []
    cost = np.zeros(n_states)
    for k, p in enumerate(products):
        lam, mu = float(p["lambda"]), float(p["mu"])
        made = target == k
        src.append(states[made])
        dst.append(states[made] + strides[k])
        rate.append(np.full(int(made.sum()), mu))
        stocked = occ[k] > 0
        src.append(states[stocked])
        dst.append(states[stocked] - strides[k])
        rate.append(np.full(int(stocked.sum()), lam))
        # holding cost, lost-order penalty at zero stock, sales revenue otherwise
        cost += float(p["c"]) * occ[k] + np.where(
            occ[k] == 0, float(p["s"]) * lam, -float(p["r"]) * lam)
        cost -= np.where(made, nu * mu, 0.0)
    return discounted_value(n_states, float(doc["alpha"]), src, dst, rate, cost)
