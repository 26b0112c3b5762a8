"""Heuristic index policies for routing and make-to-stock scheduling.

Both problems decompose into single-queue admission-control projects, one
per queue or product, whose indices are computed by the recursions in
:mod:`pclindex.admission` (the make-to-stock case swaps the roles of the
arrival and service rates: producing an item is opening the entry gate of
the stock buffer).  The resulting policy engages the project whose
current state has the smallest index below the charge/subsidy level.  A
product's index is the critical charge per unit of production forgone
by idling; with a constant production rate that is the critical subsidy
per completed item, which the policy and the simulator pay.

Rate and cost parameters may be given as scalars (constant rate / linear
cost) or sequences indexed by the state, and read only by each system's
``levels(k, n)``, the one per-level rate table of buffer k.  Each system
has one index-table path: the admission recursion on the buffer's own
model, whole when the buffer is finite and truncated past the levels
read when it is infinite.
Every built-in policy is one :class:`Rule` in :data:`ROUTING_RULES` or
:data:`MTS_RULES`: a report label, a gate and score tables, which the
``*_decide`` functions and :func:`pclindex.simulate.simulate` both read
and apply through :func:`engage`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import admission
from .admission import ACModel

Action = int | None   # queue/product number, or None for reject/idle


def _entries(spec, stop: int, name: str, start: int = 0, linear: bool = False) -> np.ndarray:
    """Entries start..stop-1 of a parameter given as a scalar (the same in
    every state, times the state if ``linear``) or a sequence, which is
    sliced once and fails at the first state it lacks."""
    if isinstance(spec, (int, float)):
        scalar = float(spec)
        return scalar * np.arange(start, stop) if linear else np.full(stop - start, scalar)
    if max(start, len(spec)) < stop:
        raise ValueError(f"{name} sequence too short for state {max(start, len(spec))}")
    return np.array(spec[start:stop], dtype=float)


def _at(spec, j: int, name: str, linear: bool = False) -> float:
    """Entry j >= 0 of a parameter (:func:`_entries`)."""
    return float(_entries(spec, j + 1, name, j, linear)[0])


class _Spec:
    def __post_init__(self):
        """Refuse a NaN or infinite rate or cost (every field after the
        buffer size ``n``), scalar or sequence entry."""
        for field in fields(self)[1:]:
            if not np.all(np.isfinite(np.asarray(getattr(self, field.name), dtype=float))):
                raise ValueError(f"{field.name} has non-finite entries")


@dataclass(frozen=True)
class QueueSpec(_Spec):
    """One queue of a routing system.

    ``n`` is the buffer size (None = infinite).  ``mu`` is the service
    rate: a scalar means a constant rate, otherwise a sequence over
    occupancies 1..n.  ``h`` is the holding cost rate: a scalar h means
    the linear cost h*j, otherwise a sequence over 0..n.
    """

    n: int | None
    mu: object
    h: object

    def mu_at(self, j: int) -> float:
        return _at(self.mu, j - 1, "mu") if j >= 1 else 0.0

    def h_at(self, j: int) -> float:
        return _at(self.h, j, "h", linear=True)


class _Buffers:
    """Birth--death buffers whose rates come from ``levels(k, n)``."""

    def _check_alpha_nu(self):
        """A finite nonnegative discount rate and a charge that is not NaN
        (an infinite charge is legal)."""
        if not 0 <= self.alpha < math.inf:
            raise ValueError("discount rate must be finite and nonnegative")
        if math.isnan(self.nu):
            raise ValueError("charge must not be NaN")

    def admission_model(self, k: int, n_states: int) -> ACModel:
        """Buffer k as an admission-control project on 0..n_states."""
        birth, death, cost = self.levels(k, n_states)
        return ACModel(n_states, birth, death[1:], cost, self.alpha)


@dataclass(frozen=True)
class RoutingSystem(_Buffers):
    """Poisson arrivals at rate ``lam`` routed to parallel queues (or
    rejected at charge ``nu``); discount rate ``alpha`` (0 = average)."""

    lam: float
    queues: tuple[QueueSpec, ...]
    alpha: float = 0.0
    nu: float = math.inf

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("arrival rate must be finite and positive")
        self._check_alpha_nu()
        object.__setattr__(self, "queues", tuple(self.queues))

    def levels(self, k: int, n: int) -> tuple[list[float], list[float], list[float]]:
        """Queue k's birth, death and cost rates at levels 0..n: the
        arrival rate, the service rate (0 at level 0) and the holding cost,
        each one array expression (the values of ``mu_at`` and ``h_at``)."""
        q = self.queues[k]
        return ([float(self.lam)] * (n + 1), [0.0] + _entries(q.mu, n, "mu").tolist(),
                _entries(q.h, n + 1, "h", linear=True).tolist())


def routing_index(sys: RoutingSystem, k: int, j: int) -> float:
    """Fair rejection charge of queue k at occupancy j (an entry of
    :func:`routing_index_table`)."""
    return float(routing_index_table(sys, k, j + 1)[j])


def routing_index_table(sys: RoutingSystem, k: int, up_to: int) -> np.ndarray:
    """Indices of queue k for occupancies 0..up_to-1 in one pass.

    The admission recursion runs on the queue's own model: the whole
    buffer when it is finite, occupancies 0..up_to+1 when it is infinite
    (the recursion is forward, so that truncation is exact).  The
    constant-rate closed forms of :func:`closed_form_index` are reference
    formulas only.
    """
    return _index_table(sys, k, sys.queues[k].n, up_to)


def _index_table(sys, k: int, n: int | None, up_to: int) -> np.ndarray:
    """Indices 0..up_to-1 of buffer k's model of size n, or up_to+1 if None."""
    n = n if n is not None else up_to + 1
    if up_to > n:
        raise ValueError(f"index undefined at a full buffer (n = {n}, up_to = {up_to})")
    return admission.indices(sys.admission_model(k, n))[:up_to]


def engage(state: Sequence[int], scores: Sequence, caps: Sequence[float],
           gate: float) -> Action:
    """The decision rule of every built-in policy.

    Among the buffers below their cap, engage the one whose score at its
    current level, ``scores[k][state[k]]``, is smallest and below
    ``gate``; ties go to the lowest number.  None (reject or idle) when no
    buffer qualifies.
    """
    best, pick = gate, None
    for k, j in enumerate(state):
        if j < caps[k]:
            score = scores[k][j]
            if score < best:
                best, pick = score, k
    return pick


@dataclass(frozen=True)
class Rule:
    """One built-in policy: its report label, whether the charge (routing)
    or subsidy (make-to-stock) gates it, and ``scores(sys, lengths)``, the
    score table of each buffer k over levels 0..lengths[k]-1."""

    label: str
    gated: bool
    scores: Callable[[object, Sequence[int]], list]

    def gate(self, sys) -> float:
        """The system's charge for a gated rule; inf otherwise."""
        return sys.nu if self.gated else math.inf

    def decide(self, sys, specs, state: Sequence[int], tables=None,
               full: Sequence[int | None] | None = None) -> Action:
        """:func:`engage` at ``state``, one level in 0..cap per buffer, with
        caps ``full`` if given, else the buffer sizes (inf for an infinite
        buffer).  Without ``tables`` the scores are built up to each level."""
        caps = [math.inf if cap is None else cap
                for cap in (full if full is not None else [spec.n for spec in specs])]
        if not (len(state) == len(caps) == len(specs)
                and all(0 <= j <= cap for j, cap in zip(state, caps))):
            raise ValueError(f"state {list(state)} needs one level in 0..cap per buffer {caps}")
        if tables is None:
            tables = self.scores(sys, [j + 1 if j < cap else 0 for j, cap in zip(state, caps)])
        return engage(state, tables, caps, self.gate(sys))


def routing_decide(sys: RoutingSystem, state: Sequence[int],
                   tables: Sequence[np.ndarray] | None = None,
                   full: Sequence[int] | None = None) -> Action:
    """Route to the nonfull queue with the smallest index below the charge.

    Ties go to the lowest queue number; returns None (reject) when no
    nonfull queue has an index below ``sys.nu``.  ``tables``/``full`` allow
    a simulator to pass precomputed index tables and truncation caps.
    """
    return ROUTING_RULES["index"].decide(sys, sys.queues, state, tables, full)


def shortest_queue_decide(sys: RoutingSystem, state: Sequence[int],
                          full: Sequence[int] | None = None) -> Action:
    """Baseline: route to the shortest nonfull queue, never reject early."""
    return ROUTING_RULES["shortest"].decide(sys, sys.queues, state, None, full)


def naive_decide(sys: RoutingSystem, state: Sequence[int],
                 full: Sequence[int] | None = None) -> Action:
    """Baseline: route by the one-step rate h_k(j_k + 1) / mu_k(j_k + 1),
    with the same charge gate as the index policy."""
    return ROUTING_RULES["naive"].decide(sys, sys.queues, state, None, full)


# ---------------------------------------------------------------------------
# Make-to-stock scheduling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductSpec(_Spec):
    """One product of a make-to-stock facility.

    ``lam`` is the order rate (scalar = constant, else per stock level
    0..n), ``mu`` the production rate over stock levels 0..n-1 (n entries
    for a finite product), ``c`` the stock holding cost rate (scalar c =
    linear c*j), ``s`` the cost per lost order and ``r`` the selling price
    (scalar = constant).  A full stock's project model keeps the rate
    mu_(n-1) (:meth:`MTSSystem.levels`).
    """

    n: int | None
    lam: object
    mu: object
    c: object
    s: float
    r: object

    def lam_at(self, j: int) -> float:
        return _at(self.lam, j, "lam")

    def mu_at(self, j: int) -> float:
        return _at(self.mu, j, "mu")

    def net_cost(self, j: int) -> float:
        """Holding plus expected stockout minus sales revenue, per unit time."""
        if j == 0:
            return _at(self.c, 0, "c", linear=True) + self.s * self.lam_at(0)
        return _at(self.c, j, "c", linear=True) - _at(self.r, j, "r") * self.lam_at(j)


@dataclass(frozen=True)
class MTSSystem(_Buffers):
    """Make-to-stock facility: one product may be produced at a time,
    subsidized at rate ``nu`` per completed item."""

    products: tuple[ProductSpec, ...]
    alpha: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        self._check_alpha_nu()
        object.__setattr__(self, "products", tuple(self.products))

    def levels(self, k: int, n: int) -> tuple[list[float], list[float], list[float]]:
        """Product k's birth, death and cost rates at stock levels 0..n,
        with the roles of arrivals and services swapped: births are
        production completions, deaths are orders (lost at level 0), costs
        are the net cost rates.  The cap keeps the production rate
        mu_(n-1), which keeps its activity weight positive.  Each table is
        one array expression (the values of ``mu_at``, ``lam_at``, ``net_cost``)."""
        p = self.products[k]
        rates = _entries(p.mu, n, "mu").tolist()
        orders = _entries(p.lam, n + 1, "lam")
        # net_cost reads c_j, then r_j: r is read first, up to where a short c ends
        price = _entries(p.r, n + 1 if isinstance(p.c, (int, float)) else min(n + 1, len(p.c)),
                         "r", start=1)
        cost = _entries(p.c, n + 1, "c", linear=True)
        cost[0] += p.s * orders[0]
        cost[1:] -= price * orders[1:]
        return rates + rates[-1:], orders.tolist(), cost.tolist()


def mts_index(sys: MTSSystem, k: int, j: int) -> float:
    """Critical production subsidy for product k at stock level j (an
    entry of :func:`mts_index_table`)."""
    return float(mts_index_table(sys, k, j + 1)[j])


def mts_linear_index(c: float, mu: float, rho: float, s: float, r: float,
                     j: int) -> float:
    """Closed-form production index: constant rates, linear stock cost,
    constant price, average criterion, traffic ratio != 1.  Evaluated as
    the finite sum (c/mu) sum_{l=0..j} (j+1-l) rho^-(l+1) - r - s, whose
    terms are all positive, so it stays exact near rho = 1."""
    if abs(rho - 1.0) < 1e-14:
        raise ValueError("closed form needs traffic ratio != 1")
    l = np.arange(j + 1)
    return (c / mu) * float(np.sum((j + 1 - l) * rho ** -(l + 1.0))) - r - s


def mts_quadratic_index(c: float, mu: float, rho: float, s: float, r: float,
                        j: int) -> float:
    """Closed-form production index: quadratic stock cost variant, as the
    finite sum (c/mu) sum_{l=0..j} ((j+1)^2 - l^2) rho^-(l+1) - r - s."""
    if abs(rho - 1.0) < 1e-14:
        raise ValueError("closed form needs traffic ratio != 1")
    l = np.arange(j + 1)
    return (c / mu) * float(np.sum(((j + 1) ** 2 - l ** 2) * rho ** -(l + 1.0))) - r - s


def mts_index_table(sys: MTSSystem, k: int, up_to: int) -> np.ndarray:
    """Indices of product k for stock levels 0..up_to-1 in one pass.

    As :func:`routing_index_table`, on the product's own model
    (:meth:`MTSSystem.admission_model`) of size n, or up_to+1 when the
    stock is infinite.  Entry j is the critical charge per unit of
    production forgone by idling at level j: the critical subsidy per
    completed item at a constant production rate, not otherwise.  The
    closed forms of :func:`mts_linear_index` and
    :func:`mts_quadratic_index` are reference formulas only.
    """
    return _index_table(sys, k, sys.products[k].n, up_to)


def mts_decide(sys: MTSSystem, state: Sequence[int],
               tables: Sequence[np.ndarray] | None = None,
               full: Sequence[int] | None = None) -> Action:
    """Produce the product with the smallest index below the subsidy
    ``sys.nu``, among those with nonfull stock; idle otherwise.  Ties go
    to the lowest product number."""
    return MTS_RULES["index"].decide(sys, sys.products, state, tables, full)


def least_stock_decide(sys: MTSSystem, state: Sequence[int],
                       full: Sequence[int] | None = None) -> Action:
    """Baseline: always produce the product with the least stock."""
    return MTS_RULES["least-stock"].decide(sys, sys.products, state, None, full)


# ---------------------------------------------------------------------------
# The built-in rules
# ---------------------------------------------------------------------------

def _levels(sys, lengths: Sequence[int]) -> list:
    """The level itself: shortest queue, least stock."""
    return [range(length) for length in lengths]


def _index_scores(table: Callable[[object, int, int], np.ndarray]):
    return lambda sys, lengths: [table(sys, k, length) for k, length in enumerate(lengths)]


def _one_step_rates(sys: RoutingSystem, lengths: Sequence[int]) -> list:
    """h_k(j + 1) / mu_k(j + 1), the naive routing score."""
    tables = (sys.levels(k, length) for k, length in enumerate(lengths))
    return [[cost[j] / death[j] for j in range(1, length + 1)]
            for length, (_, death, cost) in zip(lengths, tables)]


ROUTING_RULES = {
    "index": Rule("index", True, _index_scores(routing_index_table)),
    "shortest": Rule("shortest-queue", False, _levels),
    "naive": Rule("naive-rate", True, _one_step_rates),
}
MTS_RULES = {
    "index": Rule("index", True, _index_scores(mts_index_table)),
    "least-stock": Rule("least-stock", False, _levels),
}


# ---------------------------------------------------------------------------
# Switching curve of the two-queue routing index policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchingCurve:
    """Routing boundary of a two-queue system: ``boundary[j1]`` is the
    smallest j2 at which the decision flips back to queue 1.  The slope
    fields are populated only in heavy traffic (both ratios above one),
    where the boundary is asymptotically linear."""

    boundary: tuple[int, ...]
    empirical_slope: float | None
    limit_slope: float | None
    heavy_traffic: bool


def switching_curve(sys: RoutingSystem, bound: int, fit_from: int = 50) -> SwitchingCurve:
    """Trace the two-queue routing boundary on a state grid.

    For each occupancy j1 of queue 1 the boundary is the smallest j2 with
    index_2(j2) >= index_1(j1) (queue 1 then wins the tie-break).  In
    heavy traffic the empirical slope is fitted on j1 >= fit_from and
    reported next to its theoretical limit log(rho1)/log(rho2).
    """
    if len(sys.queues) != 2:
        raise ValueError("switching curve is defined for exactly two queues")
    q1, q2 = sys.queues
    heavy = (isinstance(q1.mu, (int, float)) and isinstance(q2.mu, (int, float))
             and sys.lam / float(q1.mu) > 1.0 and sys.lam / float(q2.mu) > 1.0)
    t1 = routing_index_table(sys, 0, bound + 1)
    # queue 2's indices grow geometrically; extend until they top queue 1's range
    cap2 = bound + 2
    t2 = routing_index_table(sys, 1, cap2)
    while t2[-1] < t1[bound] and cap2 < 100 * (bound + 2):
        cap2 *= 2
        t2 = routing_index_table(sys, 1, cap2)
    boundary = np.searchsorted(t2, t1[:bound + 1], side="left").tolist()
    if not heavy:
        return SwitchingCurve(tuple(boundary), None, None, False)
    xs = np.arange(fit_from, bound + 1, dtype=float)
    ys = np.array(boundary[fit_from:], dtype=float)
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else None
    limit = math.log(sys.lam / float(q1.mu)) / math.log(sys.lam / float(q2.mu))
    return SwitchingCurve(tuple(boundary), slope, limit, True)
