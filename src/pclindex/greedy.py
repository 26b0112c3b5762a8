"""Adaptive-greedy index algorithms over extended polymatroids.

Two equivalent n-step algorithms walk down a chain of feasible sets,
peeling off at each step the inner-boundary element with the smallest
marginal cost rate.  The first accumulates dual increments directly; the
second propagates the rate table through a one-step update.  Both return
the generated priority order, the index vector and an admissibility flag
(the index sequence came out nondecreasing), plus the chain record:
arrays of marginal workloads and rates, one row per chain set, and the
dual increments.  The certificates below are array
expressions over that record.

Workload coefficients are supplied by a :class:`WorkloadOracle`, queried
lazily, by member id, one row per chain set the run actually visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DegeneracyError, StructureError
from .setsystem import SetSystem, suffix_sets

# Slack used by the end-of-run admissibility test; floating-point chains
# of nearly-tied indices must not be flagged inadmissible.
ADMISSIBLE_SLACK = 1e-9
DUAL_TOL = 1e-10     # relative error allowed in the dual reconstruction of c
MINMAX_TOL = 1e-9    # residual allowed in the min/max rate characterizations


class WorkloadOracle:
    """Evaluator of marginal workloads w(S, .) and optional right-hand sides b(S).

    ``row(S)`` returns w(S, j) for every j in sorted(S) in one call; that
    row is the only form a workload is read in.  Positivity of every
    queried row is checked at query time.  The ``monotone`` flag declares
    that w(S, j) is nondecreasing in S (needed by the max-form index
    characterization); it is trusted, not verified.
    """

    def __init__(self, row: Callable[[frozenset], np.ndarray | Sequence[float]],
                 b: Callable[[frozenset], float] | None = None,
                 monotone: bool = False):
        self._row = row
        self._b = b
        self.monotone = monotone

    def workload(self, s: frozenset) -> np.ndarray:
        """The row of w(S, j) over j in sorted(S), as an array, checked positive."""
        vals = np.asarray(self._row(s), dtype=float)
        if not (vals > 0.0).all():
            bad = np.flatnonzero(~(vals > 0.0))
            elems = sorted(s)
            raise ValueError(f"workload w({elems}, {elems[bad[0]]}) = {vals[bad[0]]} "
                             "is not positive")
        return vals

    def member_row(self, sys: SetSystem, i: int) -> np.ndarray:
        """The row of member i of ``sys``: :meth:`workload` of its frozenset."""
        return self.workload(sys.member(i))

    def rhs(self, s: frozenset) -> float:
        if self._b is None:
            raise ValueError("oracle has no right-hand-side evaluator")
        return float(self._b(s))

    @classmethod
    def from_tables(cls, w: Mapping[frozenset, Mapping[int, float]],
                    b: Mapping[frozenset, float] | None = None,
                    monotone: bool = False) -> "WorkloadOracle":
        w = {frozenset(s): dict(row) for s, row in w.items()}
        b = None if b is None else {frozenset(s): float(v) for s, v in b.items()}
        return cls(lambda s: [w[s][j] for j in sorted(s)],
                   None if b is None else (lambda s: b[s]), monotone)


@dataclass(frozen=True)
class AGOutput:
    """Result of an adaptive-greedy run; ``pi`` is the only stored form of
    its chain S_0 > S_1 > ..., with S_k = J minus {pi_0, ..., pi_{k-1}}.

    ``workloads`` and ``rate_table`` are read-only arrays of shape (n, n):
    row k holds w(S_k, j) and the marginal cost rate of every j against
    S_k = ``chain[k]``, NaN outside S_k.  ``dual[k]`` is the increment
    y(S_k) = nu_{pi_k} - nu_{pi_{k-1}}.
    """

    admissible: bool
    pi: tuple[int, ...]
    nu: np.ndarray
    dual: np.ndarray
    rate_table: np.ndarray
    workloads: np.ndarray
    cost: np.ndarray

    @property
    def n(self) -> int:
        return len(self.cost)

    @property
    def chain(self) -> tuple[frozenset, ...]:
        """The sets S_k, as frozensets built anew on each access: bind them once."""
        return suffix_sets(self.pi)

    @property
    def reduced_costs(self) -> np.ndarray:
        """The marginal costs rate * w(S_k, j), laid out as ``rate_table``;
        a read-only array built anew on each access."""
        out = self.rate_table * self.workloads
        out.flags.writeable = False
        return out


def _walk(c, oracle: WorkloadOracle, sys: SetSystem, tie_break: str,
          dual_increments: bool) -> AGOutput:
    """The chain walk shared by both algorithms, which differ only in the
    rate update.  Step k holds the member id i of the chain set S_k, makes
    one row query for S_k and one inner-neighbour query for i, then peels
    off the boundary element with the smallest rate.  Arrays run over the
    whole ground set, NaN outside S_k.
    """
    if tie_break not in ("low", "high"):
        raise ValueError(f"tie_break must be 'low' or 'high', got {tie_break!r}")
    c = np.asarray(c, dtype=float)
    if c.shape != (sys.n,):
        raise ValueError(f"cost vector must have shape ({sys.n},), got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost vector must be finite")
    if sys.ground not in sys:
        raise StructureError("ground set J is not a member of the family")
    n = sys.n
    i = sys.member_id(sys.ground)
    sign = 1 if tie_break == "low" else -1      # ties go to the lowest (highest) element
    alive = np.ones(n, dtype=bool)
    tables = np.full((2, n, n), np.nan)     # rate rows inherit the NaN of w
    wtab, rtab = tables
    acc = np.zeros(n)           # ag1: sum of y_l w(S_l, .) over the steps so far
    pivot, pivot_rate = None, 0.0
    pi: list[int] = []
    nu_seq: list[float] = []
    for k in range(n):
        wk = wtab[k]
        wk[alive] = oracle.member_row(sys, i)
        if dual_increments:
            if k:
                acc = acc + (bracket[pivot] / w_prev[pivot]) * w_prev
            bracket = c - acc
            rate = bracket / wk + pivot_rate
        elif k == 0:
            rate = c / wk
        else:
            rate = rate + (w_prev / wk - 1.0) * (rate - pivot_rate)
        rtab[k] = rate
        inner = sys.neighbours(i, -1)
        if not inner:
            raise StructureError("empty inner boundary mid-run; system is not accessible")
        pivot, i = min(inner, key=lambda p: (rate[p[0]], sign * p[0]))
        pivot_rate = float(rate[pivot])
        pi.append(pivot)
        nu_seq.append(pivot_rate)
        alive[pivot] = False
        w_prev = wk
    nu = np.empty(n)
    nu[pi] = nu_seq
    admissible = all(
        nu_seq[k] >= nu_seq[k - 1] - ADMISSIBLE_SLACK * max(1.0, abs(nu_seq[k]))
        for k in range(1, n))
    tables.flags.writeable = False
    return AGOutput(
        admissible=admissible, pi=tuple(pi), nu=nu, dual=np.diff(nu_seq, prepend=0.0),
        rate_table=tables[1], workloads=tables[0], cost=c)


def ag1(c, oracle: WorkloadOracle, sys: SetSystem, tie_break: str = "low") -> AGOutput:
    """Dual-increment form of the adaptive-greedy algorithm.

    Step k selects, over the inner boundary of the current set, the element
    minimizing the residual cost per unit workload; the index accumulates
    the partial sums of the selected dual increments.  Ties go to the
    lowest element (``tie_break="high"`` flips this, for tests).
    """
    return _walk(c, oracle, sys, tie_break, dual_increments=True)


def ag2(c, oracle: WorkloadOracle, sys: SetSystem, tie_break: str = "low") -> AGOutput:
    """Rate-recursion form of the adaptive-greedy algorithm.

    Equivalent to :func:`ag1` under the same tie-breaking rule, but the
    marginal cost rates are propagated by the one-step update
    rate'(j) = rate(j) + (w_old(j)/w_new(j) - 1) (rate(j) - rate(pivot)),
    which is the form that admits closed-form analysis in applications.
    """
    return _walk(c, oracle, sys, tie_break, dual_increments=False)


def primal_vertex(pi: Sequence[int], oracle: WorkloadOracle) -> np.ndarray:
    """Solve the triangular chain system for the vertex attached to a string.

    Equation k reads sum_{l >= k} w(S_k, pi_l) x_{pi_l} = b(S_k) with
    S_k the k-th suffix set; back-substitution from the innermost set.
    The residual of every equation is checked to 1e-10 (relative).
    """
    pi = list(pi)
    n = len(pi)
    if sorted(pi) != list(range(n)):
        raise ValueError(f"{tuple(pi)} is not a permutation of 0..{n - 1}")
    chain = suffix_sets(pi)
    table = np.zeros((n, n))            # row k: w(S_k, .), zero outside S_k
    for k, s in enumerate(chain):
        table[k, sorted(s)] = oracle.workload(s)
    upper = table[:, pi]                # columns in chain order: upper triangular
    b = np.array([oracle.rhs(s) for s in chain])
    xs = np.zeros(n)                    # x along pi
    for k in range(n - 1, -1, -1):
        xs[k] = (b[k] - upper[k, k + 1:] @ xs[k + 1:]) / upper[k, k]
    lhs = upper @ xs
    bad = np.abs(lhs - b) > 1e-10 * np.maximum(1.0, np.maximum(np.abs(b), np.abs(lhs)))
    if bad.any():
        k = int(np.argmax(bad))
        raise DegeneracyError(f"chain equation {k + 1} residual {lhs[k] - b[k]:g} too large")
    return xs[np.argsort(pi)]


def dual_solution(out: AGOutput) -> dict[frozenset, float]:
    """Dual vector supported on the chain: y(S_1) = nu_1, y(S_k) = nu_k - nu_{k-1}.

    Reconstructs each input cost c_{pi_k} from the chain workloads as a
    consistency check, to ``DUAL_TOL`` relative, before returning.
    """
    pi = list(out.pi)
    # c_{pi_k} = sum_{l <= k} y(S_l) w(S_l, pi_k); w(S_l, pi_k) is NaN for l > k
    recon = out.dual @ np.nan_to_num(out.workloads[:, pi], nan=0.0)
    cost = out.cost[pi]
    bad = np.abs(recon - cost) > DUAL_TOL * np.maximum(1.0, np.abs(cost))
    if bad.any():
        k = int(np.argmax(bad))
        raise DegeneracyError(
            f"dual reconstruction of c[{pi[k]}] off by {recon[k] - cost[k]:g}")
    return dict(zip(out.chain, out.dual.tolist()))


def lp_value(out: AGOutput, oracle: WorkloadOracle) -> float:
    """Optimal value nu_1 b(S_1) + sum_k (nu_k - nu_{k-1}) b(S_k) of the chain LP."""
    return float(out.dual @ np.array([oracle.rhs(s) for s in out.chain]))


def objective_representation_check(out: AGOutput, x) -> float:
    """Residual of the index-based objective representation at an arbitrary x.

    |c.x - (nu_1 W_1(x) + sum_k (nu_k - nu_{k-1}) W_k(x))| where c is the
    cost the walk ran on and W_k(x) is the S_k-workload of x, both read from
    the walk's record.  Zero (to rounding) for every x, by construction of
    the dual increments.
    """
    x = np.asarray(x, dtype=float)
    chain_workloads = np.nan_to_num(out.workloads, nan=0.0) @ x
    return abs(float(out.cost @ x) - float(out.dual @ chain_workloads))


@dataclass(frozen=True)
class MinMaxReport:
    min_form_ok: bool
    max_form_ok: bool | None
    worst_min_residual: float
    worst_max_residual: float | None


def local_minmax_check(out: AGOutput, monotone: bool = False) -> MinMaxReport:
    """Verify the two marginal-cost-rate characterizations of the indices.

    Min form: nu_{pi_k} attains the minimum rate over the *whole* chain set
    S_k, not just its inner boundary.  Max form (only meaningful under
    nondecreasing workloads): nu_j attains the maximum of the rates of j
    over the chain sets containing j.
    """
    pi = list(out.pi)
    nu, scale = out.nu[pi], max(1.0, float(np.max(np.abs(out.nu))))
    worst_min = max(0.0, float(np.max(nu - np.nanmin(out.rate_table, axis=1))))
    min_ok = worst_min <= MINMAX_TOL * scale
    if not monotone:
        return MinMaxReport(min_ok, None, worst_min, None)
    # column k holds the rates of pi_k against S_0..S_k, NaN further down
    best = np.nanmax(out.rate_table[:, pi], axis=0)
    worst_max = max(0.0, float(np.max(np.abs(best - nu))))
    max_ok = worst_max <= MINMAX_TOL * scale
    return MinMaxReport(min_ok, max_ok, worst_min, worst_max)


def second_order_workload_recursion(sys: SetSystem, oracle: WorkloadOracle,
                                    s, i1: int, i2: int, j: int) -> float:
    """Workload after a double removal, from the single-removal workloads.

    Requires i1 and i2 to be removable in either order (both orders stay in
    the family) and relies on symmetric marginal costs plus nondecreasing
    workloads; returns w(S \\ {i1, i2}, j) without ever evaluating the
    doubly-reduced set directly.  Reads the rows of S, S \\ {i1} and
    S \\ {i2}, each checked positive as a whole.
    """
    s = frozenset(s)
    if not oracle.monotone:
        raise ValueError("recursion requires the monotone-workload flag")
    s1, s2 = s - {i1}, s - {i2}
    if i1 not in sys.inner_boundary(s) or i2 not in sys.inner_boundary(s):
        raise ValueError("i1 and i2 must both lie in the inner boundary of S")
    if i1 not in sys.inner_boundary(s2) or i2 not in sys.inner_boundary(s1):
        raise ValueError("i1 and i2 must be removable in either order")
    if j not in s - {i1, i2}:
        raise ValueError(f"element {j} not in S minus {{i1, i2}}")
    w, w1, w2 = (dict(zip(sorted(u), oracle.workload(u).tolist())) for u in (s, s1, s2))
    r1 = w[i1] / w2[i1]
    r2 = w[i2] / w1[i2]
    denom = r1 + r2 - 1.0
    if denom <= 0.0:
        raise DegeneracyError(f"degenerate denominator {denom:g} in double-removal recursion")
    num = r1 * w2[j] + r2 * w1[j] - w[j]
    return num / denom
