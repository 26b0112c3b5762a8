"""General finite restless-bandit machinery.

A model is a two-action Markov chain (engage/rest) with per-action costs,
a strictly positive activity-weight vector, and a partition of the states
into controllable ones (both actions available) and uncontrollable ones
(always engaged, both actions indistinguishable).  This module computes
the activity and cost measures of set-active policies, the marginal
workloads and costs of one-state action interchanges, and the index
machinery built from them: the indexability test via the adaptive-greedy
run on the normalized passive cost, value-function breakpoints,
conservation-law residuals, long-run average limits, and optimal control
under an average-activity constraint.  Discounted set-active measures are
solved in band storage when the transition matrices are banded (as the
birth--death models of :mod:`pclindex.admission` are), densely otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache as memoize, cached_property
from typing import Iterable

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import (InfeasibleTargetError, InternalConsistencyError,
                     UnsupportedModelError)
from .greedy import AGOutput, WorkloadOracle, ag2
from .setsystem import SetSystem

SOFT_STATE_CAP = 2000


class _SolveKernel:
    """The discounted one-step operators beta*P0, beta*P1 and
    beta*(P1 - P0) of a model, and the set-active systems I - beta*P_S
    built from them.

    When the nonzero pattern of P0|P1 lies within l sub- and u
    superdiagonals and l + u + 1 < n, everything is held in LAPACK band
    storage (entry (i, j) at row u + i - j, column j) and each solve or
    product costs O(n * (l + u + 1)); otherwise the operators are dense.
    """

    def __init__(self, P0: np.ndarray, P1: np.ndarray, beta: float):
        n = P0.shape[0]
        nonzero = (P0 != 0) | (P1 != 0)
        states = np.arange(n)
        first = nonzero.argmax(axis=1)                      # every row has a nonzero
        last = n - 1 - nonzero[:, ::-1].argmax(axis=1)
        lower = int(max(0, np.max(states - first)))
        upper = int(max(0, np.max(last - states)))
        self.band = (lower, upper) if lower + upper + 1 < n else None
        ops = (beta * P0, beta * P1, beta * (P1 - P0))
        if self.band is not None:
            rows = np.arange(-upper, lower + 1)[:, None] + states
            inside = (rows >= 0) & (rows < n)
            self._rows = np.clip(rows, 0, n - 1)   # matrix row of each band entry
            ops = tuple(np.where(inside, M[self._rows, states], 0.0) for M in ops)
        for M in ops:
            M.setflags(write=False)
        self.bP0, self.bP1, self.dP = ops

    def system(self, mask: np.ndarray) -> np.ndarray:
        """I - beta*P_S, with the rows of P1 where ``mask`` holds and the
        rows of P0 elsewhere, in this kernel's storage."""
        if self.band is None:
            A = -np.where(mask[:, None], self.bP1, self.bP0)
            A.flat[::A.shape[0] + 1] += 1.0
        else:
            A = -np.where(mask[self._rows], self.bP1, self.bP0)
            A[self.band[1]] += 1.0
        return A

    def apply(self, M: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product of an operator held in this kernel's storage."""
        if self.band is None:
            return M @ x
        lower, upper = self.band
        n = x.shape[0]
        y = M[upper] * x
        for d in range(1, upper + 1):
            y[:n - d] += M[upper - d, d:] * x[d:]
        for d in range(1, lower + 1):
            y[d:] += M[upper + d, :n - d] * x[:n - d]
        return y

    def solve(self, mask: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - beta*P_S) x = rhs and check the residual."""
        A = self.system(mask)
        if self.band is None:
            x = np.linalg.solve(A, rhs)
        else:
            x = solve_banded(self.band, A, rhs)
        res = np.abs(self.apply(A, x) - rhs).max()
        # the scale is at least 1, so it is needed only past 1e-10
        if not (res <= 1e-10 or res <= 1e-10 * max(1.0, np.abs(rhs).max(), np.abs(x).max())):
            raise InternalConsistencyError(f"linear solve residual {res:g} exceeds tolerance")
        return x


@dataclass(frozen=True, eq=False)
class RBModel:
    """Finite restless bandit in discrete time.

    ``P0``/``P1`` are the passive/active transition matrices, ``h0``/``h1``
    the per-period costs, ``theta1`` the strictly positive activity weights
    and ``beta`` the discount factor.  At every uncontrollable state both
    actions must coincide structurally (equal transition rows and equal
    costs); this is validated, not assumed.  ``beta == 1`` is accepted so a
    uniformized average-criterion model can be represented, but all
    discounted computations require ``beta < 1``.  Construction derives
    ``ctrl_mask``, the boolean mask of controllable states, and
    ``kernel``, the solve kernel of the model's discounted operators.
    """

    P0: np.ndarray
    P1: np.ndarray
    h0: np.ndarray
    h1: np.ndarray
    theta1: np.ndarray
    beta: float
    controllable: frozenset
    kernel: _SolveKernel = field(init=False, repr=False)
    ctrl_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        P0 = np.array(self.P0, dtype=float)
        P1 = np.array(self.P1, dtype=float)
        h0 = np.array(self.h0, dtype=float)
        h1 = np.array(self.h1, dtype=float)
        theta1 = np.array(self.theta1, dtype=float)
        n = P0.shape[0]
        if P0.shape != (n, n) or P1.shape != (n, n):
            raise ValueError("P0 and P1 must be square matrices of equal size")
        for name, v in (("h0", h0), ("h1", h1), ("theta1", theta1)):
            if v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        for name, P in (("P0", P0), ("P1", P1)):
            if np.any(P < -1e-12):
                raise ValueError(f"{name} has negative entries")
            rowsums = P.sum(axis=1)
            if np.max(np.abs(rowsums - 1.0)) > 1e-12:
                raise ValueError(f"{name} rows must sum to 1 within 1e-12")
        if not np.all(theta1 > 0):
            raise ValueError("activity weights theta1 must be strictly positive")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        ctrl = frozenset(int(j) for j in self.controllable)
        if not ctrl <= set(range(n)):
            raise ValueError("controllable states out of range")
        for i in sorted(set(range(n)) - ctrl):
            if np.max(np.abs(P0[i] - P1[i])) > 1e-12 or abs(h0[i] - h1[i]) > 1e-12:
                raise ValueError(
                    f"state {i} declared uncontrollable but its two actions differ")
        ctrl_mask = np.zeros(n, dtype=bool)
        ctrl_mask[sorted(ctrl)] = True
        kernel = _SolveKernel(P0, P1, self.beta)
        if n > SOFT_STATE_CAP and kernel.band is None:
            warnings.warn(f"model has {n} states; dense linear algebra may be slow")
        for arr in (P0, P1, h0, h1, theta1, ctrl_mask):
            arr.setflags(write=False)
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "P1", P1)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "controllable", ctrl)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "ctrl_mask", ctrl_mask)

    @property
    def n_states(self) -> int:
        return self.P0.shape[0]

    @property
    def uncontrollable(self) -> frozenset:
        return frozenset(range(self.n_states)) - self.controllable

    def active_rows(self, s: Iterable) -> np.ndarray:
        """Boolean mask of states engaged under the S-active policy."""
        s = frozenset(s)
        if not s <= self.controllable:
            raise ValueError("active set must consist of controllable states")
        mask = ~self.ctrl_mask
        mask[list(s)] = True
        return mask

    @cached_property
    def communicating(self) -> bool:
        """Strong connectivity of the union of the two transition graphs,
        computed on first use; see :func:`is_communicating`."""
        adj = ((self.P0 > 0) | (self.P1 > 0)).astype(int)
        n_comp, _ = connected_components(adj, directed=True, connection="strong")
        return n_comp == 1

    def policy_vector(self, s: Iterable) -> np.ndarray:
        """Activation probabilities of the S-active policy (1 on S and
        the uncontrollable states, 0 elsewhere)."""
        return self.active_rows(s).astype(float)


def _require_discounted(model: RBModel):
    if not model.beta < 1.0:
        raise UnsupportedModelError("operation needs a discount factor beta < 1")


def _set_active_measure(model: RBModel, mask: np.ndarray, active, passive) -> np.ndarray:
    """Expected total discounted per-period reward (``active`` where the
    policy engages, on ``mask``, ``passive`` elsewhere), over initial states."""
    _require_discounted(model)
    return model.kernel.solve(mask, np.where(mask, active, passive))


def activity_measure(model: RBModel, s) -> np.ndarray:
    """Expected total discounted activity weight collected under the
    S-active policy, as a vector over initial states."""
    return _set_active_measure(model, model.active_rows(s), model.theta1, 0.0)


def cost_measure(model: RBModel, s) -> np.ndarray:
    """Expected total discounted holding cost under the S-active policy."""
    return _set_active_measure(model, model.active_rows(s), model.h1, model.h0)


def occupation_measures(model: RBModel, u, i: int) -> tuple[np.ndarray, np.ndarray]:
    """State-action occupation measures (x0, x1) of a stationary policy.

    ``u`` gives per-state activation probabilities; it must equal 1 at
    uncontrollable states.  Row i of the balance equations is enforced to
    1e-10 before returning.
    """
    _require_discounted(model)
    u = np.asarray(u, dtype=float)
    if u.shape != (model.n_states,):
        raise ValueError(f"policy must have shape ({model.n_states},)")
    if np.any(u < 0) or np.any(u > 1):
        raise ValueError("activation probabilities must lie in [0, 1]")
    unctrl = sorted(model.uncontrollable)
    if unctrl and np.max(np.abs(u[unctrl] - 1.0)) > 0:
        raise ValueError("policy must be active at uncontrollable states")
    Pu = (1.0 - u)[:, None] * model.P0 + u[:, None] * model.P1
    e = np.zeros(model.n_states)
    e[i] = 1.0
    occ = np.linalg.solve((np.eye(model.n_states) - model.beta * Pu).T, e)
    x0 = (1.0 - u) * occ
    x1 = u * occ
    balance = (x0 @ (np.eye(model.n_states) - model.beta * model.P0)
               + x1 @ (np.eye(model.n_states) - model.beta * model.P1) - e)
    if np.max(np.abs(balance)) > 1e-10 * max(1.0, float(np.max(np.abs(occ)))):
        raise InternalConsistencyError("occupation-measure balance equations violated")
    return x0, x1


def marginal_workload(model: RBModel, s, b: np.ndarray | None = None) -> np.ndarray:
    """Increment of the activity measure from a passive-to-active
    interchange against the S-active policy; exactly zero at
    uncontrollable states."""
    if b is None:
        b = activity_measure(model, s)
    w = model.theta1 + model.kernel.apply(model.kernel.dP, b)
    w[~model.ctrl_mask] = 0.0
    return w


def marginal_cost(model: RBModel, s, v: np.ndarray | None = None) -> np.ndarray:
    """Increment of the cost measure from a passive-to-active interchange
    against the S-active policy; exactly zero at uncontrollable states."""
    if v is None:
        v = cost_measure(model, s)
    c = model.h0 - model.h1 - model.kernel.apply(model.kernel.dP, v)
    c[~model.ctrl_mask] = 0.0
    return c


def normalized_passive_cost(model: RBModel) -> np.ndarray:
    """Passive-cost vector after absorbing the always-active cost stream.

    Equals the marginal cost at the all-controllable active set; vanishes
    at uncontrollable states (verified to 1e-10, then zeroed exactly).
    """
    kernel = model.kernel
    inner = cost_measure(model, model.controllable)
    hhat = model.h0 - kernel.apply(kernel.system(np.zeros(model.n_states, dtype=bool)), inner)
    unctrl = sorted(model.uncontrollable)
    if unctrl:
        worst = float(np.max(np.abs(hhat[unctrl])))
        if worst > 1e-10 * max(1.0, float(np.max(np.abs(hhat)))):
            raise InternalConsistencyError(
                f"normalized passive cost {worst:g} at an uncontrollable state")
        hhat[unctrl] = 0.0
    return hhat


def normalized_model(model: RBModel) -> RBModel:
    """Same dynamics, passive cost replaced by the normalized vector and
    active cost set to zero."""
    return RBModel(model.P0, model.P1, normalized_passive_cost(model),
                   np.zeros(model.n_states), model.theta1, model.beta,
                   model.controllable)


# ---------------------------------------------------------------------------
# Index machinery
# ---------------------------------------------------------------------------

class _MeasureCache:
    """Per-model memo of set-indexed measures; not thread-safe, create one
    per computation.  Measures are keyed by sets of ground elements
    (positions ``e`` of the controllable state ``at[e]``), the family's
    own members; ``w`` gives the marginal workloads over the ground."""

    def __init__(self, model: RBModel):
        self.ctrl = ctrl = sorted(model.controllable)
        self.at = at = np.array(ctrl, dtype=int)

        def rows(s: frozenset) -> np.ndarray:
            mask = ~model.ctrl_mask
            mask[at[list(s)]] = True
            return mask
        self.b = b = memoize(lambda s: _set_active_measure(model, rows(s), model.theta1, 0.0))
        self.v = memoize(lambda s: _set_active_measure(model, rows(s), model.h1, model.h0))
        self.w = memoize(lambda s: marginal_workload(model, None, b(s))[at])
        self.limits = memoize(lambda s: average_limits(model, (ctrl[e] for e in s)))


@dataclass(frozen=True)
class PCLReport:
    """Outcome of the two-part indexability test.

    ``indexable`` requires strictly positive marginal workloads on every
    family member and a nondecreasing index sequence out of the
    adaptive-greedy run on the normalized passive cost.
    """

    indexable: bool
    positive_workloads: bool
    admissible: bool
    workload_violations: tuple
    nu_by_state: dict[int, float]
    state_order: tuple[int, ...]
    chain_states: tuple[frozenset, ...]
    ag: AGOutput
    controllable_order: tuple[int, ...]

    @property
    def nu(self) -> np.ndarray:
        return self.ag.nu


def _pcl_report(model: RBModel, sys: SetSystem, average: bool) -> PCLReport:
    """The indexability test under either criterion: the marginal
    workloads and the cost input come from the discounted measures or from
    the long-run average limits."""
    cache = _MeasureCache(model)
    ctrl, at = cache.ctrl, cache.at
    if sys.n != len(ctrl):
        raise ValueError(f"set system has ground size {sys.n}, expected {len(ctrl)}")
    workloads = (lambda s: cache.limits(s).w_bar[at]) if average else cache.w
    violations = []
    for s in sys.family:
        w = workloads(s)
        violations.extend((s, e, float(w[e])) for e in np.flatnonzero(~(w > 0.0)))
    cost = cache.limits(sys.ground).c_bar if average else normalized_passive_cost(model)
    out = ag2(cost[at], WorkloadOracle(row=lambda s: workloads(s)[sorted(s)]), sys)
    order = tuple(ctrl[e] for e in out.pi)
    positive = not violations
    return PCLReport(
        indexable=positive and out.admissible,
        positive_workloads=positive,
        admissible=out.admissible,
        workload_violations=tuple((frozenset(ctrl[e] for e in s), ctrl[j], w)
                                  for s, j, w in violations),
        nu_by_state={ctrl[e]: float(out.nu[e]) for e in range(sys.n)},
        state_order=order,
        chain_states=tuple(frozenset(order[k:]) for k in range(len(out.chain))),
        ag=out,
        controllable_order=tuple(ctrl),
    )


def pcl_index(model: RBModel, sys: SetSystem) -> PCLReport:
    """Indexability test and index computation for a postulated family.

    The ground set of ``sys`` indexes sorted(controllable).  Checks that
    every family member has strictly positive marginal workloads at all
    controllable states, then runs the rate-recursion greedy algorithm on
    the normalized passive cost with the model-derived workload oracle.
    """
    return _pcl_report(model, sys, average=False)


@dataclass(frozen=True)
class ValueSegments:
    """Piecewise-linear description of the optimal value as a function of
    the activity charge, for a fixed initial state: on segment k the value
    is intercept_k + charge * slope_k."""

    breakpoints: tuple[float, ...]   # nu_{pi_1} <= ... <= nu_{pi_n}
    intercepts: tuple[float, ...]    # cost measures along the chain, n+1 of them
    slopes: tuple[float, ...]        # activity measures along the chain, n+1 of them

    def evaluate(self, nu: float) -> float:
        k = int(np.searchsorted(np.asarray(self.breakpoints), nu, side="left"))
        return self.intercepts[k] + nu * self.slopes[k]


def value_breakpoints(model: RBModel, sys: SetSystem, i: int,
                      report: PCLReport | None = None) -> ValueSegments:
    """Breakpoint description of the charge-parametrized optimal value.

    Requires the model to pass :func:`pcl_index`; segment k carries the
    cost/activity measures of the k-th chain set, and the slopes are
    checked to be nonincreasing (strict decrease is not guaranteed for a
    fixed initial state, only for positively weighted averages).
    """
    rep = report if report is not None else pcl_index(model, sys)
    if not rep.indexable:
        raise UnsupportedModelError("model is not PCL-indexable for this family")
    chain = list(rep.ag.chain) + [frozenset()]
    cache = _MeasureCache(model)
    intercepts = [float(cache.v(s)[i]) for s in chain]
    slopes = [float(cache.b(s)[i]) for s in chain]
    scale = max(1.0, max(abs(x) for x in slopes))
    for k in range(len(slopes) - 1):
        if slopes[k + 1] > slopes[k] + 1e-12 * scale:
            raise InternalConsistencyError(
                "value-function slopes are not nonincreasing along the chain")
    bps = tuple(float(rep.ag.nu[e]) for e in rep.ag.pi)
    return ValueSegments(bps, tuple(intercepts), tuple(slopes))


def verify_workload_decomposition(model: RBModel, u, s, i: int) -> float:
    """Residual of the activity conservation identity relating an arbitrary
    policy to the S-active policy through one-state interchanges."""
    s = frozenset(s)
    x0, x1 = occupation_measures(model, u, i)
    w = marginal_workload(model, s)
    b_u = float(model.theta1 @ x1)
    b_s = float(activity_measure(model, s)[i])
    others = sorted(model.controllable - s)
    lhs = b_u + sum(w[j] * x0[j] for j in sorted(s))
    rhs = b_s + sum(w[j] * x1[j] for j in others)
    return abs(lhs - rhs)


def verify_cost_decomposition(model: RBModel, u, s, i: int) -> float:
    """Residual of the cost conservation identity (cost analog of
    :func:`verify_workload_decomposition`)."""
    s = frozenset(s)
    x0, x1 = occupation_measures(model, u, i)
    c = marginal_cost(model, s)
    v_u = float(model.h0 @ x0 + model.h1 @ x1)
    v_s = float(cost_measure(model, s)[i])
    others = sorted(model.controllable - s)
    lhs = v_s + sum(c[j] * x0[j] for j in sorted(s))
    rhs = v_u + sum(c[j] * x1[j] for j in others)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class DMRReport:
    """Diminishing-marginal-returns checks along the index chain, under a
    strictly positive initial distribution."""

    activity_strictly_decreasing: bool
    ratio_matches_index: bool
    min_form_ok: bool
    max_form_ok: bool
    rates_nondecreasing: bool
    worst_ratio_residual: float

    @property
    def all_ok(self) -> bool:
        return (self.activity_strictly_decreasing and self.ratio_matches_index
                and self.min_form_ok and self.max_form_ok and self.rates_nondecreasing)


def dmr_report(model: RBModel, sys: SetSystem, p=None, tol: float = 1e-9,
               report: PCLReport | None = None) -> DMRReport:
    """Check that the indices are optimal marginal cost rates.

    Aggregates measures under a positive initial distribution ``p``
    (uniform by default) and verifies: strictly increasing activity along
    the chain, the index as the chain cost/activity difference ratio, its
    min/max one-swap characterizations, and nondecreasing rates.
    """
    rep = report if report is not None else pcl_index(model, sys)
    if not rep.indexable:
        raise UnsupportedModelError("model is not PCL-indexable for this family")
    n_states = model.n_states
    p = np.full(n_states, 1.0 / n_states) if p is None else np.asarray(p, dtype=float)
    if p.shape != (n_states,) or not np.all(p > 0):
        raise ValueError("initial distribution must be strictly positive over all states")
    cache = _MeasureCache(model)
    chain = list(rep.ag.chain) + [frozenset()]
    b_agg = [float(p @ cache.b(s)) for s in chain]
    v_agg = [float(p @ cache.v(s)) for s in chain]
    scale_b = max(1.0, max(abs(x) for x in b_agg))
    strict = all(b_agg[k] > b_agg[k + 1] + 1e-12 * scale_b for k in range(len(b_agg) - 1))

    nu_seq = [float(rep.ag.nu[e]) for e in rep.ag.pi]
    worst = 0.0
    min_ok = max_ok = True
    for k, s in enumerate(rep.ag.chain):
        denom = b_agg[k] - b_agg[k + 1]
        ratio = (v_agg[k + 1] - v_agg[k]) / denom
        worst = max(worst, abs(ratio - nu_seq[k]))

        def swap_ratio(base: int, t: frozenset) -> float:
            return ((float(p @ cache.v(t)) - v_agg[base])
                    / (b_agg[base] - float(p @ cache.b(t))))

        # removing a state from S_k can only cost at rate >= nu_k ...
        m = min(swap_ratio(k, s - {j}) for j in sorted(s))
        if abs(m - nu_seq[k]) > tol * max(1.0, abs(nu_seq[k])):
            min_ok = False
        # ... and adding one to the next chain set saves at rate <= nu_k
        succ = chain[k + 1]
        mx = max(swap_ratio(k + 1, succ | {j}) for j in sorted(sys.ground - succ))
        if abs(mx - nu_seq[k]) > tol * max(1.0, abs(nu_seq[k])):
            max_ok = False
    scale_nu = max(1.0, max(abs(x) for x in nu_seq))
    ratio_ok = worst <= tol * scale_nu
    nondec = all(nu_seq[k + 1] >= nu_seq[k] - tol * scale_nu for k in range(len(nu_seq) - 1))
    return DMRReport(strict, ratio_ok, min_ok, max_ok, nondec, worst)


# ---------------------------------------------------------------------------
# Long-run average criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AverageLimits:
    """Average-criterion quantities of an S-active policy: the gain pair
    (activity rate, cost rate), the bias vectors producing them, and the
    limiting marginal workloads/costs."""

    b_bar: float
    v_bar: float
    a: np.ndarray
    f: np.ndarray
    w_bar: np.ndarray
    c_bar: np.ndarray


def is_communicating(model: RBModel) -> bool:
    """True iff every state is reachable from every other under some policy
    (strong connectivity of the union of the two transition graphs),
    decided once per model."""
    return model.communicating


def _recurrent_classes(P: np.ndarray) -> list[list[int]]:
    """The closed strong components of the positive edges, in label order:
    a component is closed when no edge leaves it."""
    edges = P > 0
    n_comp, labels = connected_components(csr_array(edges), directed=True, connection="strong")
    src, dst = np.nonzero(edges)
    closed = np.ones(n_comp, dtype=bool)
    closed[labels[src][labels[src] != labels[dst]]] = False
    return [np.flatnonzero(labels == comp).tolist() for comp in np.flatnonzero(closed)]


def _gain_bias(P: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains (one per column of the reward matrix ``r``) and bias columns
    of the unichain P, from one recurrent-class pass and one solve."""
    classes = _recurrent_classes(P)
    if len(classes) != 1:
        raise UnsupportedModelError(
            f"policy chain is multichain ({len(classes)} recurrent classes)")
    ref = classes[0][0]
    n = P.shape[0]
    # unknowns: gain g and bias vector a with a[ref] = 0
    A = np.zeros((n + 1, n + 1))
    rhs = np.zeros((n + 1, r.shape[1]))
    A[:n, 0] = 1.0
    A[:n, 1:] = np.eye(n) - P
    rhs[:n] = r
    A[n, 1 + ref] = 1.0
    sol = np.linalg.solve(A, rhs)
    return sol[0], sol[1:]


def average_limits(model: RBModel, s) -> AverageLimits:
    """Long-run average activity/cost rates and bias vectors of the
    S-active policy, plus the limiting marginal workloads and costs.

    Requires a communicating model and a unichain policy.  The bias gauge
    fixes the lowest-index recurrent state at zero; the marginal
    quantities are gauge-independent.
    """
    if not is_communicating(model):
        raise UnsupportedModelError("model is not communicating")
    mask = model.active_rows(s)
    P = np.where(mask[:, None], model.P1, model.P0)
    gains, bias = _gain_bias(P, np.column_stack((np.where(mask, model.theta1, 0.0),
                                                 np.where(mask, model.h1, model.h0))))
    (b_bar, v_bar), (a, f) = gains.tolist(), bias.T
    w_bar = model.theta1 + (model.P1 - model.P0) @ a
    w_bar[~model.ctrl_mask] = 0.0
    c_bar = model.h0 - model.h1 + (model.P0 - model.P1) @ f
    c_bar[~model.ctrl_mask] = 0.0
    return AverageLimits(b_bar, v_bar, a, f, w_bar, c_bar)


def average_pcl_index(model: RBModel, sys: SetSystem) -> PCLReport:
    """Average-criterion version of :func:`pcl_index`.

    Uses the limiting marginal workloads as the oracle and the limiting
    marginal cost at the all-controllable active set as the cost input
    (the average analog of the normalized passive cost).
    """
    return _pcl_report(model, sys, average=True)


@dataclass(frozen=True)
class ConstrainedPolicy:
    """Optimal stationary policy meeting an average-activity target:
    active on ``base_set``, active on ``randomized_state`` with probability
    ``p_active`` (both None when the target sits exactly on a chain
    point and the policy is deterministic)."""

    base_set: frozenset
    randomized_state: int | None
    p_active: float | None
    value: float
    marginal_rate: float | None  # cost increase per unit of activity removed

    @property
    def deterministic(self) -> bool:
        return self.randomized_state is None


def constrained_policy(model: RBModel, sys: SetSystem, t: float,
                       report: PCLReport | None = None,
                       rel_tol: float = 1e-12) -> ConstrainedPolicy:
    """Minimize the average cost rate subject to average activity rate = t.

    The optimum randomizes between two adjacent chain policies; its value
    interpolates the chain values and its local sensitivity is the index
    of the state being randomized (the cost saved per extra unit of
    allowed activity, so the achieved cost is piecewise linear and convex
    as a function of t).
    """
    rep = report if report is not None else average_pcl_index(model, sys)
    if not rep.indexable:
        raise UnsupportedModelError("model is not PCL-indexable under the average criterion")
    chain = list(rep.chain_states) + [frozenset()]
    limits = [average_limits(model, s) for s in chain]
    b_bar = [al.b_bar for al in limits]
    v_bar = [al.v_bar for al in limits]
    scale = max(1.0, max(abs(x) for x in b_bar))
    lo, hi = b_bar[-1], b_bar[0]
    if t < lo - rel_tol * scale or t > hi + rel_tol * scale:
        raise InfeasibleTargetError(
            f"target {t} outside achievable activity range [{lo:g}, {hi:g}]")
    for k, bk in enumerate(b_bar):
        if abs(t - bk) <= rel_tol * scale:
            return ConstrainedPolicy(chain[k], None, None, v_bar[k], None)
    k = next(k for k in range(len(chain) - 1) if b_bar[k + 1] < t < b_bar[k])
    p = (t - b_bar[k + 1]) / (b_bar[k] - b_bar[k + 1])
    value = (1.0 - p) * v_bar[k + 1] + p * v_bar[k]
    nu_k = float(rep.ag.nu[rep.ag.pi[k]])
    return ConstrainedPolicy(chain[k + 1], rep.state_order[k], p, value, nu_k)
