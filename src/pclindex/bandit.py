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
under an average-activity constraint.  Both criteria solve set-active
systems in band storage when the transition matrices are banded (as the
birth--death models of :mod:`pclindex.admission` are), densely otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache as memoize, cached_property
from typing import Iterable

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv, dgtsv
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import (InfeasibleTargetError, InternalConsistencyError,
                     UnsupportedModelError)
from .greedy import AGOutput, WorkloadOracle, ag2
from .setsystem import SetSystem, suffix_sets

SOFT_STATE_CAP = 2000
DMR_TOL = 1e-9           # residual allowed in the diminishing-marginal-returns checks
TARGET_REL_TOL = 1e-12   # activity targets this close to a chain value hit it exactly


def solve_banded(band: tuple[int, int], ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_banded(band, ab, b)`` for float64 input and
    n > 1, bit for bit, minus scipy's per-call validation and finiteness
    scan: LAPACK ``dgtsv`` when band == (1, 1), ``dgbsv`` otherwise.
    Leaves ``ab`` and ``b`` unchanged; LinAlgError when singular."""
    lower, upper = band
    if lower == upper == 1:
        x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    else:
        lu = np.zeros((2 * lower + upper + 1, ab.shape[1]))
        lu[lower:] = ab
        x, info = dgbsv(lower, upper, lu, b, overwrite_ab=True)[2:]
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


class _SolveKernel:
    """The one-step operators beta*P0, beta*P1 and beta*(P1 - P0) of a
    model, and the set-active systems I - beta*P_S built from them.

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
        self._rows, self._diag = states[:, None], (states, states)
        if self.band is not None:
            rows = np.arange(-upper, lower + 1)[:, None] + states
            inside = (rows >= 0) & (rows < n)
            # the matrix row of each band entry, and the diagonal's band row
            self._rows, self._diag = np.clip(rows, 0, n - 1), upper
            ops = tuple(np.where(inside, M[self._rows, states], 0.0) for M in ops)
        for M in ops:
            M.setflags(write=False)
        self.bP0, self.bP1, self.dP = ops

    def _mixed(self, mask: np.ndarray) -> np.ndarray:
        """beta*P_S, with the rows of beta*P1 where ``mask`` holds and the
        rows of beta*P0 elsewhere, in this kernel's storage."""
        return np.where(mask[self._rows], self.bP1, self.bP0)

    def edges(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (source, target) states of the positive entries of beta*P_S,
        read from this kernel's storage, in row-major order."""
        rows, cols = np.nonzero(self._mixed(mask) > 0)
        if self.band is None:
            return rows, cols
        src = self._rows[rows, cols]
        order = np.lexsort((cols, src))
        return src[order], cols[order]

    def system(self, mask: np.ndarray) -> np.ndarray:
        """I - beta*P_S in this kernel's storage."""
        A = -self._mixed(mask)
        A[self._diag] += 1.0
        return A

    def occupancy(self, mask: np.ndarray) -> np.ndarray:
        """The u with (I - b*beta*P_S)^T u = 1 for b = 1 - 1e-9: the
        expected time in each state over about 1e9 steps, summed over the
        initial states."""
        b = 1.0 - 1e-9
        A = b * self.system(mask)
        A[self._diag] += 1.0 - b
        ones = np.ones(A.shape[1])
        if self.band is None:
            return np.linalg.solve(A.T, ones)
        (lower, upper), n = self.band, A.shape[1]
        q = np.arange(lower + upper + 1)[:, None]   # A^T, stored with the band (upper, lower)
        cols = np.arange(n) + q - lower
        inside = (cols >= 0) & (cols < n)
        T = np.where(inside, A[lower + upper - q, np.clip(cols, 0, n - 1)], 0.0)
        return solve_banded((upper, lower), T, ones)

    def apply(self, M: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Product of an operator held in this kernel's storage with a
        vector, or with each column of an (n, k) array."""
        if self.band is None:
            return M @ x
        if x.ndim > 1:
            return np.array([self.apply(M, col) for col in x.T]).T
        lower, upper = self.band
        n = x.shape[0]
        y = M[upper] * x
        for d in range(1, upper + 1):
            y[:n - d] += M[upper - d, d:] * x[d:]
        for d in range(1, lower + 1):
            y[d:] += M[upper + d, :n - d] * x[:n - d]
        return y

    def solve(self, mask: np.ndarray, rhs: np.ndarray, anchor: int | None = None) -> np.ndarray:
        """Solve (I - beta*P_S + e_r e_r^T) x = rhs, with the last term
        only if an ``anchor`` state r is given, for one right-hand side or
        an (n, k) array of them, and check the residual of each column.
        At beta = 1 the anchored matrix is nonsingular exactly when P_S is
        unichain and r is recurrent."""
        A = self.system(mask)
        if anchor is not None:
            A[anchor if self.band is None else self.band[1], anchor] += 1.0
        x = np.linalg.solve(A, rhs) if self.band is None else solve_banded(self.band, A, rhs)
        err = np.abs(self.apply(A, x) - rhs)
        # the scales are at least 1, so they are needed only past 1e-10
        if not err.max() <= 1e-10:
            res = err.max(axis=0)
            scale = np.maximum(1.0, np.maximum(np.abs(rhs).max(axis=0), np.abs(x).max(axis=0)))
            if not (res <= 1e-10 * scale).all():
                raise InternalConsistencyError(
                    f"linear solve residual {res.max():g} exceeds tolerance")
        return x


@dataclass(frozen=True, eq=False)
class RBModel:
    """Finite restless bandit in discrete time.

    ``P0``/``P1`` are the passive/active transition matrices, ``h0``/``h1``
    the per-period costs, ``theta1`` the strictly positive activity weights
    and ``beta`` the discount factor; every entry must be finite.  At
    every uncontrollable state both actions must coincide structurally
    (equal transition rows and equal costs); this is validated, not
    assumed.  ``beta == 1`` is accepted so a uniformized average-criterion
    model can be represented, but all discounted computations require
    ``beta < 1``.  Construction derives
    ``ctrl_mask``, the boolean mask of controllable states, and
    ``kernel``, the solve kernel of the model's operators at ``beta``.
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
        for name, v in (("P0", P0), ("P1", P1), ("h0", h0), ("h1", h1), ("theta1", theta1)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")
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
        for name, value in (("P0", P0), ("P1", P1), ("h0", h0), ("h1", h1), ("theta1", theta1),
                            ("controllable", ctrl), ("kernel", kernel), ("ctrl_mask", ctrl_mask)):
            object.__setattr__(self, name, value)

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
        """True iff every state is reachable from every other under some
        policy (strong connectivity of the union of the two transition
        graphs), decided once per model, on first use."""
        adj = ((self.P0 > 0) | (self.P1 > 0)).astype(int)
        n_comp, _ = connected_components(adj, directed=True, connection="strong")
        return n_comp == 1

    @cached_property
    def normalized_cost(self) -> np.ndarray:
        """:func:`normalized_passive_cost`, computed once per model (read-only)."""
        hhat = normalized_passive_cost(self)
        hhat.setflags(write=False)
        return hhat

    @cached_property
    def average_kernel(self) -> _SolveKernel:
        """The solve kernel at beta = 1, which the average criterion reads
        whatever ``beta`` is; built once per model, on first use."""
        return self.kernel if self.beta == 1 else _SolveKernel(self.P0, self.P1, 1.0)


def _require_discounted(model: RBModel):
    if not model.beta < 1.0:
        raise UnsupportedModelError("operation needs a discount factor beta < 1")


def _require_state(model: RBModel, i: int):
    if not 0 <= i < model.n_states:
        raise ValueError(f"initial state {i} outside 0..{model.n_states - 1}")


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
    """State-action occupation measures (x0, x1) of a stationary policy:
    a dense transposed solve that bypasses the kernel, kept as the
    reference path the conservation-law checks compare against.  ``u``
    gives per-state activation probabilities; it must equal 1 at
    uncontrollable states.  Row i of the balance equations is enforced to
    1e-10 before returning."""
    _require_discounted(model)
    _require_state(model, i)
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
    return RBModel(model.P0, model.P1, model.normalized_cost,
                   np.zeros(model.n_states), model.theta1, model.beta,
                   model.controllable)


# ---------------------------------------------------------------------------
# Index machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PCLReport:
    """Outcome of the two-part indexability test.

    ``indexable`` requires strictly positive marginal workloads on every
    family member and a nondecreasing index sequence out of the
    adaptive-greedy run on the normalized passive cost.  ``state_order``,
    that run's priority order in states, is the only stored form of its chain.
    """

    indexable: bool
    positive_workloads: bool
    admissible: bool
    workload_violations: tuple
    nu_by_state: dict[int, float]
    state_order: tuple[int, ...]
    ag: AGOutput

    @property
    def nu(self) -> np.ndarray:
        return self.ag.nu

    @property
    def chain_states(self) -> tuple[frozenset, ...]:
        """The sets ``state_order[k:]``, built anew on each access: bind them once."""
        return suffix_sets(self.state_order)


def _require_ground(model: RBModel, sys: SetSystem):
    if sys.n != len(model.controllable):
        raise ValueError(f"set system has ground size {sys.n}, expected {len(model.controllable)}")


def _pcl_report(model: RBModel, sys: SetSystem, average: bool) -> PCLReport:
    """The indexability test under either criterion: the family scan keeps
    each member's marginal workloads over the ground (discounted) or its
    long-run average limits, which also give the cost input."""
    _require_ground(model, sys)
    ctrl = sorted(model.controllable)
    at = np.array(ctrl, dtype=int)
    scan, violations = {}, []
    for s in sys.family:
        if average:
            scan[s] = average_limits(model, (ctrl[e] for e in s))
            w = scan[s].w_bar[at]
        else:
            mask = ~model.ctrl_mask
            mask[at[list(s)]] = True
            scan[s] = w = marginal_workload(model, None, _set_active_measure(
                model, mask, model.theta1, 0.0))[at]
        violations.extend((s, e, float(w[e])) for e in np.flatnonzero(~(w > 0.0)))
    workloads = (lambda s: scan[s].w_bar[at]) if average else scan.__getitem__
    cost = ((scan.get(sys.ground) or average_limits(model, ctrl)).c_bar if average
            else model.normalized_cost)
    row = lambda s: workloads(s)[sorted(s)]
    if violations:   # the walk cannot pass a member with a nonpositive workload of its own
        inside = {s: (e, w) for s, e, w in reversed(violations) if e in s}   # first e per s

        def row(s, read=row):
            if s in inside:
                e, w = inside[s]
                raise UnsupportedModelError(
                    f"marginal workload w({sorted(ctrl[i] for i in s)}, {ctrl[e]}) = {w} is "
                    "not positive on the adaptive-greedy chain")
            return read(s)
    out = ag2(cost[at], WorkloadOracle(row=row), sys)
    positive = not violations
    return PCLReport(
        indexable=positive and out.admissible,
        positive_workloads=positive,
        admissible=out.admissible,
        workload_violations=tuple((frozenset(ctrl[e] for e in s), ctrl[j], w)
                                  for s, j, w in violations),
        nu_by_state={ctrl[e]: float(out.nu[e]) for e in range(sys.n)},
        state_order=tuple(ctrl[e] for e in out.pi),
        ag=out,
    )


def pcl_index(model: RBModel, sys: SetSystem) -> PCLReport:
    """Indexability test and index computation for a postulated family.

    The ground set of ``sys`` indexes sorted(controllable).  Checks that
    every family member has strictly positive marginal workloads at all
    controllable states, then runs the rate-recursion greedy algorithm on
    the normalized passive cost with the model-derived workload oracle,
    which raises :class:`UnsupportedModelError` if the walk reaches a
    member with a nonpositive workload at one of its own states.
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


def _require_report(model: RBModel, report: PCLReport, cost: np.ndarray):
    """Refuse a report of another model or criterion: its walk ran on another ``cost``."""
    if not np.array_equal(report.ag.cost, cost[model.ctrl_mask]):
        raise ValueError("PCL report was not computed for this model under this criterion")


def value_breakpoints(model: RBModel, report: PCLReport, i: int) -> ValueSegments:
    """Breakpoint description of the charge-parametrized optimal value.

    ``report`` is the model's indexable :func:`pcl_index` report; segment
    k carries the cost/activity measures of the k-th chain set, and the
    slopes are checked to be nonincreasing (strict decrease is not
    guaranteed for a fixed initial state, only for weighted averages).
    """
    _require_state(model, i)
    _require_report(model, report, model.normalized_cost)
    if not report.indexable:
        raise UnsupportedModelError("model is not PCL-indexable for this family")
    chain = report.chain_states + (frozenset(),)
    intercepts = [float(cost_measure(model, s)[i]) for s in chain]
    slopes = [float(activity_measure(model, s)[i]) for s in chain]
    scale = max(1.0, max(abs(x) for x in slopes))
    if any(b > a + 1e-12 * scale for a, b in zip(slopes, slopes[1:])):
        raise InternalConsistencyError(
            "value-function slopes are not nonincreasing along the chain")
    bps = tuple(float(report.ag.nu[e]) for e in report.ag.pi)
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


def dmr_report(model: RBModel, report: PCLReport, p=None) -> DMRReport:
    """Check that the indices of an indexable :func:`pcl_index` report
    are optimal marginal cost rates.

    Aggregates measures under a positive initial distribution ``p``
    (uniform by default) and verifies: strictly increasing activity along
    the chain, the index as the chain cost/activity difference ratio, its
    min/max one-swap characterizations, and nondecreasing rates, each to
    ``DMR_TOL``.
    """
    _require_report(model, report, model.normalized_cost)
    if not report.indexable:
        raise UnsupportedModelError("model is not PCL-indexable for this family")
    n_states = model.n_states
    p = np.full(n_states, 1.0 / n_states) if p is None else np.asarray(p, dtype=float)
    if p.shape != (n_states,) or not np.all(p > 0):
        raise ValueError("initial distribution must be strictly positive over all states")
    # the p-aggregated activity and cost measures of the S-active policy, once per set
    aggregates = memoize(lambda s: (float(p @ activity_measure(model, s)),
                                    float(p @ cost_measure(model, s))))
    chain = report.chain_states + (frozenset(),)
    b_agg, v_agg = zip(*map(aggregates, chain))
    scale_b = max(1.0, max(abs(x) for x in b_agg))
    strict = all(b_agg[k] > b_agg[k + 1] + 1e-12 * scale_b for k in range(len(b_agg) - 1))

    nu_seq = [float(report.ag.nu[e]) for e in report.ag.pi]
    worst = 0.0
    min_ok = max_ok = True
    for k, s in enumerate(chain[:-1]):
        denom = b_agg[k] - b_agg[k + 1]
        ratio = (v_agg[k + 1] - v_agg[k]) / denom
        worst = max(worst, abs(ratio - nu_seq[k]))

        def swap_ratio(base: int, t: frozenset) -> float:
            b_t, v_t = aggregates(t)
            return (v_t - v_agg[base]) / (b_agg[base] - b_t)

        # removing a state from S_k can only cost at rate >= nu_k ...
        m = min(swap_ratio(k, s - {j}) for j in sorted(s))
        if abs(m - nu_seq[k]) > DMR_TOL * max(1.0, abs(nu_seq[k])):
            min_ok = False
        # ... and adding one to the next chain set saves at rate <= nu_k
        succ = chain[k + 1]
        mx = max(swap_ratio(k + 1, succ | {j}) for j in sorted(model.controllable - succ))
        if abs(mx - nu_seq[k]) > DMR_TOL * max(1.0, abs(nu_seq[k])):
            max_ok = False
    scale_nu = max(1.0, max(abs(x) for x in nu_seq))
    ratio_ok = worst <= DMR_TOL * scale_nu
    nondec = all(nu_seq[k + 1] >= nu_seq[k] - DMR_TOL * scale_nu for k in range(len(nu_seq) - 1))
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


def _recurrent_classes(n: int, src: np.ndarray, dst: np.ndarray) -> list[list[int]]:
    """The closed strong components of the graph on n states with the
    edges src -> dst, given in row-major order, in label order: a
    component is closed when no edge leaves it."""
    indptr = np.searchsorted(src, np.arange(n + 1))
    graph = csr_array((np.ones(len(src)), np.ascontiguousarray(dst), indptr), shape=(n, n))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    closed = np.ones(n_comp, dtype=bool)
    closed[labels[src][labels[src] != labels[dst]]] = False
    return [np.flatnonzero(labels == comp).tolist() for comp in np.flatnonzero(closed)]


def average_limits(model: RBModel, s) -> AverageLimits:
    """Long-run average activity/cost rates and bias vectors of the
    S-active policy, plus the limiting marginal workloads and costs.

    Requires a communicating model and a unichain policy.  One anchored
    beta = 1 solve of (I - P_S + e_r e_r^T) [y, z] = [reward_S, 1] gives
    the gain y[r] / z[r] and the bias y - gain * z, gauged to vanish at the
    lowest recurrent state; the marginals are gauge-independent.  As
    z[r] = 1 / pi_r, and y - gain * z loses the digits of z, the anchor is
    the recurrent state of largest occupancy over about 1e9 steps.
    """
    if not model.communicating:
        raise UnsupportedModelError("model is not communicating")
    mask, kernel = model.active_rows(s), model.average_kernel
    classes = _recurrent_classes(model.n_states, *kernel.edges(mask))
    if len(classes) != 1:
        raise UnsupportedModelError(
            f"policy chain is multichain ({len(classes)} recurrent classes)")
    recurrent = classes[0]
    anchor = recurrent[int(np.argmax(kernel.occupancy(mask)[recurrent]))]
    rhs = np.column_stack((np.where(mask, model.theta1, 0.0),
                           np.where(mask, model.h1, model.h0), np.ones(model.n_states)))
    y = kernel.solve(mask, rhs, anchor)
    gains = y[anchor, :2] / y[anchor, 2]
    bias = y[:, :2] - y[:, 2:] * gains
    bias -= bias[recurrent[0]]
    d = kernel.apply(kernel.dP, bias)
    w_bar = np.where(model.ctrl_mask, model.theta1 + d[:, 0], 0.0)
    c_bar = np.where(model.ctrl_mask, model.h0 - model.h1 - d[:, 1], 0.0)
    return AverageLimits(float(gains[0]), float(gains[1]), *bias.T, w_bar, c_bar)


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


def constrained_policy(model: RBModel, report: PCLReport, t: float) -> ConstrainedPolicy:
    """Minimize the average cost rate subject to average activity rate = t.

    The optimum randomizes between two adjacent chain policies of the
    indexable :func:`average_pcl_index` report; its value interpolates the
    chain values and its local sensitivity is the index of the state being
    randomized (the cost saved per extra unit of allowed activity, so the
    achieved cost is piecewise linear and convex as a function of t).
    """
    chain = report.chain_states + (frozenset(),)
    limits = [average_limits(model, chain[0])]
    _require_report(model, report, limits[0].c_bar)
    if not report.indexable:
        raise UnsupportedModelError("model is not PCL-indexable under the average criterion")
    limits += [average_limits(model, s) for s in chain[1:]]
    b_bar = [al.b_bar for al in limits]
    v_bar = [al.v_bar for al in limits]
    scale = max(1.0, max(abs(x) for x in b_bar))
    lo, hi = b_bar[-1], b_bar[0]
    if not lo - TARGET_REL_TOL * scale <= t <= hi + TARGET_REL_TOL * scale:   # a NaN target too
        raise InfeasibleTargetError(
            f"target {t} outside achievable activity range [{lo:g}, {hi:g}]")
    for k, bk in enumerate(b_bar):
        if abs(t - bk) <= TARGET_REL_TOL * scale:
            return ConstrainedPolicy(chain[k], None, None, v_bar[k], None)
    k = next(k for k in range(len(chain) - 1) if b_bar[k + 1] < t < b_bar[k])
    p = (t - b_bar[k + 1]) / (b_bar[k] - b_bar[k + 1])
    value = (1.0 - p) * v_bar[k + 1] + p * v_bar[k]
    nu_k = float(report.ag.nu[report.ag.pi[k]])
    return ConstrainedPolicy(chain[k + 1], report.state_order[k], p, value, nu_k)
