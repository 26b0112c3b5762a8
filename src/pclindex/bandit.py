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
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csr_array, dia_array
from scipy.sparse.csgraph import connected_components

from .errors import (DegeneracyError, InfeasibleTargetError, InternalConsistencyError,
                     _is_level, UnsupportedModelError)
from .greedy import AGOutput, WorkloadOracle, ag2
from .setsystem import SetSystem

SOFT_STATE_CAP = 2000
DMR_TOL = 1e-9           # residual allowed in the diminishing-marginal-returns checks
TARGET_REL_TOL = 1e-12   # activity targets this close to a chain value hit it exactly
SCAN_ENTRIES = 1 << 18   # operator entries held by one batch of a family scan


def _band_rows(n: int, band: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The matrix row of each entry of (l, u) band storage over n columns,
    clipped into the matrix, and whether the entry lies inside it."""
    lower, upper = band
    rows = np.arange(-upper, lower + 1)[:, None] + np.arange(n)
    return np.clip(rows, 0, n - 1), (rows >= 0) & (rows < n)


def _by_rows(M: np.ndarray, band: tuple[int, int]) -> np.ndarray:
    """An operator's entries held in (l, u) band storage, row by row: entry
    (i, d) holds matrix entry (i, i - l + d), and 0 outside the matrix;
    stacked like M."""
    lower, upper = band
    n, d = M.shape[-1], np.arange(lower + upper + 1)
    cols = np.arange(n)[:, None] + d - lower
    inside = (cols >= 0) & (cols < n)
    return np.where(inside, M[..., lower + upper - d, np.clip(cols, 0, n - 1)], 0.0)


def _dense(M: np.ndarray, band: tuple[int, int]) -> np.ndarray:
    """The matrices held in (l, u) band storage by M, dense; stacked like M."""
    n = M.shape[-1]
    rows, inside = _band_rows(n, band)
    P = np.zeros((*M.shape[:-2], n, n))
    P[..., rows[inside], np.nonzero(inside)[1]] = M[..., inside]
    return P


class _SolveKernel:
    """The one-step operators beta*P0, beta*P1 and beta*(P1 - P0) of a
    model, and the set-active systems I - beta*P_S built from them.

    ``P`` stacks P0 and P1 in their model's storage: LAPACK band storage
    (entry (i, j) at row u + i - j, column j) when ``band`` is (l, u), in
    which each solve or product costs O(n * (l + u + 1)); dense when
    ``band`` is None.
    """

    def __init__(self, band: tuple[int, int] | None, P: np.ndarray, beta: float):
        n = P.shape[-1]
        states = np.arange(n)
        self.band = band
        self._rows, self._diag = states[:, None], (states, states)
        if band is not None:
            # the matrix row of each band entry, and the diagonal's band row
            self._rows, self._diag = _band_rows(n, band)[0], (band[1], slice(None))
        ops = (beta * P[0], beta * P[1], beta * (P[1] - P[0]))
        for M in ops:
            M.setflags(write=False)
        self.bP0, self.bP1, self.dP = ops

    def _mixed(self, mask: np.ndarray) -> np.ndarray:
        """beta*P_S, with the rows of beta*P1 where ``mask`` holds and the
        rows of beta*P0 elsewhere, in this kernel's storage; an (m, n)
        stack of masks gives a stack of m operators."""
        return np.where(mask[..., self._rows], self.bP1, self.bP0)

    @cached_property
    def _patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """Where beta*P0 is positive, and where beta*P1's sign pattern differs
        from it, row by row (a band laid out by ``_by_rows``); built on first
        use, so only the class pass pays for them."""
        p0, p1 = ((M if self.band is None else _by_rows(M, self.band)) > 0
                  for M in (self.bP0, self.bP1))
        return p0, p0 ^ p1

    def edges(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (source, target) states of the positive entries of beta*P_S,
        sources ascending; an (m, n) stack of masks gives the union of m
        graphs, system k's states numbered from k*n."""
        n, (p0, flip) = mask.shape[-1], self._patterns
        src, c = np.divmod(np.flatnonzero(p0 ^ (mask.reshape(-1, n)[..., None] & flip)),
                           p0.shape[1])
        return src, src + c - (src % n if self.band is None else self.band[0])

    def system(self, mask: np.ndarray) -> np.ndarray:
        """I - beta*P_S in this kernel's storage, stacked like ``mask``."""
        A = -self._mixed(mask)
        A[(..., *self._diag)] += 1.0
        return A

    def batches(self, m: int) -> list[slice]:
        """Slices of m systems, each at most ``SCAN_ENTRIES`` operator entries."""
        size = max(1, SCAN_ENTRIES // self.dP.size)
        return [slice(lo, lo + size) for lo in range(0, m, size)]

    def occupancy(self, mask: np.ndarray) -> np.ndarray:
        """The u with (I - b*beta*P_S)^T u = 1 for b = 1 - 1e-9: the
        expected time in each state over about 1e9 steps, summed over the
        initial states; stacked like ``mask``, banded stacks as one band."""
        b, n = 1.0 - 1e-9, mask.shape[-1]
        A = b * self.system(mask)
        A[(..., *self._diag)] += 1.0 - b
        if self.band is None:
            return np.linalg.solve(np.swapaxes(A, -1, -2), np.ones((*A.shape[:-1], 1)))[..., 0]
        # A's rows are A^T's columns, so A^T is stored with the band (upper, lower)
        T = _by_rows(A, self.band).reshape(-1, n, sum(self.band) + 1)
        T = T.transpose(2, 0, 1).reshape(T.shape[2], -1)
        return solve_banded(self.band[::-1], T, np.ones(T.shape[1]),
                            check_finite=False).reshape(mask.shape)

    def apply(self, M: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Product of an operator held in this kernel's storage with each
        row of x (states on the last axis), bit for bit as with each row
        alone: a stacked gemv when dense, as a gemm's bits differ.  A dense
        (m, n, n) stack of operators pairs with x's rows system by system."""
        if self.band is None:
            return np.matmul(M, x[..., None])[..., 0]
        lower, upper = self.band
        n = x.shape[-1]
        y = M[upper] * x
        for d in range(1, upper + 1):
            y[..., :n - d] += M[upper - d, d:] * x[..., d:]
        for d in range(1, lower + 1):
            y[..., d:] += M[upper + d, :n - d] * x[..., :n - d]
        return y

    def solve(self, masks: np.ndarray, rhs: np.ndarray, anchor=None) -> np.ndarray:
        """The x of (I - beta*P_S + e_r e_r^T) x = rhs, with the last term
        only if an ``anchor`` state r is given (one, or one per system), for
        one mask or an (m, n) stack of them.  ``rhs`` is shaped like ``masks``
        (states on the last axis), or has a leading axis of c right-hand sides
        per system; each system's are solved in one call, and each is checked
        against its own scale, 1e-10 * max(1, |rhs|, |x|).  Banded systems
        are the diagonal blocks of one band: zero couplings keep every bit.
        At beta = 1 the anchored matrix is nonsingular exactly when P_S is
        unichain and r is recurrent."""
        n = masks.shape[-1]
        A = self.system(masks.reshape(-1, n))
        if anchor is not None:
            A[np.arange(len(A)), anchor if self.band is None else self.band[1], anchor] += 1.0
        b = rhs.reshape(-1, len(A), n)
        if self.band is None:
            x = np.linalg.solve(A, b.transpose(1, 2, 0)).transpose(2, 0, 1)
            ax = self.apply(A, x)
        else:
            A = A.transpose(1, 0, 2).reshape(A.shape[1], -1)
            x = solve_banded(self.band, A, b.reshape(len(b), -1).T, check_finite=False).T
            x, ax = x.reshape(b.shape), self.apply(A, x).reshape(b.shape)
        err = np.abs(ax - b)
        # the scales are at least 1, so they are needed only past 1e-10
        if not err.max() <= 1e-10:
            res = err.max(axis=-1)
            scale = np.maximum(1.0, np.maximum(np.abs(b).max(axis=-1), np.abs(x).max(axis=-1)))
            if not (res <= 1e-10 * scale).all():
                raise InternalConsistencyError(
                    f"linear solve residual {res.max():g} exceeds tolerance")
        return x.reshape(rhs.shape)


@dataclass(frozen=True, eq=False, init=False)
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

    The two matrices are held once, in the kernel's storage: band storage
    when their nonzero pattern lies within l sub- and u superdiagonals with
    l + u + 1 < n, dense otherwise; they are checked there.  ``P0`` and
    ``P1`` are read-only dense arrays, built on first access.
    """

    h0: np.ndarray
    h1: np.ndarray
    theta1: np.ndarray
    beta: float
    controllable: frozenset
    kernel: _SolveKernel = field(init=False, repr=False)
    ctrl_mask: np.ndarray = field(init=False, repr=False)

    def __init__(self, P0, P1, h0, h1, theta1, beta: float, controllable: Iterable):
        P0, P1 = (np.array(P, dtype=float) for P in (P0, P1))
        n = len(P0) if P0.ndim else 0
        if not n or P0.shape != (n, n) or P1.shape != (n, n):
            raise ValueError("P0 and P1 must be nonempty square matrices of equal size")
        self._build(None, np.stack((P0, P1)), h0, h1, theta1, beta, controllable)

    @classmethod
    def _banded(cls, band: tuple[int, int], P: np.ndarray, *args) -> "RBModel":
        """The model whose P0 and P1, stacked in ``P``, are given in (l, u)
        band storage, zeros outside the matrix; ``args`` as for the constructor."""
        model = cls.__new__(cls)
        model._build(band, P, *args)
        return model

    def _build(self, band, P, h0, h1, theta1, beta, controllable):
        """Store the stack P (dense, or in ``band`` storage) in the narrowest
        band that holds its nonzero entries, then check the model there and
        derive its kernel."""
        n, (k, j) = P.shape[-1], np.nonzero((P != 0).any(axis=0))
        offsets = k - j if band is None else k - band[1]    # i - j of each nonzero entry
        lower, upper = int(offsets.max(initial=0)), int(-offsets.min(initial=0))
        if lower + upper + 1 >= n:     # the band covers the matrix
            P = P if band is None else _dense(P, band)
            band = None
        else:
            rows, inside = _band_rows(n, (lower, upper))
            P = (np.where(inside, P[:, rows, np.arange(n)], 0.0) if band is None
                 else P[:, band[1] - upper:band[1] + lower + 1])
            band = (lower, upper)
        h0, h1, theta1 = (np.array(v, dtype=float) for v in (h0, h1, theta1))
        for name, v in (("h0", h0), ("h1", h1), ("theta1", theta1)):
            if v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        R0, R1 = P if band is None else _by_rows(P, band)   # the matrices' rows
        for name, v in (("P0", R0), ("P1", R1), ("h0", h0), ("h1", h1), ("theta1", theta1)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")
        for name, R in (("P0", R0), ("P1", R1)):
            if np.any(R < -1e-12):
                raise ValueError(f"{name} has negative entries")
            if np.max(np.abs(R.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError(f"{name} rows must sum to 1 within 1e-12")
        if not np.all(theta1 > 0):
            raise ValueError("activity weights theta1 must be strictly positive")
        if not (0.0 <= beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {beta}")
        ctrl = frozenset(controllable)
        plain = set(map(type, ctrl)) <= {int}     # then the range alone decides
        if not (plain and 0 <= min(ctrl, default=0) and max(ctrl, default=0) < n
                or all(_is_level(j, n - 1) for j in ctrl)):   # a bool or 1.5 is refused, not cut
            raise ValueError(f"controllable states must be integers in 0..{n - 1}")
        ctrl = frozenset(map(int, ctrl))
        ctrl_mask = np.zeros(n, dtype=bool)
        ctrl_mask[sorted(ctrl)] = True
        fixed = np.flatnonzero(~ctrl_mask)
        differ = ((np.abs(R0[fixed] - R1[fixed]).max(axis=1, initial=0.0) > 1e-12)
                  | (np.abs(h0[fixed] - h1[fixed]) > 1e-12))
        if differ.any():
            raise ValueError(f"state {fixed[differ.argmax()]} declared uncontrollable "
                             "but its two actions differ")
        kernel = _SolveKernel(band, P, beta)
        if n > SOFT_STATE_CAP and band is None:
            warnings.warn(f"model has {n} states; dense linear algebra may be slow")
        for arr in (P, h0, h1, theta1, ctrl_mask):
            arr.setflags(write=False)
        for name, value in (("_band", band), ("_P", P), ("h0", h0), ("h1", h1),
                            ("theta1", theta1), ("beta", beta), ("controllable", ctrl),
                            ("kernel", kernel), ("ctrl_mask", ctrl_mask)):
            object.__setattr__(self, name, value)

    def _matrix(self, a: int) -> np.ndarray:
        """P_a as a read-only dense array."""
        P = self._P[a] if self._band is None else _dense(self._P[a], self._band)
        P.setflags(write=False)
        return P

    @cached_property
    def P0(self) -> np.ndarray:
        """The passive transition matrix, dense and read-only."""
        return self._matrix(0)

    @cached_property
    def P1(self) -> np.ndarray:
        """The active transition matrix, dense and read-only."""
        return self._matrix(1)

    @property
    def n_states(self) -> int:
        return self._P.shape[-1]

    @property
    def uncontrollable(self) -> frozenset:
        return frozenset(range(self.n_states)) - self.controllable

    def active_rows(self, s: Iterable) -> np.ndarray:
        """Boolean mask of states engaged under the S-active policy."""
        s = list(s)   # a bool or 1.0 hashes as 1: each member is tested itself
        n = self.n_states
        if not (all(_is_level(j, n - 1) for j in s) and self.controllable.issuperset(s)):
            raise ValueError("active set must consist of controllable states")
        mask = ~self.ctrl_mask
        mask[s] = True
        return mask

    @cached_property
    def communicating(self) -> bool:
        """True iff every state is reachable from every other under some
        policy (strong connectivity of the union of the two transition
        graphs), decided once per model, on first use, from its storage."""
        edges, band = (self._P > 0).any(axis=0), self._band
        graph = edges if band is None else dia_array(   # scipy's DIA layout is band storage
            (edges, np.arange(band[1], -band[0] - 1, -1)), shape=(self.n_states,) * 2)
        n_comp, _ = connected_components(graph, directed=True, connection="strong")
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
        return self.kernel if self.beta == 1 else _SolveKernel(self._band, self._P, 1.0)


def _require_discounted(model: RBModel):
    if not model.beta < 1.0:
        raise UnsupportedModelError("operation needs a discount factor beta < 1")


def _require_state(model: RBModel, i: int):
    if not _is_level(i, model.n_states - 1):
        raise ValueError(f"initial state {i!r} is not an integer in 0..{model.n_states - 1}")


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


def _measures(model: RBModel, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The activity and cost measures of an (m, n) stack of masks, bit for
    bit as one mask gives them: a stacked solve per measure and batch."""
    return tuple(np.vstack([_set_active_measure(model, masks[part], active, passive)
                            for part in model.kernel.batches(len(masks))])
                 for active, passive in ((model.theta1, 0.0), (model.h1, model.h0)))


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


def marginal_workload(model: RBModel, s) -> np.ndarray:
    """Increment of the activity measure from a passive-to-active
    interchange against the S-active policy; exactly zero at
    uncontrollable states."""
    w = model.theta1 + model.kernel.apply(model.kernel.dP, activity_measure(model, s))
    w[~model.ctrl_mask] = 0.0
    return w


def marginal_cost(model: RBModel, s) -> np.ndarray:
    """Increment of the cost measure from a passive-to-active interchange
    against the S-active policy; exactly zero at uncontrollable states."""
    c = model.h0 - model.h1 - model.kernel.apply(model.kernel.dP, cost_measure(model, s))
    c[~model.ctrl_mask] = 0.0
    return c


def normalized_passive_cost(model: RBModel) -> np.ndarray:
    """Passive-cost vector after absorbing the always-active cost stream.

    Equals the marginal cost at the all-controllable active set; vanishes
    at uncontrollable states (verified to 1e-10, then zeroed exactly).
    """
    kernel = model.kernel
    inner = _set_active_measure(model, np.ones(model.n_states, dtype=bool), model.h1, model.h0)
    hhat = model.h0 - kernel.apply(kernel.system(np.zeros(model.n_states, dtype=bool)), inner)
    unctrl = sorted(model.uncontrollable)
    if unctrl:
        worst = float(np.max(np.abs(hhat[unctrl])))
        if worst > 1e-10 * max(1.0, float(np.max(np.abs(hhat)))):
            raise InternalConsistencyError(
                f"normalized passive cost {worst:g} at an uncontrollable state")
        hhat[unctrl] = 0.0
    return hhat


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


def _require_ground(model: RBModel, sys: SetSystem):
    if sys.n != len(model.controllable):
        raise ValueError(f"set system has ground size {sys.n}, expected {len(model.controllable)}")


def _pcl_report(model: RBModel, sys: SetSystem, average: bool) -> PCLReport:
    """The indexability test under either criterion: the family scan keeps
    each member's marginal workloads over sorted(S), by id, from batches of at
    most ``SCAN_ENTRIES`` operator entries evaluated together, discounted
    or average; under the latter the ground set's row gives the cost input."""
    _require_ground(model, sys)
    ctrl = sorted(model.controllable)
    at = np.array(ctrl, dtype=int)
    if not average:
        _require_discounted(model)
    kernel = model.average_kernel if average else model.kernel
    scan, violations = [], []
    for part in kernel.batches(len(sys)):
        member = sys.rows(part)
        masks = np.tile(~model.ctrl_mask, (len(member), 1))
        masks[:, at] = member
        if average:   # the ground set, when a member, is the last batch's last row
            *_, w, c_bar = _average_rows(model, masks)
        else:   # one stacked solve, then a product per member as in marginal_workload
            B = kernel.solve(masks, np.where(masks, model.theta1, 0.0))
            w = model.theta1 + kernel.apply(kernel.dP, B)
        W = w[:, at]
        violations += [(part.start + r, e, float(W[r, e])) for r, e in np.argwhere(~(W > 0.0))]
        # one gather lists row r's entries in sorted(S) order, row after row
        rows, ends = W[member], np.cumsum(member.sum(axis=1)).tolist()
        scan += [rows[lo:hi] for lo, hi in zip([0] + ends, ends)]
    if average and sys.ground not in sys:
        c_bar = _average_rows(model, np.ones((1, model.n_states), dtype=bool))[3]
    cost = c_bar[-1] if average else model.normalized_cost

    def row(i):   # the walk cannot pass a member with a nonpositive workload of its own
        w = scan[i]
        if violations and not (w > 0.0).all():
            s, k = sorted(ctrl[e] for e in sys.member(i)), int(np.argmin(w > 0.0))
            raise UnsupportedModelError(f"marginal workload w({s}, {s[k]}) = {float(w[k])} is "
                                        "not positive on the adaptive-greedy chain")
        return w
    oracle = WorkloadOracle(lambda s: row(sys.member_id(s)))
    oracle.member_row = lambda _, i: row(i)   # the walk reads its rows by id
    out = ag2(cost[at], oracle, sys)
    positive = not violations
    return PCLReport(
        indexable=positive and out.admissible,
        positive_workloads=positive,
        admissible=out.admissible,
        workload_violations=tuple((frozenset(ctrl[e] for e in sys.member(i)), ctrl[j], w)
                                  for i, j, w in violations),
        nu_by_state=dict(zip(ctrl, out.nu.tolist())),
        state_order=tuple(at[list(out.pi)].tolist()),
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


def _chain_masks(model: RBModel, report: PCLReport) -> np.ndarray:
    """The report's chain as one mask stack: row k is the S-active mask of
    ``state_order[k:]``, the last row that of the empty set."""
    order = report.state_order
    rank = np.where(model.active_rows(order), len(order), -1)   # uncontrollable: always active
    rank[list(order)] = np.arange(len(order))
    return rank >= np.arange(len(order) + 1)[:, None]


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
    slopes, intercepts = (x[:, i] for x in _measures(model, _chain_masks(model, report)))
    if (slopes[1:] > slopes[:-1] + 1e-12 * max(1.0, np.abs(slopes).max())).any():
        raise InternalConsistencyError(
            "value-function slopes are not nonincreasing along the chain")
    bps = report.ag.nu[list(report.ag.pi)]
    return ValueSegments(*(tuple(x.tolist()) for x in (bps, intercepts, slopes)))


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

    Aggregates measures under a finite positive initial distribution ``p``
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
    if p.shape != (n_states,) or not np.all((p > 0) & np.isfinite(p)):
        raise ValueError("initial distribution must be strictly positive over all states")

    def aggregates(masks):   # the p-aggregated activity and cost measures, row by row
        return [np.array([p @ row for row in x]) for x in _measures(model, masks)]

    masks, order = _chain_masks(model, report), list(report.state_order)
    b, v = aggregates(masks)
    strict = bool((b[:-1] > b[1:] + 1e-12 * max(1.0, np.abs(b).max())).all())
    rates = np.empty((3, len(order)))   # per chain step: its own rate, the min and max forms
    for k, cut in enumerate(range(len(order), 0, -1)):
        # S_k less each of its states (first order[k], which leaves S_{k+1})
        # costs at rate >= nu_k, and S_{k+1} plus each state it lacks saves at
        # rate <= nu_k: the cost increase per unit of activity removed
        swaps = np.repeat(masks[k:k + 2], (cut, k + 1), axis=0)
        swaps[np.arange(len(swaps)), order[k:] + order[:k + 1]] ^= True
        (b_t, v_t), base = aggregates(swaps), np.repeat([k, k + 1], (cut, k + 1))
        if (b[base] == b_t).any():
            raise DegeneracyError("dmr_report compares two policies of equal activity")
        r = (v_t - v[base]) / (b[base] - b_t)
        rates[:, k] = r[0], r[:cut].min(), r[cut:].max()
    nu = report.ag.nu[list(report.ag.pi)]
    worst = float(np.abs(rates[0] - nu).max(initial=0.0))
    ok = np.abs(rates - nu) <= DMR_TOL * np.maximum(1.0, np.abs(nu))
    scale_nu = max(1.0, np.abs(nu).max())
    return DMRReport(strict, bool(worst <= DMR_TOL * scale_nu), bool(ok[1].all()),
                     bool(ok[2].all()), bool((nu[1:] >= nu[:-1] - DMR_TOL * scale_nu).all()), worst)


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


def _recurrent_classes(shape: tuple[int, int], src: np.ndarray, dst: np.ndarray) -> tuple:
    """The number of closed strong components (no edge leaves them) of each
    of m graphs on n states, and the (m, n) mask of their states, from the
    edges src -> dst of their union, sources ascending, graph k's states
    numbered from k*n."""
    (m, n), size = shape, shape[0] * shape[1]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=size))))
    graph = csr_array((np.ones(len(src)), dst, indptr), shape=(size, size))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    closed, source = np.ones(n_comp, dtype=bool), labels[src]
    closed[source[source != labels[dst]]] = False
    system = np.empty(n_comp, dtype=int)
    system[labels] = np.arange(size) // n
    return np.bincount(system[closed], minlength=m), closed[labels].reshape(m, n)


def _average_rows(model: RBModel, masks: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`average_limits` of the policies of an (m, n) stack of masks:
    gains (2, m), biases (2, m, n), w_bar and c_bar, from one class pass,
    one occupancy solve, one solve with an anchor per system, one product."""
    if not model.communicating:
        raise UnsupportedModelError("model is not communicating")
    kernel, systems = model.average_kernel, np.arange(len(masks))
    counts, recurrent = _recurrent_classes(masks.shape, *kernel.edges(masks))
    if (counts != 1).any():
        raise UnsupportedModelError(
            f"policy chain is multichain ({counts[counts != 1][0]} recurrent classes)")
    anchor = np.where(recurrent, kernel.occupancy(masks), -np.inf).argmax(axis=1)
    rhs = np.stack((np.where(masks, model.theta1, 0.0),
                    np.where(masks, model.h1, model.h0), np.ones(masks.shape)))
    y = kernel.solve(masks, rhs, anchor)
    gains = y[:2, systems, anchor] / y[2, systems, anchor]
    bias = y[:2] - y[2] * gains[..., None]
    bias -= bias[:, systems, recurrent.argmax(axis=1)][..., None]   # the lowest recurrent state
    d = kernel.apply(kernel.dP, bias)
    w_bar = np.where(model.ctrl_mask, model.theta1 + d[0], 0.0)
    c_bar = np.where(model.ctrl_mask, model.h0 - model.h1 - d[1], 0.0)
    return gains, bias, w_bar, c_bar


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
    gains, bias, w_bar, c_bar = _average_rows(model, model.active_rows(s)[None])
    return AverageLimits(*gains[:, 0].tolist(), *bias[:, 0], w_bar[0], c_bar[0])


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
    order, masks = report.state_order, _chain_masks(model, report)
    gains, _, _, c_bar = _average_rows(model, masks[:1])
    _require_report(model, report, c_bar[0])
    if not report.indexable:
        raise UnsupportedModelError("model is not PCL-indexable under the average criterion")
    gains = [gains] + [_average_rows(model, masks[1:][part])[0]
                       for part in model.average_kernel.batches(len(masks) - 1)]
    b_bar, v_bar = np.hstack(gains).tolist()
    scale = max(1.0, max(abs(x) for x in b_bar))
    lo, hi = b_bar[-1], b_bar[0]
    if not lo - TARGET_REL_TOL * scale <= t <= hi + TARGET_REL_TOL * scale:   # a NaN target too
        raise InfeasibleTargetError(
            f"target {t} outside achievable activity range [{lo:g}, {hi:g}]")
    for k, bk in enumerate(b_bar):
        if abs(t - bk) <= TARGET_REL_TOL * scale:
            return ConstrainedPolicy(frozenset(order[k:]), None, None, v_bar[k], None)
    k = next(k for k in range(len(order)) if b_bar[k + 1] < t < b_bar[k])
    p = (t - b_bar[k + 1]) / (b_bar[k] - b_bar[k + 1])
    value = (1.0 - p) * v_bar[k + 1] + p * v_bar[k]
    nu_k = float(report.ag.nu[report.ag.pi[k]])
    return ConstrainedPolicy(frozenset(order[k + 1:]), order[k], p, value, nu_k)
