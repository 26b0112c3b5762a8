"""Ground-truth solver for the charge-parametrized control problem.

For a given activity charge the optimal value satisfies a two-action
Bellman equation; ``solve`` solves it exactly by policy iteration, with a
value-iteration fallback kept as an independent path.

A fixed policy's values are linear in the charge, so the optimal policy is
piecewise constant in it, with exact breakpoints where some state's action
gap changes sign (the parametric-objective simplex on the MDP's linear
program).  ``charge_path`` walks those pieces once, a speculative batch at
a time: it predicts the next policies, solves them in one stacked call
and keeps the prefix that the one-piece-at-a-time walk would take; the
charge sweep, the index cross-check and the critical charges read the path,
its pieces' policies and the breakpoints between them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .bandit import PCLReport, RBModel, _require_ground, _require_report
from .errors import InternalConsistencyError, UnsupportedModelError, _is_level
from .setsystem import SetSystem

DEFAULT_INDIFFERENCE = 1e-8
INDEX_REL_TOL = 1e-9   # DP and PCL indices agree within this, relative to max(1, max |nu|)
PI_SOFT_ITER_BOUND = 30
BATCH_ENTRIES = 1 << 16   # operator entries held by one batch of the charge path's solves


@dataclass(frozen=True)
class DPResult:
    """Optimal value vector plus the action classification at controllable
    states: strictly-active set, strictly-passive states implied, and the
    indifference band where the action gap is within ``eps``."""

    v: np.ndarray
    active_opt: frozenset
    indifferent: frozenset
    gap: np.ndarray           # active minus passive continuation value
    iterations: int

    @property
    def active_closed(self) -> frozenset:
        """Active set under the closed convention (indifference counts as active)."""
        return self.active_opt | self.indifferent


def _action_values(model: RBModel, nu: float, v: np.ndarray):
    kernel = model.kernel
    q0 = model.h0 + kernel.apply(kernel.bP0, v)
    q1 = model.h1 + nu * model.theta1 + kernel.apply(kernel.bP1, v)
    return q0, q1


def _improving(ctrl, active, v, q0, q1) -> np.ndarray:
    """The states where switching the action of policy ``active`` gains more
    than 1e-12 times its value scale; policies stack on the leading axes."""
    tol = 1e-12 * np.fmax(1.0, np.abs(v).max(axis=-1, keepdims=True))
    return np.where(active, q0 < q1 - tol, q1 < q0 - tol) & ctrl


def _settled(ctrl, v, q0, q1) -> np.ndarray:
    """Whether the Bellman residual of ``v`` is within 1e-8 times its scale (a NaN fails)."""
    residual = np.abs(np.where(ctrl, np.minimum(q0, q1), q1) - v).max(axis=-1)
    return residual <= 1e-8 * np.fmax(1.0, np.abs(v).max(axis=-1))


def _checked_gap(model: RBModel, v: np.ndarray, q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """The action gap q1 - q0, after the Bellman residual check of ``v``."""
    if not _settled(model.ctrl_mask, v, q0, q1):
        raise InternalConsistencyError("Bellman residual too large after solve")
    return q1 - q0


def _lines(model: RBModel, active: np.ndarray) -> tuple[np.ndarray, ...]:
    """(vh, vt, a0, b0, a1, b1), each (m, n), of each policy of an (m, n)
    stack ``active``, from one stacked solve for their cost and activity
    rows: values vh + nu*vt, q0 = a0 + nu*b0, q1 = a1 + nu*b1."""
    k, zero = model.kernel, np.zeros(model.n_states)
    x = k.solve(k.system(active), np.where(active, np.stack((model.h1, model.theta1))[:, None],
                                           np.stack((model.h0, zero))[:, None]))
    q0, q1 = k.apply(k.bP0, x), k.apply(k.bP1, x)
    return x[0], x[1], model.h0 + q0[0], q0[1], model.h1 + q1[0], model.theta1 + q1[1]


def _optimal(model: RBModel, active: np.ndarray, nu: float, lines=None):
    """Policy iteration at charge ``nu`` from the policy ``active`` (whose
    ``_lines`` may be given): the optimal policy, its lines, its values,
    its checked action gap and the number of passes.  A switch improves
    when it gains more than 1e-12 times the value scale."""
    passes = 1
    while True:
        lines = [a[0] for a in _lines(model, active[None])] if lines is None else lines
        vh, vt, a0, b0, a1, b1 = lines
        v, q0, q1 = vh + nu * vt, a0 + nu * b0, a1 + nu * b1
        better = _improving(model.ctrl_mask, active, v, q0, q1)
        if not better.any():
            break
        if passes == 2 ** max(1, len(model.controllable)) + 2:
            raise InternalConsistencyError("policy iteration failed to terminate")
        active, passes, lines = active ^ better, passes + 1, None
    if passes > PI_SOFT_ITER_BOUND:
        warnings.warn(f"policy iteration took {passes} passes")
    return active, lines, v, _checked_gap(model, v, q0, q1), passes


def solve(model: RBModel, nu: float, method: str = "policy",
          eps: float = DEFAULT_INDIFFERENCE) -> DPResult:
    """Solve the charge problem exactly at a fixed charge.

    Policy iteration evaluates each candidate policy by a linear solve and
    improves greedily from the all-active policy, so termination is
    finite.  Value iteration is the independent fallback (sup-norm stop
    1e-12).  Uncontrollable states are forced active.
    """
    if not model.beta < 1.0:
        raise ValueError("DP solve requires beta < 1")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"tolerance eps must be finite and nonnegative, got {eps}")
    if not math.isfinite(nu):
        raise ValueError(f"charge must be finite, got {nu}")

    if method == "policy":
        _, _, v, gap, iterations = _optimal(model, np.ones(model.n_states, dtype=bool), nu)
    elif method == "value":
        forced, v = ~model.ctrl_mask, np.zeros(model.n_states)
        # geometric contraction: bound the pass count from beta, generously
        max_iter = 10_000 if model.beta == 0 else int(60 / max(1e-12, -np.log10(model.beta))) + 10_000
        for iterations in range(1, max_iter + 1):
            q0, q1 = _action_values(model, nu, v)
            v, v_old = np.where(forced, q1, np.minimum(q0, q1)), v
            if float(np.max(np.abs(v - v_old))) < 1e-12:
                break
        else:
            raise InternalConsistencyError("value iteration failed to converge")
        gap = _checked_gap(model, v, *_action_values(model, nu, v))
    else:
        raise ValueError(f"unknown method {method!r}")

    active_opt, indifferent = _sets(model.ctrl_mask & np.array([gap < -eps, np.abs(gap) <= eps]))
    return DPResult(v, active_opt, indifferent, gap, iterations)


def _sets(masks: np.ndarray) -> tuple[frozenset, ...]:
    """The states of each row of a boolean mask array, as frozensets."""
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in masks)


@dataclass(frozen=True)
class ChargePath:
    """The optimal policy at every charge, one piece per policy.

    Piece k holds from ``breakpoints[k - 1]`` to ``breakpoints[k]``
    (unbounded at either end; ascending, and equal only where roundoff
    made two flips at one charge), with the policy ``policies[k]`` (active
    mask, uncontrollable states active): O(pieces x n) bytes in all.
    """

    model: RBModel
    breakpoints: np.ndarray
    policies: np.ndarray

    @property
    def flips(self) -> np.ndarray:
        """The states whose optimal action changes at each breakpoint, one
        mask row per breakpoint."""
        return self.policies[1:] ^ self.policies[:-1]

    def closed(self, charges: np.ndarray) -> np.ndarray:
        """The optimal active set at each charge, one mask row per charge; a
        breakpoint reads its left piece, where the states turning passive are active."""
        return self.policies[np.searchsorted(self.breakpoints, charges)] & self.model.ctrl_mask


def charge_path(model: RBModel) -> ChargePath:
    """The optimal policy at every charge, walked from the far left.

    Start: policy iteration at a charge left of every crossing of the
    policy's gap lines, from all-active and then from each optimum found,
    until the optimum is the policy it started from.  Walk: at the nearest
    charge where a controllable state's gap line turns against its action,
    flip every state that turns within 1e-12 (relative) of it; policy
    iteration just right of that breakpoint certifies or improves the
    result; a crossing that roundoff puts left of the last breakpoint flips
    at it, so the breakpoints never descend.  Each piece's policy passes the
    Bellman residual check.  A slope within 1e-12 of the largest activity
    theta/(1 - beta) counts as flat.  Meeting a policy twice, which no exact
    path does, raises InternalConsistencyError.

    Batches: from the current piece, the next K policies are predicted by
    flipping its turning states one at a time, by ascending crossing, and
    all K are solved in one stacked call.  Array expressions then repeat
    the walk's step from each piece (turning set, breakpoint, candidate,
    policy-iteration certificate, residual and met-twice checks), and the
    confirmed prefix is kept; at the first miss the walk takes one step by
    policy iteration.  The first batch predicts every turning state of the
    starting piece; after that, K doubles after a fully confirmed batch and
    is at most 2c + 1 after a batch that confirmed c.  So the wasted solves are
    at most one first batch, plus the confirmed solves, plus the misses; a
    batch holds at most ``BATCH_ENTRIES`` operator entries (at least one
    system).  The path is the one-step walk's, bit for bit.
    """
    if not model.beta < 1.0:
        raise ValueError("DP solve requires beta < 1")
    ctrl = model.ctrl_mask
    flat = 1e-12 * float(np.abs(model.theta1).max()) / (1.0 - model.beta)
    active = np.ones(model.n_states, dtype=bool)
    lines = [a[0] for a in _lines(model, active[None])]
    for _ in range(2 ** max(1, len(model.controllable)) + 2):
        const, slope = lines[4] - lines[2], lines[5] - lines[3]
        sloped = ctrl & (np.abs(slope) > flat)
        nu = float(np.min(-const[sloped] / slope[sloped], initial=0.0))
        nu -= max(1.0, abs(nu))
        start, lines, _, _, _ = _optimal(model, active, nu, lines)
        if np.array_equal(start, active):
            break
        active = start
    else:
        raise InternalConsistencyError("no policy is optimal at every charge far left")

    pieces, breakpoints, seen = [active[None]], [], {active.tobytes()}
    size = cap = max(1, BATCH_ENTRIES // model.kernel.bP0.size)
    while True:
        turning = ctrl & (np.where(active, slope, -slope) > flat)
        if not turning.any():
            break
        # predict: flip the turning states one at a time, by ascending crossing
        at = np.where(turning, -const / np.where(turning, slope, 1.0), np.inf)
        size = min(size, cap, int(turning.sum()))
        rank = np.full(model.n_states, size)
        rank[np.argsort(at, kind="stable")[:size]] = np.arange(size)
        guess = active ^ (rank <= np.arange(size)[:, None])
        lines = _lines(model, guess)
        # verify: the one-piece step from each piece before the path's end,
        # with the policies and gap lines of the current piece in row 0
        A = np.vstack((active, guess))
        C, S = np.vstack((const, lines[4] - lines[2])), np.vstack((slope, lines[5] - lines[3]))
        turns = ctrl & (np.where(A, S, -S) > flat)
        j = min(size, int(np.argmin(np.append(turns.any(axis=1), False))))
        turns = turns[:j]
        at = np.where(turns, -C[:j] / np.where(turns, S[:j], 1.0), np.inf)
        # the breakpoints: a running max(crossing, last breakpoint), in that order
        r = np.array(list(accumulate(at.min(axis=1).tolist(), lambda a, b: max(b, a),
                                     initial=breakpoints[-1] if breakpoints else nu))[1:])
        t = (r + 1e-12 * np.maximum(1.0, np.abs(r)))[:, None]
        v, q0, q1 = (lines[k][:j] + t * lines[k + 1][:j] for k in (0, 2, 4))
        ok = (((A[:j] ^ (at <= t)) == guess[:j]).all(axis=1) & _settled(ctrl, v, q0, q1)
              & ~_improving(ctrl, guess[:j], v, q0, q1).any(axis=1))
        # the guesses differ from each other, so one pass finds the first repeat
        c = next((i for i in range(j) if not ok[i] or guess[i].tobytes() in seen), j)
        seen.update(g.tobytes() for g in guess[:c])
        pieces.append(guess[:c])
        breakpoints.extend(r[:c].tolist())
        active, const, slope = A[c], C[c], S[c]
        size = 2 * size if c == size else 2 * c + 1
        if c == j:
            continue
        # a miss: one step, by policy iteration from the step's candidate
        breakpoints.append(float(r[c]))
        active, lines, _, _, _ = _optimal(model, active ^ (at[c] <= t[c]), float(t[c, 0]))
        if active.tobytes() in seen:
            raise InternalConsistencyError(
                f"the charge path met a policy twice, at charge {breakpoints[-1]}")
        seen.add(active.tobytes())
        const, slope = lines[4] - lines[2], lines[5] - lines[3]
        pieces.append(active[None])
    return ChargePath(model, np.array(breakpoints, dtype=float), np.concatenate(pieces))


@dataclass(frozen=True)
class SweepReport:
    """The DP-optimal active sets along a charge grid, one mask row per charge."""

    grid: tuple[float, ...]
    active_masks: np.ndarray
    nested_decreasing: bool
    in_family: tuple[bool, ...] | None

    @property
    def active_sets(self) -> tuple[frozenset, ...]:
        return _sets(self.active_masks)


def nu_sweep(path: ChargePath, grid, family: SetSystem | None = None) -> SweepReport:
    """The optimal active set at each charge of an ascending grid, read off the path.

    A breakpoint reads the piece on its left, so states that turn passive
    there count as active.  Reports whether the sequence is nested
    decreasing and, when a family over sorted(controllable) is supplied,
    whether every set belongs to it.
    """
    model = path.model
    if family is not None:
        _require_ground(model, family)
    grid = [float(g) for g in grid]
    if not all(map(math.isfinite, grid)):
        raise ValueError("grid charges must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    closed = path.closed(np.array(grid))
    nested = not np.any(closed[1:] & ~closed[:-1])
    in_family = None if family is None else tuple(
        s in family for s in _sets(closed[:, model.ctrl_mask]))
    return SweepReport(tuple(grid), closed, nested, in_family)


def fair_charge(path: ChargePath, j: int) -> float:
    """The critical charge of state j: the one breakpoint of the path where
    j's optimal action switches (never -0.0).

    Raises UnsupportedModelError, naming the charges, when j switches at no
    breakpoint or at several.
    """
    if not (_is_level(j, path.model.n_states - 1) and path.model.ctrl_mask[j]):
        raise ValueError(f"state {j} is not controllable")
    at = path.breakpoints[path.flips[:, j]].tolist()
    if len(at) != 1:
        raise UnsupportedModelError(f"state {j} switches at {len(at)} charges, not one: {at}")
    return at[0] + 0.0


@dataclass(frozen=True)
class CrosscheckReport:
    """The DP index of each controllable state, in state order (NaN where
    the state does not go from active to passive at exactly one
    breakpoint), its largest distance ``gap`` from the PCL index (inf when
    some index is NaN), and the states off by more than the bound, as
    (state, PCL index, charges where the state switches)."""

    dp_indices: np.ndarray
    gap: float
    mismatches: tuple[tuple[int, float, tuple[float, ...]], ...]
    agree: bool


def crosscheck_indices(path: ChargePath, report: PCLReport) -> CrosscheckReport:
    """Compare the indices of a PCL-indexable report of ``path.model``
    with the DP indices read off the path.

    The DP index of state j is the one breakpoint where j switches, when
    j is active on the first piece and passive on the last.  The two agree
    when every DP index is within INDEX_REL_TOL * max(1, max |nu|) of the
    PCL index.
    """
    model = path.model
    _require_report(model, report, model.normalized_cost)
    if not report.indexable:
        raise ValueError("cross-check requires a PCL-indexable report")
    nus, ctrl = report.nu, model.ctrl_mask   # one index per controllable state, in state order
    flips = path.flips[:, ctrl]
    once = (flips.sum(axis=0) == 1) & path.policies[0, ctrl] & ~path.policies[-1, ctrl]
    dp_nu = np.full(once.size, np.nan)
    dp_nu[once] = path.breakpoints[np.nonzero(flips[:, once].T)[1]] + 0.0
    dist = np.where(once, np.abs(dp_nu - nus), np.inf)
    bad = np.flatnonzero(dist > INDEX_REL_TOL * max(1.0, float(np.abs(nus).max())))
    states = np.flatnonzero(ctrl)
    mismatches = tuple((int(states[c]), float(nus[c]),
                        tuple(path.breakpoints[flips[:, c]].tolist())) for c in bad)
    return CrosscheckReport(dp_nu, float(dist.max()), mismatches, not mismatches)
