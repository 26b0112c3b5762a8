"""Ground-truth solver for the charge-parametrized control problem.

For a given activity charge the optimal value satisfies a two-action
Bellman equation; this module solves it exactly by policy iteration (with
a value-iteration fallback kept as an independent path), sweeps the charge
to trace out the optimal active sets, locates each state's critical charge
by bisection, and cross-checks index vectors produced by the greedy
machinery against the sets the DP actually prefers.

A fixed policy's value is linear in the charge, so policy iteration over
a sequence of charges solves each policy once and reuses it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bandit import PCLReport, RBModel, _require_ground, _require_report
from .errors import InternalConsistencyError
from .setsystem import SetSystem

DEFAULT_INDIFFERENCE = 1e-8
FAIR_CHARGE_TOL = 1e-10    # width at which the critical-charge bisection stops
PI_SOFT_ITER_BOUND = 30
EVALUATIONS_KEPT = 32      # policy evaluations cached per charge sequence


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


def _checked_gap(model: RBModel, v: np.ndarray, q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """The action gap q1 - q0, after checking the Bellman residual of each
    row of ``v`` against 1e-8 times that row's scale (a NaN fails)."""
    scale = np.maximum(1.0, np.abs(v).max(axis=-1))
    bellman = np.where(model.ctrl_mask, np.minimum(q0, q1), q1)
    if not np.all(np.abs(bellman - v).max(axis=-1) <= 1e-8 * scale):
        raise InternalConsistencyError("Bellman residual too large after solve")
    return q1 - q0


class _Policies:
    """Policy iteration at a sequence of charges, each started from the
    previous charge's closed optimal set (all-active at first).

    A policy S costs h_S + nu*theta_S, so it is solved once, for both
    columns, and its action-value pieces are kept for the most recent
    ``EVALUATIONS_KEPT`` policies.  Every test at a charge (improvement at
    1e-12 times the value scale, Bellman residual, eps classification) is
    that of a fresh policy iteration there.
    """

    def __init__(self, model: RBModel, eps: float = DEFAULT_INDIFFERENCE):
        if not model.beta < 1.0:
            raise ValueError("DP solve requires beta < 1")
        if not (math.isfinite(eps) and eps >= 0.0):
            raise ValueError(f"tolerance eps must be finite and nonnegative, got {eps}")
        self.model, self.eps = model, eps
        self.forced = ~model.ctrl_mask
        self.start = np.ones(model.n_states, dtype=bool)
        self.limit = 2 ** max(1, len(model.controllable)) + 2
        self._pieces: dict[bytes, tuple] = {}
        self._on = np.array([model.h1, model.theta1]).T
        self._off = np.array([model.h0, np.zeros(model.n_states)]).T

    def _test(self, active: np.ndarray, nus: np.ndarray):
        """Values, action values and improving switches of the policy
        ``active`` at a column of charges, one row per charge."""
        key = active.tobytes()
        if key not in self._pieces:
            m, k = self.model, self.model.kernel
            rhs = np.where(active[:, None], self._on, self._off)   # [h_S, theta_S]
            vh, vt = np.ascontiguousarray(k.solve(active, rhs).T)
            if len(self._pieces) == EVALUATIONS_KEPT:
                del self._pieces[next(iter(self._pieces))]
            # q0 = a0 + nu*b0 and q1 = a1 + nu*b1
            self._pieces[key] = (vh, vt, m.h0 + k.apply(k.bP0, vh), k.apply(k.bP0, vt),
                                 m.h1 + k.apply(k.bP1, vh), m.theta1 + k.apply(k.bP1, vt))
        vh, vt, a0, b0, a1, b1 = self._pieces[key]
        v = vh + nus * vt
        q0 = a0 + nus * b0
        q1 = a1 + nus * b1
        tol = 1e-12 * np.maximum(1.0, np.abs(v).max(axis=1, keepdims=True))
        better = np.where(active, q0 < q1 - tol, q1 < q0 - tol) & self.model.ctrl_mask
        return v, q0, q1, better

    def run(self, nus: np.ndarray):
        """Policy iteration at each charge of ``nus`` in turn: (v, gap,
        closed mask, passes), one row per charge.

        A pass tests one policy at a window of charges from the current one
        in one array expression.  Once the policy is optimal at the current
        charge, it also settles the next charges while each settled one's
        closed set is the policy (the next start) and the next finds no
        improving switch.  Along an ascending sequence a policy stays
        optimal over a run of charges, so the window is sized by the last
        run, and grows while the current run fills it.
        """
        k, n = len(nus), self.model.n_states
        values, gaps = np.empty((k, n)), np.empty((k, n))
        closed, iterations = np.empty((k, n), dtype=bool), np.ones(k, dtype=int)
        active, passes, i, w, run = self.start, 1, 0, 1, 0
        while i < k:
            v, q0, q1, better = self._test(active, nus[i:i + w, None])
            if better[0].any():
                if passes == self.limit:
                    raise InternalConsistencyError("policy iteration failed to terminate")
                active, passes = active ^ better[0], passes + 1
                w, run = (run + 1 if run > 1 else 1), 0
                continue
            if passes > PI_SOFT_ITER_BOUND:
                warnings.warn(f"policy iteration took {passes} passes")
            gap = q1 - q0
            cl = self.model.ctrl_mask & ((gap < -self.eps) | (np.abs(gap) <= self.eps))
            start = self.forced | cl
            kept = (start == active).all(axis=1)
            rows = settled = len(v)
            if rows > 1:
                ok = kept[:-1] & ~better[1:].any(axis=1)
                if not ok.all():
                    settled = 1 + int(ok.argmin())
            _checked_gap(self.model, v[:settled], q0[:settled], q1[:settled])
            done = slice(i, i + settled)
            values[done], gaps[done], closed[done] = v[:settled], gap[:settled], cl[:settled]
            iterations[i] = passes
            i += settled
            run += settled
            if kept[settled - 1] and settled == rows:
                passes, w = 1, run
                continue
            w, run = (run + 1 if run > 1 else 1), 0
            if kept[settled - 1]:   # the next charge starts from this policy and improves on it
                active, passes = active ^ better[settled], 2
            else:
                active, passes = start[settled - 1], 1
        self.start = active
        return values, gaps, closed, iterations

    def at(self, nu: float):
        """``run`` at one charge: (v, gap, closed mask, passes)."""
        return tuple(a[0] for a in self.run(np.array([nu], dtype=float)))


def solve(model: RBModel, nu: float, method: str = "policy",
          eps: float = DEFAULT_INDIFFERENCE) -> DPResult:
    """Solve the charge problem exactly at a fixed charge.

    Policy iteration (the one-charge case of the charge-sequence engine)
    evaluates each candidate policy by a linear solve and improves
    greedily from the all-active policy, so termination is finite.  Value
    iteration is the independent fallback (sup-norm stop 1e-12).
    Uncontrollable states are forced active.
    """
    policies = _Policies(model, eps)   # checks beta and eps for both methods
    if not math.isfinite(nu):
        raise ValueError(f"charge must be finite, got {nu}")

    if method == "policy":
        v, gap, _, passes = policies.at(nu)
        iterations = int(passes)
    elif method == "value":
        forced, v = policies.forced, np.zeros(model.n_states)
        iterations = 0
        # geometric contraction: bound the pass count from beta, generously
        max_iter = 10_000 if model.beta == 0 else int(60 / max(1e-12, -np.log10(model.beta))) + 10_000
        for _ in range(max_iter):
            iterations += 1
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
class SweepReport:
    """The DP-optimal active sets along a charge grid, one mask row per charge."""

    grid: tuple[float, ...]
    active_masks: np.ndarray
    nested_decreasing: bool
    in_family: tuple[bool, ...] | None

    @property
    def active_sets(self) -> tuple[frozenset, ...]:
        return _sets(self.active_masks)


def nu_sweep(model: RBModel, grid, eps: float = DEFAULT_INDIFFERENCE,
             family: SetSystem | None = None) -> SweepReport:
    """Trace the optimal active set over an ascending charge grid.

    Sets use the closed convention (indifferent states included).  Reports
    whether the sequence is nested decreasing and, when a family over
    sorted(controllable) is supplied, whether every set belongs to it.
    """
    if family is not None:
        _require_ground(model, family)
    grid = [float(g) for g in grid]
    if not all(map(math.isfinite, grid)):
        raise ValueError("grid charges must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    closed = _Policies(model, eps).run(np.array(grid))[2]
    nested = not np.any(closed[1:] & ~closed[:-1])
    in_family = None if family is None else tuple(
        s in family for s in _sets(closed[:, model.ctrl_mask]))
    return SweepReport(tuple(grid), closed, nested, in_family)


def fair_charge(model: RBModel, j: int) -> float:
    """Critical charge at which both actions are optimal in state j.

    Bisection on the action gap at j under the optimal continuation value,
    down to a bracket of width ``FAIR_CHARGE_TOL`` or the float spacing.
    The initial bracket scales with the normalized passive costs and is
    expanded geometrically until the gap changes sign; if a coarse scan of
    the final bracket reveals several crossings a warning listing the
    bracketing subintervals is emitted.
    """
    if j not in model.controllable:
        raise ValueError(f"state {j} is not controllable")

    policies = _Policies(model)

    def gap(nu: float) -> float:
        return float(policies.at(nu)[1][j])

    theta = model.theta1[model.ctrl_mask]
    span = 10.0 * max(1.0, float(np.max(np.abs(model.normalized_cost))) / float(np.min(theta)))
    lo, hi = -span, span
    g_lo, g_hi = gap(lo), gap(hi)
    grow = 0
    while g_lo > 0 and grow < 80:
        lo *= 4.0
        g_lo = gap(lo)
        grow += 1
    while g_hi < 0 and grow < 160:
        hi *= 4.0
        g_hi = gap(hi)
        grow += 1
    if g_lo > 0 or g_hi < 0:
        raise InternalConsistencyError("failed to bracket the critical charge")
    scan_lo, scan_hi = lo, hi
    while hi - lo > FAIR_CHARGE_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:   # the tolerance is below the float spacing here
            break
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    pts = np.linspace(scan_lo, scan_hi, 33)
    vals = policies.run(pts)[1][:, j]
    crossings = [(float(pts[k]), float(pts[k + 1])) for k in range(len(pts) - 1)
                 if (vals[k] < 0.0) != (vals[k + 1] < 0.0)]
    if len(crossings) > 1:
        warnings.warn(f"action gap at state {j} crosses zero in several "
                      f"intervals: {crossings}; returning bisection root")
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CrosscheckReport:
    """Index sets {j : charge <= nu_j} against DP-optimal sets, one mask row
    per charge; the failing rows as (charge, expected set, observed set)."""

    grid: tuple[float, ...]
    expected_masks: np.ndarray
    observed_masks: np.ndarray
    mismatches: tuple[tuple[float, frozenset, frozenset], ...]
    agree: bool

    @property
    def expected(self) -> tuple[frozenset, ...]:
        return _sets(self.expected_masks)

    @property
    def observed(self) -> tuple[frozenset, ...]:
        return _sets(self.observed_masks)


def crosscheck_indices(model: RBModel, report: PCLReport,
                       eps: float = DEFAULT_INDIFFERENCE) -> CrosscheckReport:
    """Compare the indices of a PCL-indexable report against the DP-optimal sets.

    Builds a charge grid from midpoints between consecutive distinct
    indices plus points beyond both extremes and the index values
    themselves.  Off the breakpoints the DP set must equal
    {j : charge <= index_j} exactly; at a breakpoint the DP cannot separate
    the closed and open conventions, so both are accepted there.
    """
    _require_report(model, report, model.normalized_cost)
    if not report.indexable:
        raise ValueError("cross-check requires a PCL-indexable report")
    nus = report.nu   # one entry per controllable state, in state order
    values = sorted(nus.tolist())
    span = max(1.0, values[-1] - values[0])
    distinct: list[float] = []
    for v in values:
        if not distinct or v - distinct[-1] > 1e-9 * span:
            distinct.append(v)
    mids = [0.5 * (a + b) for a, b in zip(distinct, distinct[1:])]
    grid = sorted([distinct[0] - 0.5 * span, *mids, distinct[-1] + 0.5 * span, *distinct])

    charges = np.array(grid)
    dp_sets = _Policies(model, eps).run(charges)[2]
    closed, near = np.zeros_like(dp_sets), np.zeros_like(dp_sets)
    closed[:, model.ctrl_mask] = charges[:, None] <= nus
    near[:, model.ctrl_mask] = np.abs(charges[:, None] - nus) <= 1e-9 * span
    # the DP set must lie between the open set (breakpoint states dropped) and the closed one
    bad = np.flatnonzero((closed & ~near & ~dp_sets).any(axis=1) | (dp_sets & ~closed).any(axis=1))
    mismatches = tuple(zip([grid[r] for r in bad], _sets(closed[bad]), _sets(dp_sets[bad])))
    return CrosscheckReport(tuple(grid), closed, dp_sets, mismatches, not mismatches)
