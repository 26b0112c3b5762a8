"""Ground-truth solver for the charge-parametrized control problem.

For a given activity charge the optimal value satisfies a two-action
Bellman equation; this module solves it exactly by policy iteration (with
a value-iteration fallback kept as an independent path), sweeps the charge
to trace out the optimal active sets, locates each state's critical charge
by bisection, and cross-checks index vectors produced by the greedy
machinery against the sets the DP actually prefers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bandit import RBModel, normalized_passive_cost
from .errors import InternalConsistencyError
from .setsystem import SetSystem

DEFAULT_INDIFFERENCE = 1e-8
PI_SOFT_ITER_BOUND = 30


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
    method: str

    @property
    def active_closed(self) -> frozenset:
        """Active set under the closed convention (indifference counts as active)."""
        return self.active_opt | self.indifferent


def _action_values(model: RBModel, nu: float, v: np.ndarray):
    kernel = model.kernel
    q0 = model.h0 + kernel.apply(kernel.bP0, v)
    q1 = model.h1 + nu * model.theta1 + kernel.apply(kernel.bP1, v)
    return q0, q1


def solve(model: RBModel, nu: float, method: str = "policy",
          eps: float = DEFAULT_INDIFFERENCE, *,
          start: np.ndarray | None = None) -> DPResult:
    """Solve the charge problem exactly at a fixed charge.

    Policy iteration evaluates each candidate policy by a linear solve and
    improves greedily, so termination is finite from any initial policy;
    it starts from the policy engaged on the boolean mask ``start``
    (all-active by default).  Value iteration is the independent fallback
    (sup-norm stop 1e-12) and ignores ``start``.  Uncontrollable states
    are forced active.
    """
    if not model.beta < 1.0:
        raise ValueError("DP solve requires beta < 1")
    n = model.n_states
    forced = ~model.ctrl_mask

    if method == "policy":
        active = np.ones(n, dtype=bool) if start is None else forced | start
        if active.shape != (n,):
            raise ValueError(f"start must be a boolean mask of shape ({n},)")
        engaged = model.h1 + nu * model.theta1
        iterations = 0
        for _ in range(2 ** max(1, len(model.controllable)) + 2):
            iterations += 1
            v = model.kernel.solve(active, np.where(active, engaged, model.h0))
            q0, q1 = _action_values(model, nu, v)
            scale = max(1.0, float(np.abs(v).max()))
            better = np.where(active, q0 < q1 - 1e-12 * scale, q1 < q0 - 1e-12 * scale)
            better &= model.ctrl_mask
            if not better.any():
                break
            active = active ^ better
        else:
            raise InternalConsistencyError("policy iteration failed to terminate")
        if iterations > PI_SOFT_ITER_BOUND:
            warnings.warn(f"policy iteration took {iterations} passes")
    elif method == "value":
        v = np.zeros(n)
        iterations = 0
        # geometric contraction: bound the pass count from beta, generously
        max_iter = 10_000 if model.beta == 0 else int(60 / max(1e-12, -np.log10(model.beta))) + 10_000
        for _ in range(max_iter):
            iterations += 1
            q0, q1 = _action_values(model, nu, v)
            v_new = np.where(forced, q1, np.minimum(q0, q1))
            if float(np.max(np.abs(v_new - v))) < 1e-12:
                v = v_new
                break
            v = v_new
        else:
            raise InternalConsistencyError("value iteration failed to converge")
        q0, q1 = _action_values(model, nu, v)
    else:
        raise ValueError(f"unknown method {method!r}")

    bellman = np.where(forced, q1, np.minimum(q0, q1))
    scale = max(1.0, float(np.abs(v).max()))
    if float(np.abs(bellman - v).max()) > 1e-8 * scale:
        raise InternalConsistencyError("Bellman residual too large after solve")
    gap = q1 - q0
    active_opt = frozenset(np.flatnonzero(model.ctrl_mask & (gap < -eps)).tolist())
    indifferent = frozenset(np.flatnonzero(model.ctrl_mask & (np.abs(gap) <= eps)).tolist())
    return DPResult(v, active_opt, indifferent, gap, iterations, method)


def _warm_solver(model: RBModel, eps: float = DEFAULT_INDIFFERENCE):
    """``solve`` over a sequence of charges, each policy iteration started
    from the previous optimal closed active set: along a sorted sequence
    that is optimal already, or a few states away."""
    prev = None

    def at(nu: float) -> DPResult:
        nonlocal prev
        start = None if prev is None else model.active_rows(prev.active_closed)
        prev = solve(model, nu, eps=eps, start=start)
        return prev
    return at


@dataclass(frozen=True)
class SweepReport:
    grid: tuple[float, ...]
    active_sets: tuple[frozenset, ...]
    nested_decreasing: bool
    in_family: tuple[bool, ...] | None


def nu_sweep(model: RBModel, grid, eps: float = DEFAULT_INDIFFERENCE,
             family: SetSystem | None = None) -> SweepReport:
    """Trace the optimal active set over an ascending charge grid.

    Sets use the closed convention (indifferent states included).  Reports
    whether the sequence is nested decreasing and, when a family over
    sorted(controllable) is supplied, whether every set belongs to it.
    """
    grid = [float(g) for g in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    ctrl = sorted(model.controllable)
    at = _warm_solver(model, eps)
    sets = [at(g).active_closed for g in grid]
    nested = all(t <= s for s, t in zip(sets, sets[1:]))
    in_family = None
    if family is not None:
        pos = {j: e for e, j in enumerate(ctrl)}
        in_family = tuple(frozenset(pos[j] for j in s) in family for s in sets)
    return SweepReport(tuple(grid), tuple(sets), nested, in_family)


def fair_charge(model: RBModel, j: int, tol: float = 1e-10,
                check_single_root: bool = True) -> float:
    """Critical charge at which both actions are optimal in state j.

    Bisection on the action gap at j under the optimal continuation value.
    The initial bracket scales with the normalized passive costs and is
    expanded geometrically until the gap changes sign; if a coarse scan of
    the final bracket reveals several crossings a warning listing the
    bracketing subintervals is emitted.
    """
    if j not in model.controllable:
        raise ValueError(f"state {j} is not controllable")

    at = _warm_solver(model)

    def gap(nu: float) -> float:
        return float(at(nu).gap[j])

    hhat = normalized_passive_cost(model)
    ctrl = sorted(model.controllable)
    span = 10.0 * max(1.0, float(np.max(np.abs(hhat))) / float(np.min(model.theta1[ctrl])))
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:   # tol is below the float spacing here
            break
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if check_single_root:
        pts = np.linspace(scan_lo, scan_hi, 33)
        vals = [gap(p) for p in pts]
        crossings = [(float(pts[k]), float(pts[k + 1])) for k in range(len(pts) - 1)
                     if (vals[k] < 0.0) != (vals[k + 1] < 0.0)]
        if len(crossings) > 1:
            warnings.warn(f"action gap at state {j} crosses zero in several "
                          f"intervals: {crossings}; returning bisection root")
    return root


@dataclass(frozen=True)
class CrosscheckReport:
    grid: tuple[float, ...]
    expected: tuple[frozenset, ...]
    observed: tuple[frozenset, ...]
    mismatches: tuple[tuple[float, frozenset, frozenset], ...]
    agree: bool


def crosscheck_indices(model: RBModel, sys: SetSystem, pcl_report,
                       eps: float = DEFAULT_INDIFFERENCE) -> CrosscheckReport:
    """Compare greedy indices against the DP-optimal active sets.

    Builds a charge grid from midpoints between consecutive distinct
    indices plus points beyond both extremes and the index values
    themselves.  Off the breakpoints the DP set must equal
    {j : charge <= index_j} exactly; at a breakpoint the DP cannot separate
    the closed and open conventions, so both are accepted there.
    """
    if not pcl_report.indexable:
        raise ValueError("cross-check requires a PCL-indexable report")
    nu_by_state = pcl_report.nu_by_state
    values = sorted(nu_by_state.values())
    span = max(1.0, values[-1] - values[0])
    distinct: list[float] = []
    for v in values:
        if not distinct or v - distinct[-1] > 1e-9 * span:
            distinct.append(v)
    grid = [distinct[0] - 0.5 * span]
    for a, b in zip(distinct, distinct[1:]):
        grid.append(0.5 * (a + b))
    grid.append(distinct[-1] + 0.5 * span)
    grid = sorted(grid + distinct)

    states = np.array(sorted(nu_by_state))
    nus = np.array([nu_by_state[j] for j in states])
    at = _warm_solver(model, eps)
    expected, observed, mismatches = [], [], []
    for g in grid:
        engaged = g <= nus
        closed = frozenset(states[engaged].tolist())
        dp_set = at(g).active_closed
        expected.append(closed)
        observed.append(dp_set)
        near = np.abs(g - nus) <= 1e-9 * span
        if near.any():
            open_set = frozenset(states[engaged & ~near].tolist())
            if not (open_set <= dp_set <= closed):
                mismatches.append((g, closed, dp_set))
        elif dp_set != closed:
            mismatches.append((g, closed, dp_set))
    return CrosscheckReport(tuple(grid), tuple(expected), tuple(observed),
                            tuple(mismatches), not mismatches)
