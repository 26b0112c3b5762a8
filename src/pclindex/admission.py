"""Admission control of a birth--death queue: recursions and indices.

The model is a single-server queue with buffer size n, state-dependent
arrival rates lambda_i, service rates mu_i, holding cost rates h_i and
discount rate alpha.  Shutting the entry gate is the active action; the
activity measure counts rejected customers.  Everything here works with
the raw continuous-time rates: marginal workloads/costs carry an
(alpha + Lambda) scaling relative to the uniformized discrete-time model,
which cancels in every index.

The closed recursions below (a_k coefficients, the marginal workload
table, the marginal-cost pivots and the index recursion) avoid any linear
solves; the uniformized model provides the independent verification path
through :mod:`pclindex.bandit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bandit import RBModel
from .errors import (AssumptionError, DegeneracyError, InternalConsistencyError,
                     NumericalRangeError, UnsupportedModelError, _is_level)

SIGN_SLACK = 1e-12  # slack for strict-inequality checks, scaled by magnitude


@dataclass(frozen=True, eq=False)
class ACModel:
    """Buffer size n, rates lambda_0..lambda_n and mu_1..mu_n, holding
    costs h_0..h_n, discount rate alpha >= 0.  The uniformization rate
    defaults to max(lambda_i + mu_i); mu_0 is 0 by convention."""

    n: int
    lam: np.ndarray
    mu: np.ndarray
    h: np.ndarray
    alpha: float
    Lambda: float | None = None

    def __post_init__(self):
        if not (_is_level(self.n, math.inf) and self.n >= 1):
            raise ValueError(f"buffer size must be an integer >= 1, got {self.n!r}")
        lam = np.array(self.lam, dtype=float)
        mu = np.array(self.mu, dtype=float)
        h = np.array(self.h, dtype=float)
        if lam.shape != (self.n + 1,):
            raise ValueError(f"lambda must have {self.n + 1} entries lambda_0..lambda_n")
        if mu.shape != (self.n,):
            raise ValueError(f"mu must have {self.n} entries mu_1..mu_n")
        if h.shape != (self.n + 1,):
            raise ValueError(f"h must have {self.n + 1} entries h_0..h_n")
        for name, v in (("lambda", lam), ("mu", mu), ("h", h), ("alpha", self.alpha),
                        ("Lambda", 0.0 if self.Lambda is None else self.Lambda)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")
        if np.any(lam < 0) or np.any(mu < 0):
            raise ValueError("rates must be nonnegative")
        if self.alpha < 0:
            raise ValueError("discount rate alpha must be nonnegative")
        mu_full = np.concatenate(([0.0], mu))
        needed = float(np.max(lam + mu_full))
        big = needed if self.Lambda is None else float(self.Lambda)
        if big < needed - 1e-12:
            raise ValueError(f"uniformization rate {big} below max(lambda_i + mu_i) = {needed}")
        for arr in (lam, mu, h):
            arr.setflags(write=False)
        for name, value in (("n", int(self.n)), ("lam", lam), ("mu", mu), ("h", h),
                            ("Lambda", big)):
            object.__setattr__(self, name, value)

    @property
    def mu_full(self) -> np.ndarray:
        """Service rates indexed by state, with mu_0 = 0."""
        return np.concatenate(([0.0], self.mu))

    @property
    def delta_d(self) -> np.ndarray:
        """Increments d_i - d_{i-1} for i = 1..n of the net service surplus
        d_i = mu_i - lambda_i (d_0 = -lambda_0)."""
        return np.diff(self.mu_full - self.lam)

    @property
    def delta_h(self) -> np.ndarray:
        """Increments h_i - h_{i-1} for i = 1..n."""
        return np.diff(self.h)

    @property
    def rho(self) -> np.ndarray:
        """Traffic ratios rho_i = lambda_i / mu_{i+1} for i = 0..n-1."""
        return self.lam[:-1] / self.mu


@dataclass(frozen=True)
class AssumptionReport:
    """Regularity conditions for threshold indexability: the net service
    surplus d_i must be concave nondecreasing with a strictly positive
    first increment, the holding costs convex nondecreasing."""

    dd_first_positive: bool
    dd_nonincreasing: bool
    dd_nonnegative: bool
    dh_nondecreasing: bool
    dh_nonnegative: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_assumptions(m: ACModel) -> AssumptionReport:
    """List any violations of the regularity conditions (report, no raise).

    Each condition is one comparison over the increment arrays; messages
    are built only at the flagged states, in state order, d before h."""
    dd, dh = m.delta_d, m.delta_h
    first = bool(dd[0] > 0)
    violations = [] if first else [f"delta_d[1] = {dd[0]:g} is not > 0"]
    # entry i - 1 compares increments i and i+1 in 1-based terms, i = 1..n-1
    d_inc = dd[1:] > dd[:-1] + SIGN_SLACK * np.maximum(1.0, np.abs(dd[1:]))
    h_dec = dh[1:] < dh[:-1] - SIGN_SLACK * np.maximum(1.0, np.abs(dh[1:]))
    d_neg, h_neg = dd[1:] < 0, dh[:-1] < 0
    for i in np.flatnonzero(d_inc | d_neg) + 1:
        if d_inc[i - 1]:
            violations.append(f"delta_d[{i + 1}] > delta_d[{i}]")
        if d_neg[i - 1]:
            violations.append(f"delta_d[{i + 1}] = {dd[i]:g} < 0")
    for i in np.flatnonzero(h_dec | h_neg) + 1:
        if h_dec[i - 1]:
            violations.append(f"delta_h[{i + 1}] < delta_h[{i}]")
        if h_neg[i - 1]:
            violations.append(f"delta_h[{i}] = {dh[i - 1]:g} < 0")
    return AssumptionReport(first, not d_inc.any(), not d_neg.any(), not h_dec.any(),
                            not h_neg.any(), tuple(violations))


def uniformize(m: ACModel) -> RBModel:
    """Discrete-time restless-bandit reformulation of the queue.

    Samples the chain at the uniformization rate: tridiagonal transition
    matrices, per-period costs h/(alpha+Lambda), activity weights
    lambda_j/(alpha+Lambda) (the per-period rejection probability under a
    shut gate) and discount factor Lambda/(alpha+Lambda).  The full-buffer
    state is uncontrollable.
    """
    scale = m.alpha + float(m.Lambda)
    return _uniformized(m, m.h / scale, m.lam / scale, frozenset(range(m.n)))


def _uniformized(m: ACModel, h: np.ndarray, theta: np.ndarray,
                 controllable: frozenset) -> RBModel:
    """The queue sampled at the uniformization rate, with per-period costs
    ``h`` and activity weights ``theta``; P0 and P1 are written in band
    storage, one sub- and one superdiagonal."""
    n, big = m.n, float(m.Lambda)
    lam, mu = m.lam, m.mu_full
    if not np.all(lam > 0):
        raise UnsupportedModelError("arrival rates lambda_0..lambda_n must be positive "
                                    "(zero arrivals make the activity weight vanish)")
    P = np.zeros((2, 3, n + 1))     # rows: the super-, main and subdiagonal
    P[:, 2, :-1] = mu[1:] / big
    P[0, 0, 1:] = lam[:n] / big     # no arrival is admitted into the full buffer
    P[0, 1] = (big - np.append(lam[:n], 0.0) - mu) / big
    P[1, 1] = (big - mu) / big
    return RBModel._banded((1, 1), P, h, h, theta, big / (m.alpha + big), controllable)


def _div(x: float, y: float) -> float:
    """x / y, and at y = +-0.0, where Python raises, IEEE's (numpy's) value."""
    return x / y if y else x * math.copysign(math.inf, y)


def ak_coefficients(m: ACModel) -> np.ndarray:
    """Pivot normalizers a_1..a_n of the workload recursion.

    a_1 = 1 and each subsequent value discounts the previous pivot's
    feedback through one birth--death cycle; all values must stay
    positive, which the regularity conditions guarantee.  The rate
    products are arrays computed once; per state only a_k runs, on floats.
    Every pivot recursion starts here, so a zero rate raises DegeneracyError here.
    """
    if np.any(m.lam[: m.n] <= 0) or np.any(m.mu <= 0):
        raise DegeneracyError("workload recursion needs positive lambda_0..lambda_{n-1} "
                              "and mu_1..mu_n")
    s = m.alpha + m.lam[:-1] + m.mu
    a = [1.0]
    for k, (x, y) in enumerate(zip((m.lam[1:-1] * m.mu[:-1]).tolist(),
                                   (s[:-1] * s[1:]).tolist()), start=2):
        try:
            a.append(1.0 - x / (y * a[-1]))
        except ZeroDivisionError:
            a.append(1.0 - _div(x, y * a[-1]))
        if a[-1] <= 0:
            raise AssumptionError(f"a_{k} = {a[-1]:g} is not positive; "
                                  "regularity conditions violated")
    return np.array(a)


def _pivot_recursion(m: ACModel) -> tuple[np.ndarray, np.ndarray]:
    """p_0 = lam_0 f_0 / (alpha + lam_0 + mu_1) and
    p_k = (lam_k / a_k) (f_k + p_{k-1} / rho_{k-1}) / (alpha + lam_k + mu_{k+1}):
    the workload pivots (f = alpha + delta_d) and the cost pivots
    (f = delta_h) in one pass.  a, lam_k / a_k, rho and the rate sums are
    arrays computed once; per state only the recurrences run, on floats."""
    lam = m.lam[:-1]
    s, gain = (m.alpha + lam + m.mu).tolist(), (lam / ak_coefficients(m)).tolist()
    rho = m.rho.tolist()
    fw, fc = (m.alpha + m.delta_d).tolist(), m.delta_h.tolist()
    pw, pc = _div(gain[0] * fw[0], s[0]), _div(gain[0] * fc[0], s[0])
    out_w, out_c = [pw], [pc]
    for g, x, y, r, sk in zip(gain[1:], fw[1:], fc[1:], rho, s[1:]):
        try:
            pw, pc = g * (x + pw / r) / sk, g * (y + pc / r) / sk
        except ZeroDivisionError:
            pw, pc = _div(g * (x + _div(pw, r)), sk), _div(g * (y + _div(pc, r)), sk)
        out_w.append(pw)
        out_c.append(pc)
    return np.array(out_w), np.array(out_c)


def workload_pivots(m: ACModel) -> np.ndarray:
    """Pivot workloads w(S_{k+2}, k) for k = 0..n-1, in O(n): each pivot
    follows from the previous one, so the index recursion needs no other
    entry of :func:`workload_table`."""
    return _pivot_recursion(m)[0]


def workload_table(m: ACModel) -> np.ndarray:
    """Marginal workloads W[k-1, i] = w(S_k, i) for the threshold chain.

    S_k = {k-1, ..., n-1} for k = 1..n and S_{n+1} = {}; states i run over
    the controllable range 0..n-1.  Values carry the (alpha + Lambda)
    scaling, so they depend only on the rates, not on Lambda.  Its pivot
    diagonal W[k, k-1] comes from :func:`workload_pivots`; the O(n^2)
    table itself, filled one column at a time across its rows, is a
    verification path.
    """
    n, alpha = m.n, m.alpha
    pivots = workload_pivots(m)
    lam, mu, rho, e = m.lam, m.mu_full, m.rho, alpha + m.delta_d
    back = (alpha + lam[1:n] + mu[2:]) / lam[1:n]
    W = np.zeros((n + 1, n))
    W[0, 0] = lam[0] * e[0] / (alpha + mu[1])
    k = np.arange(1, n + 1)
    W[k, k - 1] = pivots
    for i in range(1, n):   # w(S_k, i) from w(S_k, i-1), in every row k <= i at once
        W[: i + 1, i] = lam[i] * (e[i] + W[: i + 1, i - 1] / rho[i - 1]) / (alpha + mu[i + 1])
    k = k[1:]
    W[k, k - 2] = rho[k - 2] * (-e[k - 1] + back[k - 2] * pivots[k - 1])
    for i in range(n - 3, -1, -1):   # leftwards from the pivot, in every row k >= i + 3
        W[i + 3:, i] = rho[i] * (-e[i + 1] + back[i] * W[i + 3:, i + 1] - W[i + 3:, i + 2])
    return W


def marginal_cost_pivots(m: ACModel) -> np.ndarray:
    """Marginal costs c(S_{k+2}, k) for k = 0..n-1 (the pivot diagonal)."""
    return _pivot_recursion(m)[1]


def indices(m: ACModel) -> np.ndarray:
    """Allocation indices nu_0..nu_{n-1} (fair rejection charges).

    Computed by the O(n) pivot recursion; under the regularity conditions
    the sequence is nondecreasing and equals the marginal cost/workload
    pivot ratio, both of which are verified before returning.  Raises
    :class:`NumericalRangeError` at the first state whose index left the
    floating-point range.  Both pivot sequences come from one
    :func:`_pivot_recursion` pass and the denominators from one array
    expression; per state only the nu update runs, on Python floats.
    """
    pivots_w, pivots_c = _pivot_recursion(m)
    e = m.alpha + m.delta_d
    with np.errstate(over="ignore", invalid="ignore"):   # reported below instead
        denoms = (e[1:] + pivots_w[:-1] / m.rho[:-1]).tolist()
    dh, e = m.delta_h.tolist(), e.tolist()
    nu = [_div(dh[0], e[0])]
    for x, y, denom in zip(dh[1:], e[1:], denoms):
        try:
            nu.append(nu[-1] + (x - nu[-1] * y) / denom)
        except ZeroDivisionError:
            nu.append(nu[-1] + _div(x - nu[-1] * y, denom))
    nu = np.array(nu)
    bad = np.flatnonzero(~np.isfinite(nu))
    if bad.size:
        raise NumericalRangeError(
            f"index of state {bad[0]} is {nu[bad[0]]}: the recursion left the "
            f"floating-point range (n = {m.n})")
    scale = max(1.0, float(np.max(np.abs(nu))))
    if validate_assumptions(m).ok:
        if np.any(np.diff(nu) < -1e-9 * scale):
            raise InternalConsistencyError(
                "indices not nondecreasing although the regularity conditions hold")
        if np.max(np.abs(nu - pivots_c / pivots_w)) > 1e-9 * scale:
            raise InternalConsistencyError(
                "index recursion disagrees with pivot cost/workload ratios")
    return nu


def average_indices(m: ACModel) -> np.ndarray:
    """Long-run average indices: the same recursions evaluated at alpha = 0."""
    return indices(m if m.alpha == 0 else ACModel(m.n, m.lam, m.mu, m.h, 0.0, m.Lambda))


def closed_form_index(kind: str, lam: float, mu: float, h: float, j: int,
                      delta_h=None) -> float:
    """Closed-form index of state j at constant rates under the average criterion.

    The finite sum (1/mu) sum_{l=0..j} rho^l T_l, with rho = lam/mu and
    T_l = sum_{l<i<=j+1} delta_h_i the tail sums of the cost increments:
    h for ``linear`` (h_i = h i), h (2i - 1) for ``quadratic`` (h_i = h i^2)
    and ``delta_h`` (1-indexed) for ``general-sum``.  It holds at every
    traffic ratio (at rho = 1 it is the critical form), and with positive
    increments no term cancels near rho = 1.
    """
    if not all(math.isfinite(x) and x > 0 for x in (lam, mu)):
        raise ValueError(f"rates must be finite and positive, got lam = {lam}, mu = {mu}")
    if not _is_level(j, math.inf):
        raise ValueError(f"state index j must be an integer >= 0, got {j!r}")
    if kind == "general-sum":
        if delta_h is None:
            raise ValueError("general-sum form needs the increment sequence delta_h")
        dh = np.asarray(delta_h, dtype=float)[: j + 1]
        if len(dh) < j + 1:
            raise ValueError("delta_h too short for requested j")
    elif kind == "linear":
        dh = np.full(j + 1, float(h))
    elif kind == "quadratic":
        dh = h * (2.0 * np.arange(1, j + 2) - 1.0)
    else:
        raise ValueError(f"unknown closed form kind {kind!r}")
    tails = np.cumsum(dh[::-1])[::-1]
    return float(tails @ (lam / mu) ** np.arange(j + 1)) / mu


def whittle_counterexample() -> tuple[ACModel, dict[int, float]]:
    """Two-slot buffer with decreasing arrival rates whose Whittle index
    ranks the states against threshold order.

    Returns the model and the exact Whittle indices (unit activity
    weights) of its three states; the full-buffer state gets index 0
    because shutting the gate there changes nothing but the charge.
    """
    model = ACModel(
        n=2,
        lam=np.array([1.0, 0.5, 0.25]),
        mu=np.array([1.5, 1.5]),
        h=np.array([0.0, 1.0, 2.0]),
        alpha=1.0 / 33.0,
        Lambda=3.0,
    )
    expected = {
        0: float(Fraction(11022, 19111)),
        1: float(Fraction(3300, 6767)),
        2: 0.0,
    }
    return model, expected


def whittle_variant(m: ACModel) -> RBModel:
    """Uniformized model with unit activity weights and every state
    controllable: the classic Whittle setting for this queue.

    Costs stay in rate units (no 1/(alpha+Lambda) scaling), so the critical
    charge of the discrete-time model is the fair subsidy per unit of
    continuous time."""
    return _uniformized(m, m.h, np.ones(m.n + 1), frozenset(range(m.n + 1)))


def threshold_steady_state(m: ACModel, k: int) -> tuple[np.ndarray, float, float]:
    """Stationary distribution, average holding-cost rate and average
    rejection rate of the k-th threshold policy (gate shut from state
    k-1 on), for the undiscounted queue.

    The chain then lives on {0, ..., k-1}; detailed balance gives the
    distribution in closed form.  k = n+1 means the gate is always open.
    """
    if not (_is_level(k, m.n + 1) and k >= 1):
        raise ValueError(f"threshold chain position k must be an integer in 1..{m.n + 1}, "
                         f"got {k!r}")
    top = k - 1 if k <= m.n else m.n
    weights = np.zeros(m.n + 1)
    weights[0] = 1.0
    for i in range(1, top + 1):
        weights[i] = weights[i - 1] * m.lam[i - 1] / m.mu_full[i]
    p = weights / weights.sum()
    cost_rate = float(p @ m.h)
    # rejections occur while the gate is shut, or else in the full-buffer state
    reject_rate = float(p[top] * m.lam[top])
    return p, cost_rate, reject_rate
