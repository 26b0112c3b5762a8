"""The admission recursions against a numpy-scalar reference.

The reference below evaluates every recursion one numpy float64 element
at a time, the way the package once did, and fills the marginal workload
table one entry at a time where the package fills a column across rows.  IEEE doubles give the same
bits whichever of numpy or Python does the arithmetic, so the package's
plain-float loops must agree with it bit for bit, raise the same typed
error with the same message, and turn a zero denominator into numpy's
+-inf or NaN rather than a ZeroDivisionError.  The reference runs with
numpy's floating-point warnings off, as its zero and out-of-range
divisions would otherwise raise under the suite's warning filter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclindex import admission
from pclindex.admission import SIGN_SLACK, ACModel, AssumptionReport
from pclindex.errors import (AssumptionError, DegeneracyError, InternalConsistencyError,
                             NumericalRangeError)

from conftest import random_compliant_admission

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# Numpy-scalar reference
# ---------------------------------------------------------------------------

def ref_validate_assumptions(m):
    dd, dh = m.delta_d, m.delta_h
    violations = []
    first = bool(dd[0] > 0)
    if not first:
        violations.append(f"delta_d[1] = {dd[0]:g} is not > 0")
    noninc = nonneg = True
    for i in range(1, m.n):
        if dd[i] > dd[i - 1] + SIGN_SLACK * max(1.0, abs(dd[i])):
            noninc = False
            violations.append(f"delta_d[{i + 1}] > delta_d[{i}]")
        if dd[i] < 0:
            nonneg = False
            violations.append(f"delta_d[{i + 1}] = {dd[i]:g} < 0")
    h_nondec = h_nonneg = True
    for i in range(1, m.n):
        if dh[i] < dh[i - 1] - SIGN_SLACK * max(1.0, abs(dh[i])):
            h_nondec = False
            violations.append(f"delta_h[{i + 1}] < delta_h[{i}]")
        if dh[i - 1] < 0:
            h_nonneg = False
            violations.append(f"delta_h[{i}] = {dh[i - 1]:g} < 0")
    return AssumptionReport(first, noninc, nonneg, h_nondec, h_nonneg, tuple(violations))


def ref_ak_coefficients(m):
    if np.any(m.lam[: m.n] <= 0) or np.any(m.mu <= 0):
        raise DegeneracyError("workload recursion needs positive lambda_0..lambda_{n-1} "
                              "and mu_1..mu_n")
    lam, mu, alpha = m.lam, m.mu_full, m.alpha
    a = np.ones(m.n)
    for k in range(2, m.n + 1):
        denom = (alpha + lam[k - 2] + mu[k - 1]) * (alpha + lam[k - 1] + mu[k]) * a[k - 2]
        a[k - 1] = 1.0 - lam[k - 1] * mu[k - 1] / denom
        if a[k - 1] <= 0:
            raise AssumptionError(f"a_{k} = {a[k - 1]:g} is not positive; "
                                  "regularity conditions violated")
    return a


def ref_pivot_recursion(m, f):
    alpha, lam, rho, mu = m.alpha, m.lam, m.rho, m.mu_full
    a = ref_ak_coefficients(m)
    p = np.zeros(m.n)
    p[0] = lam[0] * f[0] / (alpha + lam[0] + mu[1])
    for k in range(1, m.n):
        p[k] = (lam[k] / a[k]) * (f[k] + p[k - 1] / rho[k - 1]) / (alpha + lam[k] + mu[k + 1])
    return p


def ref_workload_pivots(m):
    return ref_pivot_recursion(m, m.alpha + m.delta_d)


def ref_workload_table(m):
    n, alpha = m.n, m.alpha
    lam, rho, dd = m.lam, m.rho, m.delta_d
    mu = m.mu_full
    pivots = ref_workload_pivots(m)
    W = np.zeros((n + 1, n))

    def fill_up(k, start):
        for i in range(start, n):
            W[k - 1, i] = lam[i] * (alpha + dd[i] + W[k - 1, i - 1] / rho[i - 1]) \
                / (alpha + mu[i + 1])

    W[0, 0] = lam[0] * (alpha + dd[0]) / (alpha + mu[1])
    fill_up(1, 1)
    W[1, 0] = pivots[0]
    fill_up(2, 1)
    for k in range(2, n + 1):
        W[k, k - 1] = pivots[k - 1]
        W[k, k - 2] = rho[k - 2] * (
            -(alpha + dd[k - 1])
            + (alpha + lam[k - 1] + mu[k]) / lam[k - 1] * W[k, k - 1])
        fill_up(k + 1, k)
        for i in range(k - 3, -1, -1):
            W[k, i] = rho[i] * (
                -(alpha + dd[i + 1])
                + (alpha + lam[i + 1] + mu[i + 2]) / lam[i + 1] * W[k, i + 1]
                - W[k, i + 2])
    return W


def ref_marginal_cost_pivots(m):
    return ref_pivot_recursion(m, m.delta_h)


def ref_indices(m):
    n, alpha = m.n, m.alpha
    dd, dh, rho = m.delta_d, m.delta_h, m.rho
    pivots_w = ref_workload_pivots(m)
    nu = np.zeros(n)
    nu[0] = dh[0] / (alpha + dd[0])
    for j in range(1, n):
        denom = alpha + dd[j] + pivots_w[j - 1] / rho[j - 1]
        nu[j] = nu[j - 1] + (dh[j] - nu[j - 1] * (alpha + dd[j])) / denom
    bad = np.flatnonzero(~np.isfinite(nu))
    if bad.size:
        raise NumericalRangeError(
            f"index of state {bad[0]} is {nu[bad[0]]}: the recursion left the "
            f"floating-point range (n = {n})")
    scale = max(1.0, float(np.max(np.abs(nu))))
    if ref_validate_assumptions(m).ok:
        if np.any(np.diff(nu) < -1e-9 * scale):
            raise InternalConsistencyError(
                "indices not nondecreasing although the regularity conditions hold")
        if np.max(np.abs(nu - ref_marginal_cost_pivots(m) / pivots_w)) > 1e-9 * scale:
            raise InternalConsistencyError(
                "index recursion disagrees with pivot cost/workload ratios")
    return nu


PAIRS = (
    (admission.validate_assumptions, ref_validate_assumptions),
    (admission.ak_coefficients, ref_ak_coefficients),
    (admission.workload_pivots, ref_workload_pivots),
    (admission.marginal_cost_pivots, ref_marginal_cost_pivots),
    (admission.indices, ref_indices),
    (admission.workload_table, ref_workload_table),   # O(n^2): kept to small n
)


def outcome(fn, m):
    try:
        return fn(m), None
    except Exception as exc:   # compared by type and message
        return None, (type(exc), str(exc))


def same_bits(x, y) -> bool:
    """Equal shapes and bit patterns, any NaN matching any NaN."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or not np.array_equal(np.isnan(x), np.isnan(y)):
        return False
    keep = ~np.isnan(x)
    return np.array_equal(x[keep].view(np.uint64), y[keep].view(np.uint64))


def assert_matches_reference(m, pairs=PAIRS):
    for fn, ref in pairs:
        got, got_err = outcome(fn, m)
        with np.errstate(all="ignore"):
            want, want_err = outcome(ref, m)
        assert got_err == want_err, (fn.__name__, got_err, want_err)
        if want_err is not None:
            continue
        if isinstance(want, AssumptionReport):
            assert got == want, fn.__name__
        else:
            assert type(got) is np.ndarray and same_bits(got, want), fn.__name__


# ---------------------------------------------------------------------------
# Input regimes
# ---------------------------------------------------------------------------

alphas = st.sampled_from([0.0, 0.05, 1.0 / 3.0, 2.0])


@st.composite
def regular_queues(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_compliant_admission(rng, draw(st.integers(1, 60)), draw(alphas))


@st.composite
def irregular_queues(draw):
    # a regular queue with one condition broken at a drawn state, or rates
    # spread over six decades and free costs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, alpha = draw(st.integers(2, 40)), draw(alphas)
    m = random_compliant_admission(rng, n, alpha)
    lam, mu, h = m.lam.copy(), m.mu.copy(), m.h.copy()
    i, kick = draw(st.integers(1, n - 1)), draw(st.floats(0.5, 5.0))
    broken = draw(st.sampled_from(["dd_first", "dd_inc", "dd_neg", "dh_dec", "dh_neg",
                                   "spread"]))
    if broken == "dd_first":
        lam[1] += lam[0] + mu[0]
    elif broken == "dd_inc":
        mu[i] += kick
    elif broken == "dd_neg":
        lam[i] += kick
    elif broken == "dh_dec":
        h[i] += kick * (h[i + 1] - h[i - 1])
    elif broken == "dh_neg":
        h[i:] -= kick * (h[i] - h[i - 1]) + kick
    else:
        lam, mu = np.exp(rng.uniform(-7.0, 7.0, n + 1)), np.exp(rng.uniform(-7.0, 7.0, n))
        h = rng.uniform(-2.0, 5.0, n + 1)
    return ACModel(n, lam, mu, h, alpha)


@st.composite
def zero_rate_queues(draw):
    # some arrival and service rates are exactly 0, which every pivot
    # recursion refuses with the reference's DegeneracyError
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    lam = rng.uniform(0.1, 3.0, n + 1) * (rng.random(n + 1) < draw(st.floats(0.0, 1.0)))
    mu = rng.uniform(0.1, 3.0, n) * (rng.random(n) < draw(st.floats(0.0, 1.0)))
    h = np.cumsum(rng.uniform(0.0, 2.0, n + 1))
    return ACModel(n, lam, mu, h, draw(st.sampled_from([0.0, 0.0, 0.5])))


@st.composite
def heavy_traffic_queues(draw):
    # lambda / mu = 2 out to n ~ 1300: undiscounted workload pivots
    # underflow to 0 past state ~1070 and the indices overflow before
    # that; at lambda / mu = 1/2, or discounted, every value stays finite
    n = draw(st.integers(900, 1300))
    mu = draw(st.floats(0.5, 2.0))
    ratio = draw(st.sampled_from([2.0, 2.0, 0.5]))
    h = draw(st.floats(0.5, 5.0)) * np.arange(n + 1.0) ** draw(st.sampled_from([1.0, 1.3, 2.0]))
    return ACModel(n, np.full(n + 1, ratio * mu), np.full(n, mu), h,
                   draw(st.sampled_from([0.0, 0.0, 1e-3])))


@PROPERTY
@given(m=st.one_of(regular_queues(), irregular_queues(), zero_rate_queues()))
def test_admission_layer_matches_numpy_scalar_reference(m):
    assert_matches_reference(m)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(m=heavy_traffic_queues())
def test_admission_layer_matches_reference_past_float_range(m):
    assert_matches_reference(m, PAIRS[:-1])


def test_zero_denominator_quotient_is_numpy_division():
    values = (1.5, -1.5, 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324)
    for x in values:
        for y in (0.0, -0.0, 2.0, -np.inf):
            with np.errstate(all="ignore"):
                want = np.float64(x) / np.float64(y)
            got = admission._div(x, y)
            assert type(got) is float and same_bits(got, want), (x, y)


def test_zero_denominators_keep_numpy_values():
    # alpha = lambda_0 = mu_1 = 0 would zero the first rate sum and
    # lambda_1 = 0 a traffic ratio: every pivot recursion refuses the zero
    # rates, as the workload pivots always did, instead of returning NaN
    m = ACModel(3, [0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 1.0, 3.0, 6.0], 0.0)
    for fn in (admission.ak_coefficients, admission.marginal_cost_pivots,
               admission.workload_pivots, admission.indices):
        with pytest.raises(DegeneracyError, match="needs positive"):
            fn(m)
    assert_matches_reference(m)
    # alpha + delta_d_1 = mu_1 - lambda_1 + lambda_0 = 0 zeroes nu_0's denominator
    m = ACModel(2, [1.0, 2.0, 1.0], [1.0, 2.0], [0.0, 1.0, 3.0], 0.0)
    assert_matches_reference(m)
    with pytest.raises(NumericalRangeError, match="index of state 0 is inf"):
        admission.indices(m)
