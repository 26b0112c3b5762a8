import gc
import tracemalloc

import numpy as np
import pytest

from pclindex import bandit, dp
from pclindex.admission import (ACModel, ak_coefficients, average_indices,
                                closed_form_index, indices, marginal_cost_pivots,
                                threshold_steady_state, uniformize,
                                validate_assumptions, whittle_counterexample,
                                workload_table)
from pclindex.errors import NumericalRangeError, UnsupportedModelError
from pclindex.setsystem import threshold_family

from conftest import random_compliant_admission


def constant_rate_model(n, lam, mu, h_scale=1.0, alpha=0.0, power=1):
    h = h_scale * np.arange(n + 1.0) ** power
    return ACModel(n, np.full(n + 1, lam), np.full(n, mu), h, alpha)


def geo_sum(rho, i):
    """1 + rho + ... + rho^(i-1)."""
    return i if rho == 1.0 else (rho ** i - 1.0) / (rho - 1.0)


# ---------------------------------------------------------------------------
# Model and assumptions
# ---------------------------------------------------------------------------

def test_default_uniformization_rate():
    m = constant_rate_model(3, 1.0, 2.0)
    assert m.Lambda == pytest.approx(3.0)
    with pytest.raises(ValueError):
        ACModel(3, np.full(4, 1.0), np.full(3, 2.0), np.arange(4.0), 0.0, Lambda=2.5)


@pytest.mark.parametrize("name", ["lam", "mu", "h", "alpha", "Lambda"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_entries_are_rejected(name, value):
    fields = {"n": 2, "lam": np.ones(3), "mu": np.ones(2), "h": np.arange(3.0),
              "alpha": 0.1, "Lambda": 2.0}
    if name in ("alpha", "Lambda"):
        fields[name] = value
    else:
        fields[name][1] = value
    with pytest.raises(ValueError, match="non-finite"):
        ACModel(**fields)


@pytest.mark.parametrize("n", [True, 2.0])
def test_buffer_size_must_be_an_integer(n):
    # n = True was accepted and then written to model files as "n": true,
    # which the schema refuses on reload
    size = int(n)
    with pytest.raises(ValueError, match="buffer size must be an integer >= 1"):
        ACModel(n, np.ones(size + 1), np.ones(size), np.arange(size + 1.0), 0.1)


def test_assumptions_constant_rates_linear_costs_pass():
    assert validate_assumptions(constant_rate_model(5, 1.0, 1.5)).ok


def test_assumptions_counterexample_rates_pass():
    model, _ = whittle_counterexample()
    assert validate_assumptions(model).ok


def test_assumptions_increasing_arrivals_fail():
    m = ACModel(2, np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]),
                np.arange(3.0), 0.0)
    report = validate_assumptions(m)
    assert not report.ok and not report.dd_first_positive


def test_assumption_report_pins_every_violation():
    # all five conditions fail, several at more than one state; the messages
    # run in state order, the surplus d before the cost h
    m = ACModel(8, [1.0, 6.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 18.0],
                [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0],
                [0.0, 2.0, 1.0, 5.0, 3.5, 3.5, 9.0, 2.0, -6.0], 0.0)
    report = validate_assumptions(m)
    assert (report.dd_first_positive, report.dd_nonincreasing, report.dd_nonnegative,
            report.dh_nondecreasing, report.dh_nonnegative) == (False,) * 5
    assert report.violations == (
        "delta_d[1] = -3 is not > 0",
        "delta_d[2] > delta_d[1]",
        "delta_d[3] = -3 < 0",
        "delta_d[4] > delta_d[3]",
        "delta_d[5] = -10 < 0",
        "delta_d[6] > delta_d[5]",
        "delta_d[7] = -11 < 0",
        "delta_d[8] > delta_d[7]",
        "delta_d[8] = -5 < 0",
        "delta_h[2] < delta_h[1]",
        "delta_h[2] = -1 < 0",
        "delta_h[4] < delta_h[3]",
        "delta_h[4] = -1.5 < 0",
        "delta_h[7] < delta_h[6]",
        "delta_h[8] < delta_h[7]",
        "delta_h[7] = -7 < 0",
    )


# ---------------------------------------------------------------------------
# Uniformization
# ---------------------------------------------------------------------------

def test_uniformize_counterexample_discount_factor():
    model, _ = whittle_counterexample()
    rb = uniformize(model)
    assert rb.beta == pytest.approx(99.0 / 100.0)
    assert rb.controllable == frozenset({0, 1})


def test_uniformize_rejects_zero_arrivals():
    # lambda_n = 0 too: the activity weight vanishes at the full buffer
    for lam in ([0.0, 0.0, 0.0], [1.0, 1.0, 0.0]):
        m = ACModel(2, np.array(lam), np.array([1.0, 1.0]), np.arange(3.0), 0.1)
        with pytest.raises(UnsupportedModelError, match="lambda_0..lambda_n must be positive"):
            uniformize(m)


def test_uniformize_small_explicit_matrices():
    m = ACModel(1, np.array([1.0, 1.0]), np.array([1.0]), np.array([0.0, 1.0]),
                alpha=0.0, Lambda=2.0)
    rb = uniformize(m)
    assert np.allclose(rb.P1, [[1.0, 0.0], [0.5, 0.5]])
    assert np.allclose(rb.P0, [[0.5, 0.5], [0.5, 0.5]])
    assert rb.beta == pytest.approx(1.0)


def test_uniformize_writes_the_band_and_no_dense_matrix():
    # n = 4000: the band storage of P0/P1 is under 0.2 MiB, where the two
    # dense matrices would take 256 MiB; each is built when first read
    n = 4000
    m = ACModel(n, np.full(n + 1, 1.0), np.full(n, 1.3), np.arange(n + 1.0) ** 2, 0.1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rb = uniformize(m)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert rb.kernel.band == (1, 1) and "P0" not in vars(rb) and "P1" not in vars(rb)
    assert rb.P0.shape == (n + 1, n + 1) and not rb.P0.flags.writeable
    assert rb.P0[n, n - 1] == 1.3 / 2.3 and rb.P0[0, 1] == 1.0 / 2.3 and rb.P0[0, 2] == 0.0
    assert "P0" in vars(rb) and "P1" not in vars(rb)


def test_uniformize_rows_stochastic(rng):
    m = random_compliant_admission(rng, 6, alpha=0.2)
    rb = uniformize(m)
    assert np.allclose(rb.P0.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(rb.P1.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Pivot normalizers
# ---------------------------------------------------------------------------

def test_ak_single_state():
    assert np.allclose(ak_coefficients(constant_rate_model(1, 1.0, 2.0)), [1.0])


@pytest.mark.parametrize("rho", [0.5, 2.0])
def test_ak_constant_rates_closed_form(rho):
    # a[i] holds the (i+1)-th coefficient of the recursion
    mu = 1.3
    m = constant_rate_model(6, rho * mu, mu)
    a = ak_coefficients(m)
    for k in range(2, 7):
        want = geo_sum(rho, k + 1) / ((1 + rho) * geo_sum(rho, k))
        assert a[k - 1] == pytest.approx(want, abs=1e-12)


def test_ak_critical_ratio():
    m = constant_rate_model(6, 1.0, 1.0)
    a = ak_coefficients(m)
    for k in range(2, 7):
        assert a[k - 1] == pytest.approx((k + 1) / (2.0 * k), abs=1e-12)


def test_ak_bounds(rng):
    m = random_compliant_admission(rng, 7, alpha=0.1)
    a = ak_coefficients(m)
    lam, mu = m.lam, m.mu_full
    assert a[0] == 1.0
    for k in range(2, 8):
        lo = (m.alpha + mu[k]) / (m.alpha + lam[k - 1] + mu[k])
        assert lo < a[k - 1] < 1.0


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

def test_workload_first_column_constant_rates():
    lam, mu = 1.2, 1.2 / 0.8
    m = constant_rate_model(5, lam, mu)
    W = workload_table(m)
    assert np.allclose(W[0, :], lam)


def test_workload_second_column_base():
    m = random_compliant_admission(np.random.default_rng(5), 4, alpha=0.7)
    W = workload_table(m)
    lam, mu, dd = m.lam, m.mu_full, m.delta_d
    want = lam[0] * (m.alpha + dd[0]) / (m.alpha + lam[0] + mu[1])
    assert W[1, 0] == pytest.approx(want)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_workload_pivots_constant_rates(rho):
    mu = 2.0
    m = constant_rate_model(6, rho * mu, mu)
    W = workload_table(m)
    for j in range(1, 7):
        assert W[j, j - 1] == pytest.approx(rho * mu / geo_sum(rho, j + 1),
                                            abs=1e-12)


def test_workload_table_matches_general_route(rng):
    # the closed recursion agrees with the linear-algebra path after the
    # uniformization scaling; at zero discount the oracle is the
    # average-criterion bias route
    for alpha in (0.0, 0.45):
        m = random_compliant_admission(rng, 6, alpha=alpha)
        rb = uniformize(m)
        W = workload_table(m)
        scale = m.alpha + float(m.Lambda)
        for k in range(m.n + 1):
            s = frozenset(range(k, m.n)) if k < m.n else frozenset()
            if alpha > 0:
                w_rb = bandit.marginal_workload(rb, s) * scale
            else:
                w_rb = bandit.average_limits(rb, s).w_bar * scale
            assert np.allclose(W[k, :], w_rb[:m.n], atol=1e-9)


def test_workload_lattice_strict_inequalities():
    # pivots positive; later columns dominate below the pivot row and are
    # dominated above it
    for alpha in (0.0, 0.3):
        m = random_compliant_admission(np.random.default_rng(11), 7, alpha)
        W = workload_table(m)
        n = m.n
        for k in range(1, n + 1):
            assert W[k, k - 1] > 0.0
        for k in range(1, n):           # chain positions S_{k+1} vs S_{k+2}
            for i in range(1, k + 1):
                assert W[k + 1, i - 1] > W[k, i - 1]
        for k in range(1, n):
            for i in range(k, n):
                assert W[k, i] > W[k + 1, i]


def test_workloads_positive_and_nondecreasing_on_chain(rng):
    for alpha in (0.0, 0.6):
        m = random_compliant_admission(rng, 6, alpha)
        W = workload_table(m)
        assert np.all(W > 0.0)
        for k in range(m.n):        # S_{k+2} subset of S_{k+1}: w shrinks
            for i in range(k + 1, m.n):
                assert W[k, i] >= W[k + 1, i]


# ---------------------------------------------------------------------------
# Marginal cost pivots and indices
# ---------------------------------------------------------------------------

def test_cost_pivot_single_state():
    m = ACModel(1, np.array([2.0, 1.0]), np.array([3.0]), np.array([0.0, 5.0]),
                alpha=0.5)
    c = marginal_cost_pivots(m)
    assert c.shape == (1,)
    assert c[0] == pytest.approx(2.0 * 5.0 / (0.5 + 2.0 + 3.0))


def test_cost_pivots_match_general_route(rng):
    m = random_compliant_admission(rng, 5, alpha=0.35)
    rb = uniformize(m)
    piv = marginal_cost_pivots(m)
    scale = m.alpha + m.Lambda
    for k in range(m.n):
        s = frozenset(range(k + 1, m.n))
        want = bandit.marginal_cost(rb, s)[k] * scale
        assert piv[k] == pytest.approx(want, abs=1e-9 * max(1, abs(want)))


def test_cost_workload_ratio_reproduces_sum_form():
    lam, mu = 0.9, 1.5
    m = constant_rate_model(6, lam, mu)
    piv_c = marginal_cost_pivots(m)
    W = workload_table(m)
    for j in range(6):
        want = closed_form_index("general-sum", lam, mu, 1.0, j,
                                 delta_h=np.ones(7))
        assert piv_c[j] / W[j + 1, j] == pytest.approx(want, rel=1e-12)


def test_index_base_case(rng):
    m = random_compliant_admission(rng, 4, alpha=0.2)
    nu = indices(m)
    assert nu[0] == pytest.approx(m.delta_h[0] / (m.alpha + m.delta_d[0]))


def test_index_constant_rate_examples():
    assert indices(constant_rate_model(3, 1.0, 2.0))[0] == pytest.approx(0.5)
    assert indices(constant_rate_model(4, 1.0, 1.0))[2] == pytest.approx(6.0)


def test_indices_nondecreasing_and_bounded(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        m = random_compliant_admission(rng, n, alpha=float(rng.uniform(0, 1)))
        nu = indices(m)
        assert np.all(np.diff(nu) >= -1e-9 * max(1, np.max(np.abs(nu))))
        bound = m.delta_h / (m.alpha + m.delta_d)
        assert np.all(nu <= bound[: n] + 1e-9)


def test_indices_independent_of_uniformization_rate(rng):
    m = random_compliant_admission(rng, 5, alpha=0.4)
    rep1 = bandit.pcl_index(uniformize(m), threshold_family(5))
    bigger = ACModel(m.n, m.lam, m.mu, m.h, m.alpha, float(m.Lambda) * 3.7)
    rep2 = bandit.pcl_index(uniformize(bigger), threshold_family(5))
    for j in range(5):
        assert rep1.nu_by_state[j] == pytest.approx(rep2.nu_by_state[j], abs=1e-9)


def test_indices_equal_greedy_route(rng):
    # the central cross-module identity
    for _ in range(5):
        n = int(rng.integers(2, 8))
        m = random_compliant_admission(rng, n, alpha=float(rng.uniform(0.05, 1.0)))
        nu = indices(m)
        rep = bandit.pcl_index(uniformize(m), threshold_family(n))
        assert rep.indexable
        assert np.allclose([rep.nu_by_state[j] for j in range(n)], nu, atol=1e-9)


def test_indices_raise_at_first_state_past_float_range():
    # queue 2 of a heavy-traffic switching curve once its table doubles to
    # n = 1209 overflows from state 1018 on; a NaN passes both internal
    # checks, so the recursion has to reject it itself
    n = 1209
    m = ACModel(n, np.full(n + 1, 2.0), np.full(n, 1.0),
                3.0 * np.arange(n + 1.0) ** 1.3, 0.0)
    with pytest.raises(NumericalRangeError, match="state 1018 "):
        indices(m)
    assert np.all(np.isfinite(indices(ACModel(1000, m.lam[:1001], m.mu[:1000],
                                              m.h[:1001], 0.0))))


def test_full_buffer_arrival_rate_moves_only_top_index(rng):
    # lambda_n enters the recursion solely through the last surplus
    # increment, so only the top index reacts; the greedy/DP routes track
    # the same dependence exactly
    m = random_compliant_admission(rng, 4, alpha=0.25)
    lam2 = m.lam.copy()
    lam2[-1] += 0.5 * m.delta_d[-1]      # stays inside the compliant range
    m2 = ACModel(m.n, lam2, m.mu, m.h, m.alpha)
    assert validate_assumptions(m2).ok
    nu1, nu2 = indices(m), indices(m2)
    assert np.allclose(nu1[:-1], nu2[:-1], atol=1e-12)
    assert abs(nu1[-1] - nu2[-1]) > 1e-3
    rep = bandit.pcl_index(uniformize(m2), threshold_family(4))
    assert rep.nu_by_state[3] == pytest.approx(nu2[-1], abs=1e-9)
    assert dp.fair_charge(dp.charge_path(uniformize(m2)), 3) == pytest.approx(nu2[-1], abs=1e-8)


def test_monotone_index_with_concave_increasing_costs():
    # at constant rates convexity of the costs is not needed, only
    # monotonicity
    n = 6
    h = np.concatenate(([0.0], np.cumsum(1.0 / np.sqrt(np.arange(1, n + 1)))))
    m = ACModel(n, np.full(n + 1, 1.0), np.full(n, 1.4), h, 0.0)
    assert not validate_assumptions(m).ok
    nu = indices(m)
    assert np.all(np.diff(nu) >= 0.0)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_general_sum_equals_linear_closed_form():
    for rho in (0.5, 0.9, 1.0, 1.5, 2.0):
        mu = 1.7
        for j in range(0, 51, 10):
            got = closed_form_index("general-sum", rho * mu, mu, 1.0, j,
                                    delta_h=np.full(j + 1, 2.5))
            want = closed_form_index("linear", rho * mu, mu, 2.5, j)
            assert got == pytest.approx(want, rel=1e-9)


def test_quadratic_critical_branch():
    for j in (0, 3, 10):
        got = closed_form_index("quadratic", 1.0, 1.0, 2.0, j)
        assert got == pytest.approx(2.0 * (j + 1) * (j + 2) * (4 * j + 3) / 6.0)


def test_linear_geometric_example():
    assert closed_form_index("linear", 2.0, 1.0, 1.0, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("lam, mu, j", [
    (1.0, 0.0, 2), (1.0, -1.0, 2), (0.0, 1.0, 2), (np.nan, 1.0, 2), (1.0, np.inf, 2),
    (1.0, 1.0, 2.5), (1.0, 1.0, True), (1.0, 1.0, np.float64(2.0)), (1.0, 1.0, -1)])
def test_closed_form_index_refuses_bad_rates_and_levels(lam, mu, j):
    # mu = 0 raised a bare ZeroDivisionError, j = 2.5 numpy's TypeError, and
    # mu = -1 returned -2.0
    with pytest.raises(ValueError, match="rates must be finite and positive|must be an integer >= 0"):
        closed_form_index("linear", lam, mu, 1.0, j)
    assert closed_form_index("linear", 1.0, 1.0, 1.0, np.int64(2)) == 6.0


def test_quadratic_geometric_matches_increment_sum():
    # independent oracle: the increment-sum form with quadratic increments
    for rho in (0.5, 2.0):
        mu = 1.0
        for j in range(8):
            dh = np.diff(np.arange(j + 2.0) ** 2)
            got = closed_form_index("quadratic", rho * mu, mu, 1.0, j)
            want = closed_form_index("general-sum", rho * mu, mu, 1.0, j, delta_h=dh)
            assert got == pytest.approx(want, rel=1e-9)


def test_linear_geometric_branch_near_critical_ratio():
    # the former closed form cancelled to 0.0 at rho = 1 + 1e-9
    got = [closed_form_index("linear", 1.0 + 1e-9, 1.0, 1.0, j) for j in range(6)]
    assert got == pytest.approx([1.0, 3.0, 6.0, 10.0, 15.0, 21.0], rel=1e-8)


def test_quadratic_geometric_branch_near_critical_ratio():
    # the former closed form cancelled to 0.0 at rho = 1 + 1e-9
    got = [closed_form_index("quadratic", 1.0 + 1e-9, 1.0, 1.0, j) for j in range(6)]
    want = [(j + 1) * (j + 2) * (4 * j + 3) / 6.0 for j in range(6)]
    assert got[5] == pytest.approx(161.0, rel=1e-8)
    assert got == pytest.approx(want, rel=1e-8)


# ---------------------------------------------------------------------------
# Average criterion
# ---------------------------------------------------------------------------

def test_average_indices_constant_rates_sum_form():
    lam, mu = 1.1, 1.6
    m = constant_rate_model(6, lam, mu)
    nu = average_indices(m)
    for j in range(6):
        want = closed_form_index("general-sum", lam, mu, 1.0, j,
                                 delta_h=np.ones(j + 1))
        assert nu[j] == pytest.approx(want, rel=1e-10)


def test_average_indices_continuous_in_discount(rng):
    m = random_compliant_admission(rng, 5, alpha=0.0)
    tiny = ACModel(m.n, m.lam, m.mu, m.h, 1e-8)
    avg, disc = average_indices(m), indices(tiny)
    assert np.all(np.abs(avg - disc) <= 1e-5 * np.maximum(1.0, np.abs(avg)))


def test_average_indices_monotone(rng):
    m = random_compliant_admission(rng, 6, alpha=0.0)
    nu = average_indices(m)
    assert np.all(np.diff(nu) >= -1e-12)


# ---------------------------------------------------------------------------
# Counterexample bundle and steady state
# ---------------------------------------------------------------------------

def test_whittle_counterexample_values():
    model, expected = whittle_counterexample()
    assert expected[2] == 0.0
    assert expected[1] == pytest.approx(3300 / 6767)
    assert expected[0] == pytest.approx(11022 / 19111)
    assert expected[0] > expected[1] > expected[2]


def test_whittle_counterexample_extended_index_is_monotone():
    model, _ = whittle_counterexample()
    rep = bandit.pcl_index(uniformize(model), threshold_family(model.n))
    assert rep.indexable
    assert rep.nu_by_state[0] <= rep.nu_by_state[1]


@pytest.mark.parametrize("k", [True, 1.5, 2.0])
def test_threshold_steady_state_refuses_a_bool_or_a_float(k):
    # k = True ran as k = 1, and k = 1.5 raised a bare TypeError
    with pytest.raises(ValueError, match=r"must be an integer in 1\.\.6"):
        threshold_steady_state(constant_rate_model(5, 1.0, 1.5), k)


def test_threshold_steady_state_matches_average_limits(rng):
    m = random_compliant_admission(rng, 5, alpha=0.0)
    rb = uniformize(m)
    for k in range(1, m.n + 2):
        p, cost_rate, reject_rate = threshold_steady_state(m, k)
        assert p.sum() == pytest.approx(1.0)
        s = frozenset(range(k - 1, m.n)) if k <= m.n else frozenset()
        al = bandit.average_limits(rb, s)
        # discrete-time gains are per period of mean length 1/Lambda
        assert cost_rate == pytest.approx(al.v_bar * float(m.Lambda), abs=1e-9)
        assert reject_rate == pytest.approx(al.b_bar * float(m.Lambda), abs=1e-9)
