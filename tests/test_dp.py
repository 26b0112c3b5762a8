import warnings

import numpy as np
import pytest

from pclindex import admission, bandit, dp
from pclindex.bandit import RBModel
from pclindex.setsystem import threshold_family

from conftest import random_compliant_admission, random_rb


def compliant_rb(rng, n=5, alpha=0.3):
    m = random_compliant_admission(rng, n, alpha)
    return m, admission.uniformize(m)


def six_state_queue():
    """The admission queue lam 1, mu 1.3, h_j = j^2 on 0..5, alpha 0.1."""
    return admission.uniformize(admission.ACModel(
        5, np.full(6, 1.0), np.full(5, 1.3), np.arange(6.0) ** 2, 0.1))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_extreme_charges_pin_the_active_set(rng):
    _, rb = compliant_rb(rng)
    assert dp.solve(rb, 1e9).active_closed == frozenset()
    assert dp.solve(rb, -1e9).active_closed == frozenset(rb.controllable)


def test_myopic_closed_form_at_beta_zero(rng):
    m = random_rb(rng, 4, 3, beta=0.9)
    m0 = RBModel(m.P0, m.P1, m.h0, m.h1, m.theta1, 0.0, m.controllable)
    nu = 0.7
    res = dp.solve(m0, nu)
    forced = np.array([i not in m0.controllable for i in range(4)])
    expected = np.where(forced, m0.h1 + nu * m0.theta1,
                        np.minimum(m0.h0, m0.h1 + nu * m0.theta1))
    assert np.allclose(res.v, expected)


def test_policy_and_value_iteration_agree(rng):
    m = random_rb(rng, 5, 3, beta=0.8)
    for nu in (-1.0, 0.0, 0.8):
        v_pi = dp.solve(m, nu, method="policy").v
        v_vi = dp.solve(m, nu, method="value").v
        assert np.allclose(v_pi, v_vi, atol=1e-9)


def test_policy_iteration_terminates_quietly(rng):
    m = random_rb(rng, 6, 4, beta=0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dp.solve(m, 0.3)
    assert res.iterations <= 30


def test_solve_matches_best_active_set_evaluation(rng):
    # deterministic stationary policies attain the optimum: the DP value
    # equals the best set-active evaluation
    m = random_rb(rng, 4, 3, beta=0.85)
    nu = 0.4
    v = dp.solve(m, nu).v
    import itertools
    best = np.full(4, np.inf)
    for r in range(4):
        for combo in itertools.combinations(range(3), r):
            s = frozenset(combo)
            val = bandit.cost_measure(m, s) + nu * bandit.activity_measure(m, s)
            best = np.minimum(best, val)
    assert np.allclose(v, best, atol=1e-8)


@pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf])
def test_non_finite_charge_is_refused(rng, nu):
    # a policy is solved without the charge, so no later check would see
    # a non-finite one
    m = random_rb(rng, 5, 3)
    for method in ("policy", "value"):
        with pytest.raises(ValueError, match="finite"):
            dp.solve(m, nu, method=method)
    with pytest.raises(ValueError, match="finite"):
        dp.nu_sweep(m, [0.0, nu])


@pytest.mark.parametrize("eps", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("call", ["policy", "value", "nu_sweep", "crosscheck_indices"])
def test_bad_indifference_tolerance_is_refused(eps, call):
    # a NaN eps classified no state as active, a negative one put states
    # with a positive action gap in the closed set, and either made the
    # cross-check report a disagreement; an infinite one made every state
    # indifferent
    rb = six_state_queue()
    fam = threshold_family(5)
    run = {"policy": lambda: dp.solve(rb, 3.0, eps=eps),
           "value": lambda: dp.solve(rb, 3.0, method="value", eps=eps),
           "nu_sweep": lambda: dp.nu_sweep(rb, [3.0], eps=eps),
           "crosscheck_indices": lambda: dp.crosscheck_indices(
               rb, bandit.pcl_index(rb, fam), eps=eps)}[call]
    with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
        run()


def test_value_concave_in_charge(rng):
    _, rb = compliant_rb(rng, n=4, alpha=0.2)
    grid = np.linspace(-1.0, 3.0, 9)
    vals = np.array([dp.solve(rb, float(g)).v for g in grid])
    for i in range(rb.n_states):
        slopes = np.diff(vals[:, i]) / np.diff(grid)
        assert np.all(np.diff(slopes) <= 1e-9)


# ---------------------------------------------------------------------------
# nu_sweep
# ---------------------------------------------------------------------------

def test_sweep_nested_and_dropping_one_state_per_breakpoint(rng):
    m, rb = compliant_rb(rng, n=5, alpha=0.4)
    nu = admission.indices(m)
    mids = [(a + b) / 2 for a, b in zip(nu, nu[1:])]
    grid = [nu[0] - 1.0] + mids + [nu[-1] + 1.0]
    sweep = dp.nu_sweep(rb, grid, family=threshold_family(5))
    assert sweep.nested_decreasing
    sizes = [len(s) for s in sweep.active_sets]
    assert sizes == list(range(5, -1, -1))
    assert all(sweep.in_family)


def test_sweep_counterexample_leaves_threshold_family():
    model, expected = admission.whittle_counterexample()
    wrb = admission.whittle_variant(model)
    mid_high = 0.5 * (expected[1] + expected[0])
    grid = [expected[2] - 0.1, 0.5 * (expected[2] + expected[1]), mid_high,
            expected[0] + 0.1]
    sweep = dp.nu_sweep(wrb, grid, family=threshold_family(3))
    # states drop in the order 2, 1, 0: the middle sets keep LOW states
    # active, which no feasible rejection (suffix) set does
    assert [sorted(s) for s in sweep.active_sets] == [[0, 1, 2], [0, 1], [0], []]
    assert sweep.in_family == (True, False, False, True)
    assert sweep.nested_decreasing


def test_sweep_refuses_a_family_of_another_ground_size():
    # the family's ground indexes sorted(controllable); a larger one used to
    # report (False, False, True) and a smaller one all True
    m = admission.ACModel(3, [1, 1, 1, 1], [1.2, 1.3, 1.4], [0, 1, 4, 9], 0.1)
    rb = admission.uniformize(m)
    assert all(dp.nu_sweep(rb, [0, 5, 50], family=threshold_family(3)).in_family)
    for n in (2, 5):
        with pytest.raises(ValueError, match=f"set system has ground size {n}, expected 3"):
            dp.nu_sweep(rb, [0, 5, 50], family=threshold_family(n))


def test_sweep_single_controllable_state_has_one_transition(rng):
    m = random_rb(rng, 3, 1, beta=0.9)
    root = dp.fair_charge(m, 0)
    sweep = dp.nu_sweep(m, [root - 0.5, root + 0.5])
    assert sweep.active_sets[0] == frozenset({0})
    assert sweep.active_sets[1] == frozenset()


def test_sweep_rejects_unsorted_grid(rng):
    m = random_rb(rng, 3, 1)
    with pytest.raises(ValueError):
        dp.nu_sweep(m, [1.0, 0.0])


# ---------------------------------------------------------------------------
# fair_charge
# ---------------------------------------------------------------------------

def test_fair_charge_reproduces_counterexample_fractions():
    model, expected = admission.whittle_counterexample()
    rb = admission.whittle_variant(model)
    for j, val in expected.items():
        assert dp.fair_charge(rb, j) == pytest.approx(val, abs=1e-8)


def test_fair_charge_quadratic_closed_form_at_vanishing_discount():
    lam, mu, h, n = 1.0, 2.0, 1.0, 7
    m = admission.ACModel(n, np.full(n + 1, lam), np.full(n, mu),
                          h * np.arange(n + 1.0) ** 2, alpha=1e-6)
    rb = admission.uniformize(m)
    for j in (0, 2, 4):
        want = admission.closed_form_index("quadratic", lam, mu, h, j)
        assert dp.fair_charge(rb, j) == pytest.approx(want, abs=1e-4)


def test_fair_charge_stops_when_the_bracket_reaches_float_spacing(monkeypatch):
    # indices near 1e8 have a float spacing far above the absolute
    # tolerance; the bisection must stop there instead of running forever
    at, calls = dp._Policies.at, [0]

    def counted(self, nu):
        calls[0] += 1
        if calls[0] > 5000:
            raise RuntimeError("fair_charge made over 5000 one-charge DP queries")
        return at(self, nu)

    monkeypatch.setattr(dp._Policies, "at", counted)
    m = admission.ACModel(10, [1.0] * 11, [1.3] * 10, [1e7 * i * i for i in range(11)], 0.1)
    want = admission.indices(m)
    rb = admission.uniformize(m)
    for j in (2, 5, 9):
        assert dp.fair_charge(rb, j) == pytest.approx(want[j], rel=1e-12, abs=0)
    assert calls[0] > 0   # the cap counts the bisection's queries


def test_fair_charge_zero_when_actions_differ_only_through_charge(rng):
    P = np.array([[0.3, 0.7], [0.6, 0.4]])
    m = RBModel(P, P, np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                np.array([0.5, 1.5]), 0.9, frozenset({0, 1}))
    for j in (0, 1):
        assert dp.fair_charge(m, j) == pytest.approx(0.0, abs=1e-9)


def test_fair_charge_requires_controllable_state(rng):
    m = random_rb(rng, 3, 1)
    with pytest.raises(ValueError):
        dp.fair_charge(m, 2)


def test_fair_charge_agrees_with_recursion_indices(rng):
    m, rb = compliant_rb(rng, n=4, alpha=0.5)
    nu = admission.indices(m)
    for j in range(4):
        assert dp.fair_charge(rb, j) == pytest.approx(nu[j], abs=1e-8)


# ---------------------------------------------------------------------------
# crosscheck_indices
# ---------------------------------------------------------------------------

def test_crosscheck_compliant_instance_eleven_grid_points(rng):
    m, rb = compliant_rb(rng, n=5, alpha=0.3)
    rep = bandit.pcl_index(rb, threshold_family(5))
    check = dp.crosscheck_indices(rb, rep)
    assert check.agree
    assert len(check.grid) == 11   # 2 outside + 4 midpoints + 5 breakpoints
    assert check.expected[0] == frozenset(range(5))
    assert check.expected[-1] == frozenset()


def test_crosscheck_accepts_the_open_set_at_a_breakpoint():
    # with no indifference band the DP settles each breakpoint state by the
    # sign of a roundoff-sized gap, so some breakpoints see the open set
    m = admission.ACModel(12, np.full(13, 1.0), np.full(12, 1.3),
                          np.arange(13.0) ** 2, 0.1)
    rb, fam = admission.uniformize(m), threshold_family(12)
    check = dp.crosscheck_indices(rb, bandit.pcl_index(rb, fam), eps=0.0)
    assert check.agree
    assert any(o < e for e, o in zip(check.expected, check.observed))


def test_crosscheck_extremes(rng):
    m, rb = compliant_rb(rng, n=3, alpha=0.8)
    rep = bandit.pcl_index(rb, threshold_family(3))
    nu = sorted(rep.nu_by_state.values())
    below = dp.solve(rb, nu[0] - 1.0).active_closed
    above = dp.solve(rb, nu[-1] + 1.0).active_closed
    assert below == frozenset(rb.controllable)
    assert above == frozenset()


def test_crosscheck_requires_indexable_report(rng):
    m = random_rb(rng, 4, 2)
    fam = threshold_family(2)
    rep = bandit.pcl_index(m, fam)
    if not rep.indexable:
        with pytest.raises(ValueError):
            dp.crosscheck_indices(m, rep)


def test_crosscheck_refuses_a_report_of_another_model_or_criterion():
    rb, fam = six_state_queue(), threshold_family(5)
    other = admission.uniformize(admission.ACModel(
        5, np.full(6, 1.0), np.full(5, 1.3), np.arange(6.0) ** 3, 0.1))
    for rep in (bandit.average_pcl_index(rb, fam), bandit.pcl_index(other, fam)):
        assert rep.indexable
        with pytest.raises(ValueError, match="not computed for this model under this criterion"):
            dp.crosscheck_indices(rb, rep)
    assert dp.crosscheck_indices(rb, bandit.pcl_index(rb, fam)).agree


def test_crosscheck_evaluates_each_policy_once(monkeypatch):
    # regular queue: lam 1, mu 1.3, h_i = i^2, alpha 0.1; each of the 201
    # charges settles on one of about 100 threshold policies, and each
    # policy is solved once, for its cost and activity columns together
    m = admission.ACModel(100, np.full(101, 1.0), np.full(100, 1.3),
                          np.arange(101.0) ** 2, 0.1)
    rb, fam = admission.uniformize(m), threshold_family(100)
    rep = bandit.pcl_index(rb, fam)
    solved = []
    exact = rb.kernel.solve

    def counting(mask, rhs):
        solved.append((mask.tobytes(), rhs.shape))
        return exact(mask, rhs)

    monkeypatch.setattr(rb.kernel, "solve", counting)
    check = dp.crosscheck_indices(rb, rep)
    assert check.agree
    assert len(check.grid) == 201
    assert len(solved) <= 110
    assert len({mask for mask, _ in solved}) == len(solved)
    assert all(shape == (101, 2) for _, shape in solved)
