import dataclasses
import math
import warnings

import numpy as np
import pytest

from pclindex import admission, bandit, dp
from pclindex.bandit import RBModel
from pclindex.errors import UnsupportedModelError
from pclindex.greedy import AGOutput
from pclindex.setsystem import powerset_family, threshold_family

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
        dp.nu_sweep(dp.charge_path(m), [0.0, nu])


@pytest.mark.parametrize("eps", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("call", ["policy", "value"])
def test_bad_indifference_tolerance_is_refused(eps, call):
    # a NaN eps classified no state as active, a negative one put states
    # with a positive action gap in the closed set; an infinite one made
    # every state indifferent
    rb = six_state_queue()
    with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
        dp.solve(rb, 3.0, method=call, eps=eps)


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
    sweep = dp.nu_sweep(dp.charge_path(rb), grid, family=threshold_family(5))
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
    sweep = dp.nu_sweep(dp.charge_path(wrb), grid, family=threshold_family(3))
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
    path = dp.charge_path(rb)
    assert all(dp.nu_sweep(path, [0, 5, 50], family=threshold_family(3)).in_family)
    for n in (2, 5):
        with pytest.raises(ValueError, match=f"set system has ground size {n}, expected 3"):
            dp.nu_sweep(path, [0, 5, 50], family=threshold_family(n))


def test_sweep_single_controllable_state_has_one_transition(rng):
    m = random_rb(rng, 3, 1, beta=0.9)
    path = dp.charge_path(m)
    root = dp.fair_charge(path, 0)
    sweep = dp.nu_sweep(path, [root - 0.5, root + 0.5])
    assert sweep.active_sets[0] == frozenset({0})
    assert sweep.active_sets[1] == frozenset()


def test_sweep_rejects_unsorted_grid(rng):
    m = random_rb(rng, 3, 1)
    with pytest.raises(ValueError):
        dp.nu_sweep(dp.charge_path(m), [1.0, 0.0])


# ---------------------------------------------------------------------------
# fair_charge
# ---------------------------------------------------------------------------

def test_fair_charge_reproduces_counterexample_fractions():
    model, expected = admission.whittle_counterexample()
    path = dp.charge_path(admission.whittle_variant(model))
    for j, val in expected.items():
        assert dp.fair_charge(path, j) == pytest.approx(val, abs=1e-13)
    # the full-buffer state switches exactly at 0, reported as +0.0
    assert math.copysign(1.0, dp.fair_charge(path, 2)) == 1.0


def test_fair_charge_quadratic_closed_form_at_vanishing_discount():
    lam, mu, h, n = 1.0, 2.0, 1.0, 7
    m = admission.ACModel(n, np.full(n + 1, lam), np.full(n, mu),
                          h * np.arange(n + 1.0) ** 2, alpha=1e-6)
    path = dp.charge_path(admission.uniformize(m))
    for j in (0, 2, 4):
        want = admission.closed_form_index("quadratic", lam, mu, h, j)
        assert dp.fair_charge(path, j) == pytest.approx(want, abs=1e-4)


def test_fair_charge_is_exact_at_large_costs():
    # indices near 1e8, where the float spacing is far above any absolute
    # tolerance: the breakpoints are still exact to a relative 1e-12
    m = admission.ACModel(10, [1.0] * 11, [1.3] * 10, [1e7 * i * i for i in range(11)], 0.1)
    want = admission.indices(m)
    path = dp.charge_path(admission.uniformize(m))
    for j in (2, 5, 9):
        assert dp.fair_charge(path, j) == pytest.approx(want[j], rel=1e-12, abs=0)


def test_fair_charge_zero_when_actions_differ_only_through_charge(rng):
    P = np.array([[0.3, 0.7], [0.6, 0.4]])
    m = RBModel(P, P, np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                np.array([0.5, 1.5]), 0.9, frozenset({0, 1}))
    path = dp.charge_path(m)
    for j in (0, 1):
        assert dp.fair_charge(path, j) == 0.0


def test_fair_charge_refuses_a_state_that_switches_twice():
    # a random model that is not indexable: state 2 is passive far left,
    # active between two breakpoints and passive again, as cold solves
    # confirm; its gap crosses zero twice, so it has no critical charge
    m = random_rb(np.random.default_rng(14), 4, 4, beta=0.9)
    path = dp.charge_path(m)
    lo, hi = path.breakpoints[0], path.breakpoints[2]
    for method in ("policy", "value"):
        assert [2 in dp.solve(m, nu, method=method).active_closed
                for nu in (lo - 1.0, 0.5 * (lo + hi), hi + 1.0)] == [False, True, False]
    with pytest.raises(UnsupportedModelError, match=r"state 2 switches at 2 charges, not one: \[-19\.27"):
        dp.fair_charge(path, 2)
    assert [dp.fair_charge(path, j) for j in (0, 1, 3)] == path.breakpoints[[3, 4, 1]].tolist()


@pytest.mark.parametrize("j", [True, 1.0, np.float64(1.0)], ids=["bool", "float", "float64"])
def test_fair_charge_refuses_a_bool_or_a_float(j):
    # True and 1.0 used to read state 1's charge
    path = dp.charge_path(six_state_queue())
    with pytest.raises(ValueError, match="is not controllable"):
        dp.fair_charge(path, j)
    assert dp.fair_charge(path, np.int64(1)) == dp.fair_charge(path, 1)


def test_fair_charge_requires_controllable_state(rng):
    m = random_rb(rng, 3, 1)
    with pytest.raises(ValueError):
        dp.fair_charge(dp.charge_path(m), 2)


def test_fair_charge_agrees_with_recursion_indices(rng):
    m, rb = compliant_rb(rng, n=4, alpha=0.5)
    nu = admission.indices(m)
    path = dp.charge_path(rb)
    for j in range(4):
        assert dp.fair_charge(path, j) == pytest.approx(nu[j], abs=1e-8)


# ---------------------------------------------------------------------------
# crosscheck_indices
# ---------------------------------------------------------------------------

def test_crosscheck_compliant_instance_matches_each_index(rng):
    m, rb = compliant_rb(rng, n=5, alpha=0.3)
    rep = bandit.pcl_index(rb, threshold_family(5))
    check = dp.crosscheck_indices(dp.charge_path(rb), rep)
    assert check.agree and check.mismatches == ()
    assert check.dp_indices == pytest.approx(rep.nu, rel=1e-9, abs=1e-9)
    assert check.gap == np.abs(check.dp_indices - rep.nu).max()


def test_crosscheck_names_a_state_whose_index_is_off():
    # one PCL index moved by 1e-6 relative keeps the order of the indices;
    # the numbers still name the state
    rb, fam = six_state_queue(), threshold_family(5)
    rep = bandit.pcl_index(rb, fam)
    nu = rep.nu.copy()
    nu[3] *= 1.0 + 1e-6
    off = dataclasses.replace(rep, ag=dataclasses.replace(rep.ag, nu=nu))
    path = dp.charge_path(rb)
    assert dp.crosscheck_indices(path, rep).agree
    check = dp.crosscheck_indices(path, off)
    assert not check.agree
    assert [row[:2] for row in check.mismatches] == [(3, nu[3])]
    assert check.mismatches[0][2] == (dp.fair_charge(path, 3),)
    assert check.gap == pytest.approx(1e-6 * rep.nu[3], rel=1e-6)


def test_crosscheck_reads_the_counterexample_breakpoints():
    # the Whittle variant is PCL-indexable over the powerset family; its
    # full-buffer state switches at the path's -0.0, read as +0.0 as
    # fair_charge reads it
    rb = admission.whittle_variant(admission.whittle_counterexample()[0])
    path = dp.charge_path(rb)
    check = dp.crosscheck_indices(path, bandit.pcl_index(rb, powerset_family(3)))
    assert check.agree and check.gap <= 1e-13
    assert check.dp_indices.tolist() == [dp.fair_charge(path, j) for j in range(3)]
    assert math.copysign(1.0, check.dp_indices[2]) == 1.0


@pytest.mark.parametrize("seed, switches", [(14, 2), (64, 3)])
def test_crosscheck_reads_nan_where_a_state_does_not_switch_once(seed, switches):
    # state 2 switches twice in the seed-14 model (see the fair_charge test
    # above) and three times in the seed-64 one, so a report that claims
    # indexability meets a NaN DP index there and an infinite gap
    m = random_rb(np.random.default_rng(seed), 4, 4, beta=0.9)
    assert dp.charge_path(m).flips[:, 2].sum() == switches
    nu = np.arange(4.0)
    ag = AGOutput(True, (0, 1, 2, 3), nu, nu, np.zeros((4, 4)), np.ones((4, 4)),
                  m.normalized_cost[m.ctrl_mask])
    claimed = bandit.PCLReport(True, True, True, (), dict(enumerate(nu)), (0, 1, 2, 3), ag)
    check = dp.crosscheck_indices(dp.charge_path(m), claimed)
    assert math.isnan(check.dp_indices[2]) and check.gap == math.inf
    assert not check.agree and 2 in [row[0] for row in check.mismatches]


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
            dp.crosscheck_indices(dp.charge_path(m), rep)


def test_crosscheck_refuses_a_report_of_another_model_or_criterion():
    rb, fam = six_state_queue(), threshold_family(5)
    other = admission.uniformize(admission.ACModel(
        5, np.full(6, 1.0), np.full(5, 1.3), np.arange(6.0) ** 3, 0.1))
    path = dp.charge_path(rb)
    for rep in (bandit.average_pcl_index(rb, fam), bandit.pcl_index(other, fam)):
        assert rep.indexable
        with pytest.raises(ValueError, match="not computed for this model under this criterion"):
            dp.crosscheck_indices(path, rep)
    assert dp.crosscheck_indices(path, bandit.pcl_index(rb, fam)).agree


def test_crosscheck_evaluates_each_policy_once(monkeypatch):
    # regular queue: lam 1, mu 1.3, h_i = i^2, alpha 0.1; the path has one
    # piece per threshold policy, 101 in all, and each policy is solved
    # once, for its cost and activity rows together; the cross-check
    # reads the path without a solve
    m = admission.ACModel(100, np.full(101, 1.0), np.full(100, 1.3),
                          np.arange(101.0) ** 2, 0.1)
    rb, fam = admission.uniformize(m), threshold_family(100)
    rep = bandit.pcl_index(rb, fam)
    solved = []
    exact = rb.kernel.solve

    def counting(masks, rhs, anchor=None):
        solved.extend((mask.tobytes(), rhs.shape[::2]) for mask in masks)
        return exact(masks, rhs, anchor)

    monkeypatch.setattr(rb.kernel, "solve", counting)
    path = dp.charge_path(rb)
    assert len(path.breakpoints) == 100
    count = len(solved)
    check = dp.crosscheck_indices(path, rep)
    assert check.agree
    assert len(solved) == count <= 110
    # the breakpoints are the indices of the admission recursion
    want = admission.indices(m)
    assert np.allclose([dp.fair_charge(path, j) for j in range(100)], want, rtol=1e-10, atol=0)
    assert len({mask for mask, _ in solved}) == len(solved)
    assert all(shape == (2, 101) for _, shape in solved)
