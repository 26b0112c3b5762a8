import gc
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from pclindex import admission, bandit, dp
from pclindex.bandit import (RBModel, activity_measure, average_limits,
                             average_pcl_index, constrained_policy, cost_measure,
                             dmr_report, marginal_cost, marginal_workload,
                             normalized_model, normalized_passive_cost,
                             occupation_measures, pcl_index, value_breakpoints,
                             verify_cost_decomposition,
                             verify_workload_decomposition)
from pclindex.errors import (InfeasibleTargetError, InternalConsistencyError,
                             UnsupportedModelError)
from pclindex.setsystem import SetSystem, powerset_family, threshold_family

from conftest import (random_compliant_admission, random_positive_workload_rb,
                      random_rb)


def two_state_symmetric(beta=0.8):
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    h = np.array([1.0, 2.0])
    return RBModel(P, P, h, h, np.ones(2), beta, frozenset({0, 1}))


def counterexample_rb():
    model, _ = admission.whittle_counterexample()
    return admission.uniformize(model)


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, i, value", [
    ("P0", (0, 1), np.nan), ("P1", (1, 0), np.nan), ("h0", 0, np.inf),
    ("h0", 1, np.nan), ("h1", 0, -np.inf), ("h1", 1, np.nan), ("theta1", 0, np.inf)])
def test_non_finite_entries_are_rejected(name, i, value):
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    fields = {"P0": P.copy(), "P1": P.copy(), "h0": np.ones(2), "h1": np.ones(2),
              "theta1": np.ones(2)}
    fields[name][i] = value
    with pytest.raises(ValueError, match="non-finite"):
        RBModel(**fields, beta=0.9, controllable=frozenset({0, 1}))


def test_rows_must_be_stochastic():
    P = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValueError):
        RBModel(P, P, np.zeros(2), np.zeros(2), np.ones(2), 0.9, frozenset({0}))


def test_uncontrollable_state_must_have_identical_actions():
    P0 = np.array([[1.0, 0.0], [0.2, 0.8]])
    P1 = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        RBModel(P0, P1, np.zeros(2), np.zeros(2), np.ones(2), 0.9, frozenset({0}))
    # equal rows at the uncontrollable state pass
    P1[1] = P0[1]
    RBModel(P0, P1, np.zeros(2), np.zeros(2), np.ones(2), 0.9, frozenset({0}))


def test_theta_must_be_positive():
    P = np.eye(2)
    with pytest.raises(ValueError):
        RBModel(P, P, np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), 0.9,
                frozenset({0, 1}))


def test_model_copies_caller_arrays():
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    h = np.zeros(2)
    m = RBModel(P, P, h, h, np.ones(2), 0.9, frozenset({0, 1}))
    P[0, 0] = 0.25          # caller's array must stay writable and detached
    assert m.P0[0, 0] == 0.5
    with pytest.raises(ValueError):
        m.P0[0, 0] = 0.1    # the model's copy is frozen


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def test_activity_measure_always_active_geometric(rng):
    m = random_rb(rng, 4, 4, beta=0.9)
    m = RBModel(m.P0, m.P1, m.h0, m.h1, np.ones(4), 0.9, m.controllable)
    b = activity_measure(m, frozenset(range(4)))
    assert np.allclose(b, 1.0 / (1.0 - 0.9))


def test_activity_measure_never_active_is_zero(rng):
    m = random_rb(rng, 4, 4, beta=0.9)
    assert np.allclose(activity_measure(m, frozenset()), 0.0)


def test_activity_measure_matches_fixed_point_iteration():
    # independent oracle: iterate the defining fixed-point map
    m = counterexample_rb()
    for s in [frozenset(), frozenset({0}), frozenset({0, 1})]:
        mask = m.active_rows(s)
        P = np.where(mask[:, None], m.P1, m.P0)
        rhs = np.where(mask, m.theta1, 0.0)
        b = np.zeros(m.n_states)
        for _ in range(10_000):
            b = rhs + m.beta * P @ b
        assert np.allclose(activity_measure(m, s), b, atol=1e-8)


def test_cost_measure_insensitive_to_set_when_actions_equal():
    m = two_state_symmetric()
    v_all = cost_measure(m, frozenset({0, 1}))
    v_none = cost_measure(m, frozenset())
    assert np.allclose(v_all, v_none)


def test_cost_measure_absorbing_zero_cost_state():
    P = np.array([[1.0]])
    m = RBModel(P, P, np.zeros(1), np.zeros(1), np.ones(1), 0.5, frozenset())
    assert cost_measure(m, frozenset())[0] == 0.0


def test_cost_measure_matches_occupancies(rng):
    m = random_rb(rng, 5, 3)
    s = frozenset({0, 2})
    v = cost_measure(m, s)
    for i in range(5):
        x0, x1 = occupation_measures(m, m.active_rows(s).astype(float), i)
        assert v[i] == pytest.approx(float(m.h0 @ x0 + m.h1 @ x1), abs=1e-9)


def test_occupation_measures_always_active(rng):
    m = random_rb(rng, 4, 4, beta=0.85)
    x0, x1 = occupation_measures(m, np.ones(4), 2)
    assert np.allclose(x0, 0.0)
    assert x1.sum() == pytest.approx(1.0 / (1.0 - 0.85))


def test_occupation_mass_is_discounted_horizon(rng):
    m = random_rb(rng, 5, 3, beta=0.9)
    u = rng.uniform(0, 1, 5)
    u[3:] = 1.0
    x0, x1 = occupation_measures(m, u, 1)
    assert (x0 + x1).sum() == pytest.approx(1.0 / (1.0 - 0.9))


def test_activity_measure_via_occupancies():
    m = counterexample_rb()
    s = frozenset({1})
    b = activity_measure(m, s)
    for i in range(m.n_states):
        _, x1 = occupation_measures(m, m.active_rows(s).astype(float), i)
        assert b[i] == pytest.approx(float(m.theta1 @ x1), abs=1e-9)


def test_occupation_measures_require_active_at_uncontrollable(rng):
    m = random_rb(rng, 4, 2)
    u = np.ones(4)
    u[3] = 0.5
    with pytest.raises(ValueError):
        occupation_measures(m, u, 0)


# ---------------------------------------------------------------------------
# Marginal workloads and costs
# ---------------------------------------------------------------------------

def test_marginal_workload_equal_matrices_gives_theta():
    m = two_state_symmetric()
    w = marginal_workload(m, frozenset({0}))
    assert np.allclose(w, m.theta1)


def test_marginal_workload_single_swap_identity(rng):
    # adding one state to the active set increases the activity measure by
    # the marginal workload times the state's own occupancy
    m = random_rb(rng, 5, 3)
    for s, j in [(frozenset(), 1), (frozenset({1}), 0), (frozenset({0, 1}), 2)]:
        w = marginal_workload(m, s)
        b_s = activity_measure(m, s)
        b_sj = activity_measure(m, s | {j})
        for i in range(5):
            _, x1 = occupation_measures(m, m.active_rows(s | {j}).astype(float), i)
            assert b_sj[i] - b_s[i] == pytest.approx(w[j] * x1[j], abs=1e-9)


def test_marginal_cost_zero_when_actions_identical():
    m = two_state_symmetric()
    assert np.allclose(marginal_cost(m, frozenset({1})), 0.0)


def test_marginal_cost_at_full_set_equals_normalized_passive_cost(rng):
    for _ in range(5):
        m = random_rb(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
        full = frozenset(range(len(m.controllable)))
        assert np.allclose(marginal_cost(m, full), normalized_passive_cost(m),
                           atol=1e-10)


def test_marginal_cost_single_swap_identity(rng):
    m = random_rb(rng, 5, 3)
    s, j = frozenset({0, 1}), 2
    c = marginal_cost(m, s)
    v_s = cost_measure(m, s)
    v_sj = cost_measure(m, s | {j})
    for i in range(5):
        _, x1 = occupation_measures(m, m.active_rows(s | {j}).astype(float), i)
        assert v_s[i] - v_sj[i] == pytest.approx(c[j] * x1[j], abs=1e-9)


def test_chain_measures_zero_marginals_at_uncontrollable(rng):
    m = random_rb(rng, 5, 3)
    for s in [frozenset({0, 1, 2}), frozenset({1, 2}), frozenset()]:
        b, v = activity_measure(m, s), cost_measure(m, s)
        w, c = marginal_workload(m, s, b), marginal_cost(m, s, v)
        assert np.array_equal(w, marginal_workload(m, s))
        assert np.array_equal(c, marginal_cost(m, s))
        assert np.all(w[3:] == 0.0)
        assert np.all(c[3:] == 0.0)
    assert np.all(normalized_passive_cost(m)[3:] == 0.0)


def test_normalized_passive_cost_trivial_cases(rng):
    m = random_rb(rng, 4, 4)
    m_h1_zero = RBModel(m.P0, m.P1, m.h0, np.zeros(4), m.theta1, m.beta,
                        m.controllable)
    assert np.allclose(normalized_passive_cost(m_h1_zero), m.h0)
    sym = two_state_symmetric()
    assert np.allclose(normalized_passive_cost(sym), 0.0)


def test_value_reconstruction_from_normalized_model(rng):
    # optimal value = always-active cost + normalized problem's optimal value
    m = random_rb(rng, 5, 3)
    v_full = cost_measure(m, frozenset(range(3)))
    nm = normalized_model(m)
    for nu in [-2.0, 0.0, 1.5]:
        lhs = dp.solve(m, nu).v
        rhs = v_full + dp.solve(nm, nu).v
        assert np.allclose(lhs, rhs, atol=1e-7)


def test_workload_positivity_iff_activity_monotone(rng):
    # positive marginal workload at (S, j) is equivalent to the activity
    # measure strictly growing when j joins the active set
    hits_negative = 0
    for _ in range(10):
        m = random_rb(rng, 4, 3, beta=0.9)
        for s in [frozenset(), frozenset({0}), frozenset({1, 2})]:
            w = marginal_workload(m, s)
            for j in set(range(3)) - s:
                gap = activity_measure(m, s | {j})[j] - activity_measure(m, s)[j]
                assert (w[j] > 0) == (gap > 0)
                if w[j] <= 0:
                    hits_negative += 1
    assert hits_negative > 0   # the equivalence was exercised in both signs


def test_marginal_cost_symmetry_both_removal_orders(rng):
    # rebuilding the doubly-reduced marginal cost by the one-step update in
    # either order agrees with the direct definition
    for _ in range(5):
        m = random_positive_workload_rb(rng, powerset_family(3), n_states=4)
        s = frozenset({0, 1, 2})

        def reduce_once(c_s, w_s, s_cur, i):
            w_next = marginal_workload(m, s_cur - {i})
            c_next = c_s - (c_s[i] / w_s[i]) * (w_s - w_next)
            return c_next, w_next

        c_s, w_s = marginal_cost(m, s), marginal_workload(m, s)
        c_a, w_a = reduce_once(c_s, w_s, s, 0)
        c_ab, _ = reduce_once(c_a, w_a, s - {0}, 1)
        c_b, w_b = reduce_once(c_s, w_s, s, 1)
        c_ba, _ = reduce_once(c_b, w_b, s - {1}, 0)
        direct = marginal_cost(m, s - {0, 1})
        ctrl = sorted(m.controllable)
        assert np.allclose(c_ab[ctrl], c_ba[ctrl], atol=1e-10)
        assert np.allclose(c_ab[ctrl], direct[ctrl], atol=1e-9)


def test_ratio_invariance_under_own_removal(rng):
    # the marginal cost/workload ratio of a state is unchanged by removing
    # that state from the active set
    m = random_positive_workload_rb(rng, powerset_family(3), n_states=5)
    for s, j in [(frozenset({0, 1, 2}), 1), (frozenset({0, 2}), 2)]:
        r_with = marginal_cost(m, s)[j] / marginal_workload(m, s)[j]
        r_without = marginal_cost(m, s - {j})[j] / marginal_workload(m, s - {j})[j]
        assert r_with == pytest.approx(r_without, abs=1e-9 * max(1, abs(r_with)))


def test_vector_swap_identities(rng):
    # cost-difference and workload/cost-increment vector identities for a
    # single removal
    m = random_positive_workload_rb(rng, powerset_family(3), n_states=4)
    s, j = frozenset({0, 1, 2}), 1
    c_s, w_s = marginal_cost(m, s), marginal_workload(m, s)
    ratio = c_s[j] / w_s[j]
    lhs = cost_measure(m, s - {j}) - cost_measure(m, s)
    rhs = ratio * (activity_measure(m, s) - activity_measure(m, s - {j}))
    assert np.allclose(lhs, rhs, atol=1e-9)
    lhs_c = c_s - marginal_cost(m, s - {j})
    rhs_c = ratio * (w_s - marginal_workload(m, s - {j}))
    assert np.allclose(lhs_c, rhs_c, atol=1e-9)


# ---------------------------------------------------------------------------
# Conservation laws
# ---------------------------------------------------------------------------

def test_decomposition_reduces_to_equal_measures_for_matching_policy(rng):
    m = random_rb(rng, 5, 3)
    s = frozenset({0, 2})
    u = m.active_rows(s).astype(float)
    assert verify_workload_decomposition(m, u, s, 1) <= 1e-9
    assert verify_cost_decomposition(m, u, s, 1) <= 1e-9


def test_decomposition_laws_random_policies(rng):
    for _ in range(100):
        n_states = int(rng.integers(2, 9))
        n_ctrl = int(rng.integers(1, n_states + 1))
        m = random_rb(rng, n_states, n_ctrl, beta=float(rng.uniform(0.3, 0.97)))
        u = rng.uniform(0, 1, n_states)
        u[n_ctrl:] = 1.0
        members = sorted(m.controllable)
        s = frozenset(j for j in members if rng.random() < 0.5)
        i = int(rng.integers(0, n_states))
        assert verify_workload_decomposition(m, u, s, i) <= 1e-9
        assert verify_cost_decomposition(m, u, s, i) <= 1e-9


def test_decomposition_fully_passive_policy(rng):
    m = random_rb(rng, 5, 3)
    u = m.active_rows(frozenset()).astype(float)
    s = frozenset(range(3))
    assert verify_workload_decomposition(m, u, s, 0) <= 1e-9
    assert verify_cost_decomposition(m, u, s, 0) <= 1e-9


# ---------------------------------------------------------------------------
# Indexability machinery
# ---------------------------------------------------------------------------

def test_pcl_index_single_controllable_state(rng):
    m = random_rb(rng, 3, 1)
    sys = SetSystem(1, (frozenset(), frozenset({0})))
    rep = pcl_index(m, sys)
    w = marginal_workload(m, frozenset({0}))
    hhat = normalized_passive_cost(m)
    if rep.positive_workloads:
        assert rep.indexable
        assert rep.nu_by_state[0] == pytest.approx(hhat[0] / w[0], abs=1e-10)


def test_pcl_index_admission_model_matches_recursion(rng):
    m = random_compliant_admission(rng, 6, alpha=0.15)
    rep = pcl_index(admission.uniformize(m), threshold_family(6))
    assert rep.indexable
    assert np.allclose([rep.nu_by_state[j] for j in range(6)],
                       admission.indices(m), atol=1e-9)


def test_pcl_index_whittle_counterexample_powerset():
    model, expected = admission.whittle_counterexample()
    rep = pcl_index(admission.whittle_variant(model), powerset_family(3))
    assert rep.indexable
    for j, val in expected.items():
        assert rep.nu_by_state[j] == pytest.approx(val, abs=1e-8)
    # ranking is inconsistent with threshold order: higher state, lower index
    assert rep.nu_by_state[0] > rep.nu_by_state[1] > rep.nu_by_state[2]


def test_value_breakpoints_structure_and_dp_agreement(rng):
    m = random_compliant_admission(rng, 5, alpha=0.35)
    rb = admission.uniformize(m)
    fam = threshold_family(5)
    segs = value_breakpoints(rb, pcl_index(rb, fam), i=2)
    chain = [frozenset(range(k, 5)) for k in range(5)] + [frozenset()]
    # first and last branches carry the extreme active sets
    assert segs.intercepts[0] == pytest.approx(cost_measure(rb, chain[0])[2])
    assert segs.slopes[-1] == pytest.approx(activity_measure(rb, frozenset())[2])
    lo, hi = min(segs.breakpoints), max(segs.breakpoints)
    for nu in np.linspace(lo - 0.5, hi + 0.5, 20):
        ref = dp.solve(rb, float(nu)).v[2]
        assert segs.evaluate(float(nu)) == pytest.approx(ref, abs=1e-7 * max(1, abs(ref)))


@pytest.mark.parametrize("i", [-1, 5])
def test_initial_state_out_of_range_is_refused(rng, i):
    # i = -1 used to read state n's values, and i = n_states raised a bare
    # IndexError; the decompositions inherit the check
    m = random_compliant_admission(rng, 4, alpha=0.35)
    rb, u = admission.uniformize(m), np.ones(5)
    rep = pcl_index(rb, threshold_family(4))
    for call in (lambda: value_breakpoints(rb, rep, i),
                 lambda: occupation_measures(rb, u, i),
                 lambda: verify_workload_decomposition(rb, u, frozenset({1}), i),
                 lambda: verify_cost_decomposition(rb, u, frozenset({1}), i)):
        with pytest.raises(ValueError, match="initial state"):
            call()


def test_value_breakpoints_requires_indexability(rng):
    m = random_rb(rng, 4, 3)
    fam = threshold_family(3)
    rep = pcl_index(m, fam)
    if not rep.indexable:
        with pytest.raises(UnsupportedModelError):
            value_breakpoints(m, rep, 0)


def readme_queue(h=(0.0, 1.0, 2.3, 3.9, 5.8, 8.0, 10.5)) -> RBModel:
    """README's 6-slot queue: lam 1, speedup service, convex costs, alpha 0.1."""
    return admission.uniformize(admission.ACModel(
        6, np.full(7, 1.0), np.array([1.2, 1.35, 1.45, 1.5, 1.52, 1.53]), np.array(h), 0.1))


WRONG_REPORT = "not computed for this model under this criterion"


def test_certificates_refuse_a_report_of_the_other_criterion():
    # the value_breakpoints of an average report were the average indices
    # 0.8333, 2.2938, ..., and the constrained policy of a discounted report
    # had marginal rate 5.089, the discounted index, for the average 6.851
    rb, fam = readme_queue(), threshold_family(6)
    discounted, average = pcl_index(rb, fam), average_pcl_index(rb, fam)
    assert discounted.indexable and average.indexable
    for call in (lambda: value_breakpoints(rb, average, 0), lambda: dmr_report(rb, average),
                 lambda: constrained_policy(rb, discounted, 0.05)):
        with pytest.raises(ValueError, match=WRONG_REPORT):
            call()
    assert value_breakpoints(rb, discounted, 0).breakpoints[3] == pytest.approx(5.0894, abs=1e-4)
    assert dmr_report(rb, discounted).all_ok
    assert constrained_policy(rb, average, 0.05).marginal_rate == pytest.approx(6.8510, abs=1e-4)


def test_certificates_refuse_a_report_of_another_model():
    rb, fam = readme_queue(), threshold_family(6)
    other = readme_queue(h=(0.0, 2.0, 4.6, 7.8, 11.6, 16.0, 21.0))
    discounted, average = pcl_index(other, fam), average_pcl_index(other, fam)
    assert discounted.indexable and average.indexable
    for call in (lambda: value_breakpoints(rb, discounted, 0), lambda: dmr_report(rb, discounted),
                 lambda: constrained_policy(rb, average, 0.05)):
        with pytest.raises(ValueError, match=WRONG_REPORT):
            call()


def test_dmr_report_compliant_instance(rng):
    m = random_compliant_admission(rng, 5, alpha=0.25)
    rb = admission.uniformize(m)
    assert dmr_report(rb, pcl_index(rb, threshold_family(5))).all_ok


def test_dmr_report_single_state(rng):
    m = random_rb(rng, 2, 1, beta=0.9)
    sys = SetSystem(1, (frozenset(), frozenset({0})))
    rep = pcl_index(m, sys)
    if rep.indexable:
        dmr = dmr_report(m, rep)
        assert dmr.ratio_matches_index and dmr.activity_strictly_decreasing


def test_dmr_report_randomized_compliant_instances(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        m = random_compliant_admission(rng, n, alpha=float(rng.uniform(0.05, 0.8)))
        rb = admission.uniformize(m)
        assert dmr_report(rb, pcl_index(rb, threshold_family(n))).all_ok


def test_dmr_rejects_nonpositive_distribution(rng):
    m = random_compliant_admission(rng, 3, alpha=0.2)
    rb = admission.uniformize(m)
    with pytest.raises(ValueError):
        dmr_report(rb, pcl_index(rb, threshold_family(3)), p=np.array([0.5, 0.5, 0.0, 0.0]))


def relabel(m: RBModel, perm) -> RBModel:
    """The same bandit with state i renamed perm[i]."""
    inv = np.argsort(perm)
    return RBModel(m.P0[np.ix_(inv, inv)], m.P1[np.ix_(inv, inv)], m.h0[inv], m.h1[inv],
                   m.theta1[inv], m.beta, frozenset(perm[i] for i in m.controllable))


# controllable states 0..3 of six become 1, 2, 4, 5, in the same order
PERM = [1, 2, 4, 5, 0, 3]


def named_workload(err: UnsupportedModelError) -> tuple[list[int], int]:
    """The set and the state whose workload stopped the greedy walk."""
    s, j = re.match(r"marginal workload w\((\[[\d, ]*\]), (\d+)\)", str(err)).groups()
    return json.loads(s), int(j)


def assert_reports_match_under_relabelling(rep, moved):
    assert moved.ag.pi == rep.ag.pi
    assert moved.nu == pytest.approx(rep.nu, rel=1e-9, abs=1e-12)
    assert moved.state_order == tuple(PERM[i] for i in rep.state_order)
    assert moved.nu_by_state == pytest.approx(
        {PERM[i]: v for i, v in rep.nu_by_state.items()}, rel=1e-9, abs=1e-12)
    assert moved.chain_states == tuple(frozenset(PERM[i] for i in s)
                                       for s in rep.chain_states)
    assert [(s, j) for s, j, _ in moved.workload_violations] == \
        [(frozenset(PERM[i] for i in s), PERM[j]) for s, j, _ in rep.workload_violations]
    assert (moved.indexable, moved.admissible) == (rep.indexable, rep.admissible)


def test_reports_follow_a_non_identity_ground_to_state_map(rng):
    fam = powerset_family(4)
    checked = {"violations": 0, "indexable": 0, "errors": 0}
    while min(checked.values()) == 0:
        m = random_rb(rng, 6, 4, near=bool(rng.integers(2)))
        moved = relabel(m, PERM)
        assert sorted(moved.controllable) == [1, 2, 4, 5]
        try:
            rep = pcl_index(m, fam)
        except UnsupportedModelError as err:   # a nonpositive workload on the walked chain
            with pytest.raises(UnsupportedModelError) as moved_err:
                pcl_index(moved, fam)
            s, j = named_workload(err)   # named by states, not ground positions
            assert named_workload(moved_err.value) == (sorted(PERM[i] for i in s), PERM[j])
            checked["errors"] += 1
            continue
        moved_rep = pcl_index(moved, fam)
        assert_reports_match_under_relabelling(rep, moved_rep)
        checked["violations"] += bool(rep.workload_violations)
        if rep.indexable:
            checked["indexable"] += 1
            for i in range(6):
                segs = value_breakpoints(m, rep, i)
                moved_segs = value_breakpoints(moved, moved_rep, PERM[i])
                for field in ("breakpoints", "intercepts", "slopes"):
                    assert getattr(moved_segs, field) == pytest.approx(
                        getattr(segs, field), rel=1e-9, abs=1e-12)
            dmr, moved_dmr = dmr_report(m, rep), dmr_report(moved, moved_rep)
            assert dmr.all_ok and moved_dmr.all_ok
            assert moved_dmr.worst_ratio_residual == pytest.approx(
                dmr.worst_ratio_residual, abs=1e-12)


def test_average_reports_follow_a_non_identity_ground_to_state_map(rng):
    fam = powerset_family(4)
    for _ in range(3):
        m = random_rb(rng, 6, 4, beta=1.0, near=True)
        assert_reports_match_under_relabelling(average_pcl_index(m, fam),
                                               average_pcl_index(relabel(m, PERM), fam))


# ---------------------------------------------------------------------------
# Long-run average criterion
# ---------------------------------------------------------------------------

def test_average_limits_always_active_unit_weights(rng):
    m = random_rb(rng, 4, 4, beta=0.9)
    m = RBModel(m.P0, m.P1, m.h0, m.h1, np.ones(4), 0.9, m.controllable)
    al = average_limits(m, frozenset(range(4)))
    assert al.b_bar == pytest.approx(1.0)


@pytest.mark.parametrize("banded", [True, False])
def test_average_criterion_ignores_beta(rng, banded):
    # the average limits and indices read the beta = 1 operators whatever
    # beta is, so a model at beta = 0.9 gives what its beta = 1 copy gives;
    # unit weights on an always-active set would not show a wrong kernel
    if banded:
        m = admission.uniformize(random_compliant_admission(rng, 8, alpha=0.0))
    else:
        m = random_rb(rng, 6, 5, beta=1.0, near=True)
    discounted = RBModel(m.P0, m.P1, m.h0, m.h1, m.theta1, 0.9, m.controllable)
    assert (discounted.kernel.band is None) == (not banded)
    ctrl = sorted(m.controllable)
    for s in (frozenset(), frozenset(ctrl[:2]), frozenset(ctrl[3:]), frozenset(ctrl)):
        want, got = average_limits(m, s), average_limits(discounted, s)
        assert (got.b_bar, got.v_bar) == (want.b_bar, want.v_bar)
        for name in ("a", "f", "w_bar", "c_bar"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    fam = threshold_family(len(ctrl))
    want, got = average_pcl_index(m, fam), average_pcl_index(discounted, fam)
    assert got.nu_by_state == want.nu_by_state
    assert got.state_order == want.state_order


def test_tauberian_limits(rng):
    # discounted quantities at beta -> 1 approach the average-criterion ones
    m = random_compliant_admission(rng, 4, alpha=0.0)
    beta_hi = 1.0 - 1e-6
    alpha_hi = m.Lambda * (1.0 - beta_hi) / beta_hi
    rb_hi = admission.uniformize(
        admission.ACModel(m.n, m.lam, m.mu, m.h, alpha_hi, m.Lambda))
    rb_avg = admission.uniformize(m)
    for s in [frozenset(), frozenset({1, 2, 3}), frozenset(range(4))]:
        al = average_limits(rb_avg, s)
        assert np.max(np.abs((1 - beta_hi) * activity_measure(rb_hi, s) - al.b_bar)) < 1e-4
        assert np.max(np.abs((1 - beta_hi) * cost_measure(rb_hi, s) - al.v_bar)) < 1e-4
        assert np.max(np.abs(marginal_workload(rb_hi, s) - al.w_bar)) < 1e-4
        assert np.max(np.abs(marginal_cost(rb_hi, s) - al.c_bar)) < 1e-4


def test_report_retains_little_beyond_its_chain_tables():
    # the chain is stored once, as the priority order, and the reduced
    # costs are derived on read; the frozenset chains that AGOutput and
    # PCLReport each stored came to twice the bytes of the chain tables
    n = 300
    m = admission.ACModel(n, np.full(n + 1, 1.0), np.full(n, 1.3), np.arange(n + 1.0) ** 2, 0.1)
    rb, fam = admission.uniformize(m), threshold_family(n)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = pcl_index(rb, fam)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tables = rep.ag.workloads.nbytes + rep.ag.rate_table.nbytes
    assert tables == 2 * 8 * n * n
    assert retained <= 1.5 * tables


def test_average_limits_rejects_noncommunicating():
    P = np.eye(2)   # two absorbing states under both actions
    m = RBModel(P, P, np.zeros(2), np.zeros(2), np.ones(2), 0.9, frozenset())
    with pytest.raises(UnsupportedModelError):
        average_limits(m, frozenset())
    with pytest.raises(UnsupportedModelError):   # also once the answer is cached
        average_limits(m, frozenset())


def test_communication_is_decided_once_per_model(rng, monkeypatch):
    # every strong-components pass outside _recurrent_classes is a
    # communication check; average_pcl_index makes one per chain set
    # without the per-model cache
    passes = {"all": 0, "classes": 0}
    components, classes = bandit.connected_components, bandit._recurrent_classes

    def counted_components(*args, **kwargs):
        passes["all"] += 1
        return components(*args, **kwargs)

    def counted_classes(*args):
        passes["classes"] += 1
        return classes(*args)

    monkeypatch.setattr(bandit, "connected_components", counted_components)
    monkeypatch.setattr(bandit, "_recurrent_classes", counted_classes)
    m = admission.uniformize(random_compliant_admission(rng, 6, alpha=0.0))
    rep = average_pcl_index(m, threshold_family(6))
    assert rep.indexable
    assert passes["classes"] > 6
    assert passes["all"] - passes["classes"] == 1
    assert m.communicating
    assert passes["all"] - passes["classes"] == 1


def test_average_limits_makes_one_class_pass_per_chain_set(rng, monkeypatch):
    # the activity and cost rewards share one recurrent-class pass and one
    # anchored solve
    calls = {"limits": 0, "classes": 0}
    limits, classes = bandit.average_limits, bandit._recurrent_classes

    def counted_limits(model, s):
        calls["limits"] += 1
        return limits(model, s)

    def counted_classes(*args):
        calls["classes"] += 1
        return classes(*args)

    monkeypatch.setattr(bandit, "average_limits", counted_limits)
    monkeypatch.setattr(bandit, "_recurrent_classes", counted_classes)
    m = admission.uniformize(random_compliant_admission(rng, 6, alpha=0.0))
    assert average_pcl_index(m, threshold_family(6)).indexable
    assert calls == {"limits": 7, "classes": 7}


def test_average_limits_rejects_multichain_policy():
    P0 = np.eye(2)                         # passive freezes the state
    P1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = RBModel(P0, P1, np.zeros(2), np.zeros(2), np.ones(2), 0.9,
                frozenset({0, 1}))
    with pytest.raises(UnsupportedModelError):
        average_limits(m, frozenset())       # two frozen recurrent classes
    al = average_limits(m, frozenset({0, 1}))  # the cycle is unichain
    assert al.b_bar == pytest.approx(1.0)


def _random_multichain(rng, n, n_closed):
    """Row-stochastic matrix on n shuffled states: n_closed irreducible
    closed blocks, the rest transient with random edges (cycles among the
    transient states included) and at least one edge into a closed block."""
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), n_closed, replace=False))
    blocks, transient = np.split(perm[:cuts[-1]], cuts[:-1]), perm[cuts[-1]:]
    P = np.zeros((n, n))
    for block in blocks:
        P[block, np.roll(block, 1)] = 1.0          # a cycle makes the block irreducible
        extra = rng.random((len(block), len(block))) < 0.3
        P[np.ix_(block, block)] += extra * rng.uniform(0.1, 1.0, extra.shape)
    for i in transient:
        P[i, transient] = (rng.random(len(transient)) < 0.4) * rng.uniform(0.1, 1.0)
        P[i, rng.choice(perm[:cuts[-1]])] += rng.uniform(0.1, 1.0)
    return P / P.sum(axis=1, keepdims=True)


def test_recurrent_classes_match_component_loop(rng):
    from scipy.sparse.csgraph import connected_components

    def reference(P):
        n_comp, labels = connected_components((P > 0).astype(int), directed=True,
                                              connection="strong")
        leaves = []
        for comp in range(n_comp):
            members = np.flatnonzero(labels == comp)
            out_mass = P[np.ix_(members, np.flatnonzero(labels != comp))].sum()
            if out_mass <= 0:
                leaves.append(sorted(int(m) for m in members))
        return leaves

    def classes(P):
        # the edges as the average criterion's kernel reads them from its storage
        kernel = bandit._SolveKernel(P, P, 1.0)
        return bandit._recurrent_classes(len(P), *kernel.edges(np.zeros(len(P), dtype=bool)))

    for _ in range(60):
        n = int(rng.integers(2, 30))
        n_closed = int(rng.integers(1, min(n, 5)))
        P = _random_multichain(rng, n, n_closed)
        want = reference(P)
        assert len(want) == n_closed
        assert bandit._recurrent_classes(n, *np.nonzero(P > 0)) == want
        assert classes(P) == want
        # keep two diagonals each side, so that the kernel stores a band past 5 states
        B = np.triu(np.tril(P, 2), -2) + np.eye(n)
        B /= B.sum(axis=1, keepdims=True)
        assert n <= 5 or bandit._SolveKernel(B, B, 1.0).band is not None
        assert classes(B) == reference(B)
    assert bandit._recurrent_classes(3, *np.nonzero(np.eye(3))) == [[0], [1], [2]]


def test_constrained_policy_breakpoints_and_interpolation(rng):
    m = random_compliant_admission(rng, 4, alpha=0.0)
    rb = admission.uniformize(m)
    fam = threshold_family(4)
    rep = average_pcl_index(rb, fam)
    assert rep.indexable
    chain = list(rep.chain_states) + [frozenset()]
    b_bars = [average_limits(rb, s).b_bar for s in chain]
    v_bars = [average_limits(rb, s).v_bar for s in chain]
    # exactly at a chain point: deterministic policy
    pol = constrained_policy(rb, rep, b_bars[1])
    assert pol.deterministic and pol.value == pytest.approx(v_bars[1])
    # midway: equal randomization and averaged value
    t_mid = 0.5 * (b_bars[1] + b_bars[2])
    pol = constrained_policy(rb, rep, t_mid)
    assert pol.p_active == pytest.approx(0.5, abs=1e-12)
    assert pol.value == pytest.approx(0.5 * (v_bars[1] + v_bars[2]), abs=1e-10)
    assert pol.randomized_state == rep.state_order[1]
    # outside the achievable range
    with pytest.raises(InfeasibleTargetError):
        constrained_policy(rb, rep, b_bars[0] + 1.0)


def test_constrained_policy_refuses_a_nan_target():
    # a NaN target passed the range test and ended in a bare StopIteration
    m = admission.ACModel(5, np.full(6, 1.0), np.full(5, 1.3), np.arange(6.0) ** 2, 0.0)
    rb = admission.uniformize(m)
    with pytest.raises(InfeasibleTargetError, match="target nan outside"):
        constrained_policy(rb, average_pcl_index(rb, threshold_family(5)), np.nan)


def test_constrained_value_piecewise_linear_convex(rng):
    # achieved cost against allowed activity is piecewise linear with
    # slopes -index, so the return (its negation) shows diminishing
    # marginal returns
    m = random_compliant_admission(rng, 4, alpha=0.0)
    rb = admission.uniformize(m)
    fam = threshold_family(4)
    rep = average_pcl_index(rb, fam)
    chain = list(rep.chain_states) + [frozenset()]
    b_bars = [average_limits(rb, s).b_bar for s in chain]
    nu_seq = [rep.nu_by_state[j] for j in rep.state_order]
    slopes = []
    for k in range(len(chain) - 1):
        t0, t1 = b_bars[k + 1], b_bars[k]
        ts = np.linspace(t0 + 1e-9, t1 - 1e-9, 4)
        vals = [constrained_policy(rb, rep, float(t)).value for t in ts]
        seg_slopes = np.diff(vals) / np.diff(ts)
        assert np.allclose(seg_slopes, seg_slopes[0], atol=1e-8)
        assert seg_slopes[0] == pytest.approx(-nu_seq[k], abs=1e-8)
        slopes.append(seg_slopes[0])
    # slopes of the cost curve are nondecreasing in t: convex value,
    # concave return
    assert all(b >= a - 1e-9 for a, b in zip(slopes[::-1], slopes[::-1][1:]))


# ---------------------------------------------------------------------------
# Chain-set evaluation counts, and the set-active solve kernel: banded on
# birth-death models, dense otherwise
# ---------------------------------------------------------------------------

def regular_admission(n: int, alpha: float = 0.1) -> admission.ACModel:
    return admission.ACModel(n, np.full(n + 1, 1.0), np.full(n, 1.3),
                             np.arange(n + 1.0) ** 2, alpha)


def test_constrained_policy_evaluates_each_chain_set_once(monkeypatch):
    rb = admission.uniformize(regular_admission(20, alpha=0.0))
    fam = threshold_family(20)
    rep = average_pcl_index(rb, fam)
    chain = list(rep.chain_states) + [frozenset()]
    t = 0.5 * (average_limits(rb, chain[3]).b_bar + average_limits(rb, chain[4]).b_bar)
    calls = []

    def counting(model, s):
        calls.append(frozenset(s))
        return average_limits(model, s)

    monkeypatch.setattr(bandit, "average_limits", counting)
    constrained_policy(rb, rep, t)
    assert len(chain) == 21
    assert sorted(calls, key=len) == sorted(chain, key=len)


def test_state_cap_warning_only_on_dense_path(monkeypatch, rng):
    monkeypatch.setattr(bandit, "SOFT_STATE_CAP", 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rb = admission.uniformize(regular_admission(10))
    assert rb.kernel.band == (1, 1)
    with pytest.warns(UserWarning, match="dense linear algebra"):
        dense = random_rb(rng, 8, 6)
    assert dense.kernel.band is None


def test_perturbed_banded_solve_fails_the_residual_check(monkeypatch):
    rb = admission.uniformize(regular_admission(10))
    exact = bandit.solve_banded
    monkeypatch.setattr(bandit, "solve_banded",
                        lambda *args, **kw: exact(*args, **kw) * (1.0 + 1e-6))
    with pytest.raises(InternalConsistencyError, match="residual"):
        activity_measure(rb, frozenset(range(5)))
    with pytest.raises(InternalConsistencyError, match="residual"):
        average_limits(admission.uniformize(regular_admission(10, alpha=0.0)),
                       frozenset(range(5)))


def test_anchored_solve_is_the_bordered_gain_bias_system():
    # (I - P + e_r e_r^T) [y, z] = [r, 1] on a two-state cycle-with-rest
    # chain: stationary (2/3, 1/3), so z[r] = 1 / pi_r and the gain is
    # y[r] / z[r] whichever recurrent state anchors it
    P = np.array([[0.5, 0.5], [1.0, 0.0]])
    kernel = bandit._SolveKernel(P, P, 1.0)
    mask = np.zeros(2, dtype=bool)
    rhs = np.column_stack(([3.0, 0.0], np.ones(2)))
    for anchor, pi in ((0, 2 / 3), (1, 1 / 3)):
        y = kernel.solve(mask, rhs, anchor)
        assert y[anchor, 1] == pytest.approx(1.0 / pi)
        assert y[anchor, 0] / y[anchor, 1] == pytest.approx(2.0)
    with pytest.raises(np.linalg.LinAlgError):
        kernel.solve(mask, rhs)        # I - P alone is singular


@pytest.mark.parametrize("band", [(0, 0), (1, 0), (1, 1), (2, 1), (0, 3), (3, 3)])
@pytest.mark.parametrize("columns", [None, 2])
def test_solve_banded_matches_scipy_bit_for_bit(band, columns):
    rng = np.random.default_rng(sum(band) + 7 * (columns or 0))
    n = 9
    ab = rng.uniform(-1.0, 1.0, (sum(band) + 1, n))
    ab[band[1]] += 4.0                       # diagonally dominant
    b = rng.uniform(-1.0, 1.0, n if columns is None else (n, columns))
    ab_in, b_in = ab.copy(), b.copy()
    got = bandit.solve_banded(band, ab, b)
    want = scipy.linalg.solve_banded(band, ab, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(ab, ab_in) and np.array_equal(b, b_in)


def test_solve_banded_singular_tridiagonal_raises():
    # [[1, 1, 0], [1, 1, 0], [0, 1, 1]]: its first two rows are equal
    ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        bandit.solve_banded((1, 1), ab, np.ones(3))


def test_three_state_whittle_model_stays_dense(monkeypatch):
    model, _ = admission.whittle_counterexample()
    calls = []
    exact = bandit.solve_banded

    def counting(*args, **kw):
        calls.append(args[0])
        return exact(*args, **kw)

    monkeypatch.setattr(bandit, "solve_banded", counting)
    wrb = admission.whittle_variant(model)
    assert wrb.kernel.band is None
    pcl_index(wrb, powerset_family(3))
    dp.fair_charge(wrb, 0)
    assert calls == []
    # the same counter sees the solves of a banded model
    activity_measure(admission.uniformize(regular_admission(10)), frozenset({0}))
    assert calls == [(1, 1)]


def test_pcl_index_matches_recursion_at_400_states():
    m = regular_admission(400)
    nu = admission.indices(m)
    rep = pcl_index(admission.uniformize(m), threshold_family(400))
    assert rep.indexable
    greedy = np.array([rep.nu_by_state[j] for j in range(400)])
    assert np.max(np.abs(greedy - nu)) <= 1e-9 * max(1.0, float(np.max(np.abs(nu))))
