import numpy as np
import pytest

from pclindex import admission, bandit
from pclindex.errors import DegeneracyError, StructureError
from pclindex.greedy import (WorkloadOracle, ag1, ag2, dual_solution,
                             local_minmax_check, lp_value,
                             objective_representation_check, primal_vertex,
                             second_order_workload_recursion)
from pclindex.setsystem import (SetSystem, enumerate_full_strings, powerset_family,
                                product, threshold_family)

from conftest import (random_positive_workload_rb, random_valid_family,
                      random_workload_tables, star_system)


def unit_oracle(sys, b=None):
    return WorkloadOracle(lambda s: np.ones(len(s)), b)


# ---------------------------------------------------------------------------
# Single-run examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algo", [ag1, ag2])
def test_single_element_run(algo):
    sys = SetSystem(1, (frozenset(), frozenset({0})))
    out = algo([5.0], WorkloadOracle(lambda s: np.ones(len(s))), sys)
    assert out.pi == (0,)
    assert out.nu[0] == 5.0
    assert out.admissible


@pytest.mark.parametrize("algo", [ag1, ag2])
def test_unit_workload_powerset_sorts_costs(algo, rng):
    # with unit workloads the dual increments telescope and each index
    # equals its own cost entry
    for _ in range(20):
        n = int(rng.integers(2, 6))
        c = rng.uniform(-10, 10, n)
        out = algo(c, unit_oracle(None), powerset_family(n))
        assert np.allclose(out.nu, c)
        assert list(out.pi) == sorted(range(n), key=lambda j: (c[j], j))
        assert out.admissible


def test_threshold_run_matches_admission_indices(rng):
    # cross-module identity: greedy on the uniformized queue model equals
    # the closed admission recursion
    from conftest import random_compliant_admission
    m = random_compliant_admission(rng, 5, alpha=0.2)
    rb = admission.uniformize(m)
    rep = bandit.pcl_index(rb, threshold_family(5))
    nu = admission.indices(m)
    assert rep.ag.pi == tuple(range(5))
    assert np.allclose([rep.nu_by_state[j] for j in range(5)], nu, atol=1e-9)


def test_ag_raises_when_ground_set_missing():
    sys = SetSystem(2, (frozenset(), frozenset({0})))
    with pytest.raises(StructureError):
        ag1([1.0, 2.0], unit_oracle(None), sys)


def test_ag_rejects_nonpositive_workload():
    sys = powerset_family(2)
    with pytest.raises(ValueError):
        ag2([1.0, 2.0], WorkloadOracle(lambda s: np.full(len(s), -1.0)), sys)


def test_decreasing_index_is_inadmissible_over_the_full_walk():
    # costs chosen so the second index strictly drops: nu = c under unit w
    sys = threshold_family(3)   # forced order (0, 1, 2)
    for algo in (ag1, ag2):
        out = algo([5.0, 1.0, 7.0], unit_oracle(None), sys)
        assert not out.admissible and out.pi == (0, 1, 2)
        assert out.nu.tolist() == [5.0, 1.0, 7.0]


class CountingOracle(WorkloadOracle):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queries = []

    def workload(self, s):
        self.queries.append(s)
        return super().workload(s)


@pytest.mark.parametrize("algo", [ag1, ag2])
@pytest.mark.parametrize("family", ["threshold", "product"])
def test_walker_queries_one_row_and_one_boundary_per_chain_set(algo, family, rng,
                                                               monkeypatch):
    if family == "threshold":
        sys = threshold_family(50)
    else:
        sys = product([threshold_family(20), random_valid_family(rng, 5),
                       threshold_family(25)])
    oracle = CountingOracle(lambda s: [1.0 + 0.1 * len(s) + 0.01 * j for j in sorted(s)])
    boundary_calls = []
    neighbours = SetSystem.neighbours

    def counted(self, i, step):
        boundary_calls.append((i, step))
        return neighbours(self, i, step)

    monkeypatch.setattr(SetSystem, "neighbours", counted)
    monkeypatch.setattr(SetSystem, "inner_boundary", None)   # the walk reads ids only
    out = algo(rng.uniform(-5.0, 5.0, sys.n), oracle, sys)
    assert len(out.chain) == sys.n
    assert oracle.queries == list(out.chain)
    # the walk hands the oracle the family's own members
    family = sys.family
    assert all(q == family[sys.member_id(q)] for q in oracle.queries)
    assert boundary_calls == [(sys.member_id(s), -1) for s in out.chain]


def test_row_oracle_matches_table_oracle():
    # a row evaluator and from_tables over the same workloads give the same
    # rows, in sorted order, and the same walk
    def w(s, j):
        return 1.0 + len(s) + 0.5 * j

    sys = powerset_family(5)
    rows = WorkloadOracle(lambda s: np.array([w(s, j) for j in sorted(s)]))
    tables = WorkloadOracle.from_tables({s: {j: w(s, j) for j in s} for s in sys.family})
    s = frozenset({4, 1, 2})
    assert rows.workload(s).tolist() == tables.workload(s).tolist() == [4.5, 5.0, 6.0]
    c = np.array([3.0, 1.0, 2.0, 0.5, 4.0])
    assert ag2(c, rows, sys).nu.tolist() == ag2(c, tables, sys).nu.tolist()


def test_row_query_names_first_nonpositive_element():
    oracle = WorkloadOracle(lambda s: np.array([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError, match=r"w\(\[0, 3, 5\], 3\) = 0.0 is not positive"):
        oracle.workload(frozenset({0, 3, 5}))


# ---------------------------------------------------------------------------
# Primal vertex / dual solution / LP value
# ---------------------------------------------------------------------------

def test_primal_vertex_single():
    oracle = WorkloadOracle(lambda s: np.ones(len(s)), lambda s: 2.0)
    assert np.allclose(primal_vertex([0], oracle), [2.0])


def test_primal_vertex_uniform():
    oracle = WorkloadOracle(lambda s: np.ones(len(s)), lambda s: float(len(s)))
    assert np.allclose(primal_vertex([2, 0, 1], oracle), np.ones(3))


def test_primal_vertex_equals_occupation_measures(rng):
    # conservation-law property: the chain vertex of the star-extended
    # system is the occupation-measure vector of the matching set-active
    # policy (passive measures on controllable states, activity at star)
    sys = random_valid_family(rng, 3)
    model = random_positive_workload_rb(rng, sys, n_states=5)
    initial = 1
    sys_star, oracle = star_system(model, sys, initial)
    for pi_star in enumerate_full_strings(sys_star)[:12]:
        pos = pi_star.index(3)
        active = frozenset(j for j in pi_star[pos + 1:])
        x = primal_vertex(pi_star, oracle)
        x0, _ = bandit.occupation_measures(
            model, model.active_rows(active).astype(float), initial)
        b = bandit.activity_measure(model, active)[initial]
        assert np.allclose(x[:3], x0[:3], atol=1e-9)
        assert abs(x[3] - b) <= 1e-9 * max(1.0, abs(b))


def test_dual_solution_telescopes():
    out = ag1([3.0, 1.0], unit_oracle(None), powerset_family(2))
    y = dual_solution(out)
    assert y[frozenset({0, 1})] == pytest.approx(1.0)
    assert y[frozenset({0})] == pytest.approx(2.0)
    assert np.allclose(out.nu, [3.0, 1.0])


def test_dual_solution_single():
    sys = SetSystem(1, (frozenset(), frozenset({0})))
    out = ag1([4.0], WorkloadOracle(lambda s: np.full(len(s), 2.0)), sys)
    assert dual_solution(out)[frozenset({0})] == pytest.approx(2.0)


def test_dual_increments_nonnegative_when_admissible(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        sys = random_valid_family(rng, n)
        w, _ = random_workload_tables(rng, sys)
        out = ag1(rng.uniform(-10, 10, n), WorkloadOracle.from_tables(w), sys)
        if out.admissible:
            y = dual_solution(out)
            for k, s in enumerate(out.chain):
                if k >= 1:
                    assert y[s] >= -1e-9


def test_lp_value_single():
    sys = SetSystem(1, (frozenset(), frozenset({0})))
    oracle = WorkloadOracle(lambda s: np.ones(len(s)), lambda s: 3.0)
    out = ag1([5.0], oracle, sys)
    assert lp_value(out, oracle) == pytest.approx(15.0)


def test_lp_value_equals_cost_of_vertex(rng):
    sys = random_valid_family(rng, 4)
    model = random_positive_workload_rb(rng, sys, n_states=5)
    sys_star, oracle = star_system(model, sys, initial=0)
    c = rng.uniform(-5, 5, 5)
    out = ag2(c, oracle, sys_star)
    x = primal_vertex(out.pi, oracle)
    val = lp_value(out, oracle)
    assert abs(val - float(c @ x)) <= 1e-9 * max(1.0, abs(val))


def test_objective_representation_zero_vector(rng):
    sys = random_valid_family(rng, 4)
    w, b = random_workload_tables(rng, sys)
    out = ag1(rng.uniform(-5, 5, 4), WorkloadOracle.from_tables(w, b), sys)
    assert objective_representation_check(out, np.zeros(4)) <= 1e-12


def test_objective_representation_arbitrary_vectors(rng):
    # the index-based representation is an identity in x, admissible or not
    for _ in range(25):
        n = int(rng.integers(2, 6))
        sys = random_valid_family(rng, n)
        w, b = random_workload_tables(rng, sys)
        oracle = WorkloadOracle.from_tables(w, b)
        c = rng.uniform(-10, 10, n)
        out = ag2(c, oracle, sys)
        for _ in range(5):
            x = rng.uniform(0, 3, n)
            assert objective_representation_check(out, x) \
                <= 1e-9 * max(1.0, float(np.abs(c) @ np.abs(x)))


def test_local_minmax_unit_workloads(rng):
    c = rng.uniform(-5, 5, 5)
    out = ag2(c, unit_oracle(None), powerset_family(5))
    rep = local_minmax_check(out, monotone=True)
    assert rep.min_form_ok and rep.max_form_ok


def test_local_minmax_single():
    sys = SetSystem(1, (frozenset(), frozenset({0})))
    out = ag2([2.5], WorkloadOracle(lambda s: np.full(len(s), 5.0)), sys)
    assert local_minmax_check(out).min_form_ok


def test_local_minmax_admission_model(rng):
    from conftest import random_compliant_admission
    m = random_compliant_admission(rng, 6, alpha=0.3)
    rep = bandit.pcl_index(admission.uniformize(m), threshold_family(6))
    check = local_minmax_check(rep.ag, monotone=True)
    assert check.min_form_ok and check.max_form_ok


def test_monotone_rate_chain_under_monotone_workloads(rng):
    # with workloads nondecreasing in the set, each element's rate can only
    # grow as the chain set shrinks toward it
    from conftest import random_compliant_admission
    m = random_compliant_admission(rng, 6, alpha=0.1)
    rep = bandit.pcl_index(admission.uniformize(m), threshold_family(6))
    table = rep.ag.rate_table
    for l, j in enumerate(rep.ag.pi):
        rates = [table[k][j] for k in range(l + 1)]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


# ---------------------------------------------------------------------------
# Double-removal workload recursion
# ---------------------------------------------------------------------------

def test_second_order_recursion_constant_workloads():
    sys = powerset_family(4)
    oracle = WorkloadOracle(lambda s: np.full(len(s), 2.5), monotone=True)
    got = second_order_workload_recursion(sys, oracle, {0, 1, 2, 3}, 0, 1, 2)
    assert got == pytest.approx(2.5)


def test_second_order_recursion_matches_direct_rb_solve(rng):
    sys = powerset_family(4)
    model = random_positive_workload_rb(rng, sys, n_states=4)
    oracle = WorkloadOracle(
        lambda s: bandit.marginal_workload(model, frozenset(s))[sorted(s)], monotone=True)
    s = frozenset({0, 1, 2, 3})
    got = second_order_workload_recursion(sys, oracle, s, 0, 1, 2)
    direct = bandit.marginal_workload(model, s - {0, 1})[2]
    assert got == pytest.approx(direct, abs=1e-9 * max(1.0, abs(direct)))


def test_second_order_recursion_symmetric_in_removal_order(rng):
    sys = powerset_family(4)
    model = random_positive_workload_rb(rng, sys, n_states=4)
    oracle = WorkloadOracle(
        lambda s: bandit.marginal_workload(model, frozenset(s))[sorted(s)], monotone=True)
    s = frozenset({0, 1, 2, 3})
    a = second_order_workload_recursion(sys, oracle, s, 0, 1, 3)
    b = second_order_workload_recursion(sys, oracle, s, 1, 0, 3)
    assert a == pytest.approx(b, abs=1e-10 * max(1.0, abs(a)))


def test_second_order_recursion_degenerate_denominator():
    sys = powerset_family(3)
    # workloads balloon after one removal: the ratio sum drops below 1
    table = {s: {j: (0.1 if len(s) == 3 else 10.0) for j in s}
             for s in sys.family if s}
    oracle = WorkloadOracle.from_tables(table, monotone=True)
    with pytest.raises(DegeneracyError):
        second_order_workload_recursion(sys, oracle, {0, 1, 2}, 0, 1, 2)


# ---------------------------------------------------------------------------
# Randomized invariants
# ---------------------------------------------------------------------------

def test_ag1_ag2_equivalent_on_100_instances(rng):
    hits = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        sys = random_valid_family(rng, n)
        w, _ = random_workload_tables(rng, sys)
        oracle = WorkloadOracle.from_tables(w)
        c = rng.uniform(-10, 10, n)
        o1 = ag1(c, oracle, sys)
        o2 = ag2(c, oracle, sys)
        assert o1.pi == o2.pi
        assert o1.admissible == o2.admissible
        assert np.allclose(o1.nu, o2.nu, atol=1e-10, rtol=1e-10)
        hits += 1
    assert hits == 100


def test_equivalence_holds_under_alternate_tie_break(rng):
    # indices are tie-independent; forcing ties via equal costs/workloads
    sys = powerset_family(4)
    oracle = unit_oracle(None)
    c = np.array([2.0, 2.0, 1.0, 1.0])
    low = ag1(c, oracle, sys, tie_break="low")
    high = ag1(c, oracle, sys, tie_break="high")
    assert low.pi != high.pi
    assert np.allclose(low.nu, high.nu, atol=1e-12)
    assert low.admissible == high.admissible


@pytest.mark.parametrize("algo", [ag1, ag2])
@pytest.mark.parametrize("tie_break", ["hi", "LOW", "", None])
def test_unknown_tie_break_is_refused(algo, tie_break):
    # "hi" used to run silently as "high": pi (2, 1, 0) where "low" gives (1, 2, 0)
    sys, c = powerset_family(3), [2.0, 1.0, 1.0]
    assert algo(c, unit_oracle(None), sys).pi == (1, 2, 0)
    assert algo(c, unit_oracle(None), sys, tie_break="high").pi == (2, 1, 0)
    with pytest.raises(ValueError, match="tie_break"):
        algo(c, unit_oracle(None), sys, tie_break=tie_break)


def test_index_equals_own_rate_table_entry(rng):
    # each selected element's index is exactly its marginal rate against
    # the chain set it was removed from
    for _ in range(20):
        n = int(rng.integers(1, 6))
        sys = random_valid_family(rng, n)
        w, _ = random_workload_tables(rng, sys)
        out = ag1(rng.uniform(-5, 5, n), WorkloadOracle.from_tables(w), sys)
        for k, j in enumerate(out.pi):
            assert out.nu[j] == out.rate_table[k][j]


def test_powerset_always_admissible(rng):
    for _ in range(40):
        n = int(rng.integers(1, 6))
        sys = powerset_family(n)
        w, _ = random_workload_tables(rng, sys)
        out = ag2(rng.uniform(-10, 10, n), WorkloadOracle.from_tables(w), sys)
        assert out.admissible


def _admissible_star_instance(rng, n_ctrl, n_states):
    sys = random_valid_family(rng, n_ctrl)
    model = random_positive_workload_rb(rng, sys, n_states=n_states)
    sys_star, oracle = star_system(model, sys, initial=0)
    c = rng.uniform(-10, 10, n_ctrl + 1)
    out = ag2(c, oracle, sys_star)
    return sys_star, oracle, c, out


def test_brute_force_lp_optimality_and_duality(rng):
    # admissible runs solve the chain LP: the greedy vertex beats every
    # feasible-string vertex, and the dual certificate is feasible with
    # matching objective
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 400:
        attempts += 1
        n_ctrl = int(rng.integers(2, 5))
        sys_star, oracle, c, out = _admissible_star_instance(
            rng, n_ctrl, n_states=n_ctrl + int(rng.integers(0, 2)))
        if not out.admissible:
            continue
        checked += 1
        x_star = primal_vertex(out.pi, oracle)
        val = float(c @ x_star)
        best = min(float(c @ primal_vertex(pi, oracle))
                   for pi in enumerate_full_strings(sys_star))
        assert abs(val - best) <= 1e-9 * max(1.0, abs(best))
        # strong duality and dual feasibility over the whole family
        y = dual_solution(out)
        dual_obj = sum(y.get(s, 0.0) * oracle.rhs(s) for s in sys_star.family)
        assert abs(dual_obj - val) <= 1e-9 * max(1.0, abs(val))
        for s in sys_star.family:
            if s and s != sys_star.ground:
                assert y.get(s, 0.0) >= -1e-9
        rows = {s: dict(zip(sorted(s), oracle.workload(s).tolist()))
                for s in sys_star.family if s}
        for j in range(sys_star.n):
            lhs = sum(y.get(s, 0.0) * row[j] for s, row in rows.items() if j in s)
            assert lhs <= c[j] + 1e-9 * max(1.0, abs(c[j]))
        # the vertex is feasible for every family constraint
        for s, row in rows.items():
            load = sum(row[j] * x_star[j] for j in s)
            rhs = oracle.rhs(s)
            slack = 1e-9 * max(1.0, abs(rhs), abs(load))
            if s == sys_star.ground:
                assert abs(load - rhs) <= slack
            else:
                assert load >= rhs - slack
    assert checked >= 25


def test_reduced_cost_identity(rng):
    # partial sums of the dual increments plus the reduced tail reproduce
    # the optimal value at every split point
    found = 0
    while found < 10:
        sys_star, oracle, c, out = _admissible_star_instance(rng, 3, 4)
        if not out.admissible:
            continue
        found += 1
        x_star = primal_vertex(out.pi, oracle)
        val = float(c @ x_star)
        n = sys_star.n
        nu_seq = [out.nu[j] for j in out.pi]
        b_seq = [oracle.rhs(s) for s in out.chain]
        for m in range(1, n):
            head = sum(nu_seq[k] * (b_seq[k] - b_seq[k + 1]) for k in range(m))
            tail = sum(out.reduced_costs[m][j] * x_star[j] for j in out.chain[m])
            assert abs(val - head - tail) <= 1e-9 * max(1.0, abs(val))


def test_reduced_costs_are_derived_read_only_tables(rng):
    # the reduced costs are rate * w(S_k, .), built on read: for ag1 that is
    # the product its walk stored, bit for bit; ag2's agrees to 1e-12 with
    # the cost recursion c'(j) = c(j) - (c(pivot) / w(pivot)) (w(j) - w'(j))
    for _ in range(100):
        n = int(rng.integers(1, 7))
        sys = random_valid_family(rng, n)
        w, _ = random_workload_tables(rng, sys)
        oracle = WorkloadOracle.from_tables(w)
        c = rng.uniform(-10, 10, n)
        one, two = ag1(c, oracle, sys), ag2(c, oracle, sys)
        for out in (one, two):
            rc = out.reduced_costs
            assert rc.shape == (n, n) and not rc.flags.writeable
            with pytest.raises(ValueError):
                rc[0, out.pi[0]] = 0.0
        assert np.array_equal(one.reduced_costs, one.rate_table * one.workloads,
                              equal_nan=True)
        ref = np.empty((n, n))
        ref[0] = c
        for k in range(1, n):
            prev, pivot = two.workloads[k - 1], two.pi[k - 1]
            ref[k] = ref[k - 1] - (ref[k - 1][pivot] / prev[pivot]) * (prev - two.workloads[k])
        got = two.reduced_costs
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        fin = np.isfinite(ref)
        assert np.all(np.abs(got[fin] - ref[fin]) <= 1e-12 * np.maximum(1.0, np.abs(ref[fin])))


def test_index_decomposition_over_products(rng):
    # per-component workloads make the joint run separable: indices match
    # the component runs and admissibility is the conjunction
    for _ in range(20):
        m = int(rng.integers(2, 4))
        parts = [random_valid_family(rng, int(rng.integers(1, 4))) for _ in range(m)]
        tables = []
        for part in parts:
            w, _ = random_workload_tables(rng, part)
            tables.append(w)
        offsets = np.cumsum([0] + [p.n for p in parts])[:-1]
        joint = product(parts)

        def joint_w(s, j):
            for k, part in enumerate(parts):
                off = offsets[k]
                if off <= j < off + part.n:
                    comp = frozenset(e - off for e in s if off <= e < off + part.n)
                    return tables[k][comp][j - off]
            raise KeyError(j)

        c = rng.uniform(-10, 10, joint.n)
        out = ag2(c, WorkloadOracle(lambda s: [joint_w(s, j) for j in sorted(s)]), joint)
        parts_admissible = []
        for k, part in enumerate(parts):
            off = offsets[k]
            comp_out = ag2(c[off:off + part.n], WorkloadOracle.from_tables(tables[k]), part)
            parts_admissible.append(comp_out.admissible)
            assert np.allclose(out.nu[off:off + part.n], comp_out.nu,
                               atol=1e-9, rtol=1e-9)
        assert out.admissible == all(parts_admissible)
