"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).  Tolerances are fixed
here, not configurable."""

import time

import numpy as np
import pytest

from pclindex import admission, bandit, dp
from pclindex.greedy import WorkloadOracle, ag1, ag2, dual_solution, primal_vertex
from pclindex.policies import QueueSpec, RoutingSystem, switching_curve
from pclindex.setsystem import enumerate_full_strings, suffix_sets, threshold_family
from pclindex.simulate import SimConfig, simulate

from conftest import (random_compliant_admission, random_positive_workload_rb,
                      random_valid_family, random_workload_tables, star_system)


def report(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_acceptance_01_whittle_counterexample_golden():
    start = time.perf_counter()
    model, expected = admission.whittle_counterexample()
    rb = admission.whittle_variant(model)
    path = dp.charge_path(rb)
    computed = {j: dp.fair_charge(path, j) for j in expected}
    elapsed = time.perf_counter() - start
    values_ok = all(abs(computed[j] - expected[j]) <= 1e-8 for j in expected)
    # consistency with threshold policies would need the index to be
    # nondecreasing in the state; here it strictly decreases
    inconsistent = computed[0] > computed[1] > computed[2]
    report(1, "whittle counterexample golden values",
           values_ok and inconsistent and elapsed < 1.0)


def test_acceptance_02_closed_forms_vs_recursion():
    start = time.perf_counter()
    ok = True
    n = 32
    for rho in (0.5, 0.9, 1.0, 1.1, 2.0):
        mu = 1.3
        lam = rho * mu
        states = np.arange(n + 1.0)
        for kind, h in (("linear", states), ("quadratic", states ** 2)):
            m = admission.ACModel(n, np.full(n + 1, lam), np.full(n, mu), h, 0.0)
            nu = admission.average_indices(m)
            for j in range(31):
                want = admission.closed_form_index(kind, lam, mu, 1.0, j)
                ok = ok and close(nu[j], want, 1e-9)
    elapsed = time.perf_counter() - start
    report(2, "closed forms vs recursion", ok and elapsed < 1.0)


def test_acceptance_03_greedy_algorithms_equivalent(rng):
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        sys = random_valid_family(rng, n)
        w, _ = random_workload_tables(rng, sys)
        oracle = WorkloadOracle.from_tables(w)
        c = rng.uniform(-10.0, 10.0, n)
        o1, o2 = ag1(c, oracle, sys), ag2(c, oracle, sys)
        ok = ok and o1.pi == o2.pi and o1.admissible == o2.admissible
        ok = ok and bool(np.all(np.abs(o1.nu - o2.nu) <= 1e-10
                                * np.maximum(1.0, np.abs(o1.nu))))
    report(3, "greedy algorithm equivalence on 100 instances", ok)


def test_acceptance_04_brute_force_lp_optimality(rng):
    ok = True
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 500:
        attempts += 1
        n_ctrl = int(rng.integers(2, 5))
        sys = random_valid_family(rng, n_ctrl)
        model = random_positive_workload_rb(rng, sys, n_states=n_ctrl + 1)
        sys_star, oracle = star_system(model, sys, initial=0)
        c = rng.uniform(-10.0, 10.0, sys_star.n)
        out = ag2(c, oracle, sys_star)
        if not out.admissible:
            continue
        checked += 1
        x = primal_vertex(out.pi, oracle)
        val = float(c @ x)
        best = min(float(c @ primal_vertex(pi, oracle))
                   for pi in enumerate_full_strings(sys_star))
        ok = ok and close(val, best, 1e-9)
        y = dual_solution(out)
        dual_obj = sum(y.get(s, 0.0) * oracle.rhs(s) for s in sys_star.family)
        ok = ok and close(dual_obj, val, 1e-9)
        for s in sys_star.family:
            if s and s != sys_star.ground:
                ok = ok and y.get(s, 0.0) >= -1e-9
        rows = {s: dict(zip(sorted(s), oracle.workload(s).tolist()))
                for s in sys_star.family if s}
        for j in range(sys_star.n):
            lhs = sum(y.get(s, 0.0) * row[j] for s, row in rows.items() if j in s)
            ok = ok and lhs <= c[j] + 1e-9 * max(1.0, abs(c[j]))
    report(4, f"brute-force LP optimality and duality ({checked} admissible runs)",
           ok and checked >= 25)


def test_acceptance_05_dp_crosscheck_on_compliant_instances(rng):
    ok = True
    count = 0
    for trial in range(26):
        n = int(rng.integers(2, 9))
        alpha = 0.01 if trial % 2 == 0 else 0.5
        m = random_compliant_admission(rng, n, alpha)
        rb = admission.uniformize(m)
        fam = threshold_family(n)
        rep = bandit.pcl_index(rb, fam)
        ok = ok and rep.indexable
        check = dp.crosscheck_indices(dp.charge_path(rb), rep)
        ok = ok and check.agree
        count += 1
    report(5, f"DP cross-check on {count} compliant instances", ok and count >= 25)


def test_acceptance_06_conservation_laws(rng):
    ok = True
    from conftest import random_rb
    for _ in range(100):
        n_states = int(rng.integers(2, 9))
        n_ctrl = int(rng.integers(1, n_states + 1))
        m = random_rb(rng, n_states, n_ctrl, beta=float(rng.uniform(0.3, 0.97)))
        u = rng.uniform(0.0, 1.0, n_states)
        u[n_ctrl:] = 1.0
        s = frozenset(j for j in range(n_ctrl) if rng.random() < 0.5)
        i = int(rng.integers(0, n_states))
        ok = ok and bandit.verify_workload_decomposition(m, u, s, i) <= 1e-9
        ok = ok and bandit.verify_cost_decomposition(m, u, s, i) <= 1e-9
    report(6, "workload and cost conservation laws on 100 triples", ok)


def test_acceptance_07_workload_lattice(rng):
    ok = True
    for alpha in (0.0, 0.25, 0.8):
        for _ in range(5):
            n = int(rng.integers(2, 8))
            m = random_compliant_admission(rng, n, alpha)
            W = admission.workload_table(m)
            ok = ok and bool(np.all(W > 0.0))
            for k in range(1, n + 1):
                ok = ok and W[k, k - 1] > 0.0
            for k in range(1, n):
                for i in range(1, k + 1):
                    ok = ok and W[k + 1, i - 1] > W[k, i - 1]
                for i in range(k, n):
                    ok = ok and W[k, i] > W[k + 1, i]
            # nondecreasing on the chain (larger set, larger workload)
            for k in range(n):
                for i in range(k + 1, n):
                    ok = ok and W[k, i] >= W[k + 1, i]
    report(7, "strict workload lattice at zero and positive discount", ok)


def test_acceptance_08_diminishing_marginal_returns(rng):
    ok = True
    for _ in range(8):
        n = int(rng.integers(2, 7))
        m = random_compliant_admission(rng, n, float(rng.uniform(0.05, 0.9)))
        rb = admission.uniformize(m)
        rep = bandit.dmr_report(rb, bandit.pcl_index(rb, threshold_family(n)))
        ok = ok and rep.all_ok
    report(8, "diminishing marginal returns (parts a-c)", ok)


def test_acceptance_09_tauberian_limits(rng):
    ok = True
    beta_hi = 1.0 - 1e-6
    for _ in range(4):
        n = int(rng.integers(2, 6))
        m = random_compliant_admission(rng, n, alpha=0.0)
        alpha_hi = float(m.Lambda) * (1.0 - beta_hi) / beta_hi
        rb_hi = admission.uniformize(
            admission.ACModel(m.n, m.lam, m.mu, m.h, alpha_hi, m.Lambda))
        rb_avg = admission.uniformize(m)
        chain = [frozenset(range(k, n)) for k in range(n)] + [frozenset()]
        for s in chain:
            al = bandit.average_limits(rb_avg, s)
            ok = ok and np.max(np.abs(
                (1 - beta_hi) * bandit.activity_measure(rb_hi, s) - al.b_bar)) < 1e-4
            ok = ok and np.max(np.abs(
                (1 - beta_hi) * bandit.cost_measure(rb_hi, s) - al.v_bar)) < 1e-4
            ok = ok and np.max(np.abs(
                bandit.marginal_workload(rb_hi, s) - al.w_bar)) < 1e-4
            ok = ok and np.max(np.abs(
                bandit.marginal_cost(rb_hi, s) - al.c_bar)) < 1e-4
    report(9, "Tauberian limits of discounted measures", ok)


def test_acceptance_10_constrained_control(rng):
    # the achieved cost over the activity grid is piecewise linear with
    # slope -index on each segment (convex cost = concave achieved return,
    # the diminishing-marginal-returns shape)
    ok = True
    for _ in range(4):
        n = int(rng.integers(2, 6))
        m = random_compliant_admission(rng, n, alpha=0.0)
        rb = admission.uniformize(m)
        fam = threshold_family(n)
        rep = bandit.average_pcl_index(rb, fam)
        ok = ok and rep.indexable
        chain = list(suffix_sets(rep.state_order)) + [frozenset()]
        b_bars = [bandit.average_limits(rb, s).b_bar for s in chain]
        nu_seq = [rep.nu_by_state[j] for j in rep.state_order]
        slopes_in_t = []
        for k in range(len(chain) - 1):
            lo, hi = b_bars[k + 1], b_bars[k]
            ts = np.linspace(lo + 1e-10, hi - 1e-10, 5)
            vals = [bandit.constrained_policy(rb, rep, float(t)).value for t in ts]
            seg = np.diff(vals) / np.diff(ts)
            ok = ok and bool(np.all(np.abs(seg - seg[0]) <= 1e-8 * max(1, abs(seg[0]))))
            ok = ok and abs(seg[0] + nu_seq[k]) <= 1e-8 * max(1.0, abs(nu_seq[k]))
            slopes_in_t.append(seg[0])
        increasing_t = slopes_in_t[::-1]
        ok = ok and all(b >= a - 1e-9 for a, b in zip(increasing_t, increasing_t[1:]))
    report(10, "constrained control segments match indices", ok)


def test_acceptance_11_simulation_sanity():
    start = time.perf_counter()
    # (a) single-queue admission under the index threshold vs closed form
    sys1 = RoutingSystem(1.0, (QueueSpec(8, 1.4, 1.0),), alpha=0.0, nu=3.0)
    config = SimConfig(max_events=100_000, replications=20, seed=21)
    rep = simulate(sys1, "index", config)
    m = admission.ACModel(8, np.full(9, 1.0), np.full(8, 1.4),
                          np.arange(9.0), 0.0)
    nu_map = admission.average_indices(m)
    j_star = int(np.flatnonzero(nu_map >= 3.0)[0])
    _, cost, reject = admission.threshold_steady_state(m, j_star + 1)
    want = cost + 3.0 * reject
    sim_ok = abs(rep.mean - want) <= 3.0 * rep.se
    # (b) two-queue switching curve slope in heavy traffic
    sys2 = RoutingSystem(4.0, (QueueSpec(None, 1.0, 1.0), QueueSpec(None, 2.0, 1.0)),
                         alpha=0.0)
    curve = switching_curve(sys2, bound=120)
    slope_ok = (curve.limit_slope == pytest.approx(2.0)
                and abs(curve.empirical_slope - curve.limit_slope)
                / curve.limit_slope <= 0.10)
    elapsed = time.perf_counter() - start
    report(11, "simulation sanity (analytic match and switching slope)",
           sim_ok and slope_ok and elapsed < 60.0)
