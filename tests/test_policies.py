import math
from dataclasses import replace

import numpy as np
import pytest

from pclindex import admission
from pclindex.policies import (MTSSystem, ProductSpec, QueueSpec, RoutingSystem,
                               least_stock_decide, mts_decide, mts_index,
                               mts_index_table, mts_linear_index,
                               mts_quadratic_index, naive_decide, routing_decide,
                               routing_index, routing_index_table,
                               shortest_queue_decide, switching_curve)


def linear_queue(n, mu, h=1.0):
    return QueueSpec(n=n, mu=mu, h=h)


# ---------------------------------------------------------------------------
# Routing indices
# ---------------------------------------------------------------------------

def test_routing_index_closed_form_example():
    sys = RoutingSystem(lam=2.0, queues=(linear_queue(None, 1.0),), alpha=0.0)
    assert routing_index(sys, 0, 0) == pytest.approx(1.0)


def test_routing_index_critical_ratio_uses_other_branch():
    sys = RoutingSystem(lam=1.0, queues=(linear_queue(None, 1.0),), alpha=0.0)
    assert routing_index(sys, 0, 2) == pytest.approx(6.0)   # (j+1)(j+2)/2


def test_routing_index_near_critical_ratio_follows_the_recursion():
    # lam/mu = 1 + 1e-9 is within rounding of the critical branch
    # (j+1)(j+2)/2; the geometric closed form cancels to 0.0 there
    sys = RoutingSystem(1.0 + 1e-9, (linear_queue(None, 1.0),), alpha=0.0)
    got = [routing_index(sys, 0, j) for j in range(5)]
    assert got == pytest.approx([1.0, 3.0, 6.0, 10.0, 15.0], rel=1e-6)


def test_routing_index_rejects_full_buffer():
    sys = RoutingSystem(lam=1.0, queues=(linear_queue(4, 2.0),), alpha=0.0)
    with pytest.raises(ValueError):
        routing_index(sys, 0, 4)


def test_routing_index_general_path_matches_closed_form():
    # the same queue written with explicit arrays goes through the
    # admission recursion and must agree with the closed form
    lam, mu, n = 1.3, 2.0, 9
    fast = RoutingSystem(lam, (linear_queue(n, mu),), alpha=0.0)
    slow = RoutingSystem(lam, (QueueSpec(n, [mu] * n, [float(j) for j in range(n + 1)]),),
                         alpha=0.0)
    for j in range(n):
        assert routing_index(slow, 0, j) == pytest.approx(
            routing_index(fast, 0, j), rel=1e-10)


def test_routing_index_state_dependent_rates_match_admission(rng):
    n = 6
    mu = np.sort(rng.uniform(1.0, 2.0, n))          # concave-ish increasing
    h = np.cumsum(np.sort(rng.uniform(0.1, 1.0, n + 1)))
    sys = RoutingSystem(0.8, (QueueSpec(n, list(mu), list(h)),), alpha=0.3)
    model = admission.ACModel(n, np.full(n + 1, 0.8), mu, h, 0.3)
    want = admission.indices(model)
    got = [routing_index(sys, 0, j) for j in range(n)]
    assert np.allclose(got, want, atol=1e-12)


def test_routing_indices_nondecreasing_in_state(rng):
    sys = RoutingSystem(1.1, (linear_queue(None, 0.9), linear_queue(None, 1.8)),
                        alpha=0.0)
    for k in range(2):
        tab = routing_index_table(sys, k, 30)
        assert np.all(np.diff(tab) >= 0)


def test_infinite_buffer_truncation_is_exact(rng):
    # the recursion is forward: indices never depend on states above them
    sys = RoutingSystem(1.0, (QueueSpec(None, [1.5] * 40, [0.7 * j for j in range(41)]),),
                        alpha=0.0)
    short = [routing_index(sys, 0, j) for j in range(6)]
    table = routing_index_table(sys, 0, 20)
    assert np.allclose(short, table[:6], atol=1e-12)


# ---------------------------------------------------------------------------
# Routing decisions
# ---------------------------------------------------------------------------

def two_queue_sys(nu=np.inf):
    return RoutingSystem(3.0, (linear_queue(2, 1.0, 1.0), linear_queue(2, 1.5, 2.0)),
                         alpha=0.0, nu=nu)


def test_decide_rejects_when_all_full():
    sys = two_queue_sys()
    assert routing_decide(sys, [2, 2]) is None
    assert shortest_queue_decide(sys, [2, 2]) is None


def test_decide_never_rejects_with_infinite_charge():
    sys = two_queue_sys(nu=np.inf)
    for state in ([0, 0], [2, 1], [1, 2], [0, 2]):
        assert routing_decide(sys, state) is not None


def test_decide_matches_hand_evaluated_table():
    sys = two_queue_sys()
    t1 = routing_index_table(sys, 0, 2)
    t2 = routing_index_table(sys, 1, 2)
    for j1 in range(3):
        for j2 in range(3):
            got = routing_decide(sys, [j1, j2])
            cands = []
            if j1 < 2:
                cands.append((t1[j1], 0))
            if j2 < 2:
                cands.append((t2[j2], 1))
            want = min(cands)[1] if cands else None
            assert got == want


def test_finite_charge_gates_admission():
    sys = two_queue_sys(nu=0.0)   # indices are positive: always reject
    assert routing_decide(sys, [0, 0]) is None


def test_equal_index_maps_reduce_to_shortest_queue(rng):
    queues = tuple(linear_queue(5, 1.3, 0.9) for _ in range(3))
    sys = RoutingSystem(2.0, queues, alpha=0.0)
    tables = [routing_index_table(sys, k, 5) for k in range(3)]
    for _ in range(50):
        state = [int(rng.integers(0, 6)) for _ in range(3)]
        assert routing_decide(sys, state, tables=tables) == \
            shortest_queue_decide(sys, state)


def test_a_replaced_charge_gates_the_rules():
    # the system's charge gates the index and naive rules, also when it is
    # replaced on a copy of a system with the default inf; the
    # shortest-queue baseline ignores it
    sys = RoutingSystem(1.0, (QueueSpec(None, 1.0, 1.0),))
    assert sys.nu == math.inf
    assert routing_decide(replace(sys, nu=0.5), [5]) is None
    assert naive_decide(replace(sys, nu=0.5), [5]) is None
    assert shortest_queue_decide(replace(sys, nu=0.5), [5]) == 0
    assert routing_decide(sys, [5]) == 0 and naive_decide(sys, [5]) == 0
    gated = two_queue_sys(nu=0.0)
    assert routing_decide(replace(gated, nu=np.inf), [0, 0]) == 0
    assert naive_decide(replace(gated, nu=np.inf), [0, 0]) == 0
    assert shortest_queue_decide(replace(gated, nu=-1.0), [1, 0]) == 1


def test_decisions_refuse_a_malformed_state():
    # a short state used to leave a queue out of the decision, a level past
    # the cap read as a full queue, and a negative one raised IndexError
    sys = RoutingSystem(1.0, (QueueSpec(5, 1.0, 1.0), QueueSpec(5, 1.5, 2.0)), alpha=0.1,
                        nu=50.0)
    assert routing_decide(sys, [4, 0]) == 1
    for decide in (routing_decide, shortest_queue_decide, naive_decide):
        for state in ([4], [4, 0, 0], [9, 0], [-1, 0], [0, 6]):
            with pytest.raises(ValueError, match="needs one level in 0..cap per buffer"):
                decide(sys, state)
    # the caps come from ``full`` when it is given
    assert shortest_queue_decide(sys, [7, 3], full=[8, 8]) == 1
    with pytest.raises(ValueError, match="needs one level in 0..cap per buffer"):
        routing_decide(sys, [3, 3], full=[2, 8])
    spec = ProductSpec(4, 0.8, 1.2, 1.0, 0.5, 0.7)
    mts = MTSSystem((spec, ProductSpec(None, 0.8, 1.2, 1.0, 0.5, 0.7)), alpha=0.1, nu=5.0)
    assert least_stock_decide(mts, [4, 100]) == 1
    for decide in (mts_decide, least_stock_decide):
        for state in ([1], [5, 0], [0, -1]):
            with pytest.raises(ValueError, match="needs one level in 0..cap per buffer"):
                decide(mts, state)


def test_naive_baseline_uses_one_step_rates():
    sys = RoutingSystem(1.0, (linear_queue(3, 1.0, 1.0), linear_queue(3, 2.0, 1.0)),
                        alpha=0.0)
    # queue 2 is twice as fast: one-step rate h(j+1)/mu prefers it
    assert naive_decide(sys, [0, 0]) == 1
    assert naive_decide(sys, [3, 3]) is None


# ---------------------------------------------------------------------------
# Make-to-stock indices
# ---------------------------------------------------------------------------

def test_mts_bracket_example():
    # rho = 1/2, c = mu = 1, j = 0: bracket is 2, index 2 - r - s
    r, s = 0.3, 0.2
    sys = MTSSystem((ProductSpec(None, 0.5, 1.0, 1.0, s, r),), alpha=0.0)
    assert mts_index(sys, 0, 0) == pytest.approx(2.0 - r - s)
    assert mts_linear_index(1.0, 1.0, 0.5, s, r, 0) == pytest.approx(2.0 - r - s)


def test_mts_closed_form_matches_role_swapped_recursion():
    for rho in (0.5, 0.8, 1.25, 2.0):
        mu = 1.0
        spec = ProductSpec(None, rho * mu, mu, 0.4, 1.5, 2.0)
        sys = MTSSystem((spec,), alpha=0.0)
        table = mts_index_table(sys, 0, 12)   # always the general route
        for j in range(12):
            want = mts_linear_index(0.4, mu, rho, 1.5, 2.0, j)
            assert table[j] == pytest.approx(want, rel=1e-9)


def test_mts_quadratic_closed_form_matches_general_route():
    for rho in (0.5, 1.6):
        mu, c, s, r = 1.0, 0.7, 0.9, 1.1
        spec = ProductSpec(None, rho * mu, mu, [c * j ** 2 for j in range(30)], s, r)
        sys = MTSSystem((spec,), alpha=0.0)
        table = mts_index_table(sys, 0, 10)
        for j in range(10):
            want = mts_quadratic_index(c, mu, rho, s, r, j)
            assert table[j] == pytest.approx(want, rel=1e-9)


def test_mts_quadratic_closed_form_near_unit_ratio():
    # the former closed form cancelled to -1.2 at rho = 1 + 1e-9
    spec = ProductSpec(None, 1.0 + 1e-9, 1.0, [j ** 2 for j in range(30)], 0.5, 0.7)
    table = mts_index_table(MTSSystem((spec,), alpha=0.0), 0, 4)
    got = mts_quadratic_index(1.0, 1.0, 1.0 + 1e-9, 0.5, 0.7, 3)
    assert got == pytest.approx(48.8, rel=1e-8)
    assert got == pytest.approx(table[3], rel=1e-8)


def test_mts_critical_ratio_falls_back_to_general_sum():
    sys = MTSSystem((ProductSpec(None, 1.0, 1.0, 1.0, 0.0, 0.0),), alpha=0.0)
    got = mts_index(sys, 0, 3)
    assert np.isfinite(got)
    # role-swapped model at rho' = 1: increments are the net-cost steps
    table = mts_index_table(sys, 0, 5)
    assert got == pytest.approx(table[3], rel=1e-9)


def test_mts_index_near_critical_ratio_matches_table():
    # the closed form cancels catastrophically this close to rho = 1
    sys = MTSSystem((ProductSpec(None, 1 + 1e-9, 1.0, 1.0, 0.5, 0.7),), alpha=0.0)
    got = [mts_index(sys, 0, j) for j in range(4)]
    assert got == pytest.approx(mts_index_table(sys, 0, 4), abs=1e-6)
    assert got == pytest.approx([-0.2, 1.8, 4.8, 8.8], abs=1e-6)


def test_mts_linear_closed_form_near_critical_ratio():
    # the former closed form cancelled to -1.2 here
    assert mts_linear_index(1.0, 1.0, 1 + 1e-9, 0.5, 0.7, 3) == pytest.approx(8.8, rel=1e-8)
    with pytest.raises(ValueError):
        mts_linear_index(1.0, 1.0, 1.0, 0.5, 0.7, 3)


def test_mts_index_at_the_last_level_reads_the_table():
    # the last level below the cap: the model of the whole stock, whose cap
    # keeps the production rate, gives 3.138; a model whose cap produced at
    # rate 0 gave 0.993
    sys = MTSSystem((ProductSpec(5, 0.8, 1.2, 1.0, 0.5, 0.7),), alpha=0.3)
    table = mts_index_table(sys, 0, 5)
    assert table[4] == pytest.approx(3.138, abs=5e-4)
    for j in range(5):
        assert mts_index(sys, 0, j) == table[j]
    assert mts_decide(replace(sys, nu=3.0), [4]) is None
    assert mts_decide(replace(sys, nu=3.2), [4]) == 0


def test_mts_index_rejects_full_stock():
    sys = MTSSystem((ProductSpec(5, 0.8, 1.2, 1.0, 0.5, 0.7),), alpha=0.3)
    with pytest.raises(ValueError):
        mts_index(sys, 0, 5)
    with pytest.raises(ValueError):
        mts_index_table(sys, 0, 6)


def test_systems_refuse_nan_parameters():
    # model files refuse NaN already; a library caller's NaN used to run:
    # an empty simulation, the average criterion, or an index policy that
    # rejected every arrival
    queues, products = (linear_queue(3, 1.0),), (ProductSpec(4, 0.8, 1.2, 1.0, 0.5, 0.7),)
    for kwargs in ({"lam": math.nan}, {"alpha": math.nan}, {"nu": math.nan},
                   {"lam": math.inf}, {"alpha": math.inf}, {"lam": 0.0}, {"alpha": -1.0}):
        with pytest.raises(ValueError):
            RoutingSystem(**{"lam": 1.0, "queues": queues, **kwargs})
    for kwargs in ({"alpha": math.nan}, {"nu": math.nan}, {"alpha": math.inf}):
        with pytest.raises(ValueError):
            MTSSystem(products, **kwargs)
    for nu in (math.inf, -math.inf):   # an infinite charge stays legal
        assert RoutingSystem(1.0, queues, nu=nu).nu == nu
        assert MTSSystem(products, nu=nu).nu == nu


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_specs_refuse_non_finite_rates_and_costs(bad):
    # every rate and cost field, as a scalar and as a sequence entry; the
    # message names the field (a make-to-stock lam used to surface as mu,
    # its role in the product's admission model)
    queue = {"n": 3, "mu": 1.0, "h": 1.0}
    product = {"n": 3, "lam": 0.8, "mu": 1.2, "c": 1.0, "s": 0.5, "r": 0.7}
    for spec, fields in ((QueueSpec, queue), (ProductSpec, product)):
        for name in fields:
            if name == "n":
                continue
            values = [bad] if name == "s" else [bad, [1.0, bad, 1.0, 1.0]]
            for value in values:
                with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
                    spec(**{**fields, name: value})
    with pytest.raises(ValueError, match="^lam "):
        MTSSystem((ProductSpec(3, bad, 1.2, 1.0, 0.5, 0.7),))


@pytest.mark.parametrize("kind, spec, name, state", [
    ("routing", {"mu": [1.0] * 3, "h": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}, "mu", 3),
    ("routing", {"mu": [1.0] * 5, "h": [0.0, 1.0, 2.0]}, "h", 3),
    ("routing", {"mu": [1.0] * 2, "h": [0.0]}, "mu", 2),
    ("mts", {"lam": [1.0] * 4, "mu": [1.0] * 3, "c": 1.0, "r": 1.0}, "mu", 3),
    ("mts", {"lam": [1.0] * 4, "mu": [1.0] * 5, "c": 1.0, "r": 1.0}, "lam", 4),
    ("mts", {"lam": 1.0, "mu": 1.0, "c": [1.0] * 3, "r": [1.0] * 9}, "c", 3),
    ("mts", {"lam": 1.0, "mu": 1.0, "c": [1.0] * 9, "r": [1.0] * 2}, "r", 2),
    ("mts", {"lam": 1.0, "mu": 1.0, "c": [1.0] * 3, "r": [1.0] * 2}, "r", 2),
    ("mts", {"lam": 1.0, "mu": 1.0, "c": [1.0] * 3, "r": [1.0] * 3}, "c", 3),
    ("mts", {"lam": 1.0, "mu": 1.0, "c": [1.0], "r": []}, "c", 1),
    ("mts", {"lam": 1.0, "mu": 1.0, "c": 1.0, "r": []}, "r", 1),
])
def test_levels_fail_at_the_first_state_a_sequence_lacks(kind, spec, name, state):
    # the rate tables are sliced once, yet name the field and state that a
    # level-by-level read (birth, death, then cost; c before r) meets first
    if kind == "routing":
        system = RoutingSystem(1.0, (QueueSpec(None, spec["mu"], spec["h"]),))
    else:
        system = MTSSystem((ProductSpec(None, spec["lam"], spec["mu"], spec["c"], 0.5,
                                        spec["r"]),))
    with pytest.raises(ValueError, match=f"^{name} sequence too short for state {state}$"):
        system.levels(0, 5)


def test_mts_per_state_production_needs_n_entries():
    # a finite product's per-state production rates cover levels 0..n-1
    scalar = MTSSystem((ProductSpec(4, 0.8, 1.2, 1.0, 0.5, 0.7),), alpha=0.2)
    listed = MTSSystem((ProductSpec(4, 0.8, [1.2] * 4, 1.0, 0.5, 0.7),), alpha=0.2)
    assert mts_index_table(listed, 0, 4).tolist() == mts_index_table(scalar, 0, 4).tolist()
    short = MTSSystem((ProductSpec(4, 0.8, [1.2] * 3, 1.0, 0.5, 0.7),), alpha=0.2)
    with pytest.raises(ValueError, match="too short"):
        mts_index_table(short, 0, 4)


def test_mts_heavy_demand_keeps_index_negative_over_truncation_range():
    # demand exceeds capacity and margins dominate holding costs: producing
    # is always worth a nonnegative subsidy, so at subsidy 0 never idle
    sys = MTSSystem((ProductSpec(None, 1.25, 1.0, 0.005, 1.0, 2.0),),
                    alpha=0.0, nu=0.0)
    table = mts_index_table(sys, 0, 50)
    assert np.all(table < 0.0)
    for j in range(50):
        assert mts_decide(sys, [j], tables=[table], full=[50]) == 0


def test_mts_identical_products_make_least_stock(rng):
    spec = ProductSpec(8, 0.9, 1.2, 1.0, 0.5, 0.8)
    sys = MTSSystem((spec, spec, spec), alpha=0.0, nu=np.inf)
    tables = [mts_index_table(sys, k, 8) for k in range(3)]
    for _ in range(40):
        state = [int(rng.integers(0, 9)) for _ in range(3)]
        assert mts_decide(sys, state, tables=tables) == \
            least_stock_decide(sys, state)


def test_a_replaced_subsidy_gates_the_index_rule():
    spec = ProductSpec(None, 0.8, 1.2, 1.0, 0.5, 0.7)
    sys = MTSSystem((spec, spec), alpha=0.1, nu=np.inf)
    assert mts_decide(sys, [3, 1]) == 1
    assert mts_decide(replace(sys, nu=-1e9), [3, 1]) is None
    assert least_stock_decide(replace(sys, nu=-1e9), [3, 1]) == 1
    cheap = MTSSystem((spec, spec), alpha=0.1, nu=-1e9)
    assert mts_decide(cheap, [3, 1]) is None
    assert mts_decide(replace(cheap, nu=np.inf), [3, 1]) == 1


def test_mts_decide_idles_when_all_full_or_expensive():
    spec = ProductSpec(2, 0.9, 1.2, 1.0, 0.5, 0.8)
    sys = MTSSystem((spec,), alpha=0.0, nu=np.inf)
    assert mts_decide(sys, [2]) is None
    cheap = MTSSystem((spec,), alpha=0.0, nu=-1e9)
    assert mts_decide(cheap, [0]) is None


def test_mts_policy_invariant_under_positive_index_scaling(rng):
    # scaling the index map and the subsidy by the same positive factor
    # (e.g. removing the 1/mu normalization) cannot change decisions
    spec = ProductSpec(10, 0.7, 1.4, 1.0, 0.5, 0.8)
    sys = MTSSystem((spec,), alpha=0.0)
    table = mts_index_table(sys, 0, 10)
    scale = float(spec.mu)
    for nu in (-1.0, 0.0, 0.4, 2.0):
        for j in range(10):
            ours = mts_decide(replace(sys, nu=nu), [j], tables=[table], full=[10])
            scaled = mts_decide(replace(sys, nu=scale * nu), [j],
                                tables=[scale * table], full=[10])
            assert ours == scaled


# ---------------------------------------------------------------------------
# Switching curve
# ---------------------------------------------------------------------------

def test_switching_curve_symmetric_queues_has_unit_slope():
    sys = RoutingSystem(4.0, (linear_queue(None, 2.0), linear_queue(None, 2.0)),
                        alpha=0.0)
    curve = switching_curve(sys, bound=80)
    assert curve.heavy_traffic
    assert curve.limit_slope == pytest.approx(1.0)
    assert curve.empirical_slope == pytest.approx(1.0, abs=0.05)


def test_switching_curve_heavy_traffic_slope():
    sys = RoutingSystem(4.0, (linear_queue(None, 1.0), linear_queue(None, 2.0)),
                        alpha=0.0)
    curve = switching_curve(sys, bound=120)
    assert curve.limit_slope == pytest.approx(2.0)
    assert abs(curve.empirical_slope - 2.0) / 2.0 <= 0.10


def test_switching_curve_light_traffic_reports_boundary_only():
    sys = RoutingSystem(1.0, (linear_queue(None, 2.0), linear_queue(None, 3.0)),
                        alpha=0.0)
    curve = switching_curve(sys, bound=30)
    assert not curve.heavy_traffic
    assert curve.empirical_slope is None and curve.limit_slope is None
    assert len(curve.boundary) == 31
