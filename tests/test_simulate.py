import hashlib
import importlib
import importlib.util
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from pclindex import admission
from pclindex.modelio import model_from_document
from pclindex.policies import (MTSSystem, ProductSpec, QueueSpec, RoutingSystem,
                               mts_index_table, routing_index_table)
from pclindex.simulate import CHUNK, REPLICATION_CAP, SimConfig, simulate, simulate_all

SIMULATE = importlib.import_module("pclindex.simulate")   # the module, not the function

REFERENCE_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def load_reference():
    """The benchmark's exact joint-chain solver, which is independent of
    the package; it is only imported here, never changed."""
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def single_queue(nu, n=8, lam=1.0, mu=1.4, h=1.0):
    return RoutingSystem(lam, (QueueSpec(n, mu, h),), alpha=0.0, nu=nu)


def analytic_threshold_value(sys: RoutingSystem, k: int) -> float:
    """Average cost of the k-th threshold policy: holding plus charged
    rejections, from the closed-form stationary distribution."""
    q = sys.queues[0]
    n = q.n
    m = admission.ACModel(n, np.full(n + 1, sys.lam),
                          np.array([q.mu_at(j) for j in range(1, n + 1)]),
                          np.array([q.h_at(j) for j in range(n + 1)]), 0.0)
    _, cost, reject = admission.threshold_steady_state(m, k)
    return cost + sys.nu * reject


def index_policy_threshold(sys: RoutingSystem) -> int:
    """Chain position of the index policy: admit while the index is below
    the charge, i.e. shut the gate from the first state with index >= nu."""
    q = sys.queues[0]
    table = routing_index_table(sys, 0, q.n)
    below = np.flatnonzero(table >= sys.nu)
    j_star = int(below[0]) if below.size else q.n
    return j_star + 1


def test_zero_costs_zero_charge_gives_zero(rng):
    sys = RoutingSystem(1.0, (QueueSpec(4, 1.0, 0.0),), alpha=0.0, nu=0.0)
    rep = simulate(sys, "index", SimConfig(max_events=2000, replications=3, seed=1))
    assert rep.mean == 0.0


def test_single_queue_index_policy_matches_analytic_average(rng):
    sys = single_queue(nu=3.0)
    config = SimConfig(max_events=50_000, replications=20, seed=21)
    rep = simulate(sys, "index", config)
    want = analytic_threshold_value(sys, index_policy_threshold(sys))
    assert abs(rep.mean - want) <= 3.0 * rep.se


def test_index_policy_is_optimal_among_thresholds():
    # single-project optimality: the index threshold minimizes the analytic
    # average objective over all thresholds
    for nu in (0.5, 1.5, 4.0, 8.0):
        sys = single_queue(nu=nu)
        values = [analytic_threshold_value(sys, k)
                  for k in range(1, sys.queues[0].n + 2)]
        k_star = index_policy_threshold(sys)
        assert values[k_star - 1] == pytest.approx(min(values), abs=1e-12)


def test_simulated_discounted_cost_is_reproducible():
    sys = RoutingSystem(1.0, (QueueSpec(5, 1.2, 1.0),), alpha=0.4, nu=2.0)
    config = SimConfig(horizon=200.0, replications=4, seed=11)
    a = simulate(sys, "index", config)
    b = simulate(sys, "index", config)
    assert a.per_replication == b.per_replication
    c = simulate(sys, "index", SimConfig(horizon=200.0, replications=4, seed=12))
    assert a.per_replication != c.per_replication


def test_standard_error_follows_square_root_law():
    # soft statistical sanity: quadrupling the replications halves the SE
    # (needs enough replications for the SE estimate itself to settle)
    sys = single_queue(nu=2.0)
    base = simulate(sys, "index", SimConfig(max_events=2000, replications=32, seed=3))
    quad = simulate(sys, "index", SimConfig(max_events=2000, replications=128, seed=3))
    ratio = quad.se / base.se
    assert abs(ratio - 0.5) <= 0.3 * 0.5


def test_policies_compared_on_same_seeds():
    sys = RoutingSystem(2.2, (QueueSpec(6, 1.0, 1.0), QueueSpec(6, 1.5, 1.3)),
                        alpha=0.0, nu=6.0)
    config = SimConfig(max_events=10_000, replications=6, seed=5)
    reports = {p: simulate(sys, p, config) for p in ("index", "shortest", "naive")}
    for rep in reports.values():
        assert rep.replications == 6
        assert math.isfinite(rep.mean) and rep.se > 0
        assert rep.ci95[0] < rep.mean < rep.ci95[1]


def test_truncation_flag_on_unstable_queue():
    # arrival rate far above service: an infinite buffer truncated low is
    # saturated and the report must say so
    sys = RoutingSystem(4.0, (QueueSpec(None, 1.0, 1.0),), alpha=0.0, nu=np.inf)
    config = SimConfig(max_events=4000, replications=2, seed=2, truncation=10)
    rep = simulate(sys, "index", config)
    assert rep.boundary_hits > 0
    assert rep.truncation_flagged


def test_finite_buffer_with_per_state_rates_as_documented():
    # mu over occupancies 1..n and h over 0..n, exactly as QueueSpec
    # documents them, must be enough for every policy
    n = 4
    q = QueueSpec(n, [1.0, 1.2, 1.3, 1.35], [0.0, 1.0, 2.5, 4.5, 7.0])
    sys = RoutingSystem(1.0, (q, QueueSpec(3, 1.1, 1.0)), alpha=0.0, nu=5.0)
    config = SimConfig(max_events=2000, replications=2, seed=4)
    for policy in ("index", "shortest", "naive"):
        rep = simulate(sys, policy, config)
        assert math.isfinite(rep.mean)
    table = routing_index_table(sys, 0, n)
    assert len(table) == n and np.all(np.diff(table) >= 0)


def test_truncation_flag_on_overstocked_product():
    # production far faster than demand: an infinite stock truncated low
    # sits at its cap, and the report must say so
    sys = MTSSystem((ProductSpec(None, 0.2, 5.0, 1.0, 0.5, 0.6),), alpha=0.0)
    config = SimConfig(max_events=4000, replications=2, seed=2, truncation=5)
    rep = simulate(sys, "least-stock", config)
    assert rep.boundary_hits > 0
    assert rep.truncation_flagged


def test_mts_simulation_runs_and_subsidy_lowers_cost():
    spec = ProductSpec(6, 0.8, 1.2, 1.0, 0.5, 0.6)
    base = MTSSystem((spec, spec), alpha=0.0, nu=0.5)
    config = SimConfig(max_events=8000, replications=6, seed=9)
    rep_idx = simulate(base, "index", config)
    rep_ls = simulate(base, "least-stock", config)
    assert math.isfinite(rep_idx.mean) and math.isfinite(rep_ls.mean)


def test_mts_index_policy_runs_with_per_state_production_rates():
    # n per-state production rates cover a finite stock's levels 0..n-1
    p = ProductSpec(4, 0.8, [1.2] * 4, 1.0, 0.5, 0.7)
    config = SimConfig(max_events=2000, replications=2, seed=3)
    rep = simulate(MTSSystem((p, p)), "index", config)
    assert math.isfinite(rep.mean)
    scalar = ProductSpec(4, 0.8, 1.2, 1.0, 0.5, 0.7)
    assert rep.per_replication == simulate(MTSSystem((scalar, scalar)), "index",
                                           config).per_replication


def test_infinite_subsidy_gates_the_index_rule_and_lumps_nothing():
    spec = ProductSpec(4, 0.8, 1.2, 1.0, 0.5, 0.7)
    config = SimConfig(max_events=2000, replications=3, seed=5)
    rep = simulate(MTSSystem((spec,), nu=math.inf), "index", config)
    assert all(math.isfinite(v) for v in rep.per_replication) and math.isfinite(rep.se)
    # the index rule then always produces below the cap, and no subsidy is paid
    always = simulate(MTSSystem((spec,), nu=0.0), lambda st, tb, cp: 0 if st[0] < 4 else None,
                      config)
    assert rep.per_replication == always.per_replication


def test_mts_single_product_matches_birth_death_oracle():
    # a single product under an always-produce policy is a birth--death
    # chain: steady-state net cost minus subsidized completions
    spec = ProductSpec(5, 1.0, 1.3, 1.0, 0.7, 0.4)
    sys = MTSSystem((spec,), alpha=0.0, nu=0.3)
    config = SimConfig(max_events=30_000, replications=10, seed=13)
    rep = simulate(sys, lambda st, tb, cp: 0 if st[0] < 5 else None, config)
    m = sys.admission_model(0, 5)
    p, _, _ = admission.threshold_steady_state(m, 6)   # gate always open
    net = sum(p[j] * spec.net_cost(j) for j in range(6))
    completions = sum(p[j] * spec.mu_at(j) for j in range(5))
    want = net - sys.nu * completions
    assert abs(rep.mean - want) <= 3.0 * rep.se


def test_custom_policy_may_not_overfill_a_buffer():
    sys = RoutingSystem(3.0, (QueueSpec(2, 1.0, 1.0),), alpha=0.0)
    config = SimConfig(max_events=500, replications=1, seed=1)
    with pytest.raises(ValueError, match="at its cap"):
        simulate(sys, lambda st, tb, cp: 0, config)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(replications=0, max_events=10)
    with pytest.raises(ValueError):
        SimConfig()
    with pytest.raises(ValueError):
        SimConfig(horizon=-1.0)
    for events in (0, -3):
        with pytest.raises(ValueError, match="event budget"):
            SimConfig(max_events=events)
    with pytest.raises(ValueError, match="truncation"):
        SimConfig(max_events=10, truncation=0)
    # simulate_all keeps a row per policy and replication, so 10**9
    # replications ended in numpy's _ArrayMemoryError
    assert SimConfig(max_events=10, replications=REPLICATION_CAP).replications == REPLICATION_CAP
    with pytest.raises(ValueError, match=f"^replications {REPLICATION_CAP + 1} exceed the cap"):
        SimConfig(max_events=10, replications=REPLICATION_CAP + 1)
    # a NaN horizon or event budget used to run no event and report a mean
    # (NaN or 0.0), and an infinite horizon alone never returned
    for budget in ({"horizon": math.nan}, {"horizon": math.inf},
                   {"horizon": math.inf, "max_events": 100},
                   {"max_events": math.nan}, {"max_events": math.inf}):
        with pytest.raises(ValueError, match="horizon|event budget"):
            SimConfig(replications=2, **budget)
    # counts are integers, not bools: a fractional event budget used to hang
    # (the second chunk ran int(0.5) = 0 events), True ran as 1, and the
    # other fractions or a negative seed failed mid-run
    for count, word in (({"max_events": 2.5}, "event budget"),
                        ({"max_events": True}, "event budget"),
                        ({"replications": True}, "replications"),
                        ({"replications": 2.5}, "replications"),
                        ({"truncation": 6.5}, "truncation"),
                        ({"truncation": True}, "truncation"),
                        ({"seed": 1.5}, "seed"), ({"seed": -1}, "seed"),
                        ({"seed": False}, "seed")):
        with pytest.raises(ValueError, match=word):
            SimConfig(**{"max_events": 10, **count})
    ok = SimConfig(max_events=np.int64(10), replications=np.int64(2), seed=np.int64(0),
                   truncation=np.int64(1))
    assert (ok.max_events, ok.replications, ok.seed, ok.truncation) == (10, 2, 0, 1)


def test_custom_policy_is_consulted_once_per_visited_state():
    # two buffers of size 2 under a long run visit all 9 joint states, and
    # the replications share one event row per state
    seen = []

    def counting(state, tables, caps):
        seen.append(tuple(state))
        return min((k for k in range(2) if state[k] < caps[k]),
                   key=lambda k: state[k], default=None)

    sys = RoutingSystem(2.0, (QueueSpec(2, 1.0, 1.0), QueueSpec(2, 1.5, 1.0)),
                        alpha=0.0, nu=4.0)
    rep = simulate(sys, counting, SimConfig(max_events=5000, replications=3, seed=2))
    assert len(seen) == len(set(seen)) == 9
    assert rep.events == 15_000


def lowest_level(state, tables, caps):
    """Custom policy: the lowest buffer below its cap whose index is below 5."""
    open_ = [k for k, j in enumerate(state) if j < caps[k] and tables[k][j] < 5.0]
    return min(open_, key=lambda k: state[k]) if open_ else None


def run_signature(rep):
    return rep.policy, tuple(map(repr, rep.per_replication)), rep.events, rep.boundary_hits


ROUTING_TRUNCATED = [RoutingSystem(2.2, (QueueSpec(10, 1.0, 1.0), QueueSpec(None, 1.6, 1.8)),
                                   alpha=alpha, nu=8.0) for alpha in (0.0, 0.1)]
MTS_PAIR = [MTSSystem((ProductSpec(8, 0.9, 1.5, 1.0, 2.0, 1.2),
                       ProductSpec(8, 0.5, 1.1, 0.6, 4.0, 2.0)), alpha=alpha, nu=3.0)
            for alpha in (0.0, 0.1)]


@pytest.mark.parametrize("batch", [3, SIMULATE.BATCH], ids=["batch-3", "batch-default"])
@pytest.mark.parametrize("budget", [dict(max_events=700), dict(horizon=300.0),
                                    dict(max_events=600, horizon=300.0)],
                         ids=["events", "horizon", "both"])
@pytest.mark.parametrize("sys, policies", [
    *[(sys, ["index", "shortest", lowest_level, "naive"]) for sys in ROUTING_TRUNCATED],
    *[(sys, ["least-stock", "index"]) for sys in MTS_PAIR]],
    ids=["routing-average", "routing-discounted", "mts-average", "mts-discounted"])
def test_simulate_all_equals_one_call_per_policy(monkeypatch, sys, policies, budget, batch):
    # the policies share one lockstep and one generator per replication; on
    # a horizon their rows die in different chunks, the infinite buffer is
    # truncated low enough to sit at its cap, a batch of 3 rows splits the
    # replications, and short spans split the chunks
    config = SimConfig(replications=5, seed=9, truncation=6, warmup_fraction=0.2, **budget)
    alone = [simulate(sys, policy, config) for policy in policies]   # one span per chunk
    monkeypatch.setattr(SIMULATE, "BATCH", batch)
    monkeypatch.setattr(SIMULATE, "CELLS", 50)   # spans of 2 to 25 steps
    together = simulate_all(sys, policies, config)
    assert list(map(run_signature, together)) == list(map(run_signature, alone))
    if isinstance(sys, RoutingSystem):
        assert sum(rep.boundary_hits for rep in together) > 0
    if "horizon" in budget and "max_events" not in budget:
        assert len({rep.events for rep in together}) == len(policies)
        assert min(rep.events for rep in together) > 2 * CHUNK * config.replications


@pytest.mark.parametrize("sys, policies, warmup", [
    (ROUTING_TRUNCATED[1], ["index", "shortest", lowest_level, "naive"], 0.2),
    (ROUTING_TRUNCATED[0], ["index", "shortest", lowest_level, "naive"], 0.0),
    (MTS_PAIR[1], ["least-stock", "index"], 0.2),
    (MTS_PAIR[0], ["least-stock", "index"], 0.0)],
    ids=["routing-discounted", "routing-average", "mts-discounted", "mts-average"])
def test_horizon_past_the_event_budget_changes_nothing(monkeypatch, sys, policies, warmup):
    # an event-budget run skips every horizon statement, and a horizon that
    # no row reaches takes them: the rows must agree.  A finite horizon
    # makes an average run's warm-up a time, not an event count, so the
    # average runs have none; spans of 2 to 12 steps carry the discount
    config = dict(max_events=700, replications=5, seed=9, truncation=6,
                  warmup_fraction=warmup)
    monkeypatch.setattr(SIMULATE, "CELLS", 50)
    budget = simulate_all(sys, policies, SimConfig(**config))
    both = simulate_all(sys, policies, SimConfig(horizon=1e9, **config))
    assert list(map(run_signature, both)) == list(map(run_signature, budget))
    if isinstance(sys, RoutingSystem):
        assert sum(rep.boundary_hits for rep in budget) > 0


def test_simulate_all_names_its_reports():
    config = SimConfig(max_events=300, replications=2, seed=1)
    reps = simulate_all(ROUTING_TRUNCATED[1], ["index", lowest_level, "naive"], config)
    assert [rep.policy for rep in reps] == ["index", "lowest_level", "naive-rate"]


def test_simulate_all_checks_every_policy_before_drawing(monkeypatch):
    def no_rows(*args):
        raise AssertionError("simulated before checking every policy")

    monkeypatch.setattr(SIMULATE, "_Rows", no_rows)
    with pytest.raises(ValueError, match="unknown policy 'least-stock'; the built-in "
                                         "rules are index, shortest, naive"):
        simulate_all(ROUTING_TRUNCATED[0], ["index", "least-stock"],
                     SimConfig(max_events=100, replications=2))
    # an empty list used to fail unpacking zero decision functions
    with pytest.raises(ValueError, match="no policy given"):
        simulate_all(ROUTING_TRUNCATED[0], [], SimConfig(max_events=100, replications=2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("warmup", [0.1, 0.5, 0.95])
def test_warmup_that_uses_up_the_event_budget_raises(monkeypatch, warmup):
    # the average criterion with a count warm-up of at least one event and a
    # budget of one used to report +-3e300 and warn of an overflow; now
    # nothing is drawn
    def no_rows(*args):
        raise AssertionError("simulated before checking the warm-up")

    monkeypatch.setattr(SIMULATE, "_Rows", no_rows)
    config = SimConfig(max_events=1, replications=4, warmup_fraction=warmup)
    with pytest.raises(ValueError, match="warm-up"):
        simulate(MTS_PAIR[0], "least-stock", config)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_warmup_short_of_the_event_budget_still_runs():
    # one event past the warm-up, no warm-up, and the discounted criterion
    for events, warmup in ((2, 0.1), (10, 0.95), (1, 0.0)):
        config = SimConfig(max_events=events, replications=4, warmup_fraction=warmup)
        rep = simulate(MTS_PAIR[0], "least-stock", config)
        assert all(math.isfinite(v) and abs(v) < 1e6 for v in rep.per_replication)
    rep = simulate(MTS_PAIR[1], "least-stock", SimConfig(max_events=1, replications=4))
    assert rep.events == 4


def test_peak_memory_is_flat_in_the_number_of_batches(monkeypatch):
    # rows past the batch size wait for the next batch, so four batches of
    # rows peak where one does
    monkeypatch.setattr(SIMULATE, "BATCH", 64)
    sys = ROUTING_TRUNCATED[1]
    simulate_all(sys, ["index", "naive"], SimConfig(max_events=CHUNK, replications=2))
    peaks = []
    for replications in (32, 128):
        config = SimConfig(max_events=CHUNK, replications=replications, seed=3)
        tracemalloc.start()
        simulate_all(sys, ["index", "naive"], config)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def stream_digest(runs) -> str:
    """SHA-256 of the per-replication objectives of every report in ``runs``."""
    text = repr([simulate(sys, policy, config).per_replication
                 for sys, policy, config in runs])
    return hashlib.sha256(text.encode()).hexdigest()


def test_random_streams_are_pinned():
    # any change to the random streams or to the order of the arithmetic
    # shows up here; the digest was computed with the lockstep simulator,
    # whose streams are blocks of CHUNK draws per replication
    routing = [RoutingSystem(2.2, (QueueSpec(10, 1.0, 1.0), QueueSpec(10, 1.6, 1.8)),
                             alpha=alpha, nu=8.0) for alpha in (0.0, 0.1)]
    products = (ProductSpec(8, 0.9, 1.5, 1.0, 2.0, 1.2),
                ProductSpec(8, 0.5, 1.1, 0.6, 4.0, 2.0))
    mts = [MTSSystem(products, alpha=alpha, nu=0.0) for alpha in (0.0, 0.1)]
    budget = SimConfig(max_events=4000, replications=3, seed=0)
    horizon = SimConfig(horizon=400.0, replications=3, seed=7, warmup_fraction=0.2)
    runs = [(sys, policy, config) for config in (budget, horizon)
            for sys in routing for policy in ("index", "shortest", "naive")]
    runs += [(sys, policy, config) for config in (budget, horizon)
             for sys in mts for policy in ("index", "least-stock")]
    assert stream_digest(runs) == ("b2431295092324b4564061aa77ed67b3"
                                   "72f15a0795cda1ed17c55930d8f074df")


# ---------------------------------------------------------------------------
# Simulated means vs. the exact values of the truncated joint chain
# ---------------------------------------------------------------------------

EXACT_ROUTING_DOC = {
    "kind": "routing", "lambda": 1.8, "alpha": 0.2, "nu": 12.0,
    "queues": [{"n": 6, "mu": [1.0, 1.1, 1.2, 1.25, 1.3, 1.3],
                "h": [0.0, 1.0, 2.2, 3.6, 5.2, 7.0, 9.0]},
               {"n": 5, "mu": [0.8, 0.9, 1.0, 1.05, 1.1],
                "h": [0.0, 1.5, 3.2, 5.1, 7.2, 9.5]}]}

EXACT_MTS_DOC = {
    "kind": "mts", "alpha": 0.15, "nu": 5.0,
    "products": [{"n": 6, "lambda": 0.5, "mu": 1.2, "c": 1.0, "s": 2.0, "r": 1.5},
                 {"n": 5, "lambda": 0.4, "mu": 1.0, "c": 0.7, "s": 3.0, "r": 2.0}]}


@pytest.mark.parametrize("doc, policy, seed", [
    (EXACT_ROUTING_DOC, "index", 11), (EXACT_ROUTING_DOC, "shortest", 11),
    (EXACT_ROUTING_DOC, "naive", 11),
    (EXACT_MTS_DOC, "index", 12), (EXACT_MTS_DOC, "least-stock", 12)],
    ids=["routing-index", "routing-shortest", "routing-naive", "mts-index",
         "mts-least-stock"])
def test_simulated_discounted_cost_matches_exact_joint_chain(doc, policy, seed):
    # the horizon leaves a discount factor below 1e-6, far inside the error
    reference = load_reference()
    sys = model_from_document(doc)
    if isinstance(sys, RoutingSystem):
        tables = [routing_index_table(sys, k, q.n) for k, q in enumerate(sys.queues)]
        # both buffers are finite, so the truncation is never used
        exact = reference.routing_value(doc, policy, tables, truncation=1)
    else:
        tables = [mts_index_table(sys, k, p.n) for k, p in enumerate(sys.products)]
        exact = reference.mts_value(doc, policy, tables)
    rep = simulate(sys, policy, SimConfig(horizon=100.0, replications=300, seed=seed))
    assert abs(rep.mean - exact) <= 4.0 * rep.se
