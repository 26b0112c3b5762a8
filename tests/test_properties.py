"""Property tests: index tables against the closed forms, the simulator's
tabulated decisions against the public decision functions, the per-level
rate tables against the spec accessors, the lockstep
simulator against a per-event reference loop, the make-to-stock table
against the DP and greedy indices of its project, the three routes to the
admission indices against each other, the average indices against an
exact rational reference, the banded set-active solves and average
limits against dense linear algebra, the multi-column kernel solve against
column-by-column solves, the charge-sequence policy iteration against
cold value iteration, the CLI report writer against ``json.dumps`` and
the one-pass schema check against stock jsonschema."""

import importlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from pclindex import admission, bandit, cli, dp, modelio
from pclindex.admission import (ACModel, closed_form_index, indices, uniformize,
                                workload_pivots, workload_table)
from pclindex.greedy import (WorkloadOracle, ag1, ag2, dual_solution, local_minmax_check,
                             lp_value, objective_representation_check, primal_vertex)
from pclindex.policies import (MTSSystem, ProductSpec, QueueSpec, RoutingSystem,
                               least_stock_decide, mts_decide, mts_index_table,
                               mts_quadratic_index, naive_decide, routing_decide,
                               routing_index_table, shortest_queue_decide)
from pclindex.setsystem import powerset_family, product, threshold_family
from pclindex.simulate import CHUNK, SimConfig, _decider, _setup, simulate, simulate_all

from conftest import (random_compliant_admission, random_rb, random_valid_family,
                      random_workload_tables)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

positive = st.floats(0.2, 5.0)
seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# Routing index tables vs. the constant-rate closed forms
# ---------------------------------------------------------------------------

@PROPERTY
@given(mu=positive, h=positive, n=st.integers(1, 60), rho=st.floats(0.1, 10.0))
def test_routing_table_matches_geometric_closed_form(mu, h, n, rho):
    sys = RoutingSystem(rho * mu, (QueueSpec(None, mu, h),), alpha=0.0)
    table = routing_index_table(sys, 0, n)
    want = [closed_form_index("linear", rho * mu, mu, h, j) for j in range(n)]
    assert table == pytest.approx(want, rel=1e-9)


@PROPERTY
@given(mu=positive, h=positive, n=st.integers(1, 60), eps=st.floats(-1e-9, 1e-9))
def test_routing_table_matches_critical_form_near_unit_traffic(mu, h, n, eps):
    sys = RoutingSystem(mu * (1.0 + eps), (QueueSpec(None, mu, h),), alpha=0.0)
    table = routing_index_table(sys, 0, n)
    want = [(h / mu) * (j + 1) * (j + 2) / 2.0 for j in range(n)]
    assert table == pytest.approx(want, rel=1e-6)


@PROPERTY
@given(mu=positive, h=positive, n=st.integers(1, 30), eps=st.floats(-1e-9, 1e-9),
       s=st.floats(0.1, 3.0), r=st.floats(0.1, 3.0))
def test_quadratic_forms_match_tables_near_unit_traffic(mu, h, n, eps, s, r):
    rho = 1.0 + eps
    costs = [h * j * j for j in range(n + 2)]
    sys = RoutingSystem(rho * mu, (QueueSpec(None, mu, costs),), alpha=0.0)
    want = [closed_form_index("quadratic", rho * mu, mu, h, j) for j in range(n)]
    assert routing_index_table(sys, 0, n) == pytest.approx(want, rel=1e-6)
    assume(abs(rho - 1.0) >= 1e-14)
    sys = MTSSystem((ProductSpec(None, rho * mu, mu, costs, s, r),), alpha=0.0)
    want = [mts_quadratic_index(h, mu, rho, s, r, j) for j in range(n)]
    scale = (h / mu) * (n + 1) ** 3
    assert mts_index_table(sys, 0, n) == pytest.approx(want, rel=1e-6, abs=1e-9 * scale)


# ---------------------------------------------------------------------------
# The simulator's table decisions vs. the decision functions without tables
# ---------------------------------------------------------------------------

LONG = 16   # per-state arrays cover every level a drawn system can reach


@st.composite
def concave_rates(draw):
    """A scalar rate, or per-state rates rising concavely to a limit."""
    base = draw(positive)
    if draw(st.booleans()):
        return base
    rise, scale = draw(st.floats(0.0, 1.0)), draw(st.floats(1.0, 6.0))
    return [base + rise * (1.0 - math.exp(-i / scale)) for i in range(LONG)]


@st.composite
def convex_costs(draw):
    """A scalar linear cost rate, or per-state convex nondecreasing costs."""
    if draw(st.booleans()):
        return draw(positive)
    steps = sorted(draw(st.lists(st.floats(0.1, 3.0), min_size=LONG - 1,
                                 max_size=LONG - 1)))
    return [0.0] + np.cumsum(steps).tolist()


buffer_sizes = st.one_of(st.none(), st.integers(2, 8))
discounts = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
charges = st.one_of(st.just(math.inf), st.floats(0.0, 40.0))


@st.composite
def routing_systems(draw):
    queues = tuple(QueueSpec(draw(buffer_sizes), draw(concave_rates()), draw(convex_costs()))
                   for _ in range(draw(st.integers(1, 3))))
    return RoutingSystem(draw(st.floats(0.3, 3.0)), queues, alpha=draw(discounts),
                         nu=draw(charges))


def states(caps):
    return st.tuples(*(st.integers(0, cap) for cap in caps)).map(list)


@PROPERTY
@given(sys=routing_systems(), truncation=st.integers(3, 10), data=st.data())
def test_routing_table_decisions_match_decide_functions(sys, truncation, data):
    config = SimConfig(max_events=1, truncation=truncation)
    public = {"index": routing_decide, "shortest": shortest_queue_decide,
              "naive": naive_decide}
    rules, caps, _, _ = _setup(sys, config)
    for policy, decide_fn in public.items():
        decide, _ = _decider(sys, rules, caps, policy, None)
        state = data.draw(states(caps))
        assert decide(state) == decide_fn(sys, state, full=caps)


@st.composite
def mts_systems(draw):
    products = tuple(ProductSpec(draw(buffer_sizes), draw(positive), draw(concave_rates()),
                                 draw(convex_costs()), draw(st.floats(0.1, 3.0)),
                                 draw(st.floats(0.1, 3.0)))
                     for _ in range(draw(st.integers(1, 3))))
    return MTSSystem(products, alpha=draw(discounts), nu=draw(charges))


@PROPERTY
@given(sys=mts_systems(), truncation=st.integers(3, 10), data=st.data())
def test_mts_table_decisions_match_decide_functions(sys, truncation, data):
    config = SimConfig(max_events=1, truncation=truncation)
    rules, caps, _, _ = _setup(sys, config)
    state = data.draw(states(caps))
    decide, _ = _decider(sys, rules, caps, "least-stock", None)
    assert decide(state) == least_stock_decide(sys, state, full=caps)
    decide, _ = _decider(sys, rules, caps, "index", None)
    assert decide(state) == mts_decide(sys, state, full=caps)


def level(spec, j: int, linear: bool = False) -> float:
    """Entry j of a rate or cost written out per level: a scalar is the
    same at every level (times j if ``linear``), a sequence gives entry j."""
    if isinstance(spec, (int, float)):
        return float(spec) * j if linear else float(spec)
    return float(spec[j])


@PROPERTY
@given(sys=st.one_of(routing_systems(), mts_systems()), n=st.integers(1, LONG - 1))
def test_levels_read_the_spec_rates(sys, n):
    # the one table of a buffer's rates, against per-level formulas written
    # out here, and the admission project built from it
    routing = isinstance(sys, RoutingSystem)
    for k, spec in enumerate(sys.queues if routing else sys.products):
        birth, death, cost = sys.levels(k, n)
        if routing:
            # mu is given over occupancies 1..n, h over 0..n
            assert birth == [float(sys.lam)] * (n + 1)
            assert death == [0.0] + [level(spec.mu, j - 1) for j in range(1, n + 1)]
            assert cost == [level(spec.h, j, linear=True) for j in range(n + 1)]
        else:
            # the cap keeps the last production rate; orders at level 0 are
            # lost at cost s, orders above it sell at price r
            assert birth == [level(spec.mu, j) for j in range(n)] + [level(spec.mu, n - 1)]
            assert death == [level(spec.lam, j) for j in range(n + 1)]
            assert cost == ([level(spec.c, 0, linear=True) + spec.s * level(spec.lam, 0)]
                            + [level(spec.c, j, linear=True) - level(spec.r, j) * level(spec.lam, j)
                               for j in range(1, n + 1)])
        model, want = sys.admission_model(k, n), ACModel(n, birth, death[1:], cost, sys.alpha)
        for field in ("n", "lam", "mu", "h", "alpha", "Lambda"):
            assert np.array_equal(getattr(model, field), getattr(want, field))


# ---------------------------------------------------------------------------
# The lockstep simulator vs. a per-event reference loop
# ---------------------------------------------------------------------------

class _CostAccumulator:
    """Discounted or time-average cost bookkeeping for one replication.
    Discount factors come from numpy's ``exp``, as in the simulator,
    whose array ``exp`` is not always equal to ``math.exp``."""

    def __init__(self, alpha: float, warmup: float):
        self.alpha = alpha
        self.warmup = warmup
        self.total = 0.0

    def accrue(self, rate: float, t0: float, t1: float):
        if t1 <= t0:
            return
        if self.alpha > 0:
            self.total += rate * (np.exp(-self.alpha * t0)
                                  - np.exp(-self.alpha * t1)) / self.alpha
        else:
            lo = max(t0, self.warmup)
            if t1 > lo:
                self.total += rate * (t1 - lo)

    def lump(self, amount: float, t: float) -> bool:
        if self.alpha > 0:
            self.total += amount * np.exp(-self.alpha * t)
        elif t >= self.warmup:
            self.total += amount
        else:
            return False
        return True

    def objective(self, elapsed: float) -> float:
        if self.alpha > 0:
            return float(self.total)
        return float(self.total / max(elapsed - self.warmup, 1e-300))


def _new_accumulator(alpha: float, horizon: float, config: SimConfig):
    if alpha > 0 or config.warmup_fraction == 0.0:
        return _CostAccumulator(alpha, 0.0), -1
    if math.isfinite(horizon):
        return _CostAccumulator(alpha, config.warmup_fraction * horizon), -1
    warmup_events = max(1, int(config.warmup_fraction * (config.max_events or 0)))
    return _CostAccumulator(alpha, math.inf), warmup_events


def reference_simulate(system, policy, config: SimConfig, lumps: list | None = None):
    """The event loop that rebuilds every event from the system's
    ``levels`` tables and consults the policy at every epoch:
    per-replication objectives, event count and boundary hits.
    Replication r reads its clocks and outcomes from blocks of ``CHUNK``
    standard exponentials, then ``CHUNK`` uniforms, drawn from
    ``default_rng([seed, r])`` as its events reach each block.  Each charge lumped into the objective is
    appended to ``lumps`` as (replication, event count, amount)."""
    rules, caps, truncated, _ = _setup(system, config)
    decide, _ = _decider(system, rules, caps, policy, None)
    birth, death, cost = zip(*(system.levels(k, cap) for k, cap in enumerate(caps)))
    nu = system.nu if math.isfinite(system.nu) else 0.0
    # routing: arrivals feed a queue or are rejected at the charge;
    # make-to-stock: production earns the subsidy, idling earns nothing
    routing = isinstance(system, RoutingSystem)
    idle_birth = float(system.lam) if routing else 0.0
    idle_charge, fed_charge = (nu, 0.0) if routing else (0.0, -nu)
    buffers = range(len(caps))
    horizon = config.horizon if config.horizon is not None else math.inf
    values: list[float] = []
    total_events = 0
    boundary_hits = 0
    for rep in range(config.replications):
        rng = np.random.default_rng([config.seed, rep])
        state = [0] * len(caps)
        t = 0.0
        events = 0
        acc, warmup_events = _new_accumulator(system.alpha, horizon, config)
        while t < horizon and (config.max_events is None or events < config.max_events):
            target = decide(state)
            if target is None:
                born = idle_birth
            elif state[target] < caps[target]:
                born = birth[target][state[target]]
            else:
                raise ValueError(f"policy chose buffer {target}, which is at its cap")
            total, cost_rate = born, 0.0
            for k in buffers:
                total += death[k][state[k]]
                cost_rate += cost[k][state[k]]
            if total <= 0:
                break
            if events % CHUNK == 0:
                clocks, picks = rng.standard_exponential(CHUNK), rng.random(CHUNK)
            t_next = t + clocks[events % CHUNK] * (1.0 / total)
            if t_next > horizon:
                acc.accrue(cost_rate, t, horizon)
                t = horizon
                break
            acc.accrue(cost_rate, t, t_next)
            t = t_next
            pick = picks[events % CHUNK] * total
            events += 1
            if events == warmup_events:
                acc.warmup = t
            for k in truncated:
                if state[k] >= caps[k]:
                    boundary_hits += 1
                    break
            if pick < born:
                if target is None:
                    charge = idle_charge
                else:
                    state[target] += 1
                    charge = fed_charge
                if charge and acc.lump(charge, t) and lumps is not None:
                    lumps.append((rep, events, charge))
            else:
                acc_rate = born
                for k in buffers:
                    acc_rate += death[k][state[k]]
                    if pick < acc_rate:
                        if state[k] > 0:
                            state[k] -= 1
                        break
        total_events += events
        values.append(acc.objective(t))
    return tuple(values), total_events, boundary_hits


def lowest_level_below_five(state, tables, caps):
    """Custom policy: the buffer at the lowest level among those below
    their cap whose index is below 5."""
    open_ = [k for k, j in enumerate(state) if j < caps[k] and tables[k][j] < 5.0]
    return min(open_, key=lambda k: state[k]) if open_ else None


budgets = st.one_of(
    st.fixed_dictionaries({"max_events": st.integers(1, 400)}),
    st.fixed_dictionaries({"horizon": st.floats(0.5, 150.0)}),
    st.fixed_dictionaries({"max_events": st.integers(1, 400),
                           "horizon": st.floats(0.5, 150.0)}))


@settings(PROPERTY, max_examples=100)
@given(sys=st.one_of(routing_systems(), mts_systems()), budget=budgets,
       warmup=st.sampled_from([0.0, 0.1, 0.2, 0.5]), truncation=st.integers(3, 10),
       replications=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_simulate_matches_reference_loop(sys, budget, warmup, truncation, replications,
                                         seed, data):
    config = SimConfig(replications=replications, seed=seed, truncation=truncation,
                       warmup_fraction=warmup, **budget)
    builtin = ["index", "shortest", "naive"] if isinstance(sys, RoutingSystem) \
        else ["index", "least-stock"]
    policy = data.draw(st.sampled_from(builtin + [lowest_level_below_five]))
    if _warmup_takes_budget(sys, config):
        with pytest.raises(ValueError, match="warm-up"):
            simulate(sys, policy, config)
        return
    assert _same_run(simulate(sys, policy, config), reference_simulate(sys, policy, config))


def _warmup_takes_budget(sys, config: SimConfig) -> bool:
    """Average criterion, a pure event budget and a count warm-up that
    reaches its end: the simulator rejects these before drawing."""
    return (sys.alpha == 0 and config.horizon is None and config.warmup_fraction > 0
            and max(1, int(config.warmup_fraction * config.max_events)) >= config.max_events)


@settings(PROPERTY, max_examples=80)
@given(sys=st.one_of(routing_systems(), mts_systems()), budget=budgets,
       warmup=st.sampled_from([0.0, 0.2, 0.5]), truncation=st.integers(3, 10),
       replications=st.integers(1, 4), seed=seeds, batch=st.sampled_from([1, 3, 4096]),
       cells=st.sampled_from([1, 7, 8192]), data=st.data())
def test_simulate_all_matches_one_call_per_policy(sys, budget, warmup, truncation,
                                                  replications, seed, batch, cells, data):
    # one lockstep for every policy, in batches of any size and accrued in
    # spans of any length, gives each policy's own run bit for bit
    config = SimConfig(replications=replications, seed=seed, truncation=truncation,
                       warmup_fraction=warmup, **budget)
    assume(not _warmup_takes_budget(sys, config))
    builtin = ["index", "shortest", "naive"] if isinstance(sys, RoutingSystem) \
        else ["index", "least-stock"]
    policies = data.draw(st.lists(st.sampled_from(builtin + [lowest_level_below_five]),
                                  min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as patch:
        module = importlib.import_module("pclindex.simulate")
        patch.setattr(module, "BATCH", batch)
        patch.setattr(module, "CELLS", cells)
        together = simulate_all(sys, policies, config)
    alone = [simulate(sys, policy, config) for policy in policies]
    assert [rep.policy for rep in together] == [rep.policy for rep in alone]
    for rep, one in zip(together, alone):
        assert _same_run(rep, (one.per_replication, one.events, one.boundary_hits))


def _same_run(rep, reference) -> bool:
    values, events, hits = reference
    return (tuple(map(repr, rep.per_replication)), rep.events, rep.boundary_hits) == \
        (tuple(map(repr, values)), events, hits)


def test_simulate_matches_reference_loop_when_warmup_ends_at_a_charged_birth():
    # with an event budget the warm-up ends at an event epoch, and a
    # subsidy lumped at that epoch counts.  Past 100 events the budgets end
    # just before, at and just after a block of draws; the last two end the
    # warm-up at the last event of the first block and at the first event
    # of the second
    products = (ProductSpec(8, 0.9, 1.5, 1.0, 2.0, 1.2),
                ProductSpec(8, 0.5, 1.1, 0.6, 4.0, 2.0))
    sys = MTSSystem(products, alpha=0.0, nu=3.0)
    for events in (100, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 2):
        at_warmup = 0
        for seed in range(5):
            config = SimConfig(max_events=events, replications=2, seed=seed,
                               warmup_fraction=0.5)
            lumps: list = []
            assert _same_run(simulate(sys, "least-stock", config),
                             reference_simulate(sys, "least-stock", config, lumps))
            at_warmup += sum(event == events // 2 for _, event, _ in lumps)
        assert at_warmup > 0, events


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_simulate_matches_reference_loop_over_several_blocks(alpha):
    # a horizon run whose replications each draw several blocks, with an
    # infinite buffer truncated low enough to hit its cap
    sys = RoutingSystem(2.2, (QueueSpec(10, 1.0, 1.0), QueueSpec(None, 1.6, 1.8)),
                        alpha=alpha, nu=8.0)
    config = SimConfig(horizon=300.0, replications=3, seed=4, truncation=6,
                       warmup_fraction=0.2)
    hits = 0
    for policy in ("index", "shortest", "naive", lowest_level_below_five):
        rep = simulate(sys, policy, config)
        assert _same_run(rep, reference_simulate(sys, policy, config))
        assert rep.events > 3 * CHUNK * config.replications
        hits += rep.boundary_hits
    assert hits > 0


@settings(PROPERTY, max_examples=40)
@given(sys=st.one_of(routing_systems(), mts_systems()), budget=budgets,
       seed=st.integers(0, 2 ** 32 - 1), rep=st.integers(0, 3), data=st.data())
def test_replication_value_does_not_depend_on_replication_count(sys, budget, seed, rep,
                                                                data):
    builtin = ["index", "shortest", "naive"] if isinstance(sys, RoutingSystem) \
        else ["index", "least-stock"]
    policy = data.draw(st.sampled_from(builtin + [lowest_level_below_five]))
    configs = [SimConfig(replications=count, seed=seed, truncation=6, **budget)
               for count in (rep + 1, rep + 5)]
    if _warmup_takes_budget(sys, configs[0]):
        with pytest.raises(ValueError, match="warm-up"):
            simulate(sys, policy, configs[0])
        return
    few, many = (simulate(sys, policy, config) for config in configs)
    assert repr(few.per_replication[rep]) == repr(many.per_replication[rep])


# ---------------------------------------------------------------------------
# The size-layered boundaries of a set system vs. their definitions
# ---------------------------------------------------------------------------

@st.composite
def set_systems(draw):
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["valid", "product", "powerset"]))
    if kind == "valid":
        return random_valid_family(rng, draw(st.integers(1, 7)))
    if kind == "powerset":
        return powerset_family(draw(st.integers(1, 7)))
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(1, 7 - n1))
    second = threshold_family(n2) if draw(st.booleans()) else random_valid_family(rng, n2)
    return product([random_valid_family(rng, n1), second])


@PROPERTY
@given(sys=set_systems(), data=st.data())
def test_layered_boundaries_match_their_definitions(sys, data):
    members = set(sys.family)
    for s in sys.family:
        assert s in sys
        assert sys.inner_boundary(s) == {j for j in s if s - {j} in members}
        assert sys.outer_boundary(s) == {j for j in sys.ground - s if s | {j} in members}
    other = frozenset(data.draw(st.sets(st.integers(0, sys.n))))
    if other in members:
        return
    assert other not in sys
    for boundary in (sys.inner_boundary, sys.outer_boundary):
        with pytest.raises(ValueError):
            boundary(other)


# ---------------------------------------------------------------------------
# The make-to-stock table vs. the DP and greedy indices of its project
# ---------------------------------------------------------------------------

@settings(PROPERTY, max_examples=40)
@given(n=st.integers(1, 8), lam=positive, mu=positive, c=st.floats(0.1, 3.0),
       s=st.floats(0.1, 3.0), r=st.floats(0.1, 3.0), alpha=st.floats(0.05, 1.0),
       quadratic=st.booleans())
def test_mts_table_matches_dp_and_greedy_on_constant_rate_products(n, lam, mu, c, s, r,
                                                                   alpha, quadratic):
    # the capped project is a valid restless bandit, and its DP critical
    # charge and adaptive-greedy index equal the table at every level
    cost = [c * j * j for j in range(n + 1)] if quadratic else c
    sys = MTSSystem((ProductSpec(n, lam, mu, cost, s, r),), alpha=alpha)
    table = mts_index_table(sys, 0, n)
    rb = uniformize(sys.admission_model(0, n))
    rep = bandit.pcl_index(rb, threshold_family(n))
    assert rep.indexable
    for j in range(n):
        scale = max(1.0, abs(table[j]))
        assert abs(dp.fair_charge(rb, j) - table[j]) <= 1e-9 * scale
        assert abs(rep.nu_by_state[j] - table[j]) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# The O(n) pivots, the two greedy forms and the greedy route to the indices
# ---------------------------------------------------------------------------

@PROPERTY
@given(seed=seeds, n=st.integers(1, 60), alpha=st.floats(0.0, 1.0))
def test_pivots_equal_workload_table_diagonal(seed, n, alpha):
    m = random_compliant_admission(np.random.default_rng(seed), n, alpha)
    W = workload_table(m)
    assert workload_pivots(m).tolist() == [W[k + 1, k] for k in range(n)]


@PROPERTY
@given(seed=seeds, n=st.integers(1, 6))
def test_ag1_and_ag2_agree_on_random_valid_systems(seed, n):
    rng = np.random.default_rng(seed)
    sys = random_valid_family(rng, n)
    w, _ = random_workload_tables(rng, sys)
    c = rng.uniform(-10.0, 10.0, n)
    o1 = ag1(c, WorkloadOracle.from_tables(w), sys)
    o2 = ag2(c, WorkloadOracle.from_tables(w), sys)
    assert o1.pi == o2.pi
    assert o1.chain == o2.chain
    # the two rate updates round differently
    assert o1.nu == pytest.approx(o2.nu, rel=1e-10, abs=1e-10)


def _close(got, want, scale):
    """Agreement to 1e-12 relative to the size of the terms summed."""
    return abs(got - want) <= 1e-12 * max(1.0, scale)


@PROPERTY
@given(seed=seeds, n=st.integers(1, 6))
def test_chain_record_matches_loop_references(seed, n):
    # the array record and the certificates over it against the per-element
    # loops over chain sets that they replace
    rng = np.random.default_rng(seed)
    sys = random_valid_family(rng, n)
    w, b = random_workload_tables(rng, sys)
    oracle = WorkloadOracle.from_tables(w, b)
    c = rng.uniform(-10.0, 10.0, n)
    x = rng.uniform(0.0, 3.0, n)
    for algo in (ag1, ag2):
        out = algo(c, oracle, sys)
        chain, pi = out.chain, out.pi
        for table in (out.workloads, out.rate_table, out.reduced_costs):
            assert table.shape == (len(chain), n) and not table.flags.writeable
            for k, s in enumerate(chain):
                assert set(np.flatnonzero(np.isfinite(table[k])).tolist()) == s
        for k, s in enumerate(chain):
            assert out.workloads[k][sorted(s)].tolist() == [w[s][j] for j in sorted(s)]
        nu = [float(out.nu[j]) for j in pi]
        sums = np.cumsum(out.dual)
        assert all(_close(sums[k], nu[k], float(np.sum(np.abs(out.dual[:k + 1]))))
                   for k in range(len(chain)))
        y = {s: v - prev for s, v, prev in zip(chain, nu, [0.0] + nu)}
        assert out.dual.tolist() == list(y.values())
        # rate of j against S_k: residual cost per unit workload plus nu_{k-1};
        # ag2 reaches it by its own recursion, which rounds differently
        for k, s in enumerate(chain):
            for j in s:
                resid = c[j] - sum(y[chain[l]] * w[chain[l]][j] for l in range(k))
                rate = resid / w[s][j] + (nu[k - 1] if k else 0.0)
                scale = (abs(c[j]) + sum(abs(y[chain[l]] * w[chain[l]][j]) for l in range(k))) \
                    / w[s][j] + abs(rate)
                assert abs(out.rate_table[k][j] - rate) <= 1e-9 * max(1.0, scale)
                assert abs(out.reduced_costs[k][j] - rate * w[s][j]) \
                    <= 1e-9 * max(1.0, scale * w[s][j])

        worst_min = max(0.0, max(nu[k] - min(out.rate_table[k][j] for j in s)
                                 for k, s in enumerate(chain)))
        worst_max = max(0.0, max(abs(max(out.rate_table[l][j] for l in range(k + 1)) - nu[k])
                                 for k, j in enumerate(pi)))
        rep = local_minmax_check(out, monotone=True)     # same arithmetic: exact
        assert (rep.worst_min_residual, rep.worst_max_residual) == (worst_min, worst_max)

        terms = [y[s] * sum(w[s][j] * x[j] for j in s) for s in chain]
        resid = abs(float(c @ x) - sum(terms))
        assert _close(objective_representation_check(c, out, oracle, x), resid,
                      float(np.abs(c) @ x) + sum(map(abs, terms)))
        assert dual_solution(out) == y
        lp = [y[s] * b[s] for s in chain]
        assert _close(lp_value(out, oracle), sum(lp), sum(map(abs, lp)))

        vertex = np.zeros(n)
        for k in range(n - 1, -1, -1):
            tail = sum(w[chain[k]][pi[l]] * vertex[pi[l]] for l in range(k + 1, n))
            vertex[pi[k]] = (b[chain[k]] - tail) / w[chain[k]][pi[k]]
        assert np.allclose(primal_vertex(pi, oracle), vertex, rtol=1e-12, atol=1e-12)


@settings(PROPERTY, max_examples=60)
@given(seed=seeds, n=st.integers(1, 60), alpha=st.floats(1e-3, 1.0))
def test_pcl_index_on_uniformized_model_matches_recursion(seed, n, alpha):
    m = random_compliant_admission(np.random.default_rng(seed), n, alpha)
    nu = indices(m)
    rep = bandit.pcl_index(uniformize(m), threshold_family(n))
    assert rep.indexable
    greedy = np.array([rep.nu_by_state[j] for j in range(n)])
    assert np.max(np.abs(greedy - nu)) <= 1e-9 * max(1.0, float(np.max(np.abs(nu))))


def exact_average_indices(m: ACModel) -> list[float]:
    """Average-criterion indices in rational arithmetic.  C_k and R_k are
    the cost and rejection rates of threshold policy k (gate shut from
    state k-1 on), from detailed balance as in
    ``admission.threshold_steady_state``; nu_j = (C_{j+2} - C_{j+1}) /
    (R_{j+1} - R_{j+2})."""
    lam, h = [Fraction(x) for x in m.lam.tolist()], [Fraction(x) for x in m.h.tolist()]
    mu = [Fraction(0)] + [Fraction(x) for x in m.mu.tolist()]
    C, R = [None], [None]
    weight = total = Fraction(1)
    held = h[0]
    for k in range(1, m.n + 2):       # the chain lives on 0..k-1
        if k > 1:
            weight *= lam[k - 2] / mu[k - 1]
            total += weight
            held += weight * h[k - 1]
        C.append(held / total)
        R.append(weight * lam[k - 1] / total)
    return [float((C[j + 2] - C[j + 1]) / (R[j + 1] - R[j + 2])) for j in range(m.n)]


@settings(PROPERTY, max_examples=60)
@given(seed=seeds, n=st.integers(1, 40), rho=st.floats(0.5, 1.2), varying=st.booleans())
def test_average_indices_match_exact_reference(seed, n, rho, varying):
    # arrivals at rate 1; service at rate 1/rho, or rising concavely
    # towards it, so the regularity conditions hold
    mu = np.full(n, 1.0 / rho)
    if varying:
        mu *= 1.0 - 0.5 * 0.7 ** np.arange(n)
    dh = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0, n))
    m = ACModel(n, np.ones(n + 1), mu, np.concatenate(([0.0], np.cumsum(dh))), 0.0)
    exact = np.array(exact_average_indices(m))
    scale = np.maximum(1.0, np.abs(exact))
    assert np.max(np.abs(admission.average_indices(m) - exact) / scale) <= 1e-13
    rep = bandit.average_pcl_index(uniformize(m), threshold_family(n))
    assert rep.indexable
    greedy = np.array([rep.nu_by_state[j] for j in range(n)])
    assert np.max(np.abs(greedy - exact) / scale) <= 1e-10


# ---------------------------------------------------------------------------
# Banded set-active solves vs. dense linear algebra
# ---------------------------------------------------------------------------

def banded_rb(rng: np.random.Generator, n: int, lower: int, upper: int,
              beta: float) -> bandit.RBModel:
    """Random model whose transition rows are positive exactly on the band
    of ``lower`` sub- and ``upper`` superdiagonals."""
    i, j = np.indices((n, n))
    inside = (i - j <= lower) & (j - i <= upper)
    P0, P1 = (np.where(inside, rng.uniform(0.1, 1.0, (n, n)), 0.0) for _ in range(2))
    ctrl = rng.random(n) < 0.8
    P1[~ctrl] = P0[~ctrl]
    P0, P1 = (P / P.sum(axis=1, keepdims=True) for P in (P0, P1))
    h0, h1 = rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 5.0, n)
    h1[~ctrl] = h0[~ctrl]
    return bandit.RBModel(P0, P1, h0, h1, rng.uniform(0.2, 2.0, n), beta,
                          frozenset(np.flatnonzero(ctrl).tolist()))


def dense_measure(m: bandit.RBModel, mask, active, passive) -> np.ndarray:
    P = np.where(mask[:, None], m.P1, m.P0)
    return np.linalg.solve(np.eye(m.n_states) - m.beta * P, np.where(mask, active, passive))


def dense_dp_solve(m: bandit.RBModel, nu: float):
    """Policy iteration with dense solves, the tie rules of ``dp.solve``."""
    forced = ~m.ctrl_mask
    active = np.ones(m.n_states, dtype=bool)
    while True:
        v = dense_measure(m, active, m.h1 + nu * m.theta1, m.h0)
        q0 = m.h0 + m.beta * m.P0 @ v
        q1 = m.h1 + nu * m.theta1 + m.beta * m.P1 @ v
        tol = 1e-12 * max(1.0, float(np.max(np.abs(v))))
        better = np.where(active, q0 < q1 - tol, q1 < q0 - tol) & ~forced
        if not np.any(better):
            return v, q1 - q0
        active ^= better


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, float(np.max(np.abs(want))))


@settings(PROPERTY, max_examples=80)
@given(seed=seeds, n=st.integers(1, 60), lower=st.integers(0, 3), upper=st.integers(0, 3),
       beta=st.floats(0.5, 0.999))
def test_banded_measures_match_dense_solves(seed, n, lower, upper, beta):
    rng = np.random.default_rng(seed)
    m = banded_rb(rng, n, lower, upper, beta)
    assert (m.kernel.band is None) == (lower + upper + 1 >= n)
    ctrl = sorted(m.controllable)
    s = frozenset(j for j in ctrl if rng.random() < 0.5)
    mask = m.active_rows(s)
    unctrl = ~m.ctrl_mask

    b = dense_measure(m, mask, m.theta1, 0.0)
    v = dense_measure(m, mask, m.h1, m.h0)
    w = m.theta1 + m.beta * (m.P1 - m.P0) @ b
    c = m.h0 - m.h1 + m.beta * (m.P0 - m.P1) @ v
    inner = np.linalg.solve(np.eye(n) - m.beta * m.P1, m.h1)
    hhat = m.h0 - (np.eye(n) - m.beta * m.P0) @ inner
    w[unctrl] = c[unctrl] = hhat[unctrl] = 0.0
    assert_close(bandit.activity_measure(m, s), b)
    assert_close(bandit.cost_measure(m, s), v)
    assert_close(bandit.marginal_workload(m, s), w)
    assert_close(bandit.marginal_cost(m, s), c)
    assert_close(bandit.normalized_passive_cost(m), hhat)
    b = 1.0 - 1e-9                       # the occupancy's fixed discount
    P = np.where(mask[:, None], m.P1, m.P0)
    assert_close(m.kernel.occupancy(mask), np.linalg.solve((np.eye(n) - b * m.beta * P).T, np.ones(n)))

    nu = float(rng.uniform(-1.0, 1.0) * max(1.0, float(np.max(np.abs(hhat)))))
    got = dp.solve(m, nu)
    v_ref, gap_ref = dense_dp_solve(m, nu)
    assert_close(got.v, v_ref)
    eps = dp.DEFAULT_INDIFFERENCE
    assert got.active_opt == frozenset(j for j in ctrl if gap_ref[j] < -eps)
    assert got.indifferent == frozenset(j for j in ctrl if abs(gap_ref[j]) <= eps)


@PROPERTY
@given(seed=seeds, n=st.integers(1, 40), lower=st.integers(0, 3), upper=st.integers(0, 3),
       beta=st.floats(0.5, 0.999), columns=st.integers(1, 3))
def test_multi_column_solve_matches_column_solves(seed, n, lower, upper, beta, columns):
    rng = np.random.default_rng(seed)
    m = banded_rb(rng, n, lower, upper, beta)
    mask = m.active_rows(j for j in m.controllable if rng.random() < 0.5)
    rhs = rng.uniform(-5.0, 5.0, (n, columns))
    x = m.kernel.solve(mask, rhs)
    one = np.array([m.kernel.solve(mask, np.ascontiguousarray(b)) for b in rhs.T]).T
    if m.kernel.band is not None:
        assert np.array_equal(x, one)
    else:
        assert np.max(np.abs(x - one)) <= 1e-14 * max(1.0, float(np.max(np.abs(one))))


@settings(PROPERTY, max_examples=60)
@given(seed=seeds, n=st.integers(2, 40), lower=st.integers(1, 3), upper=st.integers(1, 3),
       beta=st.sampled_from([0.5, 1.0]))
def test_average_limits_match_dense_bordered_system(seed, n, lower, upper, beta):
    # every transition row is positive on its whole band, so each policy is
    # irreducible; the reference is the dense bordered system of Puterman
    # (1994, section 8.2) in the unknowns (gain, bias) with bias[0] = 0
    rng = np.random.default_rng(seed)
    m = banded_rb(rng, n, lower, upper, beta)
    s = frozenset(j for j in m.controllable if rng.random() < 0.5)
    mask = m.active_rows(s)
    A = np.zeros((n + 1, n + 1))
    A[:n, 0] = 1.0
    A[:n, 1:] = np.eye(n) - np.where(mask[:, None], m.P1, m.P0)
    A[n, 1] = 1.0
    rewards = np.column_stack((np.where(mask, m.theta1, 0.0), np.where(mask, m.h1, m.h0)))
    sol = np.linalg.solve(A, np.vstack((rewards, np.zeros((1, 2)))))
    (b_bar, v_bar), (a, f) = sol[0], sol[1:].T
    w = np.where(m.ctrl_mask, m.theta1 + (m.P1 - m.P0) @ a, 0.0)
    c = np.where(m.ctrl_mask, m.h0 - m.h1 - (m.P1 - m.P0) @ f, 0.0)
    al = bandit.average_limits(m, s)
    assert_close(np.array([al.b_bar, al.v_bar]), np.array([b_bar, v_bar]))
    for got, want in ((al.a, a), (al.f, f), (al.w_bar, w), (al.c_bar, c)):
        assert_close(got, want)


# ---------------------------------------------------------------------------
# Charge-parametric policy iteration vs. cold value iteration
# ---------------------------------------------------------------------------

@settings(PROPERTY, max_examples=60)
@given(seed=seeds, n=st.integers(1, 30), lower=st.integers(0, 3), upper=st.integers(0, 3),
       dense=st.booleans(), beta=st.floats(0.5, 0.99), ascending=st.booleans(),
       charges=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12))
def test_warm_started_sweep_matches_cold_solves(seed, n, lower, upper, dense, beta,
                                                ascending, charges):
    rng = np.random.default_rng(seed)
    if dense:
        m = random_rb(rng, n, int(rng.integers(0, n + 1)), beta=beta)
    else:
        m = banded_rb(rng, n, lower, upper, beta)
    scale = max(1.0, float(np.max(np.abs(bandit.normalized_passive_cost(m)))))
    nus = [c * scale / float(np.min(m.theta1)) for c in charges]
    if ascending:
        nus.sort()
    v, gap, closed, passes = dp._Policies(m).run(np.array(nus))
    # the whole sequence at once settles each charge bit for bit as
    # one-charge queries in turn do, in as many passes
    one = dp._Policies(m)
    for got, want in zip((v, gap, closed, passes), zip(*(one.at(nu) for nu in nus))):
        assert np.array_equal(got, np.array(want))
    eps = dp.DEFAULT_INDIFFERENCE
    for k, nu in enumerate(nus):
        got = frozenset(np.flatnonzero(closed[k]).tolist())
        # warm starts against a cold policy iteration from all-active
        cold = dp.solve(m, nu)
        assert_close(v[k], cold.v)
        # a gap this close to the indifference band may fall on either side
        if not np.any(np.abs(np.abs(cold.gap[m.ctrl_mask]) - eps) <= 1e-9):
            assert got == cold.active_closed
        # and against the independent value iteration
        cold = dp.solve(m, nu, method="value")
        assert np.max(np.abs(v[k] - cold.v)) <= 1e-9 * max(1.0, float(np.max(np.abs(cold.v))))
        if np.all(np.abs(cold.gap[m.ctrl_mask]) > 1e-6):
            assert got == cold.active_closed
    if ascending:
        sweep = dp.nu_sweep(m, nus)
        assert sweep.active_sets == tuple(frozenset(np.flatnonzero(c).tolist()) for c in closed)


# ---------------------------------------------------------------------------
# The CLI report writer vs. json.dumps
# ---------------------------------------------------------------------------

tricky_text = st.text(st.one_of(st.sampled_from(',"[{}]\n\\ \u00e9\u20ac\U0001f600'),
                                st.characters()), max_size=6)
json_numbers = st.one_of(
    st.integers(), st.integers(-2**70, 2**70), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324]))
json_scalars = st.one_of(st.none(), st.booleans(), json_numbers, tricky_text)
flat_lists = st.lists(st.one_of(json_numbers, st.booleans(), st.none()), max_size=8)
json_trees = st.recursive(
    st.one_of(json_scalars, flat_lists),
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
                           st.dictionaries(tricky_text, kids, max_size=5)),
    max_leaves=30)


@PROPERTY
@given(tree=json_trees)
def test_report_writer_matches_json_dumps(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2, allow_nan=True)


# ---------------------------------------------------------------------------
# The one-pass number-array schema check vs. stock jsonschema
# ---------------------------------------------------------------------------

def _schema_docs() -> dict:
    model, _ = admission.whittle_counterexample()
    return {
        "rb": dict(modelio.document_from_model(admission.whittle_variant(model)),
                   family=[[], [2], [1, 2], [0, 1, 2]]),
        "admission": modelio.document_from_model(model),
        "routing": {"kind": "routing", "lambda": 1.0, "alpha": 0.1, "queues": [
            {"n": 3, "mu": 1.0, "h": [0.0, 1.0, 2.5, 4.0]},
            {"n": None, "mu": [0.5, 0.75, 1.0, 1.25], "h": 2.0}]},
        "mts": {"kind": "mts", "alpha": 0.1, "nu": 1.0, "products": [
            {"n": 3, "lambda": [0.25, 0.5, 0.5], "mu": 1.0, "c": [0.0, 1.0, 2.0, 3.0],
             "s": 1.0, "r": [1.0, 1, 2.0]}]},
    }


# every number array of the four documents (top level, matrix rows, and the
# vector branches of the routing and make-to-stock oneOf fields), and the
# rb document's integer arrays, whose items stay with the stock keyword
ARRAYS = [
    ("rb", ("controllable",)), ("rb", ("family", 2)),
    ("rb", ("h0",)), ("rb", ("theta1",)), ("rb", ("P0", 1)), ("rb", ("P1", 0)),
    ("admission", ("lambda",)), ("admission", ("mu",)), ("admission", ("h",)),
    ("routing", ("queues", 0, "h")), ("routing", ("queues", 1, "mu")),
    ("mts", ("products", 0, "lambda")), ("mts", ("products", 0, "c")),
    ("mts", ("products", 0, "r")),
]
NON_NUMBERS = ['a,"[{\n\u00e9', "", True, False, None, [], [1.0], {}, {"x": 1}]
NON_INTEGERS = NON_NUMBERS + [1.5, -0.5]


def _schema_errors(validator, doc):
    return [(list(e.absolute_path), e.message) for e in validator.iter_errors(doc)]


def test_schema_documents_are_valid():
    for kind, doc in _schema_docs().items():
        assert _schema_errors(modelio._VALIDATORS[kind], doc) == []
        modelio.model_from_document(doc)


def _array_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("kind, path", ARRAYS,
                         ids=["/".join(map(str, (k,) + p)) for k, p in ARRAYS])
def test_one_pass_schema_check_matches_stock_jsonschema(kind, path, tmp_path):
    bad_values = NON_INTEGERS if path[0] in ("controllable", "family") else NON_NUMBERS
    stock_validator = Draft202012Validator(modelio.SCHEMAS[kind])
    file = tmp_path / "model.json"
    size = len(_array_at(_schema_docs()[kind], path))
    for i, bad in itertools.product(range(size), bad_values):
        doc = _schema_docs()[kind]
        _array_at(doc, path)[i] = bad
        stock = _schema_errors(stock_validator, doc)
        assert stock
        assert _schema_errors(modelio._VALIDATORS[kind], doc) == stock
        where, message = min(stock, key=lambda e: e[0])
        file.write_text(json.dumps(doc))
        with pytest.raises(modelio.ModelFileError) as exc:
            modelio.load_model(str(file))
        assert str(exc.value) == f"schema violation at {'/'.join(map(str, where))}: {message}"
