"""Event-driven continuous-time simulation of the index policies.

Routing and make-to-stock run through one simulator over birth--death
buffers that share one controlled birth stream, with rates and cost
rates tabulated per level once per run, and the event row of each
visited joint state (decision, rates, outcomes) built once per run.  The
chains are simulated exactly: exponential clocks race between the
events, holding costs are integrated in closed form between events since
the cost rate is piecewise constant, and rejection charges / production
subsidies are lumped at their event epochs with the appropriate discount.
Every policy of a :func:`simulate_all` call and every replication is one
row of a single lockstep, ``CHUNK`` events at a time: replication r
draws ``standard_exponential(CHUNK)`` and then ``random(CHUNK)`` from its
own ``default_rng([seed, r])`` per chunk, every policy's row r reads that
block (common random numbers), and event i of a chunk takes the clock
E[i] / total and the outcome ``bisect_right(cuts, U[i] * total)``.  So a
row's value depends neither on how many replications nor on which other
policies run.  Costs accrue in event order (holding cost, then charge) by
one cumulative sum per span of steps, so memory is O(rows x CHUNK) for
the draws, in batches of at most ``BATCH`` rows, and the report always
carries the confidence interval, never a bare mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .policies import (MTS_RULES, ROUTING_RULES, MTSSystem, ProductSpec, QueueSpec,
                       RoutingSystem, engage)

BOUNDARY_FLAG_FRACTION = 1e-3
CHUNK = 256   # events per block of random draws; part of the stream definition
BATCH = 4096  # most rows (policy x replication) per lockstep batch; bounds memory only
CELLS = 8192  # most steps x rows accrued by one pass of array expressions; speed only


@dataclass(frozen=True)
class SimConfig:
    """Budget and bookkeeping knobs for one simulation study.

    ``horizon`` is simulated time per replication; ``max_events`` caps the
    event count instead when set.  Infinite buffers are truncated at
    ``truncation`` and the report flags runs where the truncation boundary
    was hit too often: a boundary hit is an event epoch at which some
    truncated buffer is at its cap.  Under the average criterion the first
    ``warmup_fraction`` of the horizon is discarded.
    """

    horizon: float | None = None
    max_events: int | None = None
    replications: int = 20
    seed: int = 0
    truncation: int = 200
    warmup_fraction: float = 0.1

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.horizon is None and self.max_events is None:
            raise ValueError("set a time horizon or an event budget")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError("the event budget must be at least one event")
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup fraction must lie in [0, 1)")


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo estimate of a policy's cost objective.

    ``boundary_hits`` counts the event epochs at which some truncated
    buffer was at its cap; the run is flagged when they exceed
    ``BOUNDARY_FLAG_FRACTION`` of the events.
    """

    policy: str
    mean: float
    se: float
    ci95: tuple[float, float]
    replications: int
    events: int
    boundary_hits: int
    boundary_fraction: float
    truncation_flagged: bool
    seed: int
    per_replication: tuple[float, ...]


def _finish_report(name: str, values: list[float], events: int, hits: int,
                   seed: int) -> SimReport:
    arr = np.asarray(values)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else float("nan")
    frac = hits / max(1, events)
    return SimReport(
        policy=name, mean=mean, se=se,
        ci95=(mean - 1.96 * se, mean + 1.96 * se),
        replications=len(arr), events=events,
        boundary_hits=hits, boundary_fraction=frac,
        truncation_flagged=frac > BOUNDARY_FLAG_FRACTION,
        seed=seed, per_replication=tuple(values),
    )


def _warmup(alpha: float, horizon: float, config: SimConfig) -> tuple[float, int]:
    """Time at which average-cost accrual starts, plus the event count at
    which warm-up ends.

    Time-based warm-up when a horizon is given; with a pure event budget
    the warm-up endpoint becomes known only when that event is reached,
    so accrual starts disabled and the simulator stamps the time then;
    a warm-up that takes the whole budget raises ``ValueError``.
    """
    if alpha > 0 or config.warmup_fraction == 0.0:
        return 0.0, -1
    if math.isfinite(horizon):
        return config.warmup_fraction * horizon, -1
    warmup_events = max(1, int(config.warmup_fraction * config.max_events))
    if warmup_events >= config.max_events:
        raise ValueError(f"a warm-up of {warmup_events} events leaves none of the "
                         f"{config.max_events} events in the budget to average over")
    return math.inf, warmup_events


@dataclass(frozen=True)
class _Network:
    """Birth--death buffers sharing one controlled birth stream, with
    every rate and cost tabulated per level.

    At each event epoch the policy picks a buffer below its cap, or none.
    The birth stream then runs at ``birth[k][j]`` into buffer k at level
    j (``idle_birth`` when none is picked), and a birth lumps
    ``fed_charge`` into the objective (``idle_charge`` when none is
    picked).  Buffer k dies at rate ``death[k][j]``; a death at level 0
    leaves the level at 0.  ``cost[k][j]`` is the cost rate.
    """

    birth: list[list[float]]
    idle_birth: float
    death: list[list[float]]
    cost: list[list[float]]
    fed_charge: float
    idle_charge: float


def _tabulate(fn, specs, caps: list[int], extra: int) -> list[list[float]]:
    """``fn(spec, j)`` at levels 0..cap-1+extra of each buffer."""
    return [[fn(spec, j) for j in range(cap + extra)] for spec, cap in zip(specs, caps)]


def _routing(sys: RoutingSystem, caps: list[int]) -> _Network:
    """Arrivals are the birth stream and a rejection costs the charge."""
    queues, lam = sys.queues, float(sys.lam)
    return _Network([[lam] * cap for cap in caps], lam,
                    _tabulate(QueueSpec.mu_at, queues, caps, 1),
                    _tabulate(QueueSpec.h_at, queues, caps, 1), 0.0,
                    sys.nu if math.isfinite(sys.nu) else 0.0)


def _mts(sys: MTSSystem, caps: list[int]) -> _Network:
    """Production is the birth stream and earns the subsidy; orders are
    deaths, lost at zero stock."""
    products = sys.products
    return _Network(_tabulate(ProductSpec.mu_at, products, caps, 0), 0.0,
                    _tabulate(ProductSpec.lam_at, products, caps, 1),
                    _tabulate(ProductSpec.net_cost, products, caps, 1),
                    -sys.nu if math.isfinite(sys.nu) else 0.0, 0.0)


def _setup(system, config: SimConfig):
    """Built-in rules, caps, truncated buffers and network of a system."""
    if isinstance(system, RoutingSystem):
        specs, network, rules = system.queues, _routing, ROUTING_RULES
    elif isinstance(system, MTSSystem):
        specs, network, rules = system.products, _mts, MTS_RULES
    else:
        raise TypeError(f"cannot simulate {type(system).__name__}")
    caps = [spec.n if spec.n is not None else config.truncation for spec in specs]
    truncated = [k for k, spec in enumerate(specs) if spec.n is None]
    return rules, caps, truncated, network(system, caps)


def _decider(system, rules, caps: list[int], policy: Callable | str, name: str | None):
    """Decision function of the state and report name.  A built-in policy
    applies :func:`engage` to the score tables of its rule in
    :mod:`pclindex.policies`; a custom ``policy(state, tables, caps)``
    gets the index tables."""
    if callable(policy):
        tables = rules["index"].scores(system, caps)
        decide = lambda state: policy(state, tables, caps)
        return decide, name or getattr(policy, "__name__", "custom")
    if policy not in rules:
        raise ValueError(f"unknown policy {policy!r}; the built-in rules are "
                         + ", ".join(rules))
    rule = rules[policy]
    scores = [np.asarray(table, dtype=float).tolist() for table in rule.scores(system, caps)]
    gate = rule.gate(system)
    return lambda state: engage(state, scores, caps, gate), name or rule.label


def _build(system, policy: Callable | str, config: SimConfig, name: str | None = None):
    """Network, caps, truncated buffers, decision function of the state
    and report name of one policy."""
    rules, caps, truncated, net = _setup(system, config)
    return (net, caps, truncated, *_decider(system, rules, caps, policy, name))


def _event_row(net: _Network, caps: list[int], truncated: list[int], decide,
               place: list[int], code: int) -> tuple[list[float], list[int]]:
    """Everything one event needs at the joint state whose mixed-radix
    code is ``code`` (buffer k has place value ``place[k]``): the values
    [clock scale 1/total, total rate, cost rate, charge lumped at the
    birth, 1.0 if some truncated buffer is at its cap, then the cumulative
    outcome rates born, born + d_0, ...] and the code after each outcome
    (the birth, a death of each buffer, a pick past every cut: no change)."""
    state = [code // p % (cap + 1) for p, cap in zip(place, caps)]
    target = decide(state)
    if target is None:
        born, step, charge = net.idle_birth, 0, net.idle_charge
    elif state[target] < caps[target]:
        born, step, charge = net.birth[target][state[target]], place[target], net.fed_charge
    else:
        raise ValueError(f"policy chose buffer {target}, which is at its cap")
    total, rate, cuts, nexts = born, 0.0, [born], [code + step]
    for k, j in enumerate(state):
        total += net.death[k][j]
        rate += net.cost[k][j]
        cuts.append(total)
        nexts.append(code - place[k] if j else code)
    nexts.append(code)
    at_cap = any(state[k] >= caps[k] for k in truncated)
    return [1.0 / total if total > 0 else 0.0, total, rate, charge, at_cap, *cuts], nexts


class _Rows:
    """The event rows of the states reached, one slot each: ``vals`` holds
    the values of :func:`_event_row` and ``nexts`` the slot after each
    outcome, -1 until that transition is first taken, so the policy is
    consulted once per state reached.  Slot 0 is a dead sentinel (all
    zero, every outcome back to slot 0) for rows past the horizon."""

    def __init__(self, make_row, buffers: int):
        self.make_row, self.slot_of, self.codes = make_row, {}, [None]
        self.vals, self.nexts = np.zeros((64, buffers + 6)), np.full((64, buffers + 2), -1)
        self.nexts[0] = 0

    def slot(self, code: int) -> int:
        s = self.slot_of.get(code)
        if s is None:
            (vals, nexts), s = self.make_row(code), len(self.codes)
            if s == len(self.vals):
                self.vals = np.concatenate([self.vals, np.zeros_like(self.vals)])
                self.nexts = np.concatenate([self.nexts, np.full_like(self.nexts, -1)])
            self.vals[s], self.slot_of[code] = vals, s
            self.codes.append(nexts)
        return s

    def follow(self, edges, after):
        """Fill in the -1 entries of ``after``: transitions taken the first time."""
        miss = after < 0
        for edge in dict.fromkeys(edges[miss].tolist()):
            s, o = divmod(edge, self.nexts.shape[1])
            self.nexts[s, o] = self.slot(self.codes[s][o])
        after[miss] = self.nexts.take(edges[miss])


def simulate(system, policy, config: SimConfig, name: str | None = None) -> SimReport:
    """Simulate a policy on a routing or make-to-stock system.

    Routing: ``policy`` is "index", "shortest" or "naive"; each arrival
    joins the chosen queue or is rejected at the charge, and the
    objective sums holding costs and rejection charges.  Make-to-stock:
    ``policy`` is "index" or "least-stock"; the chosen product is
    produced and each completion earns the subsidy, while orders deplete
    stock (lost when empty, already priced into the net cost rate).
    An infinite charge or subsidy only gates the rule (the index policy
    then never rejects, or always produces below the caps) and is never
    lumped into the objective.  Either may be a callable ``(state, tables, caps) -> buffer | None``
    over the index tables, which must be a deterministic function of the
    state: the policy is consulted once per distinct joint state in a
    call, when its event row is built, and the replications share the
    rows.
    """
    return simulate_all(system, [policy], config, [name])[0]


def simulate_all(system, policies, config: SimConfig, names=None) -> list[SimReport]:
    """Report p is ``simulate(system, policies[p], config, names[p])``; the
    budget and every policy are checked (``ValueError``) before anything is
    drawn.  Row ``r * P + p`` (replication r, policy p) runs in a batch of
    whole replications and at most ``BATCH`` rows, and the steps in spans
    of at most ``CELLS`` steps x rows: a span records each row's slot,
    outcome and epoch, then array expressions accrue it."""
    rules, caps, truncated, net = _setup(system, config)
    horizon = config.horizon if config.horizon is not None else math.inf
    budget = config.max_events if config.max_events is not None else math.inf
    start, warmup_events = _warmup(system.alpha, horizon, config)
    decide, labels = zip(*(_decider(system, rules, caps, policy, name) for policy, name
                           in zip(policies, names or [None] * len(policies), strict=True)))
    size = math.prod(cap + 1 for cap in caps)   # policy p's codes are p * size + code
    place = [math.prod(cap + 1 for cap in caps[:k]) for k in range(len(caps))]
    rows = _Rows(lambda code: _event_row(net, caps, truncated, decide[code // size], place,
                                         code), len(caps))
    P, reps, alpha, width = len(decide), config.replications, system.alpha, len(caps) + 2
    slots, per = np.tile([rows.slot(p * size) for p in range(P)], reps), max(1, BATCH // P)
    (t, acc), disc, warm = np.zeros((2, P * reps)), np.ones(P * reps), np.full(P * reps, start)
    events, hits = np.zeros((2, P * reps), dtype=np.intp)
    for first in range(0, reps, per):
        batch = range(first, min(reps, first + per))
        rngs = {rep: np.random.default_rng([config.seed, rep]) for rep in batch}
        live, done = np.arange(batch.start * P, batch.stop * P), 0
        while live.size and done < budget:
            n, m = int(min(CHUNK, budget - done)), live.size
            drawn, col = np.unique(live // P, return_inverse=True)
            # one block per replication, read by each of its rows: (n, m) each, step-major
            E, U = np.array([(g.standard_exponential(CHUNK), g.random(CHUNK)) for g in map(
                rngs.get, drawn.tolist())])[col, :, :n].transpose(1, 2, 0).copy()
            span = max(1, min(n, CELLS // m))
            at, outcome = np.empty((2, span, m), dtype=np.intp)   # slot and outcome per step
            clock = np.empty((span + 1, m))                       # event epochs
            clock[0], s, a, d, w = t[live], slots[live], acc[live], disc[live], warm[live]
            ev = hit = 0
            for lo in range(0, n, span):
                j = min(span, n - lo)
                for i in range(j):
                    at[i], v = s, rows.vals.take(s, 0).T
                    np.add(clock[i], E[lo + i] * v[0], out=clock[i + 1])
                    np.less_equal(v[5:], U[lo + i] * v[1], order="C").sum(0, out=outcome[i])
                    edges = s * width + outcome[i]
                    s = rows.nexts.take(edges)
                    s[clock[i + 1] >= horizon] = 0
                    if s.min() < 0:
                        rows.follow(edges, s)
                # steps end at a dead state, the budget or the horizon (accrued to, no event)
                total, rate, charge, flag = (rows.vals[:, c].take(at[:j]) for c in range(1, 5))
                tnext = np.minimum(clock[1:j + 1], horizon)
                event = (total > 0) & (clock[1:j + 1] <= horizon)
                lump = event & (outcome[:j] == 0)
                k = warmup_events - done - lo - 1   # the warm-up's last event, in the span
                after = np.where(event[k], tnext[k], w) if 0 <= k < j else w
                terms = np.empty((2 * j + 1, m))   # the objective, then cost and charge per step
                terms[0] = a
                if alpha > 0:
                    later = np.exp(-alpha * tnext)
                    terms[1::2] = rate * (np.concatenate([d[None], later[:-1]]) - later) / alpha
                    terms[2::2] = np.where(lump, charge * later, 0.0)
                    d = later[-1]
                else:
                    gate = np.where(np.arange(j)[:, None] >= k, after, w)
                    terms[1::2] = rate * np.maximum(tnext - np.maximum(clock[:j], gate), 0.0)
                    terms[2::2] = np.where(lump & (tnext >= gate), charge, 0.0)
                a = np.add.accumulate(terms, out=terms)[-1]
                ev, hit = ev + event.sum(0), hit + (event & (flag > 0)).sum(0)
                w, clock[0] = after, clock[j]
            del E, U   # before the next chunk's draws
            acc[live], disc[live], warm[live], t[live], slots[live] = a, d, w, tnext[-1], s
            events[live] += ev
            hits[live] += hit
            live, done = live[event[-1] & (clock[0] < horizon)], done + n
    values = acc if alpha > 0 else acc / np.maximum(t - warm, 1e-300)
    return [_finish_report(label, values[p::P].tolist(), int(events[p::P].sum()),
                           int(hits[p::P].sum()), config.seed)
            for p, label in enumerate(labels)]
