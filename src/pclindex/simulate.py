"""Event-driven continuous-time simulation of the index policies.

Routing and make-to-stock run through one simulator over birth--death
buffers that share one controlled birth stream.  Rates and cost rates
are read once per run from the system's one per-level table,
``levels(k, cap)`` (:mod:`pclindex.policies`), and the event row of each
visited joint state (decision, rates, outcomes) is built once per run.  The
chains are simulated exactly: exponential clocks race between the
events, holding costs are integrated in closed form between events since
the cost rate is piecewise constant, and rejection charges / production
subsidies are lumped at their event epochs with the appropriate discount.
Every policy of a :func:`simulate_all` call and every replication is one
row of a single lockstep, ``CHUNK`` events at a time: replication r
draws ``standard_exponential(CHUNK)`` and then ``random(CHUNK)`` from its
own ``default_rng([seed, r])`` per chunk, into one preallocated block,
and every policy's row r reads that block (common random numbers).  The
seed states of a batch's generators are hashed in one pass of array
arithmetic, bit for bit as ``SeedSequence([seed, r])`` hashes each one.
Event i of a chunk takes the clock E[i] / total and the outcome
``bisect_right(cuts, U[i] * total)``.  So a row's value depends neither
on how many replications nor on which other policies run.  Costs accrue
in event order (holding cost, then charge) by one cumulative sum per
span of steps, so memory is O(rows x CHUNK) for the draws, in batches of
at most ``BATCH`` rows, and the report always carries the confidence
interval, never a bare mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import _is_level
from .policies import LEVEL_CAP, MTS_RULES, ROUTING_RULES, MTSSystem, RoutingSystem, engage

BOUNDARY_FLAG_FRACTION = 1e-3
CHUNK = 256   # events per block of random draws; part of the stream definition
BATCH = 4096  # most rows (policy x replication) per lockstep batch; bounds memory only
CELLS = 8192  # most steps x rows accrued by one pass of array expressions; speed only


@dataclass(frozen=True)
class SimConfig:
    """Budget and bookkeeping knobs for one simulation study.

    ``horizon`` is finite simulated time per replication; ``max_events``
    caps the event count instead when set.  Infinite buffers are truncated
    at ``truncation``, at most ``LEVEL_CAP``, and the report flags runs
    where the truncation boundary was hit too often: a boundary hit is an
    event epoch at which some truncated buffer is at its cap.  Under the
    average criterion the first ``warmup_fraction`` of the horizon is discarded.
    """

    horizon: float | None = None
    max_events: int | None = None
    replications: int = 20
    seed: int = 0
    truncation: int = 200
    warmup_fraction: float = 0.1

    def __post_init__(self):
        if self.horizon is None and self.max_events is None:
            raise ValueError("set a time horizon or an event budget")
        # the chained test also refuses NaN
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and positive")
        # counts are integers operator.index takes, not bools
        counts = [("replications", self.replications, 1),
                  ("truncation", self.truncation, 1), ("seed", self.seed, 0)]
        if self.max_events is not None:
            counts.append(("the event budget", self.max_events, 1))
        for name, value, least in counts:
            if not (_is_level(value, math.inf) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.truncation > LEVEL_CAP:
            raise ValueError(f"truncation {self.truncation} exceeds the level cap {LEVEL_CAP}")
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

    birth: Sequence[list[float]]
    idle_birth: float
    death: Sequence[list[float]]
    cost: Sequence[list[float]]
    fed_charge: float
    idle_charge: float


def _setup(system, config: SimConfig):
    """Built-in rules, caps, truncated buffers and network of a system.
    Routing: arrivals are the birth stream and a rejection costs the
    charge.  Make-to-stock: production is the birth stream and earns the
    subsidy; orders are deaths, lost at zero stock."""
    if isinstance(system, RoutingSystem):
        specs, rules, idle_birth = system.queues, ROUTING_RULES, float(system.lam)
    elif isinstance(system, MTSSystem):
        specs, rules, idle_birth = system.products, MTS_RULES, 0.0
    else:
        raise TypeError(f"cannot simulate {type(system).__name__}")
    nu = system.nu if math.isfinite(system.nu) else 0.0
    caps = [spec.n if spec.n is not None else config.truncation for spec in specs]
    truncated = [k for k, spec in enumerate(specs) if spec.n is None]
    birth, death, cost = zip(*(system.levels(k, cap) for k, cap in enumerate(caps)))
    births = [rates[:cap] for rates, cap in zip(birth, caps)]
    charges = (0.0, nu) if isinstance(system, RoutingSystem) else (-nu, 0.0)
    return rules, caps, truncated, _Network(births, idle_birth, death, cost, *charges)


def _decider(system, rules, caps: list[int], policy: Callable | str):
    """Decision function of the state and report name.  A built-in policy
    applies :func:`engage` to the score tables of its rule in
    :mod:`pclindex.policies`; a custom ``policy(state, tables, caps)``
    gets the index tables."""
    if callable(policy):
        tables = rules["index"].scores(system, caps)
        decide = lambda state: policy(state, tables, caps)
        return decide, getattr(policy, "__name__", "custom")
    if policy not in rules:
        raise ValueError(f"unknown policy {policy!r}; the built-in rules are "
                         + ", ".join(rules))
    rule = rules[policy]
    scores = [np.asarray(table, dtype=float).tolist() for table in rule.scores(system, caps)]
    gate = rule.gate(system)
    return lambda state: engage(state, scores, caps, gate), rule.label


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


def _hashes(first: int, mult: int):
    """SeedSequence's running hash constants from ``first``: the pairs
    (c, c * mult mod 2**32), each pair's second the next pair's first."""
    while True:
        last, first = first, first * mult & 0xFFFFFFFF
        yield last, first


def _hash(value, consts):
    """SeedSequence's hash of uint32 words by its next constants: xor,
    multiply, xorshift."""
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _seed_states(seed: int, reps: range) -> np.ndarray:
    """Row i is ``SeedSequence([seed, reps[i]]).generate_state(4, np.uint64)``,
    for all rows in one pass of uint32 array arithmetic: SeedSequence
    hashes the 32-bit words of seed and then of r (least significant
    first, at least one each) into a pool of 4 words, mixes them, and
    hashes the pool into 8 words, read in little-endian pairs.  Needs
    r < 2**64."""
    seed_words = [seed >> at & 0xFFFFFFFF for at in range(0, max(1, seed.bit_length()), 32)]
    out, lo = np.empty((len(reps), 4), dtype=np.uint64), reps.start
    while lo < reps.stop:   # one pass per count of r's words
        width = max(1, -(-lo.bit_length() // 32))
        hi = min(reps.stop, 1 << 32 * width)
        r = np.arange(lo, hi, dtype=np.uint64)
        words = [np.full(r.size, w, dtype=np.uint32) for w in seed_words]
        words += [(r >> 32 * k & 0xFFFFFFFF).astype(np.uint32) for k in range(width)]
        words += [np.zeros(r.size, dtype=np.uint32)] * (4 - len(words))
        consts = _hashes(0x43b0d7e5, 0x931e8875)
        pool = [_hash(word, consts) for word in words[:4]]

        def mix(dst, word):
            mixed = pool[dst] * 0xca01f9dd - _hash(word, consts) * 0x4973f715
            pool[dst] = mixed ^ mixed >> 16

        for src in range(4):   # each pool word into the other three
            for dst in range(4):
                if dst != src:
                    mix(dst, pool[src])
        for word in words[4:]:   # then each further word into all four
            for dst in range(4):
                mix(dst, word)
        consts = _hashes(0x8b51f9dd, 0x58f38ded)
        state = np.stack([_hash(pool[i % 4], consts) for i in range(8)], axis=1)
        out[lo - reps.start:hi - reps.start] = state.astype("<u4").view("<u8")
        lo = hi
    return out


class _State(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is already computed: it answers only the
    request ``PCG64`` makes, ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed state holds 4 uint64 words only")
        return self.words


def simulate(system, policy, config: SimConfig) -> SimReport:
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
    rows.  The report is labelled by the rule's label or the callable's name.
    """
    return simulate_all(system, [policy], config)[0]


def simulate_all(system, policies, config: SimConfig) -> list[SimReport]:
    """Report p is ``simulate(system, policies[p], config)``; the budget and
    the policies, at least one and each known, are checked (``ValueError``)
    before anything is drawn.  Row ``r * P + p`` (replication r, policy p)
    runs in a batch of whole replications and at most ``BATCH`` rows, and
    the steps in spans of at most ``CELLS`` steps x rows: a span records
    each row's slot, outcome and epoch, then array expressions accrue it."""
    if not policies:
        raise ValueError("no policy given to simulate")
    rules, caps, truncated, net = _setup(system, config)
    horizon = config.horizon if config.horizon is not None else math.inf
    budget = config.max_events if config.max_events is not None else math.inf
    start, warmup_events = _warmup(system.alpha, horizon, config)
    decide, labels = zip(*(_decider(system, rules, caps, policy) for policy in policies))
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
        # default_rng([seed, r]) for each replication r, its seed state hashed for all at once
        rngs = [np.random.Generator(np.random.PCG64(_State(words)))
                for words in _seed_states(config.seed, batch)]
        block = np.empty((len(batch), 2, CHUNK))   # each replication's draws, written in place
        live, done = np.arange(batch.start * P, batch.stop * P), 0
        while live.size and done < budget:
            n, m = int(min(CHUNK, budget - done)), live.size
            drawn, col = np.unique(live // P - first, return_inverse=True)
            for row, rep in zip(block, drawn.tolist()):
                rngs[rep].standard_exponential(out=row[0])
                rngs[rep].random(out=row[1])
            # one block per replication, read by each of its rows: (n, m) each, step-major
            E, U = block.transpose(1, 2, 0)[:, :n].take(col, axis=2)
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
