"""Event-driven continuous-time simulation of the index policies.

Routing and make-to-stock run through one event loop over birth--death
buffers that share one controlled birth stream, with rates and cost
rates tabulated per level once per run, and the event row of each
visited joint state (decision, rates, outcomes) built once per run.  The
chains are simulated exactly: exponential clocks race between the
events, holding costs are
integrated in closed form between events since the cost rate is
piecewise constant, and rejection charges / production subsidies are
lumped at their event epochs with the appropriate discount.
Replications are independent, each with its own substream of the base
seed, and the report always carries the confidence interval, never a
bare mean.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .policies import (MTS_RULES, ROUTING_RULES, MTSSystem, ProductSpec, QueueSpec,
                       RoutingSystem, engage)

BOUNDARY_FLAG_FRACTION = 1e-3


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
    so accrual starts disabled and the loop stamps the time then.
    """
    if alpha > 0 or config.warmup_fraction == 0.0:
        return 0.0, -1
    if math.isfinite(horizon):
        return config.warmup_fraction * horizon, -1
    return math.inf, max(1, int(config.warmup_fraction * (config.max_events or 0)))


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


def _build(system, policy: Callable | str, config: SimConfig, name: str | None = None):
    """Network, caps, truncated buffers, decision function of the state
    and report name.  A built-in policy applies :func:`engage` to the
    score tables of its rule in :mod:`pclindex.policies`; a custom
    ``policy(state, tables, caps)`` gets the index tables."""
    if isinstance(system, RoutingSystem):
        specs, network, rules = system.queues, _routing, ROUTING_RULES
    elif isinstance(system, MTSSystem):
        specs, network, rules = system.products, _mts, MTS_RULES
    else:
        raise TypeError(f"cannot simulate {type(system).__name__}")
    caps = [spec.n if spec.n is not None else config.truncation for spec in specs]
    truncated = [k for k, spec in enumerate(specs) if spec.n is None]
    net = network(system, caps)
    if callable(policy):
        tables = rules["index"].scores(system, caps)
        decide = lambda state: policy(state, tables, caps)
        return net, caps, truncated, decide, name or getattr(policy, "__name__", "custom")
    if policy not in rules:
        raise ValueError(f"unknown policy {policy!r}")
    rule = rules[policy]
    scores = [np.asarray(table, dtype=float).tolist() for table in rule.scores(system, caps)]
    gate = rule.gate(system)
    decide = lambda state: engage(state, scores, caps, gate)
    return net, caps, truncated, decide, name or rule.label


def _event_row(net: _Network, caps: list[int], truncated: list[int], decide,
               place: list[int], code: int) -> tuple:
    """Everything one event needs at the joint state whose mixed-radix
    code is ``code`` (buffer k has place value ``place[k]``): the clock
    scale 1/total, the total rate, the cost rate, whether some truncated
    buffer is at its cap, the cumulative outcome rates [born, born + d_0,
    born + d_0 + d_1, ...], the code after each outcome (the birth, a
    death of each buffer, and a pick past every cut, which changes
    nothing) and the charge lumped at the birth."""
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
    return 1.0 / total if total > 0 else 0.0, total, rate, at_cap, cuts, nexts, charge


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
    net, caps, truncated, decide, name = _build(system, policy, config, name)
    place = [math.prod(cap + 1 for cap in caps[:k]) for k in range(len(caps))]
    rows: dict[int, tuple] = {}
    alpha, exp = system.alpha, math.exp
    horizon = config.horizon if config.horizon is not None else math.inf
    budget = config.max_events if config.max_events is not None else math.inf
    values: list[float] = []
    total_events = 0
    boundary_hits = 0
    for rep in range(config.replications):
        rng = np.random.default_rng([config.seed, rep])
        exponential, uniform = rng.exponential, rng.random
        code, t, events, acc, disc = 0, 0.0, 0, 0.0, 1.0
        warmup, warmup_events = _warmup(alpha, horizon, config)
        while t < horizon and events < budget:
            row = rows.get(code)
            if row is None:
                row = rows[code] = _event_row(net, caps, truncated, decide, place, code)
            scale, total, rate, at_cap, cuts, nexts, charge = row
            if total <= 0:
                break
            t_next = t + exponential(scale)
            ended = t_next > horizon
            if ended:
                t_next = horizon
            # the cost rate integrated over [t, t_next]; disc = exp(-alpha t)
            if alpha > 0:
                later = exp(-alpha * t_next)
                acc += rate * (disc - later) / alpha
                disc = later
            else:
                start = t if t >= warmup else warmup
                if t_next > start:
                    acc += rate * (t_next - start)
            t = t_next
            if ended:
                break
            events += 1
            if events == warmup_events:
                warmup = t
            boundary_hits += at_cap
            outcome = bisect_right(cuts, uniform() * total)
            code = nexts[outcome]
            if not outcome and t >= warmup:
                acc += charge * disc
        total_events += events
        values.append(acc if alpha > 0 else acc / max(t - warmup, 1e-300))
    return _finish_report(name, values, total_events, boundary_hits, config.seed)
