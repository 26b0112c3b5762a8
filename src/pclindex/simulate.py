"""Event-driven continuous-time simulation of the index policies.

Routing and make-to-stock run through one event loop over birth--death
buffers that share one controlled birth stream, with rates and cost
rates tabulated per level once per run.  The chains are simulated
exactly: exponential clocks race between the events, holding costs are
integrated in closed form between events since the cost rate is
piecewise constant, and rejection charges / production subsidies are
lumped at their event epochs with the appropriate discount.
Replications are independent, each with its own substream of the base
seed, and the report always carries the confidence interval, never a
bare mean.
"""

from __future__ import annotations

import math
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


class _CostAccumulator:
    """Discounted or time-average cost bookkeeping for one replication."""

    def __init__(self, alpha: float, warmup: float):
        self.alpha = alpha
        self.warmup = warmup
        self.total = 0.0

    def accrue(self, rate: float, t0: float, t1: float):
        if t1 <= t0:
            return
        if self.alpha > 0:
            self.total += rate * (math.exp(-self.alpha * t0)
                                  - math.exp(-self.alpha * t1)) / self.alpha
        else:
            lo = max(t0, self.warmup)
            if t1 > lo:
                self.total += rate * (t1 - lo)

    def lump(self, amount: float, t: float):
        if self.alpha > 0:
            self.total += amount * math.exp(-self.alpha * t)
        elif t >= self.warmup:
            self.total += amount

    def objective(self, elapsed: float) -> float:
        if self.alpha > 0:
            return self.total
        return self.total / max(elapsed - self.warmup, 1e-300)


def _new_accumulator(alpha: float, horizon: float, config: SimConfig):
    """Accumulator plus the event count at which warm-up ends.

    Time-based warm-up when a horizon is given; with a pure event budget
    the warm-up endpoint becomes known only when that event is reached,
    so accrual starts disabled and the caller stamps the time then.
    """
    if alpha > 0 or config.warmup_fraction == 0.0:
        return _CostAccumulator(alpha, 0.0), -1
    if math.isfinite(horizon):
        return _CostAccumulator(alpha, config.warmup_fraction * horizon), -1
    warmup_events = max(1, int(config.warmup_fraction * (config.max_events or 0)))
    return _CostAccumulator(alpha, math.inf), warmup_events


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
                    _tabulate(ProductSpec.net_cost, products, caps, 1), -sys.nu, 0.0)


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


def simulate(system, policy, config: SimConfig, name: str | None = None) -> SimReport:
    """Simulate a policy on a routing or make-to-stock system.

    Routing: ``policy`` is "index", "shortest" or "naive"; each arrival
    joins the chosen queue or is rejected at the charge, and the
    objective sums holding costs and rejection charges.  Make-to-stock:
    ``policy`` is "index" or "least-stock"; the chosen product is
    produced and each completion earns the subsidy, while orders deplete
    stock (lost when empty, already priced into the net cost rate).
    Either may be a callable ``(state, tables, caps) -> buffer | None``
    over the index tables.  The policy is consulted once per event epoch.
    """
    net, caps, truncated, decide, name = _build(system, policy, config, name)
    birth, death, cost = net.birth, net.death, net.cost
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
                born = net.idle_birth
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
            dt = rng.exponential(1.0 / total)
            t_next = t + dt
            if t_next > horizon:
                acc.accrue(cost_rate, t, horizon)
                t = horizon
                break
            acc.accrue(cost_rate, t, t_next)
            t = t_next
            events += 1
            if events == warmup_events:
                acc.warmup = t
            for k in truncated:
                if state[k] >= caps[k]:
                    boundary_hits += 1
                    break
            pick = rng.random() * total
            if pick < born:
                if target is None:
                    charge = net.idle_charge
                else:
                    state[target] += 1
                    charge = net.fed_charge
                if charge:
                    acc.lump(charge, t)
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
    return _finish_report(name, values, total_events, boundary_hits, config.seed)
