"""Shared randomized-instance generators and CLI runners for the test suite.

Everything is seeded through numpy Generators passed in by the tests, so
runs are reproducible; helpers that retry (e.g. until marginal workloads
come out positive) draw from the same stream.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib

import numpy as np
import pytest

from pclindex import bandit, cli
from pclindex.admission import ACModel
from pclindex.bandit import RBModel
from pclindex.greedy import WorkloadOracle
from pclindex.setsystem import SetSystem, product, validate


def random_valid_family(rng: np.random.Generator, n: int, density: float = 0.35) -> SetSystem:
    """Random accessible and augmentable family containing {} and J.

    Starts from a random sample of subsets and repairs violations by
    inserting the missing removal/insertion witnesses until the system
    validates; the repair only ever adds sets, so it terminates.
    """
    ground = frozenset(range(n))
    members = {frozenset(), ground}
    for r in range(1, n):
        for combo in itertools.combinations(range(n), r):
            if rng.random() < density:
                members.add(frozenset(combo))
    changed = True
    while changed:
        changed = False
        for s in sorted(members, key=len):
            if s and not any(s - {j} in members for j in s):
                members.add(s - {rng.choice(sorted(s))})
                changed = True
            if s != ground and not any(s | {j} in members for j in ground - s):
                members.add(s | {int(rng.choice(sorted(ground - s)))})
                changed = True
    sys = SetSystem(n, tuple(members))
    assert validate(sys).valid
    return sys


def random_workload_tables(rng: np.random.Generator, sys: SetSystem,
                           lo: float = 0.1, hi: float = 10.0):
    """Independent positive workloads for every (member, element) pair,
    plus nonnegative right-hand sides."""
    w = {s: {j: float(rng.uniform(lo, hi)) for j in s} for s in sys.family if s}
    b = {s: float(rng.uniform(0.0, 5.0)) for s in sys.family}
    return w, b


def random_rb(rng: np.random.Generator, n_states: int, n_ctrl: int,
              beta: float = 0.9, near: bool = False) -> RBModel:
    """Random restless bandit; ``near`` draws the passive matrix as a small
    perturbation of the active one, which keeps marginal workloads
    positive with high probability."""
    P1 = rng.uniform(0.0, 1.0, (n_states, n_states))
    P1 /= P1.sum(axis=1, keepdims=True)
    if near:
        P0 = P1 + rng.uniform(0.0, 0.15, (n_states, n_states))
    else:
        P0 = rng.uniform(0.0, 1.0, (n_states, n_states))
    P0 /= P0.sum(axis=1, keepdims=True)
    for i in range(n_ctrl, n_states):
        P0[i] = P1[i]
    h0 = rng.uniform(-3.0, 3.0, n_states)
    h1 = rng.uniform(-3.0, 3.0, n_states)
    for i in range(n_ctrl, n_states):
        h1[i] = h0[i]
    theta = rng.uniform(0.2, 2.0, n_states)
    return RBModel(P0, P1, h0, h1, theta, beta, frozenset(range(n_ctrl)))


def random_positive_workload_rb(rng: np.random.Generator, sys: SetSystem,
                                n_states: int, beta: float = 0.9,
                                tries: int = 200) -> RBModel:
    """Random bandit whose marginal workloads are positive on every family
    member (retries until the property holds)."""
    ctrl = sys.n
    assert ctrl <= n_states
    for _ in range(tries):
        model = random_rb(rng, n_states, ctrl, beta=beta, near=True)
        ok = True
        for s in sys.family:
            w = bandit.marginal_workload(model, frozenset(s))
            if any(w[j] <= 0 for j in range(ctrl)):
                ok = False
                break
        if ok:
            return model
    raise RuntimeError("could not draw a positive-workload model")


def random_compliant_admission(rng: np.random.Generator, n: int,
                               alpha: float) -> ACModel:
    """Admission model satisfying the regularity conditions: concave
    nondecreasing net service surplus, convex nondecreasing costs."""
    dd = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
    lam = rng.uniform(0.5, 2.0, n + 1)
    d = np.concatenate(([-lam[0]], -lam[0] + np.cumsum(dd)))
    mu = d[1:] + lam[1:]
    if np.any(mu <= 0):
        shift = -mu.min() + 0.2
        mu = mu + shift
        lam = np.concatenate(([lam[0]], mu - d[1:]))
    dh = np.sort(rng.uniform(0.0, 2.0, n))
    h = np.concatenate(([rng.uniform(0.0, 1.0)], np.zeros(n)))
    h[1:] = h[0] + np.cumsum(dh)
    return ACModel(n, lam, mu, h, alpha)


def star_system(model: RBModel, sys: SetSystem, initial: int):
    """Calibrating-project extension used by the conservation-law LP.

    Appends a one-state component (index n) whose workload is 1; sets
    containing it carry the activity measure of their controllable part as
    the right-hand side, all others carry 0.  Under positive marginal
    workloads each feasible string's vertex equals the occupation measures
    of the matching set-active policy.
    """
    n = sys.n
    star = SetSystem(1, (frozenset(), frozenset({0})))
    sys_star = product([sys, star])
    ctrl = sorted(model.controllable)
    w_cache: dict[frozenset, np.ndarray] = {}
    b_cache: dict[frozenset, np.ndarray] = {}

    def states_of(s):
        return frozenset(ctrl[e] for e in s if e < n)

    def row(s: frozenset) -> list[float]:
        states = states_of(s)
        if states and states not in w_cache:
            w_cache[states] = bandit.marginal_workload(model, states)
        return [1.0 if j == n else float(w_cache[states][ctrl[j]]) for j in sorted(s)]

    def b(s: frozenset) -> float:
        if n not in s:
            return 0.0
        states = states_of(s)
        if states not in b_cache:
            b_cache[states] = bandit.activity_measure(model, states)
        return float(b_cache[states][initial])

    return sys_star, WorkloadOracle(row, b)


ROUTING_DOC = {
    "kind": "routing", "lambda": 2.0, "alpha": 0.0, "nu": 5.0,
    "queues": [{"n": 5, "mu": 1.0, "h": 1.0}, {"n": 5, "mu": 1.5, "h": 2.0}],
}


def write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_canonical(text: str) -> dict:
    """The parsed report, after checking that it is ``json.dumps(report,
    sort_keys=True, indent=2)`` plus a newline, byte for byte."""
    report = json.loads(text)
    canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if text != canonical:   # no bare assert: pytest's diff of two long reports takes minutes
        at = len(os.path.commonprefix([text, canonical]))
        pytest.fail(f"report is not canonical JSON at character {at}: "
                    f"{text[max(0, at - 30):at + 30]!r}")
    return report


def run_cli(capsys, *argv):
    """``cli.main`` in this process: its exit code, canonical report and stderr."""
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, assert_canonical(out.out), out.err


def package_env() -> dict:
    """The environment with the imported package's parent dir first on
    PYTHONPATH, so that a fresh ``python`` process imports this pclindex."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
