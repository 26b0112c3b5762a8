"""The charge path's speculative batches against the walk that takes one
piece at a time: the same breakpoints and policies bit for bit, a bounded
number of stacked solves, no warning where the path ends inside a batch,
a memory peak that the batch cap bounds, and the met-twice error."""

import gc
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pclindex import admission, dp
from pclindex.bandit import RBModel
from pclindex.errors import InternalConsistencyError

from conftest import random_rb


def sequential_path(model: RBModel) -> dp.ChargePath:
    """The charge path walked one piece at a time: at the nearest crossing,
    flip every state that turns within 1e-12 of it and run policy iteration
    just right of it.  The reference the batched walk must repeat."""
    ctrl = model.ctrl_mask
    flat = 1e-12 * float(np.abs(model.theta1).max()) / (1.0 - model.beta)
    active = np.ones(model.n_states, dtype=bool)
    lines = [a[0] for a in dp._lines(model, active[None])]
    for _ in range(2 ** max(1, len(model.controllable)) + 2):
        const, slope = lines[4] - lines[2], lines[5] - lines[3]
        sloped = ctrl & (np.abs(slope) > flat)
        nu = float(np.min(-const[sloped] / slope[sloped], initial=0.0))
        nu -= max(1.0, abs(nu))
        start, lines, _, _, _ = dp._optimal(model, active, nu, lines)
        if np.array_equal(start, active):
            break
        active = start
    else:
        raise InternalConsistencyError("no policy is optimal at every charge far left")
    breakpoints, pieces, seen = [], [active], {active.tobytes()}
    while True:
        turning = ctrl & (np.where(active, slope, -slope) > flat)
        if not turning.any():
            break
        at = np.where(turning, -const / np.where(turning, slope, 1.0), np.inf)
        r = max(float(at.min()), breakpoints[-1] if breakpoints else nu)
        t = r + 1e-12 * max(1.0, abs(r))
        active, lines, _, _, _ = dp._optimal(model, active ^ (at <= t), t)
        if active.tobytes() in seen:
            raise InternalConsistencyError(f"the charge path met a policy twice, at charge {r}")
        seen.add(active.tobytes())
        const, slope = lines[4] - lines[2], lines[5] - lines[3]
        breakpoints.append(r)
        pieces.append(active)
    return dp.ChargePath(model, np.array(breakpoints, dtype=float), np.array(pieces))


def assert_same_path(model: RBModel):
    """The batched and the sequential walk give the same breakpoints and
    policies, bit for bit, or raise the same error."""
    try:
        want = sequential_path(model)
    except InternalConsistencyError as err:
        with pytest.raises(InternalConsistencyError, match=f"^{re.escape(str(err))}$"):
            dp.charge_path(model)
        return
    got = dp.charge_path(model)
    for name in ("breakpoints", "policies"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def random_model(seed: int, n: int, n_ctrl: int, band, beta: float) -> RBModel:
    """Random bandit whose transitions lie within ``band`` = (l, u) sub- and
    superdiagonals (anywhere when None)."""
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    inside = True if band is None else (i - j <= band[0]) & (j - i <= band[1])
    P0, P1 = (np.where(inside, rng.uniform(0.0, 1.0, (n, n)), 0.0) for _ in range(2))
    P0, P1 = (P / P.sum(axis=1, keepdims=True) for P in (P0, P1))
    P0[n_ctrl:] = P1[n_ctrl:]
    h0, h1 = rng.uniform(-3.0, 3.0, (2, n))
    h1[n_ctrl:] = h0[n_ctrl:]
    return RBModel(P0, P1, h0, h1, rng.uniform(0.2, 2.0, n), beta, frozenset(range(n_ctrl)))


@st.composite
def models(draw):
    n = draw(st.integers(2, 12))
    band = draw(st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)))
    return random_model(draw(st.integers(0, 2**32 - 1)), n, draw(st.integers(1, n)), band,
                        draw(st.sampled_from([0.5, 0.9, 0.99])))


# states 0 and 1 have the same rows, costs and weights, so their gap lines
# coincide under every policy: the walk flips both at one breakpoint, where
# the prediction flips one
TIED = RBModel(np.array([[0.1, 0.1, 0.8], [0.1, 0.1, 0.8], [0.5, 0.5, 0.0]]),
               np.array([[0.3, 0.3, 0.4], [0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]),
               np.array([1.0, 1.0, 0.0]), np.array([3.0, 3.0, 0.0]), np.ones(3), 0.9,
               frozenset({0, 1}))
# the candidate just right of the first breakpoint is not optimal there:
# policy iteration improves it in a second pass
IMPROVED = RBModel(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]),
                   np.array([2.0, 0.0]), np.array([-2.0, -1.0]), np.array([2.0, 1.0]), 0.5,
                   frozenset({0, 1}))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model=models(), cap=st.sampled_from([1, 60, 300, dp.BATCH_ENTRIES]))
@example(model=TIED, cap=dp.BATCH_ENTRIES)
@example(model=IMPROVED, cap=dp.BATCH_ENTRIES)
def test_batched_path_is_the_sequential_walk(model, cap):
    # a small cap cuts the batches short of their doubled size
    with mock.patch.object(dp, "BATCH_ENTRIES", cap):
        assert_same_path(model)


@pytest.mark.parametrize("model, passes", [(TIED, 1), (IMPROVED, 2)], ids=["tied", "improved"])
def test_a_miss_takes_one_step_by_policy_iteration(monkeypatch, model, passes):
    steps, exact = [], dp._optimal

    def counting(model, active, nu, lines=None):
        out = exact(model, active, nu, lines)
        if lines is None:        # the walk's fallback step; the start passes its lines
            steps.append(out[4])
        return out

    monkeypatch.setattr(dp, "_optimal", counting)
    dp.charge_path(model)
    assert steps == [passes]
    monkeypatch.undo()
    assert_same_path(model)


def test_the_batch_after_a_miss_holds_2c_plus_1_policies(monkeypatch):
    # the start's solve, then a batch of all 5 turning states that confirms
    # c = 1 and misses at the next; the miss's step takes one policy
    # iteration pass, and the next batch holds 2c + 1 = 3 policies, fewer
    # than the 4 states then turning (4K = 20 would be cut to those 4)
    model = random_model(59, 5, 5, (1, 1), 0.99)
    systems, lines = [], dp._lines
    monkeypatch.setattr(dp, "_lines", lambda m, a: systems.append(len(a)) or lines(m, a))
    path = dp.charge_path(model)
    assert systems == [1, 5, 1, 3] and len(path.policies) == 6
    monkeypatch.undo()
    assert_same_path(model)


def benchmark_queue(n: int, seed: int = 1) -> RBModel:
    """The regular admission queue the benchmark draws for ``seed``: lam = 1,
    concave increasing service rates, convex costs, discount rate 0.1."""
    rng = np.random.default_rng([seed, 20_230_401])
    mu0, a, scale = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.6), rng.uniform(5.0, 20.0)
    c, p = rng.uniform(0.5, 2.0), rng.uniform(1.5, 2.0)
    i = np.arange(n + 1.0)
    return admission.uniformize(admission.ACModel(
        n, np.ones(n + 1), mu0 + a * (1.0 - np.exp(-i[1:] / scale)), c * i ** p, 0.1))


def test_stacked_solves_on_the_benchmark_queue(monkeypatch):
    # 101 pieces, whose crossing order the first piece already gives: one
    # solve for the start, then one batch of all 100 turning states, all
    # confirmed, so two stacked calls and no system solved twice (a
    # schedule that starts at one policy and doubles takes 8 calls)
    exact = dp._lines
    for seed in range(10):
        rb, systems = benchmark_queue(100, seed), []
        monkeypatch.setattr(dp, "_lines", lambda m, a: systems.append(len(a)) or exact(m, a))
        path = dp.charge_path(rb)
        assert len(path.policies) == 101 and systems == [1, 100], seed
        monkeypatch.undo()
        assert_same_path(rb)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model=models(), cap=st.sampled_from([1, 60, 300, dp.BATCH_ENTRIES]))
@example(model=TIED, cap=dp.BATCH_ENTRIES)
@example(model=IMPROVED, cap=dp.BATCH_ENTRIES)
def test_wasted_solves_stay_within_the_bound(model, cap):
    # the batches waste at most one first batch, plus the confirmed solves,
    # plus the misses; the first batch is at most one policy per
    # controllable state and at most the cap's systems
    systems, steps, inside, lines, optimal = [], [], [], dp._lines, dp._optimal

    def counting_lines(model, active):   # the start's solve and the batches'
        if not inside:
            systems.append(len(active))
        return lines(model, active)

    def counting_optimal(model, active, nu, ls=None):
        steps.append(ls)
        inside.append(True)
        try:
            return optimal(model, active, nu, ls)
        finally:
            inside.pop()

    with mock.patch.object(dp, "BATCH_ENTRIES", cap), \
            mock.patch.object(dp, "_lines", counting_lines), \
            mock.patch.object(dp, "_optimal", counting_optimal):
        try:
            path = dp.charge_path(model)
        except InternalConsistencyError:
            return
    batches, misses = systems[1:], sum(ls is None for ls in steps)
    confirmed = len(path.policies) - 1 - misses
    assert sum(batches) - confirmed <= (batches[0] if batches else 0) + confirmed + misses
    if batches:
        assert batches[0] <= min(len(model.controllable),
                                 max(1, cap // model.kernel.bP0.size))


def test_a_path_that_ends_inside_a_batch_warns_nothing(monkeypatch):
    # the start's two one-policy solves, then one batch of all 7 turning
    # states, which predicts one piece more than the 6 the path has left:
    # that row is solved but never verified (its charges would be inf)
    model = random_rb(np.random.default_rng(138936996), 7, 7)
    systems, steps, lines, optimal = [], [], dp._lines, dp._optimal
    monkeypatch.setattr(dp, "_lines", lambda m, a: systems.append(len(a)) or lines(m, a))
    monkeypatch.setattr(dp, "_optimal",
                        lambda m, a, nu, ls=None: steps.append(ls) or optimal(m, a, nu, ls))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = dp.charge_path(model)
    assert all(ls is not None for ls in steps)       # no miss
    assert systems == [1, 1, 7] and len(path.policies) == 7
    monkeypatch.undo()
    assert_same_path(model)


def test_batch_cap_bounds_the_memory_peak():
    # n = 1000: the path is its 1001 policies, under 1 MiB of masks, and a
    # batch of up to 2^16 operator entries (21 policies here) peaks at
    # 6.1 MiB; doubling without a cap reached 512 policies and 74 MiB
    n = 1000
    m = admission.ACModel(n, np.full(n + 1, 1.0), np.full(n, 1.3), np.arange(n + 1.0) ** 2, 0.1)
    rb = admission.uniformize(m)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        path = dp.charge_path(rb)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(path.policies) == n + 1
    assert peak <= 8 * 2**20


def test_a_policy_met_twice_is_an_internal_error(monkeypatch):
    # consistent lines per policy (each policy's values solve its own
    # Bellman equation) for one state, whose gap is nu when it is active
    # and 0.5 - nu when it is passive; at a value scale of 1e12 policy
    # iteration accepts gaps up to 1, so the walk turns the state passive
    # at charge 0 and back on at 0.5, where the active policy passes again
    big = 1e12
    on = (big, 0.0, big, -1.0, big, 0.0)         # (vh, vt, a0, b0, a1, b1)
    off = (big, 0.0, big, 0.0, big + 0.5, -1.0)
    calls = []

    def lines(model, active):
        calls.append(len(active))
        assert len(calls) < 50, "the walk cycles"
        return tuple(np.where(active, a, b) for a, b in zip(on, off))

    model = RBModel(np.ones((1, 1)), np.ones((1, 1)), np.zeros(1), np.zeros(1), np.ones(1), 0.5,
                    frozenset({0}))
    monkeypatch.setattr(dp, "_lines", lines)
    with pytest.raises(InternalConsistencyError,
                       match=r"^the charge path met a policy twice, at charge 0\.5$"):
        dp.charge_path(model)
    assert_same_path(model)
