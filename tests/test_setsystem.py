import itertools
import tracemalloc

import numpy as np
import pytest

from pclindex import setsystem
from pclindex.errors import StructureError
from pclindex.setsystem import (SetSystem, enumerate_full_strings, powerset_family,
                                product, require_valid, threshold_family, validate)

from conftest import random_valid_family


def brute_force_validate(sys: SetSystem):
    """Independent re-statement of the three structural conditions."""
    members = set(sys.family)
    has_empty = frozenset() in members
    accessible = all(
        any(s - {j} in members for j in s) for s in members if s)
    augmentable = all(
        any(s | {j} in members for j in sys.ground - s)
        for s in members if s != sys.ground)
    return has_empty, accessible, augmentable


# a bool is an int subclass that hashes as 0 or 1: {True} was member {1}
@pytest.mark.parametrize("bad", [{0.5}, {"a"}, {1, "a"}, {-1}, {3}, {0, 3}, {None}, {True},
                                 {0, True}])
def test_members_must_be_int_subsets_of_the_ground(bad):
    with pytest.raises(ValueError, match="not a subset of 0..2"):
        SetSystem(3, (frozenset(), frozenset(bad)))


# sets given to member_id and `in`: members, and sets that are not sets of
# ground elements; True, 1.0 and np.int64(2) equal 1, 1 and 2 under frozenset lookup
PROBES = [set(), {0}, {1}, {2}, {3}, {0, 2}, {1, 2}, {0, 1, 2}, {True}, {False, 2}, {1.0},
          {np.int64(2)}, {0.5}, {"a"}, {1, "a"}, {None}, {-1}, {-1, 0}, {0, 3}, {0, 1, 2, 3},
          [2, 1], (1, 2, 2), range(3)]


def outcome(call, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("members", [
    [(), (2,), (1, 2), (0, 1, 2)],
    [{0, 1, 2}, [2, 0], set(), [1], (0,), {0, 1}, [2]],
    [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2], [1, 0]],
    [[2, 0, 1], [1], [], (1, 2)],
], ids=["threshold", "shuffled", "powerset", "no-middle"])
def test_lookups_match_a_frozenset_brute_force(members):
    # the systems hold masks only; member, member_id, `in`, == and hash
    # answer as a sorted list of frozensets would
    sys = SetSystem(3, members)
    canon = sorted({frozenset(s) for s in members}, key=lambda s: (len(s), sorted(s)))

    def brute_id(s):
        fs = frozenset(s)
        if fs not in canon:
            raise ValueError(f"set {sorted(fs)} is not a member of the family")
        return canon.index(fs)

    assert [sys.member(i) for i in range(len(sys))] == list(sys.family) == canon
    for probe in PROBES:
        assert (probe in sys) == (frozenset(probe) in canon)
        assert outcome(sys.member_id, probe) == outcome(brute_id, probe)
    same = SetSystem(3, reversed([sorted(s, reverse=True) for s in canon]))
    assert same == sys and hash(same) == hash(sys) and same.family == sys.family
    for other in (SetSystem(3, canon[1:]), SetSystem(4, canon), threshold_family(2)):
        assert other != sys and (other.n, other.family) != (sys.n, sys.family)


def test_threshold_family_builds_no_member_sets():
    # its n + 1 members are masks: 2000 suffix frozensets peaked at 204 MB
    tracemalloc.start()
    try:
        sys = threshold_family(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert len(sys) == 2001 and sys.member(1) == {1999}


def test_layer_masks_and_canonical_order():
    members = [frozenset(s) for s in ({4, 5, 6}, {0, 2}, set(), {1}, {0, 1, 2, 3, 4, 5, 6},
                                      {0, 6}, {2, 3})]
    sys = SetSystem(7, tuple(members))
    assert sys.family == tuple(sorted(members, key=lambda s: (len(s), sorted(s))))
    for i, s in enumerate(sys.family):
        assert sys.member_id(s) == i and sys._masks[i] == sum(1 << j for j in s)
    assert sys.rows(slice(2, 2)).shape == (0, 7)


def test_validate_smallest_violating_case():
    report = validate(SetSystem(1, (frozenset(),)))
    assert not report.valid
    assert not report.augmentable
    assert report.violating_set == frozenset()


def test_validate_singleton_family_valid():
    assert validate(SetSystem(1, (frozenset(), frozenset({0})))).valid


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_threshold_family_valid_by_enumeration(n):
    sys = threshold_family(n)
    assert brute_force_validate(sys) == (True, True, True)
    assert validate(sys).valid


def test_validate_reports_missing_empty_set():
    report = validate(SetSystem(2, (frozenset({1}), frozenset({0, 1}))))
    assert not report.has_empty and not report.valid


def test_inner_boundary_powerset_is_whole_set():
    sys = powerset_family(2)
    assert sys.inner_boundary({0, 1}) == frozenset({0, 1})


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (5, 4)])
def test_inner_boundary_threshold_is_lowest_element(n, k):
    sys = threshold_family(n)
    s_k = frozenset(range(k - 1, n))
    assert sys.inner_boundary(s_k) == frozenset({k - 1})


def test_inner_boundary_by_removal_enumeration():
    sys = SetSystem(2, (frozenset(), frozenset({0}), frozenset({0, 1})))
    assert sys.inner_boundary({0, 1}) == frozenset({1})


def test_boundary_rejects_nonmember():
    sys = threshold_family(3)
    with pytest.raises(ValueError):
        sys.inner_boundary({0})
    with pytest.raises(ValueError):
        sys.outer_boundary({0, 2})


def test_outer_boundary_powerset():
    assert powerset_family(2).outer_boundary(frozenset()) == frozenset({0, 1})


def test_outer_boundary_threshold_empty_set():
    for n in (1, 2, 4):
        assert threshold_family(n).outer_boundary(frozenset()) == frozenset({n - 1})


def test_outer_boundary_by_addition_enumeration():
    sys = SetSystem(2, (frozenset(), frozenset({0}), frozenset({0, 1})))
    assert sys.outer_boundary({0}) == frozenset({1})


def test_full_string_threshold():
    sys = threshold_family(3)
    assert not sys.is_full_string((2, 1, 0))
    assert sys.is_full_string((0, 1, 2))


def test_full_string_powerset_all_permutations():
    sys = powerset_family(3)
    assert all(sys.is_full_string(p) for p in itertools.permutations(range(3)))


def test_full_string_rejects_non_permutation():
    with pytest.raises(ValueError):
        threshold_family(3).is_full_string((0, 1, 1))


@pytest.mark.parametrize("n,expected", [
    (1, {frozenset(), frozenset({0})}),
    (2, {frozenset(), frozenset({1}), frozenset({0, 1})}),
    (3, {frozenset(), frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2})}),
])
def test_threshold_family_members(n, expected):
    assert set(threshold_family(n).family) == expected


def test_threshold_family_rejects_zero():
    with pytest.raises(ValueError):
        threshold_family(0)


@pytest.mark.parametrize("build, n, message", [
    (lambda n: SetSystem(n, ()), 1.5, "ground set size must be"),
    (lambda n: SetSystem(n, ()), True, "ground set size must be"),
    (threshold_family, 2.5, "n must be"),
    (threshold_family, True, "n must be"),
    (powerset_family, 3.0, "n must be"),
], ids=["system-fraction", "system-bool", "threshold-fraction", "threshold-bool",
        "powerset-float"])
def test_ground_size_must_be_an_integer(build, n, message):
    # a float failed in range() with a bare TypeError, and True built a one-element system
    with pytest.raises(ValueError, match=message):
        build(n)


def test_powerset_refuses_a_ground_past_its_limit(monkeypatch):
    # 2^n members: the limit is checked before any is built
    with pytest.raises(ValueError, match=r"^the powerset family of 21 elements has 2\^21 "):
        powerset_family(setsystem.POWERSET_MAX_GROUND + 1)
    monkeypatch.setattr(setsystem, "POWERSET_MAX_GROUND", 3)
    assert len(powerset_family(3)) == 8
    with pytest.raises(ValueError, match="at most 3 elements are supported"):
        powerset_family(4)


def test_product_of_two_singletons():
    one = SetSystem(1, (frozenset(), frozenset({0})))
    joint = product([one, one])
    assert set(joint.family) == {frozenset(), frozenset({0}), frozenset({1}),
                                 frozenset({0, 1})}


def test_product_cardinality_multiplies():
    joint = product([threshold_family(2), threshold_family(1)])
    assert len(joint.family) == 3 * 2
    assert validate(joint).valid


def test_product_single_system_is_identity():
    sys = threshold_family(3)
    assert product([sys]).family == sys.family


def test_enumerate_full_strings_threshold_unique():
    assert enumerate_full_strings(threshold_family(3)) == [(0, 1, 2)]


def test_enumerate_full_strings_powerset_counts_all():
    assert len(enumerate_full_strings(powerset_family(3))) == 6


def test_enumerate_full_strings_two_chains():
    sys = SetSystem(2, (frozenset(), frozenset({0}), frozenset({1}),
                        frozenset({0, 1})))
    assert set(enumerate_full_strings(sys)) == {(0, 1), (1, 0)}


def test_enumerate_full_strings_cap():
    with pytest.raises(ValueError):
        enumerate_full_strings(threshold_family(12))
    assert enumerate_full_strings(threshold_family(12), cap=12)


def test_accessibility_walk_reaches_empty_set(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        sys = random_valid_family(rng, n)
        s = sys.ground
        steps = 0
        while s:
            boundary = sys.inner_boundary(s)
            assert boundary
            s = s - {min(boundary)}
            steps += 1
            assert steps <= n
        assert s == frozenset()


def test_full_string_chain_strictly_nested(rng):
    for _ in range(10):
        sys = random_valid_family(rng, int(rng.integers(2, 7)))
        for pi in enumerate_full_strings(sys)[:20]:
            chain = sys.suffix_chain(pi)
            for a, b in zip(chain, chain[1:]):
                assert b < a


def test_product_of_random_valid_systems_is_valid(rng):
    for _ in range(15):
        parts = [random_valid_family(rng, int(rng.integers(1, 4)))
                 for _ in range(int(rng.integers(2, 4)))]
        assert validate(product(parts)).valid


def test_threshold_unique_full_string_for_all_n():
    for n in range(1, 9):
        assert enumerate_full_strings(threshold_family(n)) == [tuple(range(n))]


def test_require_valid_raises_with_witness():
    with pytest.raises(StructureError):
        require_valid(SetSystem(2, (frozenset(), frozenset({0, 1}))))


def test_require_valid_names_every_fault_with_its_witness():
    # without the empty set the singleton {1} is inaccessible too: the
    # witness belongs to that fault, not to the missing empty set
    with pytest.raises(StructureError, match=r"^set system invalid: missing empty set; "
                                             r"not accessible \(violating set: \[1\]\)$"):
        require_valid(SetSystem(2, (frozenset({1}), frozenset({0, 1}))))
    with pytest.raises(StructureError, match=r": not augmentable \(violating set: \[\]\)$"):
        require_valid(SetSystem(1, (frozenset(),)))
