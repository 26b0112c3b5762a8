"""Finite set systems (J, F) and the chain/boundary operations built on them.

A set system is a ground set J = {0, ..., n-1} together with an explicit
family F of subsets.  Priority orders whose suffix sets all belong to F
("full F-strings") are the combinatorial backbone of the index algorithms
in :mod:`pclindex.greedy`: the family encodes which active sets a policy
class is allowed to use (e.g. the nested family of threshold policies).

The family is indexed by cardinality, each member with its bit mask, so
the inner boundary of S is read off the members one size smaller (T is
one of them iff T | S == S as masks).  A step of the greedy walk down a
chain thus costs one mask test per member one size smaller: O(1) for
the threshold family, and at most |F| tests over a whole walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import StructureError

FrozenSets = tuple[frozenset, ...]


@dataclass(frozen=True)
class SetSystem:
    """Ground set {0..n-1} plus an explicit family of subsets.

    The family is stored in a canonical order (by cardinality, then
    lexicographically) so iteration is deterministic; layer k of the
    private index maps each member of size k to its bit mask, and
    membership and both boundaries go through it.  Instances are
    immutable and safe to share across threads.
    """

    n: int
    family: FrozenSets = field(default=())
    _layers: tuple[dict[frozenset, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ground set size must be >= 1, got {self.n}")
        members = {frozenset(s) for s in self.family}
        for s in members:
            if not all(isinstance(j, int) and 0 <= j < self.n for j in s):
                raise ValueError(f"family member {sorted(s)} not a subset of 0..{self.n - 1}")
        layers = tuple({} for _ in range(self.n + 1))
        for s in sorted(members, key=lambda s: (len(s), sorted(s))):
            layers[len(s)][s] = sum(1 << j for j in s)
        object.__setattr__(self, "family", tuple(s for layer in layers for s in layer))
        object.__setattr__(self, "_layers", layers)

    @property
    def ground(self) -> frozenset:
        return frozenset(range(self.n))

    def __contains__(self, s: Iterable) -> bool:
        fs = frozenset(s)
        return len(fs) <= self.n and fs in self._layers[len(fs)]

    def _neighbours(self, s: Iterable, step: int) -> tuple[int, Iterable[int]]:
        """Bit mask of the member S and the masks of the members of size
        |S| + step; ValueError when S is not a member."""
        fs = frozenset(s)
        k = len(fs)
        m = self._layers[k].get(fs) if k <= self.n else None
        if m is None:
            raise ValueError(f"set {sorted(fs)} is not a member of the family")
        return m, self._layers[k + step].values() if 0 <= k + step <= self.n else ()

    def inner_boundary(self, s: Iterable) -> frozenset:
        """Elements j of S whose removal stays in the family: {j in S : S\\{j} in F}."""
        m, inner = self._neighbours(s, -1)
        return frozenset((m ^ t).bit_length() - 1 for t in inner if t | m == m)

    def outer_boundary(self, s: Iterable) -> frozenset:
        """Elements j outside S whose addition stays in the family: {j not in S : S+{j} in F}."""
        m, outer = self._neighbours(s, 1)
        return frozenset((m ^ t).bit_length() - 1 for t in outer if t & m == m)

    def is_full_string(self, pi: Sequence[int]) -> bool:
        """True iff every suffix set {pi_k, ..., pi_n} belongs to the family."""
        return all(s in self for s in self.suffix_chain(pi))

    def suffix_chain(self, pi: Sequence[int]) -> list[frozenset]:
        """The nested sets S_1 > S_2 > ... > S_n of a priority order (S_1 = J)."""
        if sorted(pi) != list(range(self.n)):
            raise ValueError(f"{tuple(pi)} is not a permutation of 0..{self.n - 1}")
        return [frozenset(pi[k:]) for k in range(self.n)]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the three structural conditions on (J, F)."""

    has_empty: bool
    accessible: bool
    augmentable: bool
    violating_set: frozenset | None = None

    @property
    def valid(self) -> bool:
        return self.has_empty and self.accessible and self.augmentable


def validate(sys: SetSystem) -> ValidationReport:
    """Check that F contains the empty set, is accessible and augmentable.

    Accessible: every nonempty member has a nonempty inner boundary.
    Augmentable: every member other than the ground set has a nonempty
    outer boundary.  Returns the first violating set found, if any.
    """
    if not sys.family:
        raise ValueError("family is empty")
    has_empty = frozenset() in sys
    for s in sys.family:
        if s and not sys.inner_boundary(s):
            return ValidationReport(has_empty, False, True, violating_set=s)
    for s in sys.family:
        if len(s) < sys.n and not sys.outer_boundary(s):
            return ValidationReport(has_empty, True, False, violating_set=s)
    return ValidationReport(has_empty, True, True)


def threshold_family(n: int) -> SetSystem:
    """Nested family {S_1, ..., S_{n+1}} with S_k = {k-1, ..., n-1}, S_{n+1} = {}.

    These are the feasible rejection sets of a threshold policy on a
    buffer of size n: shutting the gate at occupancy j shuts it at all
    higher occupancies too.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sets = [frozenset(range(k - 1, n)) for k in range(1, n + 1)] + [frozenset()]
    return SetSystem(n, tuple(sets))


def powerset_family(n: int) -> SetSystem:
    """The unrestricted family 2^J."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    members = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    return SetSystem(n, tuple(members))


def product(systems: Sequence[SetSystem], offsets: Sequence[int] | None = None) -> SetSystem:
    """Combine component systems on disjoint relabeled grounds.

    Component k's elements are shifted by ``offsets[k]`` (default: stacked
    consecutively), and the family of the product consists of all unions of
    one member per component.  The product of valid systems is valid.
    """
    if not systems:
        raise ValueError("need at least one component system")
    if offsets is None:
        offsets = []
        acc = 0
        for s in systems:
            offsets.append(acc)
            acc += s.n
    if len(offsets) != len(systems):
        raise ValueError("offsets and systems must have equal length")
    ranges = []
    for sys_k, off in zip(systems, offsets):
        ranges.append(set(range(off, off + sys_k.n)))
    for a, b in itertools.combinations(ranges, 2):
        if a & b:
            raise ValueError("component ground sets overlap after relabeling")
    total = set().union(*ranges)
    if total != set(range(len(total))):
        raise ValueError("relabeled grounds must tile 0..n-1 with no gaps")

    shifted = [
        [frozenset(j + off for j in s) for s in sys_k.family]
        for sys_k, off in zip(systems, offsets)
    ]
    members = [frozenset().union(*combo) for combo in itertools.product(*shifted)]
    return SetSystem(len(total), tuple(members))


def enumerate_full_strings(sys: SetSystem, cap: int = 10) -> list[tuple[int, ...]]:
    """All permutations of the ground set whose suffix chain lies in F.

    Walks down from J, peeling one inner-boundary element at a time, so the
    cost is proportional to the number of feasible chains rather than n!.
    The ground-set size is capped (default 10) to bound worst-case blowup.
    """
    if sys.n > cap:
        raise ValueError(f"ground set size {sys.n} exceeds cap {cap}")
    if sys.ground not in sys:
        return []
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def descend(s: frozenset):
        if not s:
            out.append(tuple(prefix))
            return
        for j in sorted(sys.inner_boundary(s)):
            prefix.append(j)
            descend(s - {j})
            prefix.pop()

    descend(sys.ground)
    return out


def require_valid(sys: SetSystem) -> None:
    """Raise StructureError unless the system passes all three conditions."""
    report = validate(sys)
    if not report.valid:
        what = "missing empty set" if not report.has_empty else (
            "not accessible" if not report.accessible else "not augmentable")
        bad = sorted(report.violating_set) if report.violating_set is not None else None
        raise StructureError(f"set system invalid: {what} (violating set: {bad})")
