"""Finite set systems (J, F) and the chain/boundary operations built on them.

A set system is a ground set J = {0, ..., n-1} together with an explicit
family F of subsets.  Priority orders whose suffix sets all belong to F
("full F-strings") are the combinatorial backbone of the index algorithms
in :mod:`pclindex.greedy`: the family encodes which active sets a policy
class is allowed to use (e.g. the nested family of threshold policies).

A member is known by its id, its position in the canonical order, and is
held only as its bit mask.  The members one element away from member i are
read off the layer one size smaller or larger (T is one size smaller and
inside S iff T | S == S as masks), so a step of the greedy walk down a
chain costs one mask test per member one size smaller: O(1) for the
threshold family, and at most |F| tests over a whole walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import StructureError, _is_level

FrozenSets = tuple[frozenset, ...]
# largest ground of the powerset family, whose 2^n members are all built: at n = 20 a PCL
# index over them took 9 s and 0.4 GB on a 2-CPU x86-64 host; each further element doubles both
POWERSET_MAX_GROUND = 20


def suffix_sets(seq: Sequence[int]) -> FrozenSets:
    """The suffix sets {seq[k], seq[k+1], ...} of a sequence, k = 0, 1, ..."""
    return tuple(frozenset(seq[k:]) for k in range(len(seq)))


def _is_size(n) -> bool:
    """Whether n is a ground set size: an integer >= 1, not a bool."""
    return _is_level(n, n) and n >= 1


@dataclass(frozen=True, init=False)
class SetSystem:
    """Ground set {0..n-1} plus an explicit family of subsets.

    The family is held as one bit mask per member, in a canonical order (by
    cardinality, then lexicographically); a member's id is its position in
    it, and the members of size k hold the ids ``_starts[k]:_starts[k + 1]``.
    Membership, both boundaries and the membership rows all read the one
    mask per id; equality and hashing go by (n, masks).  Instances are
    immutable and safe to share across threads.
    """

    n: int
    _masks: tuple[int, ...]   # also set: the dict _ids of mask -> id, and _starts

    def __init__(self, n: int, family: Iterable[Iterable[int]] = ()):
        if not _is_size(n):
            raise ValueError(f"ground set size must be an integer >= 1, got {n!r}")
        object.__setattr__(self, "n", n)
        members = {frozenset(s) for s in family}
        for s in members:
            ints = set(map(type, s)) <= {int}     # exactly int: a bool is refused
            if not ints or self._lookup(s) < 0:
                elems = sorted(s) if ints else list(s)
                raise ValueError(f"family member {elems} not a subset of 0..{n - 1}")
        self._hold(map(self._lookup, members))

    def _hold(self, masks: Iterable[int]) -> "SetSystem":
        """Store the distinct masks in canonical order; returns self."""
        n, order = self.n, sorted(set(masks), key=int.bit_count)
        starts = np.searchsorted([m.bit_count() for m in order], range(n + 2)).tolist()
        for lo, hi in zip(starts, starts[1:]):
            if hi - lo > 1:   # sorted(S) < sorted(T) iff the lowest bit of S ^ T is in S
                order[lo:hi] = sorted(order[lo:hi], key=lambda m: f"{m:0{n}b}"[::-1])[::-1]
        self.__dict__.update(_masks=tuple(order), _starts=tuple(starts),
                             _ids={m: i for i, m in enumerate(order)})
        return self

    @property
    def ground(self) -> frozenset:
        return frozenset(range(self.n))

    @property
    def family(self) -> FrozenSets:
        """The members as frozensets, in id order, built anew on each access: bind them once."""
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in self.rows(slice(None)))

    def member(self, i: int) -> frozenset:
        """Member i as a frozenset."""
        return frozenset(np.flatnonzero(self.rows(slice(i, i + 1))[0]).tolist())

    def __len__(self) -> int:
        return len(self._masks)

    def _lookup(self, s: frozenset) -> int:
        """The mask of s if it is a set of ground elements (True is 1), else -1."""
        elems = sorted(s) if set(map(type, s)) <= {int} else [j for j in range(self.n) if j in s]
        if len(elems) != len(s) or elems and not (0 <= elems[0] and elems[-1] < self.n):
            return -1
        k = len(elems)   # k distinct ints spanning k values are an interval: one shifted mask
        return (((1 << k) - 1) << elems[0] if k and elems[-1] - elems[0] == k - 1
                else sum(1 << j for j in elems))

    def __contains__(self, s: Iterable) -> bool:
        return self._lookup(frozenset(s)) in self._ids

    def member_id(self, s: Iterable) -> int:
        """The id of the member S, its position in ``family``; ValueError
        when S is not a member."""
        fs = frozenset(s)
        i = self._ids.get(self._lookup(fs))
        if i is None:
            raise ValueError(f"set {sorted(fs)} is not a member of the family")
        return i

    def neighbours(self, i: int, step: int) -> list[tuple[int, int]]:
        """The pairs (j, t), in id order, with member t equal to member i
        minus {j} (step -1) or plus {j} (step +1)."""
        m, masks, k = self._masks[i], self._masks, self._masks[i].bit_count() + step
        ids = range(self._starts[k], self._starts[k + 1]) if 0 <= k <= self.n else ()
        # a member one size away is a neighbour iff its union with S is the larger set
        return [((m ^ masks[t]).bit_length() - 1, t) for t in ids
                if m | masks[t] == (m if step < 0 else masks[t])]

    def rows(self, ids: slice) -> np.ndarray:
        """Boolean membership rows of the members ``ids``, one row of n per member."""
        width = (self.n + 7) // 8
        packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in self._masks[ids]),
                               np.uint8)
        return np.unpackbits(packed.reshape(-1, width), axis=1, count=self.n,
                             bitorder="little").view(bool)

    def inner_boundary(self, s: Iterable) -> frozenset:
        """Elements j of S whose removal stays in the family: {j in S : S\\{j} in F}."""
        return frozenset(j for j, _ in self.neighbours(self.member_id(s), -1))

    def outer_boundary(self, s: Iterable) -> frozenset:
        """Elements j outside S whose addition stays in the family: {j not in S : S+{j} in F}."""
        return frozenset(j for j, _ in self.neighbours(self.member_id(s), 1))

    def is_full_string(self, pi: Sequence[int]) -> bool:
        """True iff every suffix set {pi_k, ..., pi_n} belongs to the family."""
        return all(s in self for s in self.suffix_chain(pi))

    def suffix_chain(self, pi: Sequence[int]) -> FrozenSets:
        """The nested sets S_1 > S_2 > ... > S_n of a priority order (S_1 = J)."""
        if sorted(pi) != list(range(self.n)):
            raise ValueError(f"{tuple(pi)} is not a permutation of 0..{self.n - 1}")
        return suffix_sets(pi)


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
    outer boundary.  Returns the first violating set, in id order, of the
    first failed condition, if any.  A member stops at its first neighbour,
    probing its lowest element first to drop, its highest missing one to add.
    """
    if not len(sys):
        raise ValueError("family is empty")
    has_empty, full, ids = frozenset() in sys, (1 << sys.n) - 1, sys._ids
    for access in (True, False):
        for i, m in enumerate(sys._masks):
            r = m if access else full ^ m   # the elements to drop, or to add, not yet probed
            while r and m ^ (b := r & -r if access else 1 << r.bit_length() - 1) not in ids:
                r ^= b
            if not r and m != (0 if access else full):
                return ValidationReport(has_empty, not access, access, sys.member(i))
    return ValidationReport(has_empty, True, True)


def threshold_family(n: int) -> SetSystem:
    """Nested family {S_1, ..., S_{n+1}} with S_k = {k-1, ..., n-1}, S_{n+1} = {}.

    These are the feasible rejection sets of a threshold policy on a
    buffer of size n: shutting the gate at occupancy j shuts it at all
    higher occupancies too.
    """
    if not _is_size(n):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return SetSystem(n)._hold((1 << n) - (1 << k) for k in range(n + 1))


def powerset_family(n: int) -> SetSystem:
    """The unrestricted family 2^J, for a ground of at most
    ``POWERSET_MAX_GROUND`` elements."""
    if not _is_size(n):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if n > POWERSET_MAX_GROUND:
        raise ValueError(f"the powerset family of {n} elements has 2^{n} members; "
                         f"at most {POWERSET_MAX_GROUND} elements are supported")
    return SetSystem(n)._hold(range(1 << n))


def product(systems: Sequence[SetSystem]) -> SetSystem:
    """Combine component systems on disjoint relabeled grounds.

    Component k's elements are shifted past those of components 0..k-1,
    so the grounds are stacked consecutively and tile 0..n-1, and the
    family of the product consists of all unions of one member per
    component.  The product of valid systems is valid.
    """
    if not systems:
        raise ValueError("need at least one component system")
    offsets = itertools.accumulate((s.n for s in systems[:-1]), initial=0)
    shifted = [[m << off for m in sys_k._masks] for sys_k, off in zip(systems, offsets)]
    return SetSystem(sum(s.n for s in systems))._hold(map(sum, itertools.product(*shifted)))


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

    def descend(i: int):
        if not sys._masks[i]:
            out.append(tuple(prefix))
            return
        for j, t in sorted(sys.neighbours(i, -1)):
            prefix.append(j)
            descend(t)
            prefix.pop()

    descend(sys.member_id(sys.ground))
    return out


def require_valid(sys: SetSystem) -> None:
    """Raise StructureError unless the system passes all three conditions,
    naming every failed one; the violating set is the access or
    augmentation witness."""
    report = validate(sys)
    if not report.valid:
        what = "; ".join(fault for fault, ok in (("missing empty set", report.has_empty),
                                                 ("not accessible", report.accessible),
                                                 ("not augmentable", report.augmentable)) if not ok)
        bad = sorted(report.violating_set) if report.violating_set is not None else None
        raise StructureError(f"set system invalid: {what} (violating set: {bad})")
