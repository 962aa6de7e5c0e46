"""Join-semilattice values and CRDT set types.

Every type in this module is a value with a least element (``bottom``), a
merge that is associative, commutative, and idempotent (ACI), and the
induced partial order ``a leq b  iff  merge(a, b) == b``.  Merges are pure:
they return new values and never mutate their operands, so values are safe
to copy between workers and to re-deliver arbitrarily often.

Owner state that its program never sends or shares may grow in place:
:meth:`LMap.merge_in` merges a delta into a map's own entries, all or
nothing, and programs keep mutable state that grows by union: the owners'
batch maps (first id to batch) and implementation B's capped id sets.
Every value that travels or is compared across workers is a pure value.

The one deliberate exception to the laws is :class:`ThresholdLSet`, whose
merge stops growing once the receiving operand reaches its threshold.  That
sacrifices commutativity; only the predicate ``size >= threshold`` is
order-invariant.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping

from .errors import LatticeLawError, LatticeTypeError, ThresholdMismatchError


class LatticeValue:
    """Contract shared by every lattice type.

    Subclasses supply ``bottom()`` and ``merge(other)``; ``leq`` is derived
    from the merge.
    """

    __slots__ = ()

    @classmethod
    def bottom(cls) -> "LatticeValue":
        raise NotImplementedError

    def merge(self, other: "LatticeValue") -> "LatticeValue":
        raise NotImplementedError

    def leq(self, other: "LatticeValue") -> bool:
        return merge(self, other) == other


def merge(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    """Merge two values of the same lattice type."""
    if type(a) is not type(b):
        raise LatticeTypeError(
            f"cannot merge {type(a).__name__} with {type(b).__name__}"
        )
    return a.merge(b)


# ---------------------------------------------------------------------------
# Basic lattices


@dataclass(frozen=True)
class LMax(LatticeValue):
    """Monotonically increasing integer; merge takes the maximum.

    ``value=None`` is the least element (identity for max).
    """

    value: int | None = None

    @classmethod
    def bottom(cls) -> "LMax":
        return cls()

    def merge(self, other: "LMax") -> "LMax":
        if self.value is None:
            return other
        if other.value is None:
            return self
        return LMax(max(self.value, other.value))


@dataclass(frozen=True)
class LMap(LatticeValue):
    """Map from key to lattice value; merge is pointwise.

    An absent key behaves as the value lattice's bottom, so keys union and
    values merge per key.
    """

    entries: Mapping[Any, LatticeValue] = field(default_factory=dict)

    @classmethod
    def bottom(cls) -> "LMap":
        return cls()

    def merge(self, other: "LMap") -> "LMap":
        out = LMap(dict(self.entries))
        out.merge_in(other)
        return out

    def merge_in(self, delta: "LMap") -> bool:
        """Merge ``delta`` into this map in place; True if the map changed.

        One pass over the delta, O(delta), looks each key up once.  A shared
        key merges as ``merge(current, value)``, so a receiver-side guard
        such as :class:`ThresholdLSet`'s reads this map's value.  New and
        changed values are staged, then applied by one ``dict.update``: new
        keys go last in delta order, an unchanged key keeps its stored
        object, and a merge that raises leaves the map as it was.  The delta
        is never mutated; values stored from it are shared, not copied.
        """
        if type(delta) is not LMap:
            raise LatticeTypeError(
                f"cannot merge {type(delta).__name__} into LMap")
        entries = self.entries
        if not entries:  # a scratch table at every inject and rule merge
            entries.update(delta.entries)
            return bool(delta.entries)
        staged = {}  # each new key's value and each changed key's merge
        for key, value in delta.entries.items():
            if (cur := entries.get(key)) is None:
                staged[key] = value
            elif cur is not value:  # merge is idempotent: skip a redelivery
                if type(cur) is not type(value):
                    raise LatticeTypeError(f"cannot merge {type(cur).__name__}"
                                           f" with {type(value).__name__}")
                if (new := cur.merge(value)) != cur:
                    staged[key] = new
        entries.update(staged)
        return bool(staged)

    def get(self, key, default=None):
        return self.entries.get(key, default)


@dataclass(frozen=True, slots=True)
class ThresholdLSet(LatticeValue):
    """Grow-only set that stops absorbing once it holds ``threshold`` elements.

    merge(a, b) is union while ``len(a) < threshold`` and ``a`` unchanged
    otherwise.  The guard reads the left (receiving) operand, so the merge is
    deliberately not commutative.  Two facts survive any merge order:

    - below the threshold the set is exact (all unions apply), and
    - ``len(result) >= threshold`` iff the true distinct count is.
    """

    elems: frozenset = frozenset()
    threshold: int = 1

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be a positive integer")

    @classmethod
    def bottom(cls, threshold: int = 1) -> "ThresholdLSet":
        return cls(frozenset(), threshold)

    def merge(self, other: "ThresholdLSet") -> "ThresholdLSet":
        if self.threshold != other.threshold:
            raise ThresholdMismatchError(
                f"threshold mismatch: {self.threshold} != {other.threshold}"
            )
        if len(self.elems) < self.threshold:
            return ThresholdLSet(self.elems | other.elems, self.threshold)
        return self

    def __len__(self) -> int:
        return len(self.elems)


# ---------------------------------------------------------------------------
# CRDT sets


class GSet(frozenset, LatticeValue):
    """Grow-only set of opaque elements: insertion only, merge is union.

    A ``frozenset`` subclass built in one allocation from any iterable.  It
    equals a frozenset of the same elements; :func:`merge` rejects mixing.
    """

    __slots__ = ()

    @classmethod
    def bottom(cls) -> "GSet":
        return cls()

    @classmethod
    def of(cls, elems: Iterable) -> "GSet":
        return cls(elems)

    @property
    def elems(self) -> frozenset:
        return self

    def add(self, elem) -> "GSet":
        return GSet(self | {elem})

    def merge(self, other: "GSet") -> "GSet":
        return GSet(self | other)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


@dataclass(frozen=True, order=True)
class Timestamp:
    """Logical timestamp: per-worker monotone counter, worker id tiebreak.

    The lexicographic (time, tiebreak) order is total, and two distinct
    workers can never produce equal timestamps.
    """

    time: int
    tiebreak: int = 0


@dataclass(frozen=True)
class _AddRemove(LatticeValue):
    """Add entries in ``pos`` and remove entries in ``neg``; merge is the
    union of each.  Subclasses decide what the entries are and how a read
    resolves them."""

    pos: frozenset = frozenset()
    neg: frozenset = frozenset()

    @classmethod
    def bottom(cls):
        return cls()

    def merge(self, other):
        return type(self)(self.pos | other.pos, self.neg | other.neg)


def _latest(entries: Iterable[tuple], rank: Callable) -> dict:
    """Each key's entry of largest ``rank(entry)``; an entry's key is its
    first field.  The result does not depend on iteration order as long as
    no two entries of one key have equal ranks."""
    out: dict = {}
    for entry in entries:
        key = entry[0]
        if key not in out or rank(entry) > rank(out[key]):
            out[key] = entry
    return out


class TwoPSet(_AddRemove):
    """Two-phase set: ``pos`` holds added elements, ``neg`` tombstones.

    An element is a member iff it is in ``pos`` and not in ``neg``; once an
    element lands in ``neg`` it can never be a member again.
    """

    def add(self, elem) -> "TwoPSet":
        return TwoPSet(self.pos | {elem}, self.neg)

    def remove(self, elem) -> "TwoPSet":
        return TwoPSet(self.pos, self.neg | {elem})

    def read(self) -> frozenset:
        return self.pos - self.neg


class LWWSet(_AddRemove):
    """Last-writer-wins set: ``(elem, Timestamp)`` add and remove entries.

    An element is a member iff its latest add is later than its latest
    remove.
    """

    def add(self, elem, ts: Timestamp) -> "LWWSet":
        return LWWSet(self.pos | {(elem, ts)}, self.neg)

    def remove(self, elem, ts: Timestamp) -> "LWWSet":
        return LWWSet(self.pos, self.neg | {(elem, ts)})

    def read(self) -> frozenset:
        ts = itemgetter(1)
        removed = _latest(self.neg, ts)
        return frozenset(elem for elem, add in _latest(self.pos, ts).items()
                         if elem not in removed or add[1] > removed[elem][1])


@dataclass(frozen=True)
class VersionVector:
    """Per-worker event counters; the partial order of causality."""

    counters: tuple = ()  # sorted tuple of (worker_id, count)

    @classmethod
    def of(cls, counts: Mapping[int, int]) -> "VersionVector":
        return cls(tuple(sorted((w, c) for w, c in counts.items() if c)))

    def get(self, worker: int) -> int:
        for w, c in self.counters:
            if w == worker:
                return c
        return 0

    def leq(self, other: "VersionVector") -> bool:
        return all(c <= other.get(w) for w, c in self.counters)

    def bump(self, worker: int) -> "VersionVector":
        counts = dict(self.counters)
        counts[worker] = counts.get(worker, 0) + 1
        return VersionVector.of(counts)


class MVSet(_AddRemove):
    """Multi-value set: ``(elem, VersionVector)`` add and remove entries.

    Concurrent (causally incomparable) writes are all retained.  A version of
    an element is live unless some remove entry causally dominates it; a read
    surfaces all maximal live versions per element rather than guessing a
    winner.
    """

    def add(self, elem, vv: VersionVector) -> "MVSet":
        return MVSet(self.pos | {(elem, vv)}, self.neg)

    def remove(self, elem, vv: VersionVector) -> "MVSet":
        return MVSet(self.pos, self.neg | {(elem, vv)})

    def read(self) -> dict:
        removed: dict = {}
        for elem, vv in self.neg:
            removed.setdefault(elem, []).append(vv)
        live: dict = {}
        for elem, vv in self.pos:
            if any(vv.leq(rm) for rm in removed.get(elem, ())):
                continue
            live.setdefault(elem, []).append(vv)
        out = {}
        for elem, versions in live.items():
            maximal = [
                v for v in versions
                if not any(v is not w and v.leq(w) and v != w for w in versions)
            ]
            out[elem] = frozenset(maximal)
        return out


class LWWTokenSet(_AddRemove):
    """Two-phase set over (token, use) identifiers with LWW liveness.

    Restores full set semantics on top of tombstones: add, remove,
    add-after-remove, and update all work without reading remote state.
    An insert records ``(token, use, ts, payload)`` in ``pos``; a removal
    records ``(token, ts)`` in ``neg`` with a later timestamp.  A token is
    live iff its latest insert timestamp beats its latest removal timestamp,
    and a read reports the payload of the latest insert.  Of two inserts of
    one token at equal timestamps, the one with the larger use id is the
    latest, so a read does not depend on set iteration order.
    """

    def insert(self, token, use, ts: Timestamp, payload) -> "LWWTokenSet":
        """Record a new use of ``token``; no remote read required."""
        return LWWTokenSet(self.pos | {(token, use, ts, payload)}, self.neg)

    def remove(self, token, ts: Timestamp) -> "LWWTokenSet":
        """Tombstone ``token`` as of ``ts``; no remote read required."""
        return LWWTokenSet(self.pos, self.neg | {(token, ts)})

    def read(self) -> dict:
        removed = _latest(self.neg, itemgetter(1))
        return {token: payload
                for token, (_, _use, ts, payload)
                in _latest(self.pos, itemgetter(2, 1)).items()
                if token not in removed or ts > removed[token][1]}


# ---------------------------------------------------------------------------
# Custom lattices


def check_merge_laws(merge_fn: Callable, samples: Iterable) -> None:
    """Reject a candidate merge that breaks ACI on the given samples.

    Idempotence is what rules out the tempting sum-as-merge; commutativity
    and associativity are probed on sample pairs/triples.
    """
    samples = list(samples)
    for x in samples:
        if merge_fn(x, x) != x:
            raise LatticeLawError(f"merge is not idempotent on {x!r}")
    for x in samples:
        for y in samples:
            if merge_fn(x, y) != merge_fn(y, x):
                raise LatticeLawError(
                    f"merge is not commutative on {x!r}, {y!r}"
                )
    for x, y, z in zip(samples, samples[1:], samples[2:]):
        if merge_fn(merge_fn(x, y), z) != merge_fn(x, merge_fn(y, z)):
            raise LatticeLawError(
                f"merge is not associative on {x!r}, {y!r}, {z!r}"
            )


def custom_lattice(name: str, bottom_value, merge_fn: Callable, samples=()):
    """Build a lattice class from a raw merge function.

    The merge is checked against the ACI laws on ``samples`` at construction
    time; a non-idempotent merge (e.g. sum) is rejected immediately.
    """
    check_merge_laws(merge_fn, samples)

    @dataclass(frozen=True)
    class _Custom(LatticeValue):
        value: Any = bottom_value

        @classmethod
        def bottom(cls):
            return cls(bottom_value)

        def merge(self, other):
            return _Custom(merge_fn(self.value, other.value))

    _Custom.__name__ = _Custom.__qualname__ = name
    return _Custom
