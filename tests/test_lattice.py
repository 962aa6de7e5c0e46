import dataclasses
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from calmsim import lattice
from calmsim.errors import LatticeLawError, LatticeTypeError, ThresholdMismatchError
from calmsim.lattice import (GSet, LMap, LMax, LWWSet, LWWTokenSet, MVSet,
                             ThresholdLSet, Timestamp, TwoPSet, VersionVector,
                             custom_lattice, merge)

from conftest import run_python
from helpers import LAW_TYPES, random_map, random_value


# -- basic merges -----------------------------------------------------------


def test_gset_merge_is_union():
    assert merge(GSet.of([1, 2]), GSet.of([2, 3])) == GSet.of([1, 2, 3])


def test_lmax_merge_is_max():
    assert merge(LMax(5), LMax(3)) == LMax(5)
    assert merge(LMax.bottom(), LMax(3)) == LMax(3)


def test_merge_rejects_mixed_types():
    with pytest.raises(LatticeTypeError):
        merge(GSet.of([1]), ThresholdLSet(frozenset([1]), 3))


def test_gset_builds_and_returns_gsets():
    one = GSet.of([1])
    for value in (one.merge(GSet([2])), one.add(2), GSet.of(iter([1, 2])),
                  GSet.bottom()):
        assert type(value) is GSet
    made = [GSet([2, 1]), GSet(iter([1, 2])), GSet(frozenset([1, 2]))]
    assert made[0] == made[1] == made[2]
    assert len({hash(g) for g in made}) == 1
    assert made[0].elems == {1, 2} and 1 in made[0] and len(made[0]) == 2
    # Equal to a frozenset of the same elements, yet merge rejects mixing.
    assert GSet([1]) == frozenset([1])
    for other in (ThresholdLSet(frozenset([1]), 3), LMax(1), frozenset([1])):
        for a, b in ((GSet([1]), other), (other, GSet([1]))):
            with pytest.raises(LatticeTypeError):
                merge(a, b)


@pytest.mark.parametrize("kind", LAW_TYPES, ids=lambda t: t.__name__)
def test_merge_idempotent_on_random_values(kind):
    rng = random.Random(hash(kind.__name__) & 0xFFFF)
    for _ in range(50):
        x = random_value(kind, rng)
        assert merge(x, x) == x


@given(st.sets(st.integers()), st.sets(st.integers()), st.sets(st.integers()))
def test_gset_aci_hypothesis(a, b, c):
    ga, gb, gc = GSet.of(a), GSet.of(b), GSet.of(c)
    assert merge(ga, gb) == merge(gb, ga)
    assert merge(merge(ga, gb), gc) == merge(ga, merge(gb, gc))
    assert ga.leq(merge(ga, gb))


# -- two-phase set ----------------------------------------------------------


def test_twopset_read_single_pass():
    s = TwoPSet(frozenset("abc"), frozenset("b"))
    assert s.read() == frozenset("ac")
    assert TwoPSet(frozenset(), frozenset("x")).read() == frozenset()


def test_twopset_tombstone_is_permanent():
    s = TwoPSet().add("a").remove("a").add("a")
    assert "a" not in s.read()


def test_twopset_tombstone_under_random_op_sequences():
    rng = random.Random(11)
    for _ in range(100):
        s = TwoPSet()
        tombstoned = set()
        for _ in range(20):
            e = rng.choice("abcd")
            if rng.random() < 0.3:
                s = s.remove(e)
                tombstoned.add(e)
            else:
                s = s.add(e)
            assert not (s.read() & tombstoned)


# -- LWW token set ----------------------------------------------------------


def test_token_insert_and_read():
    s = LWWTokenSet().insert("t1", 7, Timestamp(3, 0), "v")
    assert s.read() == {"t1": "v"}
    assert LWWTokenSet().read() == {}


def test_token_delete_then_reinsert_any_order():
    base = LWWTokenSet()
    deltas = [
        base.remove("t", Timestamp(1, 0)),
        base.insert("t", 42, Timestamp(2, 0), "back"),
    ]
    for order in itertools.permutations(deltas):
        folded = base
        for d in order:
            folded = merge(folded, d)
        assert folded.read() == {"t": "back"}


def test_token_latest_timestamp_wins():
    s = (LWWTokenSet()
         .insert("t", 1, Timestamp(1, 0), "old")
         .insert("t", 2, Timestamp(4, 0), "new"))
    assert s.read() == {"t": "new"}


TIED_INSERTS = """
from calmsim.lattice import LWWTokenSet, Timestamp
a = LWWTokenSet().insert("t1", 11, Timestamp(1, 0), "alpha")
b = LWWTokenSet().insert("t1", 12, Timestamp(1, 0), "beta")
print(a.merge(b).read()["t1"], b.merge(a).read()["t1"])
"""


def test_token_timestamp_tie_goes_to_larger_use_id():
    # The tie must not fall to set iteration order, which moves with the
    # string hash seed.
    reads = {run_python(TIED_INSERTS, PYTHONHASHSEED=str(seed))
             for seed in range(6)}
    assert reads == {"beta beta\n"}


def test_token_delete_of_unknown_token():
    s = LWWTokenSet().remove("ghost", Timestamp(1, 0))
    assert s.read() == {}


def test_token_delete_needs_later_timestamp():
    s = (LWWTokenSet()
         .insert("t", 1, Timestamp(1, 0), "v")
         .remove("t", Timestamp(2, 0)))
    assert s.read() == {}
    s2 = s.insert("t", 2, Timestamp(3, 0), "v2")
    assert s2.read() == {"t": "v2"}


# -- threshold set ----------------------------------------------------------


def test_threshold_union_below_threshold():
    a = ThresholdLSet(frozenset(["u1"]), 3)
    b = ThresholdLSet(frozenset(["u2"]), 3)
    assert merge(a, b).elems == frozenset(["u1", "u2"])


def test_threshold_guard_stops_growth():
    a = ThresholdLSet(frozenset("abc"), 3)
    b = ThresholdLSet(frozenset("xyz"), 3)
    assert merge(a, b) == a


def test_threshold_bottom_identity():
    a = ThresholdLSet(frozenset("ab"), 3)
    assert merge(a, ThresholdLSet.bottom(3)) == a


def test_threshold_mismatch_rejected():
    with pytest.raises(ThresholdMismatchError):
        merge(ThresholdLSet(frozenset(), 2), ThresholdLSet(frozenset(), 3))


@pytest.mark.parametrize("make", [
    GSet, lambda elems: ThresholdLSet(elems, 2)],
    ids=["GSet", "ThresholdLSet"])
def test_slotted_per_key_values_stay_values(make):
    value = make(frozenset({1, 2}))
    assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.elems = frozenset()
    twin = make(frozenset([2, 1]))
    assert twin == value and twin is not value and hash(twin) == hash(value)


def test_threshold_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        ThresholdLSet(frozenset({1}), threshold=0)


def test_threshold_predicate_is_order_invariant():
    # Any merge tree over the same deltas agrees on size >= threshold, and
    # below the threshold the set is exact.
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        deltas = [ThresholdLSet(frozenset([i]), 4) for i in range(n)]
        rng.shuffle(deltas)
        acc = ThresholdLSet.bottom(4)
        for d in deltas:
            acc = merge(acc, d)
        if n < 4:
            assert len(acc) == n
        assert (len(acc) >= 4) == (n >= 4)


# -- multi-value set --------------------------------------------------------


def test_mvset_concurrent_writes_all_retained():
    v1 = VersionVector.of({0: 1})
    v2 = VersionVector.of({1: 1})
    s = MVSet().add("x", v1).add("x", v2)
    assert s.read()["x"] == frozenset([v1, v2])


def test_mvset_dominated_version_hidden():
    v1 = VersionVector.of({0: 1})
    v2 = v1.bump(0)
    s = MVSet().add("x", v1).add("x", v2)
    assert s.read()["x"] == frozenset([v2])


def test_mvset_remove_dominates():
    v1 = VersionVector.of({0: 1})
    s = MVSet().add("x", v1).remove("x", v1.bump(0))
    assert "x" not in s.read()
    # A concurrent write survives the remove.
    v3 = VersionVector.of({1: 1})
    assert s.add("x", v3).read()["x"] == frozenset([v3])


# -- custom lattices --------------------------------------------------------


def test_custom_lattice_max_accepted():
    kind = custom_lattice("MaxInt", 0, max, samples=[0, 1, 5, 9])
    assert kind(3).merge(kind(7)) == kind(7)


def test_custom_lattice_sum_rejected():
    with pytest.raises(LatticeLawError):
        custom_lattice("SumInt", 0, lambda a, b: a + b, samples=[0, 1, 2])


@pytest.mark.parametrize("merge_fn, samples, law", [
    (lambda a, b: a, [0, 1], "commutative"),
    (lambda a, b: (a + b) // 2, [0, 2, 4], "associative"),
])
def test_custom_lattice_rejects_each_broken_law(merge_fn, samples, law):
    with pytest.raises(LatticeLawError, match=f"merge is not {law} on 0, "):
        custom_lattice("Broken", 0, merge_fn, samples=samples)


# -- convergence under redelivery -------------------------------------------


@pytest.mark.parametrize("kind", LAW_TYPES, ids=lambda t: t.__name__)
def test_replicas_converge_under_reorder_and_duplication(kind):
    rng = random.Random(hash(kind.__name__) & 0xFFF)
    for _ in range(30):
        deltas = [random_value(kind, rng) for _ in range(6)]
        with_dups = deltas + rng.sample(deltas, 3)
        a = deltas[0]
        for d in deltas[1:]:
            a = merge(a, d)
        rng.shuffle(with_dups)
        b = with_dups[0]
        for d in with_dups[1:]:
            b = merge(b, d)
        assert a == b


# -- in-place delta merge ---------------------------------------------------


@pytest.mark.parametrize("value_kind", (GSet, ThresholdLSet),
                         ids=lambda t: t.__name__)
def test_lmap_merge_in_equals_pure_merge(value_kind):
    rng = random.Random(17)
    for _ in range(300):
        state, delta = random_map(rng, value_kind), random_map(rng, value_kind)
        before, delta_before = dict(state.entries), dict(delta.entries)
        expected = merge(state, delta)

        assert state.merge_in(delta) == (expected != LMap(before))
        assert state == expected
        assert list(state.entries) == (
            list(before) + [k for k in delta.entries if k not in before])
        assert delta.entries == delta_before
        assert all(delta.entries[k] is v for k, v in delta_before.items())
        for key in before.keys() - delta.entries.keys():
            assert state.entries[key] is before[key]

        after = dict(state.entries)
        assert state.merge_in(delta) is False
        assert state.entries.keys() == after.keys()
        assert all(state.entries[k] is v for k, v in after.items())


def test_lmap_merge_in_keeps_threshold_guard():
    full = ThresholdLSet(frozenset("abc"), threshold=3)
    state = LMap({"k": full})
    assert not state.merge_in(LMap({"k": ThresholdLSet(frozenset("d"), 3)}))
    assert state.entries["k"] is full


def _t3(elems, threshold=3):
    return ThresholdLSet(frozenset(elems), threshold)


@pytest.mark.parametrize("held, delta, error", [
    ({"b": GSet("b"), "c": GSet("c")},
     {"a": GSet("a"), "b": GSet("x"), "c": _t3("z")}, LatticeTypeError),
    ({"b": _t3("b"), "c": _t3("c", 2)},
     {"a": _t3("a"), "b": _t3("x"), "c": _t3("z")}, ThresholdMismatchError)],
    ids=["LatticeTypeError", "ThresholdMismatchError"])
def test_lmap_merge_in_is_all_or_nothing(held, delta, error):
    # The delta's "a" is new and its "b" would change the map, but its "c"
    # cannot merge: the map must keep its entries, objects and key order.
    state = LMap(dict(held))
    with pytest.raises(error):
        state.merge_in(LMap(delta))
    assert list(state.entries) == list(held)
    assert all(state.entries[k] is v for k, v in held.items())


def test_lmap_merge_in_rejects_other_types():
    with pytest.raises(LatticeTypeError):
        LMap().merge_in(GSet.of("a"))

