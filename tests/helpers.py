"""Random value generators shared by the lattice law tests, the k-mer
owner payload builder and the column split of windows shared by the k-mer
tests, and a spy on the engines a call builds."""

import dataclasses
import random

from calmsim.kmer import words
from calmsim.lattice import (GSet, LMap, LMax, LWWSet, LWWTokenSet, MVSet,
                             ThresholdLSet, Timestamp, TwoPSet, VersionVector)
from calmsim.tables import TickRuleEngine

ELEMS = list("abcdefgh")


def rand_ts(rng: random.Random) -> Timestamp:
    return Timestamp(rng.randint(0, 12), rng.randint(0, 3))


def rand_vv(rng: random.Random) -> VersionVector:
    return VersionVector.of({w: rng.randint(0, 3) for w in range(3)})


def _subset(rng, pool, hi=4):
    return frozenset(rng.sample(pool, rng.randint(0, min(hi, len(pool)))))


def rand_gset(rng):
    return GSet(_subset(rng, ELEMS))


def random_map(rng: random.Random, value_kind=GSet) -> LMap:
    """Up to three keys, each over GSet or ThresholdLSet (threshold 3)."""
    extra = {"threshold": 3} if value_kind is ThresholdLSet else {}
    return LMap({k: value_kind(_subset(rng, ELEMS, 3), **extra)
                 for k in rng.sample(ELEMS, rng.randint(0, 3))})


def random_value(kind, rng: random.Random):
    if kind is LMax:
        return LMax(None) if rng.random() < 0.1 else LMax(rng.randint(-5, 50))
    if kind is LMap:
        return random_map(rng)
    if kind is ThresholdLSet:
        return ThresholdLSet(_subset(rng, ELEMS), threshold=3)
    if kind is GSet:
        return rand_gset(rng)
    if kind is TwoPSet:
        return TwoPSet(_subset(rng, ELEMS), _subset(rng, ELEMS))
    if kind is LWWSet:
        return LWWSet(
            frozenset((rng.choice(ELEMS), rand_ts(rng))
                      for _ in range(rng.randint(0, 4))),
            frozenset((rng.choice(ELEMS), rand_ts(rng))
                      for _ in range(rng.randint(0, 4))))
    if kind is MVSet:
        return MVSet(
            frozenset((rng.choice(ELEMS), rand_vv(rng))
                      for _ in range(rng.randint(0, 4))),
            frozenset((rng.choice(ELEMS), rand_vv(rng))
                      for _ in range(rng.randint(0, 4))))
    if kind is LWWTokenSet:
        return LWWTokenSet(
            frozenset((rng.randint(0, 4), rng.randint(0, 99), rand_ts(rng),
                       rng.choice(ELEMS))
                      for _ in range(rng.randint(0, 4))),
            frozenset((rng.randint(0, 4), rand_ts(rng))
                      for _ in range(rng.randint(0, 3))))
    raise ValueError(kind)


LAW_TYPES = (GSet, TwoPSet, LWWSet, MVSet, LWWTokenSet, LMax, LMap)


def kmer_batch(pairs) -> tuple:
    """The payload a k-mer ``route`` sends an owner for its ``(k-mer, id)``
    pairs: the k-mers as a tuple and the ids as ``kmer.words``, an
    ``array("I")``, or ``"Q"`` once an id reaches 2**32."""
    kmers, ids = zip(*pairs)
    return kmers, words(ids)


def columns(pairs) -> tuple[list, list]:
    """The k-mer and id columns of ``(k-mer, id)`` pairs, as ``route``
    takes a chunk's windows."""
    return [kmer for kmer, _ in pairs], [off for _, off in pairs]


class EngineSpy:
    """Catches the engines a call builds, the ``(tables, rules)`` each is
    built from and every ``(name, delta)`` injected; wraps each rule's
    ``expr`` with ``wrap``."""

    def __init__(self, monkeypatch, wrap=lambda rule: rule.expr):
        self.engines, self.built, self.injected = [], [], []
        init, inject = TickRuleEngine.__init__, TickRuleEngine.inject

        def spy(engine, tables, rules):
            self.built.append((tables, rules))
            init(engine, tables, [dataclasses.replace(r, expr=wrap(r))
                                  for r in rules])
            self.engines.append(engine)

        def spy_inject(engine, name, delta):
            self.injected.append((name, delta))
            inject(engine, name, delta)

        monkeypatch.setattr(TickRuleEngine, "__init__", spy)
        monkeypatch.setattr(TickRuleEngine, "inject", spy_inject)
