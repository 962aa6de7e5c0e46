"""Confluence by commutation, per pair of deliveries.

An owner's ``absorb`` must commute on every pair of the batches ``route``
builds, and absorbing a batch twice must equal absorbing it once, in the
view the program's answer reads.  With quiescence as termination, that
local confluence gives every delivery order one answer (Newman's lemma).
A state is a random reachable prefix: routed batches delivered to their
owners in any order, a batch possibly more than once.
"""

import random
from collections import Counter
from itertools import chain

import pytest

from calmsim import kmer, sketch
from calmsim.runtime import Simulation

from conftest import make_corpus
from helpers import kmer_batch

K, WORKERS, THRESHOLD, PREFIXES, PAIRS = 4, 3, 3, 300, 3
# Few columns, so a chunk's batches share cells.
CMS = sketch.CmsParams(3, 16, sketch.row_seeds(3))


def impl_a_view(prog, wid):
    return Counter(chain.from_iterable(
        kmers for kmers, _ in prog.batches[wid].values()))


def capped_view(prog, wid):
    return {km: min(len(ids), prog.threshold)
            for km, ids in prog.ids[wid].items()}


def raw_view(prog, wid):
    return {km: len(ids) for km, ids in prog.ids[wid].items()}


def cells_view(prog, wid):
    return Counter(prog.counts(wid))


BUILDS = {
    "impl_a": lambda corpus: kmer.ImplAProgram(corpus, K, WORKERS),
    "impl_b": lambda corpus: kmer.ImplBProgram(corpus, K, WORKERS, THRESHOLD),
    "design1": lambda corpus: sketch.Design1Program(corpus, K, WORKERS,
                                                    CMS, 1),
    "design2": lambda corpus: sketch.Design2Program(corpus, K, WORKERS,
                                                    CMS, WORKERS),
}

VIEWS = {"impl_a": impl_a_view, "impl_b": capped_view,
         "design1": cells_view, "design2": cells_view}


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(random.Random(5), lines=12, width=40)


def routed(prog) -> list:
    """Every ``(owner, payload)`` ``route`` builds over the pool's chunks."""
    prog.setup(Simulation())
    return [delivery for chunk in prog.pool.pending
            for delivery in prog.route(
                kmer.chunk_windows(prog.data, chunk, prog.k)).items()]


def absorbed(build, corpus, deliveries):
    prog = build(corpus)
    for wid, payload in deliveries:
        prog.absorb(wid, payload)
    return prog


def violations(name, corpus, view, seed=0) -> tuple[int, int]:
    """``(pairs checked, pairs whose two orders differ in view)``; raises
    on a batch whose second delivery changes the view."""
    build = BUILDS[name]
    deliveries = routed(build(corpus))
    rng = random.Random(seed)
    checked = differ = 0
    for _ in range(PREFIXES):
        prefix = rng.choices(deliveries, k=rng.randint(0, len(deliveries)))
        wid = rng.choice([w for w, _ in deliveries])
        mine = [payload for w, payload in deliveries if w == wid]
        for _ in range(PAIRS):
            a, b = rng.choice(mine), rng.choice(mine)
            once = view(absorbed(build, corpus, [*prefix, (wid, a)]), wid)
            twice = absorbed(build, corpus, [*prefix, (wid, a), (wid, a)])
            assert view(twice, wid) == once, "absorb is not idempotent"
            ab = absorbed(build, corpus, [*prefix, (wid, a), (wid, b)])
            ba = absorbed(build, corpus, [*prefix, (wid, b), (wid, a)])
            checked += 1
            differ += view(ab, wid) != view(ba, wid)
    return checked, differ


@pytest.mark.parametrize("name", BUILDS)
def test_absorb_commutes_and_is_idempotent_in_the_answer_view(name, corpus):
    checked, differ = violations(name, corpus, VIEWS[name])
    assert checked == PREFIXES * PAIRS and differ == 0


def test_impl_b_raw_id_counts_are_not_confluent(corpus):
    # The sampled pairs find it: what the cap hides, the raw view shows.
    assert violations("impl_b", corpus, raw_view)[1] > 0
    # A held k-mer with 2 ids under threshold 3: a batch of 1 new id, then
    # one of 3, holds 3 ids; the other order holds 5.  Capped, both are 3.
    a = kmer_batch([("AC", 3)])
    b = kmer_batch([("AC", 4), ("AC", 5), ("AC", 6)])
    held = ("AC", 1), ("AC", 2)
    build = BUILDS["impl_b"]
    ab = absorbed(build, "ACGT", [(0, kmer_batch(held)), (0, a), (0, b)])
    ba = absorbed(build, "ACGT", [(0, kmer_batch(held)), (0, b), (0, a)])
    assert (raw_view(ab, 0), raw_view(ba, 0)) == ({"AC": 3}, {"AC": 5})
    assert capped_view(ab, 0) == capped_view(ba, 0) == {"AC": 3}
