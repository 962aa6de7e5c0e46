"""Confluence by commutation, per pair of deliveries.

An owner's ``absorb`` must commute on every pair of the batches ``route``
builds, and absorbing a batch twice must equal absorbing it once, in the
view the program's answer reads.  With quiescence as termination, that
local confluence gives every delivery order one answer (Newman's lemma).
A state is a random reachable prefix: routed batches delivered to their
owners in any order, a batch possibly more than once.  The tick-rule
program of ``threshold_rule_run`` is checked whole: its engine gives one
capped histogram for every order of its ``inject`` batches, repeats too.
"""

import random
from collections import Counter
from functools import partial
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from calmsim import kmer, sketch
from calmsim.runtime import Simulation
from calmsim.tables import TickRuleEngine

from conftest import make_corpus
from helpers import EngineSpy, kmer_batch

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
    "impl_a": lambda corpus, n=WORKERS: kmer.ImplAProgram(corpus, K, n),
    "impl_b": lambda corpus, n=WORKERS: kmer.ImplBProgram(corpus, K, n,
                                                          THRESHOLD),
    "design1": lambda corpus, n=WORKERS: sketch.Design1Program(corpus, K, n,
                                                               CMS, 1),
    "design2": lambda corpus, n=WORKERS: sketch.Design2Program(corpus, K, n,
                                                               CMS, n),
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
                *kmer.chunk_columns(prog.data, chunk, prog.k)).items()]


def absorbed(build, corpus, deliveries):
    prog = build(corpus)
    for wid, payload in deliveries:
        prog.absorb(wid, payload)
    return prog


def violations(name, corpus, view, seed=0, workers=WORKERS,
               prefixes=PREFIXES) -> tuple[int, int]:
    """``(pairs checked, pairs whose two orders differ in view)``; raises
    on a batch whose second delivery changes the view."""
    build = partial(BUILDS[name], n=workers)
    deliveries = routed(build(corpus))
    rng = random.Random(seed)
    checked = differ = 0
    for _ in range(prefixes):
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


@pytest.mark.parametrize("name", BUILDS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), lines=st.integers(1, 8),
       width=st.integers(K, 30), workers=st.integers(1, 4))
def test_absorb_laws_hold_on_small_corpora_and_1_to_4_owners(
        name, seed, lines, width, workers):
    corpus = make_corpus(random.Random(seed), lines, width)
    checked, differ = violations(name, corpus, VIEWS[name], seed, workers,
                                 prefixes=25)
    assert checked == 25 * PAIRS and differ == 0


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("name", BUILDS)
def test_routing_twice_gives_equal_payloads(name, workers, corpus):
    # A chunk is routed again when a failed worker's chunk is reissued,
    # after other chunks; absorb's "two batches, one first id" assert
    # holds only if the second payload map equals the first.
    prog = BUILDS[name](corpus, workers)
    prog.setup(Simulation())
    chunks = prog.pool.pending
    first = [prog.route(*kmer.chunk_columns(prog.data, c, K)) for c in chunks]
    again = [prog.route(*kmer.chunk_columns(prog.data, c, K))
             for c in reversed(chunks)]
    assert again[::-1] == first and any(first)


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


# -- the tick-rule program ----------------------------------------------------


def threshold_program(corpus, batch):
    """The declared tables, the rules and the ``inject`` batches of one
    ``threshold_rule_run``, and its histogram."""
    with pytest.MonkeyPatch.context() as mp:
        spy = EngineSpy(mp)
        counts = kmer.threshold_rule_run(corpus, K, THRESHOLD, batch=batch)
    (built,) = spy.built
    return built, spy.injected, counts


def capped_histogram(built, injected, order) -> dict:
    """The engine's ``local`` as ``min(count, THRESHOLD)`` after the
    ``inject`` batches in ``order``, one tick each, and the fixpoint."""
    engine = TickRuleEngine(*built)
    for i in order:
        engine.inject(*injected[i])
        engine.tick()
    local = engine.run_to_fixpoint()["local"]
    return {km: min(len(ids), THRESHOLD) for km, ids in local.entries.items()}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16), lines=st.integers(1, 8),
       batch=st.integers(1, 12))
def test_threshold_engine_capped_view_ignores_inject_order_and_repeats(
        data, seed, lines, batch):
    corpus = make_corpus(random.Random(seed), lines, 24)
    built, injected, counts = threshold_program(corpus, batch)
    batches = range(len(injected))
    want = {km: min(c, THRESHOLD)
            for km, c in kmer.oracle_count(corpus, K).items()}
    assert capped_histogram(built, injected, batches) == want
    assert {km: min(c, THRESHOLD) for km, c in counts.items()} == want
    order = data.draw(st.permutations(batches), label="order")
    again = data.draw(st.lists(st.sampled_from(batches), max_size=6),
                      label="repeated")
    mixed = data.draw(st.permutations([*order, *again]), label="mixed")
    assert capped_histogram(built, injected, order) == want
    assert capped_histogram(built, injected, mixed) == want
