"""Pinned event-log and answer digests of the five simulated runners, the
pinned owner placement of the k-mer runners, the pinned histogram key
order of ``impl_a_run`` and ``table_kmer_run``, and the pinned histogram
digest of ``threshold_rule_run``.

One small corpus and one fault schedule (duplication, reordering, loss, a
worker failure, a join and a partition that heals) fix every simulated
run; the tick-rule run reads a repeat-rich corpus of its own.  Only
keyed blake2b (each envelope's delay, drop and duplicate, chunk tokens
from byte offsets, sketch rows), ``random.Random`` (the sketch row seeds
only) and crc32 (k-mer owner placement) feed the digests.  They were
computed and checked on one CPython build only; a refactor that keeps
behaviour keeps them.

The ingesting worker absorbs its own batch of a chunk and sends one
envelope to each other owner, so the log holds only batches between two
workers.  It cannot see which worker owns a k-mer: on this corpus every
chunk has a window for every owner, so it sends to each other owner in the
same order whatever the owner function, and ``impl_a_run``, ``impl_b_run``
and ``design2_run`` log the same events.  The placement digests (each owner
shard's sorted k-mers) pin the owner function itself; of the answers, only
``impl_b_run``'s threshold-capped counts, which depend on arrival order,
see it too.
"""

import hashlib
import random

import pytest

from calmsim import kmer, sketch
from calmsim.runtime import DeliverySchedule
from calmsim.tables import Value

from conftest import make_corpus

CORPUS = make_corpus(random.Random(5), lines=20, width=50)
FAULTS = dict(
    schedule=DeliverySchedule(seed=9, duplicate_prob=0.3, reorder_window=3,
                              drop_prob=0.1),
    failures=[(5, 1)], joins=[7], partitions=[(3, ((0, 2),)), (12, ())])
PARAMS = sketch.choose_params(0.05, 0.1)


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _items():
    return sorted(kmer.oracle_count(CORPUS, 5))


def _kmer(runner, **kw):
    res = getattr(kmer, runner)(CORPUS, 5, 3, **kw, **FAULTS)
    return res.sim, sorted(res.histogram.items())


def _design1():
    res = sketch.design1_run(CORPUS, 5, PARAMS, 3, **FAULTS)
    answers = [res.query(x) for x in _items()]
    return res.sim, [a.payload if isinstance(a, Value) else repr(a)
                     for a in answers]


def _design2():
    res = sketch.design2_run(CORPUS, 5, PARAMS, 3, **FAULTS)
    return res.sim, ([res.query(x) for x in _items()], res.converged())


RUNS = {
    "impl_a_run": lambda: _kmer("impl_a_run"),
    "impl_b_run": lambda: _kmer("impl_b_run", threshold=2),
    "table_kmer_run": lambda: _kmer("table_kmer_run"),
    "design1_run": _design1,
    "design2_run": _design2,
}

PINNED = {
    "impl_a_run": ("9565186767620c30", "34fe9c9879d96016"),
    "impl_b_run": ("9565186767620c30", "65dd1646130c8ce0"),
    "table_kmer_run": ("29e4fa76b26e8386", "34fe9c9879d96016"),
    "design1_run": ("bcb74b42929be905", "6b819185609a1cbc"),
    "design2_run": ("9565186767620c30", "77b1ac23712d32db"),
}


@pytest.mark.parametrize("runner", sorted(RUNS))
def test_event_log_and_answer_digests_are_pinned(runner):
    sim, answer = RUNS[runner]()
    assert (_digest(sim.event_lines()), _digest(repr(answer))) == PINNED[runner]


PLACEMENT = {
    "impl_a_run": "c1ae1361fef56e5b",
    "table_kmer_run": "c1ae1361fef56e5b",
}


def _placement(program):
    """Each owner shard's sorted k-mers: what the owner function decided."""
    shards = {wid: shard.entries for wid, shard in program.shards.items()}
    return [(wid, sorted(shards[wid])) for wid in sorted(shards)]


@pytest.mark.parametrize("runner", sorted(PLACEMENT))
def test_owner_placement_digests_are_pinned(runner):
    res = getattr(kmer, runner)(CORPUS, 5, 3, **FAULTS)
    assert _digest(repr(_placement(res.program))) == PLACEMENT[runner]


@pytest.mark.parametrize("runner", ["impl_a_run", "table_kmer_run"])
def test_impl_a_histogram_key_order_is_pinned(runner):
    # Owners count their ids in arrival order (a worker's own batch arrives
    # as it is built), so the order holds under every hash seed;
    # table_kmer_run returns implementation A's histogram.
    res = getattr(kmer, runner)(CORPUS, 5, 3, **FAULTS)
    assert _digest(repr(list(res.histogram))) == "e895032cbfd56343"


def _repeat_rich_corpus(rng: random.Random) -> str:
    """Lines tiled from four 6-base motifs with 3% point mutations."""
    motifs = ["".join(rng.choice("ACGT") for _ in range(6)) for _ in range(4)]
    return "".join(
        "".join(rng.choice("ACGT") if rng.random() < 0.03 else base
                for base in "".join(rng.choice(motifs) for _ in range(8)))
        + "\n" for _ in range(30))


def test_threshold_rule_run_histogram_digest_is_pinned():
    hist = kmer.threshold_rule_run(_repeat_rich_corpus(random.Random(11)),
                                   5, 6, batch=16)
    assert _digest(repr(sorted(hist.items()))) == "80f9cd154d45aa76"
