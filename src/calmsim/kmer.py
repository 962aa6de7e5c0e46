"""Distributed k-mer counting workloads.

Three variants over the same chunk-ingestion pipeline:

- ``impl_a_run``: each k-mer instance carries a unique identifier (its byte
  offset in the input); an owner keeps each batch whole under its first
  id, k-mers as a tuple and ids as a typed ``array``, so re-delivery cannot
  double count.  The histogram is one ``Counter``, built owner by owner in
  delivery order, the same under every hash seed.
- ``impl_b_run``: owners apply :class:`ThresholdLSet`'s merge in place to
  a set of ids per k-mer, which stops growing at the caller's threshold;
  counts are exact below the threshold and the predicate ``count >= threshold``
  is exact everywhere.
- ``table_kmer_run``: implementation A's run read through its ``table``
  view, a G-Set global table hash-partitioned on the k-mer column; grouping
  is then coordination-free, each worker aggregates its own rows, and
  ``table_kmer_run`` returns implementation A's histogram, in the same
  pinned order.

A chunk ships each owner one lattice delta, built once; a duplicated or
resent envelope reuses it.  All variants are verified against
``oracle_count``, a sequential single-threaded scan.  Every runner, the
sketch designs' too, passes :func:`_run`'s fault keywords through to it.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Mapping

from .dispenser import Chunk, WorkPool
from .lattice import GSet, LMap, ThresholdLSet
from .runtime import (DeliverySchedule, Envelope, NetworkCondition, Program,
                      Simulation, TickRuleEngine, run_to_quiescence)
from .tables import (GlobalTable, PartitionPlan, compile_rules, hash_owners,
                     plan_query)

BASES = frozenset("ACGT")
_NOT_BASE = re.compile(rb"[^ACGT]")


def extract_kmers(seq: str, k: int) -> list[tuple[str, int]]:
    """All length-k windows of a sequence with their start offsets."""
    if k < 1:
        raise ValueError("k must be >= 1")
    seq = seq.upper()
    bad = set(seq) - BASES
    if bad:
        raise ValueError(f"invalid base(s) {sorted(bad)!r}; alphabet is ACGT")
    return [(seq[i:i + k], i) for i in range(len(seq) - k + 1)]


def oracle_count(corpus: str, k: int) -> dict[str, int]:
    """Exact histogram by sequential scan, one sequence per line.

    Only a newline ends a line, and a line shorter than k holds no window,
    so it is not checked: the corpora ``chunk_windows`` accepts."""
    counts: dict[str, int] = {}
    for line in corpus.split("\n"):
        if len(line) < k:
            continue
        for kmer, _ in extract_kmers(line, k):
            counts[kmer] = counts.get(kmer, 0) + 1
    return counts


def histogram_report(k: int, counts: Mapping[str, int]) -> dict:
    return {
        "k": k,
        "counts": {kmer: counts[kmer] for kmer in sorted(counts)},
        "total_windows": sum(counts.values()),
    }


def _lines(read: bytes, off: int, k: int):
    """``(text, first offset, window count)`` of each line of ``read`` (at
    byte ``off``) that holds a window; a byte outside ACGT on one raises at
    its first window's offset.  Only such lines are checked, each once."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for line in read.split(b"\n"):
        starts = len(line) - k + 1
        if starts > 0:
            if bad := _NOT_BASE.search(line):
                raise ValueError(
                    f"invalid base at offset {off + max(0, bad.start() - k + 1)}")
            yield line.decode("ascii"), off, starts
        off += len(line) + 1


def chunk_windows(data: bytes, chunk: Chunk, k: int) -> list[tuple[str, int]]:
    """Windows starting inside the chunk, read by ``_lines``; the read
    overlaps the next chunk by k-1 bytes, so the earlier chunk alone holds
    a straddling window.  No window spans a newline."""
    end = min(chunk.start + chunk.length, len(data))
    out = []
    for text, off, n in _lines(data[chunk.start:end + k - 1], chunk.start, k):
        out.extend((text[i:i + k], off + i) for i in range(n))
    return out


def normalize_corpus(corpus: str | bytes) -> bytes:
    data = corpus.encode("ascii") if isinstance(corpus, str) else bytes(corpus)
    return data.upper()


def corpus_stream(corpus, k: int) -> list[tuple[str, int]]:
    """(k-mer, instance-token) pairs for a corpus; tokens are byte offsets."""
    data = normalize_corpus(corpus)
    return chunk_windows(data, Chunk(0, len(data), 0), k)


# ---------------------------------------------------------------------------
# Ingestion programs


class KmerIngestProgram(Program):
    """Chunk-pool ingestion shared by all k-mer variants.

    A worker alternates between taking a chunk and processing it, so an
    injected failure between the two leaves an uncompleted chunk for the
    pool to reassign.  Processing extracts the chunk's windows, groups them
    into one batch per receiving worker with ``route``, and sends one
    envelope per batch stamped with the chunk's token id.  The payload is
    the batch's ``delta`` itself, which every delivery hands to ``absorb``;
    delivery only merges and never sends.

    The pool is the one record of the chunk each worker holds, and one
    hash plan on the k-mer, fixed over the workers present at setup, says
    which worker owns a k-mer; later joiners only ingest.  Owner state only
    grows: by default ``batches[w]`` keeps each batch whole under its first
    id.  The program is idle once the pool is done, so the run is at its
    fixpoint when, in addition, nothing is in flight or held.
    """

    def __init__(self, corpus, k: int, workers: int,
                 chunk_len: int | None = None):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.data = normalize_corpus(corpus)
        self.k = k
        self.nworkers = workers
        self.chunk_len = chunk_len
        self.pool: WorkPool | None = None
        self.plan: PartitionPlan | None = None

    def setup(self, sim: Simulation) -> None:
        self.pool = WorkPool.from_bytes(
            self.data, chunk_len=self.chunk_len,
            target_chunks=8 * self.nworkers)
        for _ in range(self.nworkers):
            self.handle_join(sim)
        self.plan = PartitionPlan("hash", tuple(self.pool.assigned),
                                  column="seq")
        self.init_state()

    def init_state(self) -> None:
        self.batches = {wid: {} for wid in self.plan.workers}

    def route(self, windows: list[tuple[str, int]]) -> dict[int, list]:
        """Group one chunk's windows into a batch per receiving worker."""
        owners = hash_owners(self.plan.workers, map(itemgetter(0), windows))
        batches = {wid: [] for wid in self.plan.workers}
        for owner, pair in zip(owners, windows):
            batches[owner].append(pair)
        return {wid: batch for wid, batch in batches.items() if batch}

    def worker_step(self, sim: Simulation, wid: int) -> None:
        if not self.pool.assigned.get(wid):
            chunk = self.pool.next(wid)
            if chunk is not None:
                sim.log("assign", dst=wid, token_id=chunk.token_id)
            return
        (chunk,) = self.pool.assigned[wid]  # one chunk at a time
        batches = self.route(chunk_windows(self.data, chunk, self.k))
        for owner in sorted(batches):
            sim.send(wid, owner, self.delta(batches[owner]),
                     token_id=chunk.token_id)
        self.pool.complete(wid, chunk)
        sim.log("complete", dst=wid, token_id=chunk.token_id)

    def on_deliver(self, sim: Simulation, env: Envelope) -> None:
        self.absorb(env.dst, env.payload)

    def delta(self, pairs: list) -> tuple:
        """A batch as flat tuples: its k-mers and an ``array("q")`` of ids."""
        kmers, ids = zip(*pairs)
        return kmers, array("q", ids)

    def absorb(self, wid: int, delta: tuple) -> None:
        """Keep ``delta`` whole under its first id; ignore the ``()`` batch."""
        if delta and self.batches[wid].setdefault(delta[1][0], delta) != delta:
            raise AssertionError("two batches, one first id")

    def idle(self, sim: Simulation) -> bool:
        return self.pool.done

    def state_size(self) -> int:
        """Ids in the owners' batches; an O(state) end-of-run report."""
        return sum(len(b[1]) for r in self.batches.values() for b in r.values())

    # -- harness hooks ------------------------------------------------------

    def handle_fail(self, sim: Simulation, wid: int) -> None:
        sim.fail_worker(wid)
        self.pool.fail(wid)

    def handle_join(self, sim: Simulation) -> int:
        wid = sim.register_worker()
        self.pool.add_worker(wid)
        return wid


def _grouped(pairs) -> dict[str, list]:
    """Each k-mer's ids, k-mers in first-occurrence order."""
    grouped: dict[str, list] = {}
    for kmer, off in pairs:
        grouped.setdefault(kmer, []).append(off)
    return grouped


class ImplAProgram(KmerIngestProgram):
    """Owners keep the batches as delivered; ``shards`` and ``table`` are
    views.  The histogram is one ``Counter``, built owner by owner."""

    def pairs(self, wid: int):
        """The ``(k-mer, id)`` pairs ``wid`` holds, in delivery order."""
        return chain.from_iterable(zip(*b) for b in self.batches[wid].values())

    @property
    def shards(self) -> dict[int, LMap]:
        return {w: LMap({km: GSet(ids) for km, ids
                         in _grouped(sorted(self.pairs(w))).items()})
                for w in self.batches}

    @property
    def table(self) -> GlobalTable:
        """The pairs as a ``(seq, token)`` table; a copy, like ``shards``."""
        return GlobalTable("kmers", GSet, ("seq", "token"), self.plan,
                           {w: GSet(self.pairs(w)) for w in self.batches})

    def histogram(self) -> Counter:
        counts = Counter()
        for w in sorted(self.batches):
            kmers = [b[0] for b in self.batches[w].values()]
            if not counts.keys().isdisjoint(chain.from_iterable(kmers)):
                raise AssertionError("k-mer key on two owner shards")
            counts.update(chain.from_iterable(kmers))
        return counts


class ImplBProgram(KmerIngestProgram):
    """Owner ``w`` keeps ``ids[w]``, k-mer -> set of ids, capped as
    :class:`ThresholdLSet` caps; ``shards`` is a view of it."""

    def __init__(self, corpus, k, workers, threshold: int):
        super().__init__(corpus, k, workers)
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold

    def init_state(self) -> None:
        self.ids = {wid: {} for wid in self.plan.workers}

    def absorb(self, wid, delta: tuple) -> None:
        """``ThresholdLSet.merge`` in place, as only the owner reads its sets:
        a k-mer's ids join its set whole while it holds under ``threshold``."""
        held, cap = self.ids[wid], self.threshold
        for kmer, offs in _grouped(zip(*delta)).items():
            if (ids := held.get(kmer)) is None:
                held[kmer] = set(offs)
            elif len(ids) < cap:
                ids.update(offs)

    @property
    def shards(self) -> dict[int, LMap]:
        return {w: LMap({km: ThresholdLSet(frozenset(ids), self.threshold)
                         for km, ids in held.items()})
                for w, held in self.ids.items()}

    def state_size(self) -> int:
        return sum(len(ids) for held in self.ids.values()
                   for ids in held.values())

    def histogram(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, held in sorted(self.ids.items()):
            if not counts.keys().isdisjoint(held):
                raise AssertionError("k-mer key on two owner shards")
            counts.update((km, len(ids)) for km, ids in held.items())
        return counts


# ---------------------------------------------------------------------------
# Runners


@dataclass
class KmerRunResult:
    histogram: dict
    sim: Simulation
    program: KmerIngestProgram
    coordination_free: bool | None = None


def check_faults(workers, failures, joins, partitions) -> None:
    """``ValueError`` for a fault schedule no run can follow: a fault tick
    below 1, a worker listed to fail twice, two cuts at one tick (the second
    would replace the first), a cut entry that is not two distinct
    workers, which :class:`NetworkCondition` rejects, or a worker not yet
    registered.  Setup registers ``workers`` and each join one more; within
    a tick, failures come before joins and joins before cuts."""
    cut_ticks = [t for t, _ in partitions]
    if any(t < 1 for t in chain((t for t, _ in failures), joins, cut_ticks)):
        raise ValueError("fault ticks must be >= 1 (the run starts at 1)")
    for wid, n in Counter(w for _, w in failures).items():
        if n > 1:
            raise ValueError(f"worker {wid} is listed to fail more than once")
    for tick, n in Counter(cut_ticks).items():
        if n > 1:
            raise ValueError(f"two partitions at tick {tick}: list every "
                             "pair of a tick in one partition")
    for _, cut in partitions:
        NetworkCondition(cut)
    for tick, wids, joined in chain(
            ((t, (w,), t - 1) for t, w in failures),
            ((t, chain.from_iterable(cut), t) for t, cut in partitions)):
        known = workers + sum(j <= joined for j in joins)
        for wid in wids:
            if not 0 <= wid < known:
                raise ValueError(f"worker {wid} is not registered by its "
                                 f"fault at tick {tick}")


def _run(program: KmerIngestProgram, schedule: DeliverySchedule | None = None,
         failures=(), joins=(), partitions=()):
    """``(sim, program)`` quiescent under ``schedule`` and the faults;
    :func:`check_faults` runs first, so a bad schedule logs nothing."""
    failures, joins, partitions = list(failures), list(joins), list(partitions)
    check_faults(program.nworkers, failures, joins, partitions)
    events: dict[int, list] = {}
    for tick, action in chain(
            ((t, lambda sim, prog, w=w: prog.handle_fail(sim, w))
             for t, w in failures),
            ((t, lambda sim, prog: prog.handle_join(sim)) for t in joins),
            ((t, lambda sim, prog, p=p: sim.set_partition(p))
             for t, p in partitions)):
        events.setdefault(tick, []).append(action)
    sim = Simulation(schedule)
    run_to_quiescence(sim, program, events)
    return sim, program


def impl_a_run(corpus, k: int, workers: int, *, chunk_len: int | None = None,
               **faults) -> KmerRunResult:
    sim, prog = _run(ImplAProgram(corpus, k, workers, chunk_len), **faults)
    return KmerRunResult(prog.histogram(), sim, prog)


def impl_b_run(corpus, k: int, workers: int, threshold: int,
               **faults) -> KmerRunResult:
    sim, prog = _run(ImplBProgram(corpus, k, workers, threshold), **faults)
    return KmerRunResult(prog.histogram(), sim, prog)


def table_kmer_run(corpus, k: int, workers: int, **faults) -> KmerRunResult:
    """``impl_a_run``, then a GROUP BY on ``seq`` over its ``table`` view:
    each worker counts its own rows, so no message is needed."""
    res = impl_a_run(corpus, k, workers, **faults)
    res.coordination_free = plan_query(res.program.table,
                                       "seq").coordination_free
    for wid in sorted(res.program.batches):
        res.sim.log("aggregate", dst=wid)
    return res


# ---------------------------------------------------------------------------
# Threshold counting via tick rules (instantaneous vs deferred merge)


def _window_batches(data: bytes, k: int, batch: int):
    """Each run of ``batch`` windows as ``{k-mer: [ids]}``, from ``_lines``."""
    grouped, room = {}, batch
    for text, off, n in _lines(data, 0, k):
        for i in range(n):
            grouped.setdefault(text[i:i + k], []).append(off + i)
            room -= 1
            if not room:
                yield grouped
                grouped, room = {}, batch
    if grouped:
        yield grouped


def threshold_rule_run(corpus, k: int, threshold: int,
                       deferred: bool = True, batch: int = 64) -> dict[str, int]:
    """Threshold k-mer counting written as Bloom rule text over lattice maps.

    The corpus is read a line at a time; each run of ``batch`` windows,
    grouped by k-mer, goes to the scratch ``arrivals``.  The scratch
    ``incoming`` admits those whose k-mer ``local`` holds under
    ``threshold`` times, and ``local`` absorbs it: instantaneous (``<=``),
    the two rules feed each other within one tick and engine construction
    raises :class:`StratificationError`; deferred (``<+``), the program
    runs.  The run holds one batch of windows and no id outside ``local``.
    """
    if threshold < 1 or batch < 1:
        raise ValueError("threshold and batch must be >= 1")
    engine = TickRuleEngine(*compile_rules(f"""
        table local
        scratch arrivals
        scratch incoming
        incoming <= arrivals below local {threshold}
        local {"<+" if deferred else "<="} incoming
    """))
    for grouped in _window_batches(normalize_corpus(corpus), k, batch):
        engine.inject("arrivals",
                      LMap({km: GSet(ids) for km, ids in grouped.items()}))
        engine.tick()
    engine.run_to_fixpoint()
    return {kmer: len(ids)
            for kmer, ids in engine.tables["local"].entries.items()}
