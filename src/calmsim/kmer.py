"""Distributed k-mer counting workloads.

Three variants over the same chunk-ingestion pipeline:

- ``impl_a_run``: each k-mer instance carries a unique identifier (its byte
  offset in the input); owner shards map k-mer -> set of instance ids, so
  the count is the set cardinality and re-delivery cannot double count.
- ``impl_b_run``: owner shards use :class:`ThresholdLSet`, which stops
  storing identifiers once a k-mer reaches the caller's threshold; counts
  are exact below the threshold and the predicate ``count >= threshold``
  is exact everywhere.
- ``table_kmer_run``: ingestion into a G-Set global table hash-partitioned
  on the k-mer column; grouping is then coordination-free and the per-worker
  aggregates concatenate into the full histogram.

All variants are verified against ``oracle_count``, a sequential
single-threaded scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .dispenser import Chunk, WorkPool
from .hashing import hash64
from .lattice import GSet, LMap, ThresholdLSet
from .runtime import (DeliverySchedule, Envelope, Program, Rule, Simulation,
                      TickRuleEngine, run_to_quiescence)
from .tables import GlobalTable, PartitionPlan, plan_query

BASES = frozenset("ACGT")
_BASE_BYTES = frozenset(b"ACGT")


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
    """Exact histogram by sequential scan, one sequence per line."""
    counts: dict[str, int] = {}
    for line in corpus.splitlines():
        if not line:
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


def chunk_windows(data: bytes, chunk: Chunk, k: int) -> list[tuple[str, int]]:
    """Windows whose start offset falls inside the chunk.

    The read overlaps the next chunk by k-1 bytes so straddling windows are
    attributed to the earlier chunk exactly once.  Windows containing a
    newline are skipped (sequences never span lines).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    end = min(chunk.start + chunk.length, len(data))
    out = []
    for off in range(chunk.start, end):
        win = data[off:off + k]
        if len(win) < k or b"\n" in win:
            continue
        if not _BASE_BYTES.issuperset(win):
            raise ValueError(f"invalid base at offset {off}")
        out.append((win.decode("ascii"), off))
    return out


def normalize_corpus(corpus: str | bytes) -> bytes:
    data = corpus.encode("ascii") if isinstance(corpus, str) else bytes(corpus)
    return data.upper()


# ---------------------------------------------------------------------------
# Ingestion programs


class KmerIngestProgram(Program):
    """Chunk-pool ingestion shared by all k-mer variants.

    A worker alternates between taking a chunk and processing it, so an
    injected failure between the two leaves an uncompleted chunk for the
    pool to reassign.  Processing extracts the chunk's windows, groups them
    into one batch per receiving worker with ``route``, and sends one
    envelope per batch stamped with the chunk's token id.

    Owner state only grows, by merge on delivery.  The program is idle once
    the pool is done and no live worker holds a chunk, so the run is at its
    fixpoint when, in addition, nothing is in flight or held.
    """

    def __init__(self, data: bytes, k: int, workers: int,
                 chunk_len: int | None = None):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.data = data
        self.k = k
        self.nworkers = workers
        self.chunk_len = chunk_len
        self.pool: WorkPool | None = None
        self.owners: tuple[int, ...] = ()
        self.current: dict[int, Chunk | None] = {}

    def setup(self, sim: Simulation) -> None:
        self.pool = WorkPool.from_bytes(
            self.data, chunk_len=self.chunk_len,
            target_chunks=8 * self.nworkers)
        for i in range(self.nworkers):
            wid = sim.register_worker(f"worker-{i}")
            self.pool.add_worker(wid)
            self.current[wid] = None
        # Ownership is fixed for the run; later joiners only ingest.
        self.owners = tuple(sorted(self.current))
        self.init_state()

    def init_state(self) -> None:
        raise NotImplementedError

    def owner_of(self, kmer: str) -> int:
        return self.owners[hash64(kmer) % len(self.owners)]

    def route(self, windows: list[tuple[str, int]]) -> dict[int, list]:
        """Group one chunk's windows into a batch per receiving worker."""
        batches: dict[int, list] = {}
        for kmer, off in windows:
            batches.setdefault(self.owner_of(kmer), []).append((kmer, off))
        return batches

    def worker_step(self, sim: Simulation, wid: int) -> None:
        chunk = self.current.get(wid)
        if chunk is None:
            chunk = self.pool.next(wid)
            if chunk is not None:
                self.current[wid] = chunk
                sim.log("assign", dst=wid, token_id=chunk.token_id)
            return
        batches = self.route(chunk_windows(self.data, chunk, self.k))
        for owner in sorted(batches):
            sim.send(wid, owner, ("ingest", tuple(batches[owner])),
                     token_id=chunk.token_id)
        self.pool.complete(wid, chunk)
        sim.log("complete", dst=wid, token_id=chunk.token_id)
        self.current[wid] = None

    def on_deliver(self, sim: Simulation, env: Envelope) -> None:
        _kind, pairs = env.payload
        self.absorb(env.dst, pairs)

    def absorb(self, wid: int, pairs: Iterable[tuple[str, int]]) -> None:
        raise NotImplementedError

    def idle(self, sim: Simulation) -> bool:
        return self.pool.done and all(
            self.current.get(wid) is None for wid in sim.alive_workers())

    def state_size(self) -> int:
        """Elements held in owner state; an O(state) end-of-run report."""
        raise NotImplementedError

    # -- harness hooks ------------------------------------------------------

    def handle_fail(self, sim: Simulation, wid: int) -> None:
        sim.fail_worker(wid)
        self.pool.fail(wid)
        self.current.pop(wid, None)

    def handle_join(self, sim: Simulation) -> int:
        wid = sim.register_worker(f"worker-{len(sim.workers)}")
        self.pool.add_worker(wid)
        self.current[wid] = None
        return wid


def _batch_lmap(pairs, value_of) -> LMap:
    grouped: dict[str, set] = {}
    for kmer, off in pairs:
        grouped.setdefault(kmer, set()).add(off)
    return LMap({kmer: value_of(offs) for kmer, offs in grouped.items()})


class ImplAProgram(KmerIngestProgram):
    """Owner shards: map from k-mer to grow-only set of instance ids."""

    def init_state(self) -> None:
        self.shards = {wid: LMap.bottom() for wid in self.owners}

    def absorb(self, wid, pairs) -> None:
        delta = _batch_lmap(pairs, lambda offs: GSet(frozenset(offs)))
        self.shards[wid].merge_in(delta)

    def state_size(self) -> int:
        return sum(len(v) for m in self.shards.values()
                   for v in m.entries.values())

    def histogram(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for wid in sorted(self.shards):
            for kmer, ids in self.shards[wid].entries.items():
                assert kmer not in counts, "k-mer key on two owner shards"
                counts[kmer] = len(ids)
        return counts


class ImplBProgram(ImplAProgram):
    """Like implementation A but identifier sets stop growing at a threshold."""

    def __init__(self, data, k, workers, threshold: int,
                 chunk_len: int | None = None):
        super().__init__(data, k, workers, chunk_len=chunk_len)
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold

    def absorb(self, wid, pairs) -> None:
        delta = _batch_lmap(
            pairs, lambda offs: ThresholdLSet(frozenset(offs), self.threshold))
        self.shards[wid].merge_in(delta)


class TableKmerProgram(KmerIngestProgram):
    """Ingestion into a G-Set global table hash-partitioned on the k-mer."""

    def init_state(self) -> None:
        self.table = GlobalTable(
            name="kmers", crdt_kind=GSet, schema=("seq", "token"),
            plan=PartitionPlan("hash", self.owners, column="seq"))

    def owner_of(self, kmer: str) -> int:
        return self.table.plan.owner_of_key(kmer)

    def absorb(self, wid, pairs) -> None:
        self.table.merge_shard(wid, GSet.of(pairs))

    def state_size(self) -> int:
        return sum(len(s) for s in self.table.shards.values())

    def aggregate(self, sim: Simulation):
        """Per-worker GROUP BY counts, concatenated; no messages needed."""
        query = plan_query(self.table, "seq")
        counts: dict[str, int] = {}
        for wid in sorted(self.table.shards):
            sim.log("aggregate", dst=wid)
            local: dict[str, int] = {}
            for seq, _token in self.table.shards[wid].elems:
                local[seq] = local.get(seq, 0) + 1
            for kmer, n in local.items():
                assert kmer not in counts, "k-mer key on two owner shards"
                counts[kmer] = n
        return counts, query


# ---------------------------------------------------------------------------
# Runners


@dataclass
class KmerRunResult:
    histogram: dict
    sim: Simulation
    program: KmerIngestProgram
    coordination_free: bool | None = None


def _harness_events(failures=(), joins=(), partitions=()):
    events: dict[int, list] = {}

    def at(tick):
        return events.setdefault(tick, [])

    for tick, wid in failures:
        at(tick).append(lambda sim, prog, w=wid: prog.handle_fail(sim, w))
    for tick in joins:
        at(tick).append(lambda sim, prog: prog.handle_join(sim))
    for tick, pairs in partitions:
        at(tick).append(lambda sim, prog, p=pairs: sim.set_partition(p))
    return events


def _run(program: KmerIngestProgram, schedule, failures, joins,
         partitions) -> tuple[Simulation, KmerIngestProgram]:
    sim = Simulation(schedule or DeliverySchedule())
    run_to_quiescence(sim, program,
                      _harness_events(failures, joins, partitions))
    return sim, program


def impl_a_run(corpus, k: int, workers: int,
               schedule: DeliverySchedule | None = None,
               failures=(), joins=(), partitions=(),
               chunk_len: int | None = None) -> KmerRunResult:
    data = normalize_corpus(corpus)
    sim, prog = _run(ImplAProgram(data, k, workers, chunk_len=chunk_len),
                     schedule, failures, joins, partitions)
    return KmerRunResult(prog.histogram(), sim, prog)


def impl_b_run(corpus, k: int, workers: int, threshold: int,
               schedule: DeliverySchedule | None = None,
               failures=(), joins=(), partitions=(),
               chunk_len: int | None = None) -> KmerRunResult:
    data = normalize_corpus(corpus)
    sim, prog = _run(
        ImplBProgram(data, k, workers, threshold, chunk_len=chunk_len),
        schedule, failures, joins, partitions)
    return KmerRunResult(prog.histogram(), sim, prog)


def table_kmer_run(corpus, k: int, workers: int,
                   schedule: DeliverySchedule | None = None,
                   failures=(), joins=(), partitions=(),
                   chunk_len: int | None = None) -> KmerRunResult:
    data = normalize_corpus(corpus)
    sim, prog = _run(TableKmerProgram(data, k, workers, chunk_len=chunk_len),
                     schedule, failures, joins, partitions)
    counts, query = prog.aggregate(sim)
    return KmerRunResult(counts, sim, prog,
                         coordination_free=query.coordination_free)


# ---------------------------------------------------------------------------
# Threshold counting via tick rules (instantaneous vs deferred merge)


def threshold_rule_run(corpus, k: int, threshold: int,
                       deferred: bool = True, batch: int = 64) -> dict[str, int]:
    """Threshold k-mer counting written as tick rules over plain lattices.

    Arrivals feed an ``incoming`` map guarded by the threshold read from
    ``local``; ``local`` absorbs ``incoming``.  With the local-merge rule
    instantaneous the two rules feed each other within one tick and engine
    construction raises :class:`StratificationError`; deferring the merge to
    the next tick makes the program run.
    """
    data = normalize_corpus(corpus)
    windows = chunk_windows(data, Chunk(0, len(data), 0), k)

    empty = GSet.bottom()

    def admit(tabs):
        arrivals, local = tabs["arrivals"], tabs["local"]
        kept = {
            kmer: ids for kmer, ids in arrivals.entries.items()
            if len(local.get(kmer, empty)) < threshold
        }
        return LMap(kept)

    engine = TickRuleEngine(
        tables={"arrivals": LMap.bottom(), "incoming": LMap.bottom(),
                "local": LMap.bottom()},
        rules=[
            Rule("incoming", admit, sources=("arrivals", "local")),
            Rule("local", lambda t: t["incoming"], sources=("incoming",),
                 deferred=deferred),
        ],
    )
    for i in range(0, len(windows), batch):
        chunk = windows[i:i + batch]
        engine.inject("arrivals", _batch_lmap(
            chunk, lambda offs: GSet(frozenset(offs))))
        engine.tick()
    engine.run_to_fixpoint()
    return {kmer: len(ids)
            for kmer, ids in engine.tables["local"].entries.items()}
