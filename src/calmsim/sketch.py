"""Count-min sketch over lattice-valued cells, under two distributions.

Cells hold sets of instance token ids rather than integer counters, so
inserts stay idempotent under at-least-once delivery: the estimate for an
item is the minimum cardinality over its h addressed cells, and it can only
over-count (never under-count).

- Design 1 partitions the m columns into contiguous slabs, one per worker;
  a query must gather its h cells from their owners and reduce by min, which
  is visible as cross-worker coordination in the event log.
- Design 2 replicates the full h-by-m matrix on every worker; owners insert
  locally and broadcast, replicas converge by cellwise set union, and a
  query is a purely local read.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from .dispenser import Chunk
from .hashing import hash64
from .kmer import KmerIngestProgram, _run, chunk_windows, normalize_corpus
from .runtime import DeliverySchedule, Envelope, Simulation
from .tables import IDK, PartitionPlan, Tristate, Value


@dataclass(frozen=True)
class CmsParams:
    """h hash rows by m columns, with one independent seed per row."""

    h: int
    m: int
    seeds: tuple

    def __post_init__(self):
        if self.h < 1 or self.m < 1:
            raise ValueError("h and m must be >= 1")
        if len(self.seeds) != self.h or len(set(self.seeds)) != self.h:
            raise ValueError("need h pairwise-distinct seeds")

    def columns(self, item: str) -> list[int]:
        """The column ``item`` addresses in each row, in row order."""
        return [hash64(item, seed) % self.m for seed in self.seeds]


def choose_params(epsilon: float, delta: float, seed: int = 0) -> CmsParams:
    """Standard sizing: m = ceil(e/epsilon) columns, h = ceil(ln(1/delta))
    rows, giving the usual (epsilon, delta) overcount guarantee."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    m = math.ceil(math.e / epsilon)
    h = math.ceil(math.log(1 / delta))
    return CmsParams(h, m, row_seeds(h, seed))


def row_seeds(h: int, seed: int = 0) -> tuple:
    rng = random.Random(seed)
    seeds: list[int] = []
    while len(seeds) < h:
        s = rng.getrandbits(64)
        if s not in seeds:
            seeds.append(s)
    return tuple(seeds)


class SketchMatrix:
    """h-by-m grid of token-id sets; cells only ever grow."""

    def __init__(self, params: CmsParams):
        self.params = params
        self.cells = [[set() for _ in range(params.m)]
                      for _ in range(params.h)]

    def insert(self, item: str, token: int) -> None:
        for i, j in enumerate(self.params.columns(item)):
            self.cells[i][j].add(token)

    def query(self, item: str) -> int:
        return min(len(self.cells[i][j])
                   for i, j in enumerate(self.params.columns(item)))

    def merge(self, other: "SketchMatrix") -> "SketchMatrix":
        if self.params != other.params:
            raise ValueError("cannot merge sketches with different params")
        out = SketchMatrix(self.params)
        for i in range(self.params.h):
            for j in range(self.params.m):
                out.cells[i][j] = self.cells[i][j] | other.cells[i][j]
        return out

    def total_tokens(self) -> int:
        return sum(len(c) for row in self.cells for c in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SketchMatrix)
                and self.params == other.params and self.cells == other.cells)

    def dump(self) -> dict:
        """JSON-friendly dump; token sets elided, cardinalities only."""
        return {
            "h": self.params.h,
            "m": self.params.m,
            "seeds": list(self.params.seeds),
            "cells": [len(c) for row in self.cells for c in row],
        }


def sequential_sketch(stream: Iterable[tuple[str, int]],
                      params: CmsParams) -> SketchMatrix:
    """Single-threaded reference sketch for the same (item, token) stream."""
    sk = SketchMatrix(params)
    for item, token in stream:
        sk.insert(item, token)
    return sk


def corpus_stream(corpus, k: int) -> list[tuple[str, int]]:
    """(k-mer, instance-token) pairs for a corpus; tokens are byte offsets."""
    data = normalize_corpus(corpus)
    return chunk_windows(data, Chunk(0, len(data), 0), k)


# ---------------------------------------------------------------------------
# Design 2: fully replicated matrix


class Design2Program(KmerIngestProgram):
    """Every worker holds a full replica; owners insert and broadcast."""

    def __init__(self, data, k, workers, params: CmsParams,
                 chunk_len: int | None = None):
        super().__init__(data, k, workers, chunk_len=chunk_len)
        self.params = params

    def init_state(self) -> None:
        self.replicas = {wid: SketchMatrix(self.params)
                         for wid in self.owners}

    def on_deliver(self, sim: Simulation, env: Envelope) -> None:
        kind, pairs = env.payload
        replica = self.replicas[env.dst]
        # SketchMatrix.insert inlined to count the tokens new to a cell;
        # insert itself stays as cheap as the sequential reference.
        new = 0
        for kmer, off in pairs:
            for row, j in zip(replica.cells, self.params.columns(kmer)):
                cell = row[j]
                if off not in cell:
                    cell.add(off)
                    new += 1
        self.inflations += new
        if kind == "ingest":
            # Owner's copy of the update gossips to every other replica.
            for wid in sorted(self.replicas):
                if wid != env.dst:
                    sim.send(env.dst, wid, ("replicate", pairs),
                             token_id=env.token_id)

    def state_size(self) -> int:
        return sum(r.total_tokens() for r in self.replicas.values())


@dataclass
class Design2Result:
    replicas: dict
    sim: Simulation
    program: Design2Program

    def sketch(self) -> SketchMatrix:
        return self.replicas[min(self.replicas)]

    def query(self, item: str) -> int:
        return self.sketch().query(item)

    def converged(self) -> bool:
        first = self.sketch()
        return all(r == first for r in self.replicas.values())


def design2_run(corpus, k: int, params: CmsParams, workers: int,
                schedule: DeliverySchedule | None = None,
                failures=(), joins=(), partitions=(),
                chunk_len: int | None = None,
                tick_cap: int = 100_000) -> Design2Result:
    data = normalize_corpus(corpus)
    sim, prog = _run(
        Design2Program(data, k, workers, params, chunk_len=chunk_len),
        schedule, failures, joins, partitions, tick_cap)
    return Design2Result(prog.replicas, sim, prog)


# ---------------------------------------------------------------------------
# Design 1: column-partitioned matrix


class Design1Program(KmerIngestProgram):
    """Columns range-partitioned into one slab per worker.

    Inserting an item routes each of its h cell updates to the worker owning
    that column; a query gathers the h addressed cells from their owners and
    reduces by min.
    """

    def __init__(self, data, k, workers, params: CmsParams,
                 chunk_len: int | None = None):
        super().__init__(data, k, workers, chunk_len=chunk_len)
        self.params = params

    def init_state(self) -> None:
        slab = -(-self.params.m // len(self.owners))
        boundaries = tuple(slab * i for i in range(1, len(self.owners)))
        self.column_plan = PartitionPlan("range", self.owners,
                                         column="column",
                                         boundaries=boundaries)
        self.slabs: dict[int, dict] = {wid: {} for wid in self.owners}

    def column_owner(self, j: int) -> int:
        return self.column_plan.owner_of_key(j)

    def route(self, windows: list[tuple[str, int]]) -> dict[int, list]:
        """Each window becomes h ``(row, column, token)`` cell updates,
        batched by the worker owning the column."""
        batches: dict[int, list] = {}
        for kmer, off in windows:
            for i, j in enumerate(self.params.columns(kmer)):
                batches.setdefault(self.column_owner(j), []).append((i, j, off))
        return batches

    def on_deliver(self, sim: Simulation, env: Envelope) -> None:
        slab = self.slabs[env.dst]
        new = 0
        for i, j, token in env.payload[1]:
            cell = slab.setdefault((i, j), set())
            if token not in cell:
                cell.add(token)
                new += 1
        self.inflations += new

    def state_size(self) -> int:
        return sum(len(c) for slab in self.slabs.values()
                   for c in slab.values())


@dataclass
class Design1Result:
    slabs: dict
    sim: Simulation
    program: Design1Program

    def query(self, item: str, at_worker: int = 0) -> Tristate:
        """Gather-then-min across the owning workers of the h cells.

        Each remote cell read is logged as a gather event.  If any owning
        worker is unreachable from the querying worker, the honest answer
        is IDK.
        """
        prog = self.program
        sizes = []
        for i, j in enumerate(prog.params.columns(item)):
            owner = prog.column_owner(j)
            if self.sim.net.partitioned(at_worker, owner):
                return IDK
            if owner != at_worker:
                self.sim.log("gather", src=at_worker, dst=owner)
            sizes.append(len(self.slabs[owner].get((i, j), ())))
        return Value(min(sizes))

    def estimate(self, item: str, at_worker: int = 0) -> int:
        out = self.query(item, at_worker)
        if not isinstance(out, Value):
            raise RuntimeError(f"query returned {out!r}")
        return out.payload


def design1_run(corpus, k: int, params: CmsParams, workers: int,
                schedule: DeliverySchedule | None = None,
                failures=(), joins=(), partitions=(),
                chunk_len: int | None = None,
                tick_cap: int = 100_000) -> Design1Result:
    data = normalize_corpus(corpus)
    sim, prog = _run(
        Design1Program(data, k, workers, params, chunk_len=chunk_len),
        schedule, failures, joins, partitions, tick_cap)
    return Design1Result(prog.slabs, sim, prog)
