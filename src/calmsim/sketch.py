"""Count-min sketch over lattice-valued cells, under two distributions.

Cells hold sets of instance token ids rather than integer counters, so
inserts stay idempotent under at-least-once delivery: the estimate for an
item is the minimum cardinality over its h addressed cells, and it can only
over-count (never under-count).  Both designs hash where a window is
ingested and send each receiver a chunk's cells as one batch, the flat
tuples ``(cells, tokens)`` with cell ``i * m + j`` for row i, column j.  An
owner keeps each batch whole under its first token, so a resent or rebuilt
batch changes nothing, and a cell's size is a count over its batches.  A
run memoizes each item's cells, so it hashes each distinct item once.

- Design 1 partitions the m columns into contiguous slabs, one per worker;
  a query must gather its h cells from their owners and reduce by min, which
  is visible as cross-worker coordination in the event log.
- Design 2 replicates the full h-by-m matrix on every worker; the ingesting
  worker sends one batch of a chunk's cells to every replica, replicas never
  hash or send and converge by union of batch maps, and a query is a purely
  local read.  The simulated replicas share that batch's tuples, which real
  replicas, each with its own memory, could not.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .hashing import hash64
# corpus_stream is re-exported: the sketch tests and benchmark read it here.
from .kmer import KmerIngestProgram, _run, corpus_stream
from .runtime import Simulation
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
        data = item.encode("utf-8")  # once for all h rows
        return [hash64(data, seed) % self.m for seed in self.seeds]


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


_NO_CELL = frozenset()


class SketchMatrix:
    """h-by-m grid of token-id sets; cells only ever grow.

    ``columns`` limits storage to the columns an owner fills.  Every other
    cell is one shared empty frozenset: it reads as an empty cell and
    rejects writes.
    """

    def __init__(self, params: CmsParams, columns: Iterable[int] | None = None):
        self.params = params
        owned = set(range(params.m) if columns is None else columns)
        self.cells = [[set() if j in owned else _NO_CELL
                       for j in range(params.m)] for _ in range(params.h)]

    def insert(self, item: str, token: int) -> None:
        for i, j in enumerate(self.params.columns(item)):
            self.cells[i][j].add(token)

    def add(self, cells: Iterable[tuple[int, int, int]]) -> None:
        """Apply ``(row, column, token)`` cell updates by set union."""
        grid = self.cells
        for i, j, token in cells:
            grid[i][j].add(token)

    def query(self, item: str) -> int:
        return min(len(self.cells[i][j])
                   for i, j in enumerate(self.params.columns(item)))

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


class _CellProgram(KmerIngestProgram):
    """Owner ``w`` keeps ``batches[w]``, each batch under its first token,
    and ignores the ``()`` batch of a chunk with no window.

    ``counts(w)``, cell -> size, is built on first read and dropped when
    ``w`` absorbs; ``sketches`` are :class:`SketchMatrix` copies.  The
    :meth:`cells` memo is this program's alone: nothing is cached on
    ``params``, which the sequential reference shares.
    """

    def __init__(self, corpus, k, workers, params: CmsParams):
        super().__init__(corpus, k, workers)
        self.params = params
        self._cells: dict[str, tuple] = {}

    def cells(self, item: str) -> tuple:
        """``item``'s cell ``i * m + j`` in each row i, hashed on first use."""
        cells = self._cells.get(item)
        if cells is None:
            m = self.params.m
            cells = self._cells[item] = tuple(
                i * m + j for i, j in enumerate(self.params.columns(item)))
        return cells

    def init_state(self) -> None:
        self.batches = {wid: {} for wid in self.plan.workers}
        self._counts: dict[int, Counter] = {}

    def absorb(self, wid, delta: tuple) -> None:
        if delta and self.batches[wid].setdefault(delta[1][0], delta) != delta:
            raise AssertionError("two batches, one first token")
        self._counts.pop(wid, None)

    def counts(self, wid: int) -> Counter:
        """Cell -> its size at ``wid``: a token is in one batch per owner."""
        if wid not in self._counts:
            self._counts[wid] = Counter(chain.from_iterable(
                cells for cells, _ in self.batches[wid].values()))
        return self._counts[wid]

    def matrix(self, wid: int, columns=None) -> SketchMatrix:
        sk, m = SketchMatrix(self.params, columns), self.params.m
        sk.add((*divmod(c, m), token) for cells, tokens
               in self.batches[wid].values() for c, token in zip(cells, tokens))
        return sk

    @property
    def sketches(self) -> dict[int, SketchMatrix]:
        return {wid: self.matrix(wid) for wid in self.batches}

    def state_size(self) -> int:
        return sum(len(b[0]) for r in self.batches.values() for b in r.values())


# ---------------------------------------------------------------------------
# Design 2: fully replicated matrix


class Design2Program(_CellProgram):
    """Every worker holds a full replica; the ingesting worker sends each
    chunk's cells to every replica, and a replica only merges them."""

    def route(self, windows: list[tuple[str, int]]) -> dict[int, tuple]:
        """One ``(cells, tokens)`` batch, ``()`` with no window, for every
        replica; ``delta`` returns it as is (``tuple`` of a tuple is itself)."""
        h, cells = self.params.h, self.cells
        batch = (tuple(chain.from_iterable([cells(km) for km, _ in windows])),
                 tuple(chain.from_iterable([(o,) * h for _, o in windows])))
        return dict.fromkeys(self.plan.workers, batch if windows else ())


@dataclass
class Design2Result:
    sim: Simulation
    program: Design2Program

    def sketch(self) -> SketchMatrix:
        return self.program.matrix(min(self.program.batches))

    def query(self, item: str) -> int:
        counts = self.program.counts(min(self.program.batches))
        return min(counts[c] for c in self.program.cells(item))

    def converged(self) -> bool:
        first, *rest = self.program.batches.values()
        return all(r == first for r in rest)


def design2_run(corpus, k: int, params: CmsParams, workers: int,
                **faults) -> Design2Result:
    return Design2Result(*_run(Design2Program(corpus, k, workers, params),
                               **faults))


# ---------------------------------------------------------------------------
# Design 1: column-partitioned matrix


class Design1Program(_CellProgram):
    """Columns range-partitioned into one slab per worker.

    Inserting an item routes each of its h cells to the worker owning that
    column; a query gathers the h addressed cells from their owners and
    reduces by min.
    """

    def init_state(self) -> None:
        super().init_state()
        owners = self.plan.workers
        slab = -(-self.params.m // len(owners))
        boundaries = tuple(slab * i for i in range(1, len(owners)))
        plan = PartitionPlan("range", owners, column="column",
                             boundaries=boundaries)
        self.column_owners = [plan.owner_of_key(j) for j in range(self.params.m)]
        self.cell_owners = self.column_owners * self.params.h  # by i * m + j

    def route(self, windows: list[tuple[str, int]]) -> dict[int, tuple]:
        """A ``(cells, tokens)`` batch per worker owning a cell's column."""
        owners = self.cell_owners
        batches = {wid: ([], []) for wid in self.plan.workers}
        for kmer, off in windows:
            for c in self.cells(kmer):
                cells, tokens = batches[owners[c]]
                cells.append(c)
                tokens.append(off)
        return {w: tuple(map(tuple, b)) for w, b in batches.items() if b[0]}

    @property
    def sketches(self) -> dict[int, SketchMatrix]:
        return {wid: self.matrix(wid, [j for j, o in enumerate(
                    self.column_owners) if o == wid]) for wid in self.batches}


@dataclass
class Design1Result:
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
        for c in prog.cells(item):
            owner = prog.cell_owners[c]
            if self.sim.net.partitioned(at_worker, owner):
                return IDK
            if owner != at_worker:
                self.sim.log("gather", src=at_worker, dst=owner)
            sizes.append(prog.counts(owner)[c])
        return Value(min(sizes))

    def estimate(self, item: str, at_worker: int = 0) -> int:
        out = self.query(item, at_worker)
        if not isinstance(out, Value):
            raise RuntimeError(f"query returned {out!r}")
        return out.payload


def design1_run(corpus, k: int, params: CmsParams, workers: int,
                **faults) -> Design1Result:
    return Design1Result(*_run(Design1Program(corpus, k, workers, params),
                               **faults))
