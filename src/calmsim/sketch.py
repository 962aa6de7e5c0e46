"""Count-min sketch over lattice-valued cells, held as replicated slabs.

Cells hold sets of instance token ids rather than integer counters, so
inserts stay idempotent under at-least-once delivery: the estimate for an
item is the minimum cardinality over its h addressed cells, and it can only
over-count (never under-count).  Cell ``i * m + j`` is row i, column j.

The m columns split into ceil(n / r) contiguous slabs over n workers, each
held by r consecutive workers.  The ingesting worker hashes its chunk's
k-mer and id columns (``corpus_stream`` pairs are the reference's scan);
``route`` gives each slab's holders one shared batch of its cells,
``(cells, tokens)``: cell ids in ``"H"`` (``"I"`` when h*m exceeds 2**16)
and tokens, byte offsets, in ``"I"`` (``"Q"`` from 2**32 on, as
``kmer.words`` builds them), machine words rather than boxed ints.  A
holder keeps each batch whole under its first token, so a resent or
rebuilt batch changes nothing, and a cell's size is a count over its
batches.  A run hashes each distinct item once, and its memo of an item's
cells refers to one shared int per cell id.

- Design 1 (r = 1) partitions the columns, a slab per worker: a query
  gathers cells from their holders, visible as gather events in the log;
  the log interns them, so equal gathers share one tuple.
- Design 2 (r = n) replicates the full matrix on every worker: replicas
  converge by union of batch maps, and a query is a local read.  The
  simulated replicas share each batch's tuples, which real replicas,
  each with its own memory, could not.
"""

from __future__ import annotations

import math
import random
import struct
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .hashing import hash64
# corpus_stream is re-exported: the sketch tests and benchmark read it here.
from .kmer import KmerIngestProgram, _run, corpus_stream, words
from .runtime import Simulation
from .tables import IDK, Tristate, Value


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


class SketchMatrix:
    """h-by-m grid of token-id sets; cells only ever grow."""

    def __init__(self, params: CmsParams):
        self.params = params
        self.cells = [[set() for _ in range(params.m)]
                      for _ in range(params.h)]

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
        return {"h": self.params.h, "m": self.params.m,
                "seeds": list(self.params.seeds),
                "cells": [len(c) for row in self.cells for c in row]}


def sequential_sketch(stream: Iterable[tuple[str, int]],
                      params: CmsParams) -> SketchMatrix:
    """Single-threaded reference sketch for the same (item, token) stream."""
    sk = SketchMatrix(params)
    for item, token in stream:
        sk.insert(item, token)
    return sk


class _CellProgram(KmerIngestProgram):
    """Owner ``w`` keeps ``batches[w]`` as the base class does, a batch's
    first id its first token.  The constructor builds ``slabs``, each slab's
    ``replicas`` holders, and ``holders[c]``, cell c's, over ``0..n-1``.

    ``counts(w)``, cell -> size, is built on first read and dropped when
    ``w`` absorbs.  The :meth:`cells` memo is this program's alone:
    nothing is cached on ``params``, which the sequential reference shares.
    Its tuples share ``_ids``, one int per cell id, built once.
    """

    def __init__(self, corpus, k, workers, params: CmsParams, replicas: int):
        super().__init__(corpus, k, workers)
        self.params = params
        size = params.h * params.m
        # The narrowest array code that holds the last cell id, size - 1.
        self._cell_code = "H" if size <= 1 << 16 else "I"
        self._ids = tuple(range(size))  # one int per cell, for the memo
        self._cells: dict[str, tuple] = {}
        self._counts: dict[int, Counter] = {}
        m, w = params.m, self.workers
        self.slabs = [w[i:i + replicas] for i in range(0, workers, replicas)]
        width = -(-m // len(self.slabs))  # the last slab may be narrower
        self._slab_of = [j // width for j in range(m)] * params.h
        self.holders = [self.slabs[s] for s in self._slab_of]

    def cells(self, item: str) -> tuple:
        """``item``'s cell ``i * m + j`` in each row i, hashed on first use."""
        cells = self._cells.get(item)
        if cells is None:
            ids, m = self._ids, self.params.m
            cells = self._cells[item] = tuple(
                ids[i * m + j] for i, j in enumerate(self.params.columns(item)))
        return cells

    def route(self, kmers: list[str], ids: list[int]) -> dict[int, tuple]:
        """Each holder's payload from the chunk's k-mer and id columns: one
        ``(cells, tokens)`` batch per slab with cells, grouped in lists and
        stored as two typed arrays, the same object for each holder; a slab
        with no cell gets nothing.  Tokens are :func:`kmer.words`, ``"I"``
        below 2**32.  The cells array is packed, not built from the list,
        which CPython 3.11 parses item by item for ``"H"``."""
        slab_of, get, cells = self._slab_of, self._cells.get, self.cells
        grouped = [([], []) for _ in self.slabs]
        for kmer, off in zip(kmers, ids):
            for c in get(kmer) or cells(kmer):  # a memo tuple is never empty
                slab_cells, tokens = grouped[slab_of[c]]
                slab_cells.append(c)
                tokens.append(off)
        out, code = {}, self._cell_code
        for held, (slab_cells, tokens) in zip(self.slabs, grouped):
            if slab_cells:
                batch = array(code), words(tokens)
                batch[0].frombytes(struct.pack(f"{len(slab_cells)}{code}",
                                               *slab_cells))
                out.update(dict.fromkeys(held, batch))
        return out

    def absorb(self, wid, delta: tuple) -> None:
        super().absorb(wid, delta)
        self._counts.pop(wid, None)

    def counts(self, wid: int) -> Counter:
        """Cell -> its size at ``wid``: a token is in one batch per owner."""
        if wid not in self._counts:
            self._counts[wid] = Counter(chain.from_iterable(
                cells for cells, _ in self.batches[wid].values()))
        return self._counts[wid]

    def matrix(self, *wids: int) -> SketchMatrix:
        """The cells the workers ``wids`` hold, as one grid."""
        sk, m = SketchMatrix(self.params), self.params.m
        sk.add((*divmod(c, m), token) for wid in wids for cells, tokens
               in self.batches[wid].values() for c, token in zip(cells, tokens))
        return sk


# One name per design, because the benchmark tracer and the tests patch each.
class Design1Program(_CellProgram):
    """Column-partitioned: ``design1_run`` gives each slab one holder."""


class Design2Program(_CellProgram):
    """Fully replicated: ``design2_run`` has every worker hold one slab."""


@dataclass
class SketchResult:
    sim: Simulation
    program: _CellProgram

    def query(self, item: str, at_worker: int = 0) -> Tristate:
        """Min over the item's h cells: from ``at_worker``'s counts, read
        once, where it holds the cell, else gathered (and logged) from the
        slab's first reachable holder; IDK, the honest answer, if every
        holder is cut off.  A worker never registered raises
        :class:`UnknownWorkerError`; a joined or failed one reads."""
        self.sim._known(at_worker)
        prog, log = self.program, self.sim.log
        holders, counts = prog.holders, prog.counts
        partitioned = self.sim.net.partitioned
        local = counts(at_worker) if at_worker in prog.batches else None
        sizes = []
        for c in prog.cells(item):
            held = holders[c]
            if at_worker in held:  # a worker always reaches itself
                sizes.append(local[c])
                continue
            for src in held:
                if not partitioned(at_worker, src):
                    break
            else:
                return IDK
            log("gather", at_worker, src)
            sizes.append(counts(src)[c])
        return Value(min(sizes))

    def estimate(self, item: str, at_worker: int = 0) -> int:
        # SketchResult's query by name: Design2Result.query is this method.
        out = SketchResult.query(self, item, at_worker)
        if not isinstance(out, Value):
            raise RuntimeError(f"query returned {out!r}")
        return out.payload

    def converged(self) -> bool:
        """True when every holder of a slab has the same batches."""
        batches = self.program.batches
        return all(batches[wid] == batches[held[0]]
                   for held in self.program.slabs for wid in held)

    def sketch(self) -> SketchMatrix:
        """The full matrix, read from each slab's first holder."""
        return self.program.matrix(*(held[0] for held in self.program.slabs))


Design1Result = SketchResult


class Design2Result(SketchResult):
    query = SketchResult.estimate


def design1_run(corpus, k: int, params: CmsParams, workers: int,
                **faults) -> Design1Result:
    return Design1Result(*_run(Design1Program(corpus, k, workers, params, 1),
                               **faults))


def design2_run(corpus, k: int, params: CmsParams, workers: int,
                **faults) -> Design2Result:
    return Design2Result(*_run(
        Design2Program(corpus, k, workers, params, workers), **faults))
