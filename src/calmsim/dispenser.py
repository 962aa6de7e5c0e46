"""Chunk pool over a large input with dynamic assignment and failure
recovery.

The input is tiled into chunks, each stamped with a token id derived from
its byte offset alone, so a re-read chunk keeps its token, and delivery
fates keyed by tokens do not change with the input's content.
Workers pull chunks as they finish work: fast workers simply call ``next``
more often.  When a worker fails, its completed chunks stay completed and
its uncompleted chunks return to the pending pool for survivors, held back
until a tick after the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownWorkerError
from .hashing import hash64


@dataclass(frozen=True, order=True)
class Chunk:
    start: int
    length: int
    token_id: int


def _tile(data: bytes, chunk_len: int) -> list[Chunk]:
    if chunk_len <= 0:
        raise ValueError("chunk_len must be positive")
    chunks = []
    for start in range(0, len(data), chunk_len):
        length = min(chunk_len, len(data) - start)
        token = hash64(start.to_bytes(8, "little"))
        chunks.append(Chunk(start, length, token))
    return chunks


class WorkPool:
    """Pending / assigned / completed accounting for a chunk tiling."""

    def __init__(self, data: bytes, chunk_len: int):
        self.pending: list[Chunk] = sorted(_tile(data, chunk_len))
        self.assigned: dict[int, set[Chunk]] = {}
        self.completed: set[Chunk] = set()
        self.lost_at: dict[Chunk, int] = {}  # chunk -> tick it was last lost

    def add_worker(self, wid: int) -> None:
        self.assigned.setdefault(wid, set())

    def next(self, wid: int, now: int) -> Chunk | None:
        """Assign the first pending chunk not lost at tick ``now`` or later,
        or None when there is none.

        Chunks still assigned elsewhere may be in flight even when pending is
        empty; ``done`` tells the two apart.
        """
        if wid not in self.assigned:
            raise UnknownWorkerError(f"worker {wid} not registered with the pool")
        for i, chunk in enumerate(self.pending):
            if self.lost_at.get(chunk, -1) < now:
                self.assigned[wid].add(self.pending.pop(i))
                return chunk
        return None

    def complete(self, wid: int, chunk: Chunk) -> None:
        if wid not in self.assigned:
            raise UnknownWorkerError(f"worker {wid} not registered with the pool")
        if chunk not in self.assigned[wid]:
            raise ValueError(f"chunk at {chunk.start} is not assigned to worker {wid}")
        self.assigned[wid].discard(chunk)
        self.completed.add(chunk)

    def fail(self, wid: int, now: int) -> list[Chunk]:
        """Return the failed worker's uncompleted chunks to the pool, for
        ``next`` to hand out from the tick after ``now``.

        Completed chunks are never reassigned.
        """
        if wid not in self.assigned:
            raise UnknownWorkerError(f"worker {wid} not registered with the pool")
        lost = sorted(self.assigned.pop(wid))
        self.lost_at.update(dict.fromkeys(lost, now))
        self.pending = sorted(self.pending + lost)
        return lost

    @property
    def done(self) -> bool:
        return not self.pending and not any(self.assigned.values())
