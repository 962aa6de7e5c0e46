"""Deterministic multi-worker discrete-event simulator.

Workers communicate through channels with at-least-once delivery: a seeded
schedule may reorder envelopes within a window, duplicate them, or drop them
(dropped envelopes are re-sent with exponential backoff, so every envelope is
eventually delivered at least once).  A message is named by its link, its
token and how many sends of that token on that link came before; each
enqueue's fate is one keyed hash of that name, the attempt and the copy.
So a send added elsewhere moves no other message's fate, no other seeded
stream is drawn from, and identical (program, input, seed, config) yields
a byte-identical event log.

State already merged into a shard survives worker failure: failure means the
worker leaves the work pool and stops taking steps, not that its converged
lattice state evaporates.  Envelopes in flight still deliver.  This mirrors
the work-pool rule that completed work is never redone.
"""

from __future__ import annotations

import heapq
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import DivergenceError, UnknownWorkerError
from .hashing import hash64
# Kept only because bench/workloads.py imports the engine from here and
# bench/tracer.py patches it here; the rule layer lives in tables.
from .tables import TickRuleEngine  # noqa: F401


@dataclass(frozen=True)
class DeliverySchedule:
    """Knobs of the adversarial delivery schedule; all draws use ``seed``."""

    seed: int = 0
    duplicate_prob: float = 0.0
    reorder_window: int = 0
    drop_prob: float = 0.0

    def __post_init__(self):
        for p in (self.duplicate_prob, self.drop_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        if self.drop_prob >= 1.0:
            raise ValueError("drop_prob must be < 1 for liveness")
        if not isinstance(self.reorder_window, int):
            raise ValueError("reorder_window must be an int")
        if self.reorder_window < 0:
            raise ValueError("reorder_window must be >= 0")


@dataclass(frozen=True)
class Envelope:
    """One delivered data unit.

    ``token_id`` identifies the data; ``n`` counts the earlier sends of
    ``token_id`` on its link, so ``(src, dst, token_id, n)`` names this send
    alone: a re-send after a failure is a later send, a network duplicate
    the same one.
    """

    token_id: int
    src: int
    dst: int
    payload: Any
    n: int = 0


class KeyedChoices:
    """A choice source's ``fate`` gives an enqueue's ``(delay, dropped,
    dup)``, ``dup`` read on a send's first enqueue only.  This default one
    hashes the message key once under the schedule's seed."""

    def __init__(self, schedule: DeliverySchedule):
        self.schedule = schedule

    def fate(self, env: Envelope, attempts: int, copy: int) -> tuple:
        s = self.schedule
        h = hash64(struct.pack("<6Q", env.src, env.dst, env.token_id, env.n,
                               attempts, copy), s.seed)
        return ((h % 2**21) * (s.reorder_window + 1) >> 21,
                ((h >> 21) % 2**21) / 2**21 < s.drop_prob,
                (h >> 43) / 2**21 < s.duplicate_prob)  # the top 21 bits


class NetworkCondition:
    """Healthy, or partitioned across a symmetric set of worker pairs.

    ``ValueError`` unless each pair names two distinct workers."""

    def __init__(self, cut: Iterable = ()):
        cut = [tuple(pair) for pair in cut]
        if any(len(pair) != 2 for pair in cut):
            raise ValueError("each cut pair must name two workers")
        for a, b in cut:
            if a == b:
                raise ValueError(f"worker {a} cannot be cut off from itself")
        self._cut = frozenset(map(frozenset, cut))

    def partitioned(self, a: int, b: int) -> bool:
        return bool(self._cut) and a != b and frozenset((a, b)) in self._cut


_BACKOFF_CAP = 32
_TICK_CAP = 100_000


class Simulation:
    """Single-threaded deterministic event loop.

    Not shareable across threads; run independent instances in parallel
    instead (e.g. one per seed).
    """

    def __init__(self, schedule: DeliverySchedule | None = None,
                 choices=None):
        self.choices = choices or KeyedChoices(schedule or DeliverySchedule())
        self._sent: Counter = Counter()  # (src, dst, token_id) -> sends
        self.now = 0
        self.net = NetworkCondition()
        self.workers: dict[int, bool] = {}  # worker id -> alive
        self.events: list[tuple] = []
        self._units: dict[tuple, tuple] = {}  # unit event -> itself
        # heapq of (due, seq, env, attempts, dropped, copy); seq is unique
        self.in_flight: list[tuple] = []
        self.held: list[Envelope] = []
        self._seq = 0

    # -- membership ---------------------------------------------------------

    def register_worker(self) -> int:
        wid = len(self.workers)
        self.workers[wid] = True
        self.log("register", dst=wid)
        return wid

    def fail_worker(self, wid: int) -> None:
        self._known(wid)
        self.workers[wid] = False
        self.log("fail", dst=wid)

    def alive_workers(self) -> list[int]:
        return sorted(wid for wid, alive in self.workers.items() if alive)

    def _known(self, wid: int) -> None:
        if wid not in self.workers:
            raise UnknownWorkerError(f"worker {wid} was never registered")

    # -- network ------------------------------------------------------------

    def set_partition(self, pairs: Iterable) -> None:
        """Replace the partition set; healing releases held envelopes.
        Each pair must name two distinct registered workers."""
        net = NetworkCondition(pairs)
        for wid in sorted(set().union(*net._cut)):
            self._known(wid)
        self.net = net
        self.log("partition")
        still_held = []
        for env in self.held:
            if self.net.partitioned(env.src, env.dst):
                still_held.append(env)
            else:
                self._launch(env)
        self.held = still_held

    def heal(self) -> None:
        self.set_partition(())

    # -- channel ------------------------------------------------------------

    def send(self, src: int, dst: int, payload, token_id: int = 0) -> Envelope:
        n = self._sent[src, dst, token_id]
        self._sent[src, dst, token_id] = n + 1
        env = Envelope(token_id, src, dst, payload, n)
        self.log("send", src, dst, token_id, n)
        if self.net.partitioned(src, dst):
            # Held asynchronously until the partition heals; never blocks.
            self.held.append(env)
            self.log("hold", src, dst, token_id, n)
        else:
            self._launch(env)
        return env

    def _launch(self, env: Envelope) -> None:
        """Put a sent or released ``env`` in flight, twice if it duplicates."""
        if self._enqueue(env, attempts=0):
            self.log("dup", env.src, env.dst, env.token_id, env.n)
            self._enqueue(env, attempts=0, copy=1)

    def _enqueue(self, env: Envelope, attempts: int, copy: int = 0) -> bool:
        """Queue ``env`` with its fate; True when a first send duplicates."""
        delay, dropped, dup = self.choices.fate(env, attempts, copy)
        backoff = 0 if attempts == 0 else min(2 ** attempts, _BACKOFF_CAP)
        due = self.now + 1 + backoff + delay
        self._seq += 1
        heapq.heappush(self.in_flight,
                       (due, self._seq, env, attempts, dropped, copy))
        return dup and attempts == copy == 0

    def deliver_due(self) -> list[Envelope]:
        """Deliver every envelope due by now in ``(due, seq)`` order.  A
        dropped one is re-sent with ``due > now``, so not in this call."""
        delivered = []
        while self.in_flight and self.in_flight[0][0] <= self.now:
            _, _, env, attempts, dropped, copy = heapq.heappop(self.in_flight)
            self.log("drop" if dropped else "deliver", env.src, env.dst,
                     env.token_id, env.n)
            if dropped:
                self._enqueue(env, attempts + 1, copy)
            else:
                delivered.append(env)
        return delivered

    # -- event log ----------------------------------------------------------

    def log(self, kind: str, src=None, dst=None, token_id=None,
            n=None) -> None:
        event = (self.now, kind, src, dst, token_id, n)
        if token_id is None:  # a unit event: equal ones share one tuple
            event = self._units.setdefault(event, event)
        self.events.append(event)

    def event_lines(self) -> str:
        """Line-delimited ``tick,event_kind,src,dst,token_id,n``."""
        def cell(v):
            return "" if v is None else str(v)

        return "\n".join(
            ",".join(cell(v) for v in ev) for ev in self.events
        ) + ("\n" if self.events else "")


class Program:
    """Workload plugged into the simulation loop; all hooks optional.

    State changes only in the hooks, a worker step as well as a delivery,
    and in harness actions.  So ``idle`` is the one contract a program must
    meet: it is False while any ``worker_step`` or ``on_tick`` could still
    change state or send.  Work left with no live worker, no
    harness event left and nothing in flight is stuck: the run raises.
    """

    def setup(self, sim: Simulation) -> None:
        pass

    def on_tick(self, sim: Simulation) -> None:
        pass

    def worker_step(self, sim: Simulation, wid: int) -> None:
        pass

    def on_deliver(self, sim: Simulation, env: Envelope) -> None:
        pass

    def idle(self, sim: Simulation) -> bool:
        return True

    def fingerprint(self, sim: Simulation):
        """Not called by the runtime.

        Kept only because the benchmark's tracer (``bench/tracer.py``)
        patches ``fingerprint`` on the k-mer programs and fails with
        ``AttributeError`` if the name is gone.  Delete it together with
        that patch.
        """
        return None


def run_to_quiescence(sim: Simulation, program: Program,
                      events: Mapping[int, Sequence[Callable]] | None = None):
    """Tick until the run is at its fixpoint.

    Before each tick, the run stops when nothing is in flight or held,
    ``program.idle(sim)`` is true and every harness event has run
    (``sim.now >= max(events)``).  Lattice state grows only on delivery
    and in a worker step, which changes nothing once the program is idle,
    so from there no tick could change it.  Raises ``DivergenceError``
    when that takes more than ``_TICK_CAP`` ticks, and at once when only
    held envelopes are left: only ``set_partition`` releases them, and no
    harness event is left to call it; and at once when the program is not
    idle, but no worker is alive, no harness event is left to add one and
    nothing is in flight.

    ``events`` maps ticks from 1 on to harness callables (failure injection,
    joins, partitions) invoked at the start of that tick with
    ``(sim, program)``; ``ValueError`` for an earlier one, which never runs.
    """
    events = events or {}
    if min(events, default=1) < 1:
        raise ValueError(f"harness event at tick {min(events)} never runs: "
                         "the run starts at tick 1")
    last_event = max(events, default=0)
    program.setup(sim)
    while sim.in_flight or sim.now < last_event or (
            not program.idle(sim) and sim.alive_workers()):
        if sim.now >= _TICK_CAP:
            raise DivergenceError(f"no quiescence within {_TICK_CAP} ticks")
        sim.now += 1
        for action in events.get(sim.now, ()):
            action(sim, program)
        program.on_tick(sim)
        for wid in sim.alive_workers():
            program.worker_step(sim, wid)
        for env in sim.deliver_due():
            program.on_deliver(sim, env)
    if sim.held:
        links = Counter((env.src, env.dst) for env in sim.held)
        per_link = ", ".join(f"{src}->{dst}: {n}"
                             for (src, dst), n in sorted(links.items()))
        raise DivergenceError(
            f"no quiescence: {len(sim.held)} envelopes are held by a "
            f"partition that no later event heals (per cut link: {per_link})")
    if not program.idle(sim):
        raise DivergenceError(
            "no quiescence: work is left but no worker is alive, and no "
            "later event adds one")
