"""Deterministic multi-worker discrete-event simulator.

Workers communicate through channels with at-least-once delivery: a seeded
schedule may reorder envelopes within a window, duplicate them, or drop them
(dropped envelopes are re-sent with exponential backoff, so every envelope is
eventually delivered at least once).  All randomness flows from a single
seed; identical (program, input, seed, config) yields a byte-identical event
log.

State already merged into a shard survives worker failure: failure means the
worker leaves the work pool and stops taking steps, not that its converged
lattice state evaporates.  Envelopes in flight still deliver.  This mirrors
the work-pool rule that completed work is never redone.

The tick-rule engine at the bottom gives table-update rules two timing
modes: instantaneous rules (``<=``) apply within the current tick and are
visible to later rules in the same tick; deferred rules (``<+``) buffer
their merge until the next tick.  An instantaneous cycle is a static
stratification error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from . import lattice
from .errors import DivergenceError, StratificationError, UnknownWorkerError
from .lattice import GSet, Timestamp


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
        if self.reorder_window < 0:
            raise ValueError("reorder_window must be >= 0")


@dataclass(frozen=True)
class Envelope:
    """One delivered data unit.

    ``token_id`` identifies the data; ``use_id`` identifies this particular
    use of it, so re-reads after a failure are distinguishable from network
    duplicates.
    """

    token_id: int
    use_id: int
    src: int
    dst: int
    payload: Any


class NetworkCondition:
    """Healthy, or partitioned across a symmetric set of worker pairs."""

    def __init__(self, cut: Iterable = ()):
        self._cut = frozenset(frozenset(pair) for pair in cut)

    @property
    def healthy(self) -> bool:
        return not self._cut

    def partitioned(self, a: int, b: int) -> bool:
        return a != b and frozenset((a, b)) in self._cut


@dataclass
class _Worker:
    wid: int
    meta: Any
    alive: bool = True
    clock: int = 0


@dataclass
class _Flight:
    due: int
    seq: int
    env: Envelope
    attempts: int
    dropped: bool


_BACKOFF_CAP = 32


class Simulation:
    """Single-threaded deterministic event loop.

    Not shareable across threads; run independent instances in parallel
    instead (e.g. one per seed).
    """

    def __init__(self, schedule: DeliverySchedule | None = None,
                 tick_cap: int = 100_000):
        self.schedule = schedule or DeliverySchedule()
        self.tick_cap = tick_cap
        self.rng = random.Random(self.schedule.seed)
        self.now = 0
        self.net = NetworkCondition()
        self.workers: dict[int, _Worker] = {}
        self.membership = GSet.bottom()
        self.events: list[tuple] = []
        self.in_flight: list[_Flight] = []
        self.held: list[Envelope] = []
        self._seq = 0
        self._issued_ids: set[int] = set()

    # -- identity and clocks ------------------------------------------------

    def fresh_id(self) -> int:
        """Seeded 64-bit id; collisions are checked at desk scale."""
        while True:
            uid = self.rng.getrandbits(64)
            if uid not in self._issued_ids:
                self._issued_ids.add(uid)
                return uid

    def next_ts(self, wid: int) -> Timestamp:
        w = self._worker(wid)
        w.clock += 1
        return Timestamp(w.clock, wid)

    # -- membership ---------------------------------------------------------

    def register_worker(self, meta=None) -> int:
        wid = len(self.workers)
        self.workers[wid] = _Worker(wid, meta)
        # Redelivered registrations are absorbed by set idempotence.
        self.membership = self.membership.merge(GSet.of([(wid, meta)]))
        self.log("register", dst=wid)
        return wid

    def fail_worker(self, wid: int) -> None:
        self._worker(wid).alive = False
        self.log("fail", dst=wid)

    def alive_workers(self) -> list[int]:
        return sorted(w.wid for w in self.workers.values() if w.alive)

    def _worker(self, wid: int) -> _Worker:
        try:
            return self.workers[wid]
        except KeyError:
            raise UnknownWorkerError(f"worker {wid} was never registered") from None

    # -- network ------------------------------------------------------------

    def set_partition(self, pairs: Iterable) -> None:
        """Replace the partition set; healing releases held envelopes."""
        self.net = NetworkCondition(pairs)
        self.log("partition", payload=len(self.net._cut))
        still_held = []
        for env in self.held:
            if self.net.partitioned(env.src, env.dst):
                still_held.append(env)
            else:
                self._enqueue(env, attempts=0)
        self.held = still_held

    def heal(self) -> None:
        self.set_partition(())

    # -- channel ------------------------------------------------------------

    def send(self, src: int, dst: int, payload, token_id: int | None = None,
             use_id: int | None = None) -> Envelope:
        env = Envelope(
            token_id=self.fresh_id() if token_id is None else token_id,
            use_id=self.fresh_id() if use_id is None else use_id,
            src=src, dst=dst, payload=payload,
        )
        self.log("send", src=src, dst=dst, token_id=env.token_id,
                 use_id=env.use_id)
        if self.net.partitioned(src, dst):
            # Held asynchronously until the partition heals; never blocks.
            self.held.append(env)
            self.log("hold", src=src, dst=dst, token_id=env.token_id,
                     use_id=env.use_id)
            return env
        self._enqueue(env, attempts=0)
        if self.rng.random() < self.schedule.duplicate_prob:
            self.log("dup", src=src, dst=dst, token_id=env.token_id,
                     use_id=env.use_id)
            self._enqueue(env, attempts=0)
        return env

    def _enqueue(self, env: Envelope, attempts: int) -> None:
        backoff = 0 if attempts == 0 else min(2 ** attempts, _BACKOFF_CAP)
        due = self.now + 1 + backoff + self.rng.randint(0, self.schedule.reorder_window)
        dropped = self.rng.random() < self.schedule.drop_prob
        self._seq += 1
        self.in_flight.append(_Flight(due, self._seq, env, attempts, dropped))

    def deliver_due(self) -> list[Envelope]:
        ready = [f for f in self.in_flight if f.due <= self.now]
        self.in_flight = [f for f in self.in_flight if f.due > self.now]
        ready.sort(key=lambda f: (f.due, f.seq))
        delivered = []
        for f in ready:
            if f.dropped:
                self.log("drop", src=f.env.src, dst=f.env.dst,
                         token_id=f.env.token_id, use_id=f.env.use_id)
                self._enqueue(f.env, f.attempts + 1)
            else:
                self.log("deliver", src=f.env.src, dst=f.env.dst,
                         token_id=f.env.token_id, use_id=f.env.use_id)
                delivered.append(f.env)
        return delivered

    # -- event log ----------------------------------------------------------

    def log(self, kind: str, src=None, dst=None, token_id=None, use_id=None,
            payload=None) -> None:
        self.events.append((self.now, kind, src, dst, token_id, use_id))

    def event_lines(self) -> str:
        """Line-delimited ``tick,event_kind,src,dst,token_id,use_id``."""
        def cell(v):
            return "" if v is None else str(v)

        return "\n".join(
            ",".join(cell(v) for v in ev) for ev in self.events
        ) + ("\n" if self.events else "")


class Program:
    """Workload plugged into the simulation loop; all hooks optional.

    State changes only in the hooks and in harness actions, and a message
    changes it only when delivered.  So ``idle`` is the one contract a
    program must meet: it is False while any ``worker_step`` or ``on_tick``
    could still change state or send.
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
    (``sim.now >= max(events)``).  Lattice state grows only on delivery,
    so from there no tick could change it.  Raises ``DivergenceError``
    when that takes more than ``sim.tick_cap`` ticks.

    ``events`` maps tick index to harness callables (failure injection,
    joins, partitions) invoked at the start of that tick with
    ``(sim, program)``.
    """
    events = events or {}
    last_event = max(events, default=0)
    program.setup(sim)
    while (sim.in_flight or sim.held or not program.idle(sim)
           or sim.now < last_event):
        if sim.now >= sim.tick_cap:
            raise DivergenceError(f"no quiescence within {sim.tick_cap} ticks")
        sim.now += 1
        for action in events.get(sim.now, ()):
            action(sim, program)
        program.on_tick(sim)
        for wid in sim.alive_workers():
            program.worker_step(sim, wid)
        for env in sim.deliver_due():
            program.on_deliver(sim, env)


# ---------------------------------------------------------------------------
# Dependency graphs


def _components(deps: Mapping[Any, Sequence]) -> list[tuple]:
    """Strongly connected components of ``{node: nodes it reads}``.

    Tarjan's algorithm with an explicit stack, so long rule chains do not
    hit the recursion limit.  A component comes after every component it
    reads from (producers first).  Nodes are visited in order of first
    appearance (each key, then the nodes it reads), and each component
    lists its members in that order, so the result does not depend on
    ``PYTHONHASHSEED``.
    """
    order = list(dict.fromkeys(
        n for node, reads in deps.items() for n in (node, *reads)))
    position = {n: i for i, n in enumerate(order)}
    low: dict = {}  # visit index, lowered to the least one reachable on stack
    stack: list = []
    work: list = []
    out: list[tuple] = []

    def visit(node):
        low[node] = len(low)
        work.append((node, low[node], len(stack), iter(deps.get(node, ()))))
        stack.append(node)

    for root in order:
        if root not in low:
            visit(root)
        while work:
            node, index, height, reads = work[-1]
            for dep in reads:
                if dep not in low:
                    visit(dep)
                    break
                low[node] = min(low[node], low[dep])
            else:
                work.pop()
                if low[node] == index:
                    comp = stack[height:]
                    del stack[height:]
                    for n in comp:  # placed: no longer lowers anything
                        low[n] = len(order)
                    out.append(tuple(sorted(comp, key=position.__getitem__)))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return out


def _cyclic(comp: tuple, deps: Mapping[Any, Sequence]) -> bool:
    """True when a component holds a cycle: two or more nodes, or a self-loop."""
    return len(comp) > 1 or comp[0] in deps.get(comp[0], ())


def _cycle_through(start, deps: Mapping[Any, Sequence]) -> tuple:
    """A shortest cycle of read edges from ``start`` back to itself."""
    came_from = {start: None}
    frontier = [start]
    for node in frontier:
        for dep in deps.get(node, ()):
            if dep == start:
                path = [start]
                while node is not None:
                    path.append(node)
                    node = came_from[node]
                return tuple(reversed(path))
            if dep not in came_from:
                came_from[dep] = node
                frontier.append(dep)


# ---------------------------------------------------------------------------
# Tick-rule engine


@dataclass(frozen=True)
class Rule:
    """A merge rule over named lattice tables.

    ``expr`` maps the current table mapping to a lattice delta merged into
    ``target``.  ``sources`` names the tables the expression reads (used for
    the static stratification check).  Deferred rules apply their delta at
    the start of the next tick.
    """

    target: str
    expr: Callable[[Mapping[str, Any]], Any]
    sources: tuple
    deferred: bool = False


class TickRuleEngine:
    """Applies rules tick by tick with instantaneous/deferred timing."""

    def __init__(self, tables: dict, rules: Sequence[Rule]):
        self.tables = dict(tables)
        self.rules = list(rules)
        self.now = 0
        self._pending: dict = {}
        self._instant_order = self._stratify()

    def _stratify(self) -> list[Rule]:
        """Order instantaneous rules so producers run before consumers.

        A cycle among instantaneous rules means a rule's target feeds its own
        sources within one tick: a static stratification error.  Deferring
        one of the rules to the next tick breaks the cycle.
        """
        instant = [r for r in self.rules if not r.deferred]
        targets = {r.target for r in instant}
        deps: dict = {}
        for r in instant:
            deps.setdefault(r.target, []).extend(
                s for s in r.sources if s in targets)
        rank = {}
        for i, comp in enumerate(_components(deps)):
            if _cyclic(comp, deps):
                raise StratificationError(_cycle_through(comp[0], deps))
            rank[comp[0]] = i
        return sorted(instant, key=lambda r: rank[r.target])

    def inject(self, name: str, delta) -> None:
        """Merge external input into a table before the next tick runs."""
        self.tables[name] = lattice.merge(self.tables[name], delta)

    def tick(self) -> None:
        self.now += 1
        for name in sorted(self._pending):
            self.tables[name] = lattice.merge(self.tables[name],
                                              self._pending[name])
        self._pending = {}
        for rule in self._instant_order:
            delta = rule.expr(self.tables)
            self.tables[rule.target] = lattice.merge(self.tables[rule.target], delta)
        for rule in self.rules:
            if rule.deferred:
                delta = rule.expr(self.tables)
                cur = self._pending.get(rule.target)
                self._pending[rule.target] = (
                    delta if cur is None else lattice.merge(cur, delta)
                )

    def run_to_fixpoint(self, cap: int = 10_000) -> dict:
        for _ in range(cap):
            before = dict(self.tables)
            self.tick()
            pending_absorbed = all(
                lattice.merge(self.tables[name], delta) == self.tables[name]
                for name, delta in self._pending.items()
            )
            if pending_absorbed and self.tables == before:
                return self.tables
        raise DivergenceError(f"rules did not quiesce within {cap} ticks")
