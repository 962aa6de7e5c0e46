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
stratification error.  Its tables are Bloom ``table`` collections, which
persist, or ``scratch`` collections, which are emptied after every tick;
``tables.compile_rules`` builds both and the rules from rule text.  Rules
read full tables; a rule that should see only one tick's input reads
a scratch.  A run is at its fixpoint after a tick that gains no persistent
table anything and leaves pending exactly the ``<+`` output it applied.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

from . import lattice
from .errors import DivergenceError, StratificationError, UnknownWorkerError
from .lattice import LMap, ThresholdLSet


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

    def __init__(self, schedule: DeliverySchedule | None = None):
        self.schedule = schedule or DeliverySchedule()
        self.rng = random.Random(self.schedule.seed)
        self.now = 0
        self.net = NetworkCondition()
        self.workers: dict[int, bool] = {}  # worker id -> alive
        self.events: list[tuple] = []
        # heapq of (due, seq, env, attempts, dropped); seq is unique
        self.in_flight: list[tuple] = []
        self.held: list[Envelope] = []
        self._seq = 0
        self._issued_ids: set[int] = set()

    # -- identity -----------------------------------------------------------

    def fresh_id(self) -> int:
        """Seeded 64-bit id; collisions are checked at desk scale."""
        while True:
            uid = self.rng.getrandbits(64)
            if uid not in self._issued_ids:
                self._issued_ids.add(uid)
                return uid

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
                self._enqueue(env, attempts=0)
        self.held = still_held

    def heal(self) -> None:
        self.set_partition(())

    # -- channel ------------------------------------------------------------

    def send(self, src: int, dst: int, payload,
             token_id: int | None = None) -> Envelope:
        env = Envelope(
            token_id=self.fresh_id() if token_id is None else token_id,
            use_id=self.fresh_id(),
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
        heapq.heappush(self.in_flight, (due, self._seq, env, attempts, dropped))

    def deliver_due(self) -> list[Envelope]:
        """Deliver every envelope due by now in ``(due, seq)`` order.  A
        dropped one is re-sent with ``due > now``, so not in this call."""
        delivered = []
        while self.in_flight and self.in_flight[0][0] <= self.now:
            _, _, env, attempts, dropped = heapq.heappop(self.in_flight)
            self.log("drop" if dropped else "deliver", src=env.src,
                     dst=env.dst, token_id=env.token_id, use_id=env.use_id)
            if dropped:
                self._enqueue(env, attempts + 1)
            else:
                delivered.append(env)
        return delivered

    # -- event log ----------------------------------------------------------

    def log(self, kind: str, src=None, dst=None, token_id=None,
            use_id=None) -> None:
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
    could still change state or send.  Work left with no live worker, no
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
    (``sim.now >= max(events)``).  Lattice state grows only on delivery,
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


# ---------------------------------------------------------------------------
# Dependency graphs


def _ordered(rules: Sequence) -> tuple[list, list[tuple], dict]:
    """``rules`` sorted producers first; the cyclic components of their
    dependency map (two or more nodes that read each other, or one node
    reading itself), members in order of first appearance; and ``loops``,
    a shortest cycle of read edges through each node on a cycle.

    One breadth-first walk from each node ``n`` records the node that first
    read each node it reaches (``came``).  ``below[n]``, every node ``n``
    reads directly or not, is the keys of ``came``; the walk's first way
    back to ``n``, if any, is a shortest cycle.  A node that reads another
    reads all that one reads, so the rank ``(len(below[n] | {n}), first
    appearance)`` puts producers first; a stable sort keeps each target's
    rules together and in input order.  Components come in order of their
    members' rank, so no ordering depends on ``PYTHONHASHSEED``.
    """
    deps: dict = {}
    for r in rules:
        deps.setdefault(r.target, []).extend(r.sources)
    order = list(dict.fromkeys(
        n for node, reads in deps.items() for n in (node, *reads)))
    below, loops = {}, {}
    for n in order:
        came, frontier = {}, [n]
        for m in frontier:
            for dep in deps.get(m, ()):
                if dep not in came:
                    came[dep] = m
                    frontier.append(dep)
        below[n] = came.keys()
        if n in came:
            path, m = [n], came[n]
            while m != n:
                path.append(m)
                m = came[m]
            loops[n] = (n, *reversed(path))
    rank = {n: (len(below[n] | {n}), i) for i, n in enumerate(order)}
    cycles = dict.fromkeys(
        tuple(m for m in order if m in below[n] and n in below[m])
        for n in loops)
    return (sorted(rules, key=lambda r: rank[r.target]),
            sorted(cycles, key=lambda c: rank[c[0]]), loops)


# ---------------------------------------------------------------------------
# Tick-rule engine


@dataclass(frozen=True)
class Rule:
    """A rule merging ``expr(tables)`` into table ``target``.

    ``sources`` names the tables ``expr`` reads, the edges of the
    dependency map (``_ordered``).  Deferred rules apply their output at the
    start of the next tick.  ``op`` names the operator of a rule parsed
    from text (``tables._parse``); a hand-written ``expr`` has none.

    Rules read full tables and are correct for any expression.  To see
    only new input, read a scratch table (see :class:`Scratch`): it starts
    every tick at bottom, so it holds only what reached it this tick.
    """

    target: str
    expr: Callable[[Mapping[str, Any]], Any]
    sources: tuple
    deferred: bool = False
    op: str | None = None


@dataclass(frozen=True)
class Scratch:
    """Declares a Bloom ``scratch`` table in ``TickRuleEngine``'s
    ``tables``: ``{"name": Scratch(initial)}``.  Its content lasts one
    tick; the engine resets it to its bottom after every tick."""

    value: Any


def _merge_into(store: dict, name: str, value) -> bool:
    """Merge ``value`` into ``store[name]``, which the engine owns, and
    return whether it changed.  An absent entry takes a copy of a map; a
    present map merges in place; any other value is immutable and merges
    purely.  ``value`` is never mutated."""
    cur = store.get(name)
    if cur is None:
        store[name] = LMap(dict(value.entries)) if type(value) is LMap else value
        return True
    if type(cur) is LMap:
        return cur.merge_in(value)
    store[name] = lattice.merge(cur, value)
    return store[name] != cur


_FIXPOINT_CAP = 10_000


class TickRuleEngine:
    """Applies rules tick by tick with instantaneous/deferred timing.

    The engine owns its tables: it copies the caller's values at
    construction, merges maps in place, and never mutates a caller's value
    or an injected one.  Every table a rule or an inject names must be
    declared in ``tables``; any other name raises ``ValueError``.

    A plain value in ``tables`` declares a Bloom ``table``, which persists;
    ``Scratch(value)`` declares a ``scratch``, reset to bottom after every
    tick (Alvaro et al., CIDR 2011).  ``run_to_fixpoint`` stops after a
    tick that gains no persistent table anything and whose pending ``<+``
    output equals what it applied, so a scratch refilled on every tick, or
    a ``<+`` that repeats its output, lets the run settle.
    """

    def __init__(self, tables: dict, rules: Sequence[Rule]):
        self.tables: dict = {}
        self._scratch: dict[str, Callable] = {}  # name -> bottom maker
        for name, value in tables.items():
            if type(value) is Scratch:
                value = value.value
                self._scratch[name] = (  # keeps a declared threshold
                    partial(ThresholdLSet.bottom, value.threshold)
                    if type(value) is ThresholdLSet else type(value).bottom)
            self._absorb(name, value)
        self.rules = list(rules)
        for rule in self.rules:
            for name in (rule.target, *rule.sources):
                self._declared(name)
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
        ordered, cycles, loops = _ordered(instant)
        if cycles:
            raise StratificationError(loops[cycles[0][0]])
        return ordered

    def inject(self, name: str, delta) -> None:
        """Merge external input into a table before the next tick runs."""
        self._declared(name)
        self._absorb(name, delta)

    def _declared(self, name: str) -> None:
        if name not in self.tables:
            raise ValueError(f"undeclared table {name!r}")

    def _absorb(self, name: str, value) -> None:
        """Merge ``value`` into table ``name``; a gain in a persistent table
        keeps the fixpoint running."""
        if _merge_into(self.tables, name, value) and name not in self._scratch:
            self._gained = True

    def tick(self) -> None:
        self.now += 1
        self._gained = False
        self._applied, self._pending = self._pending, {}
        for name in sorted(self._applied):
            self._absorb(name, self._applied[name])
        for rule in self._instant_order:
            self._absorb(rule.target, rule.expr(self.tables))
        for rule in self.rules:
            if rule.deferred:
                _merge_into(self._pending, rule.target, rule.expr(self.tables))
        for name, bottom in self._scratch.items():
            self.tables[name] = bottom()

    def run_to_fixpoint(self) -> dict:
        """Tick until a tick gains no persistent table anything and leaves
        pending exactly the ``<+`` output it applied.  The next tick then
        starts from the same persistent tables, bottom scratches and the
        same applied output, so it would replay this one."""
        for _ in range(_FIXPOINT_CAP):
            self.tick()
            if not self._gained and self._pending == self._applied:
                return self.tables
        raise DivergenceError(
            f"rules did not quiesce within {_FIXPOINT_CAP} ticks")
