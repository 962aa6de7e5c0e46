"""Per-layer tracing for the benchmark, installed from outside ``src/``.

The tracer replaces public functions and methods of calmsim's modules with
wrappers while it is installed and restores them on ``uninstall``.  Hot
leaves (``hash64``, lattice merges, ``owner_of_key``, sketch inserts and
queries, channel sends, chunk hand-out) are timed as call counts plus
accumulated seconds.  Layer boundaries (runner, tick, ``worker_step``,
``on_deliver``, ``fingerprint``, ``deliver_due``, rule tick) also record a
span ``(rep, id, parent, name, start, end)``; spans stay in memory until
the caller writes them out.  Wrappers pass straight through while
``active`` is false, so checks and reference runs are not counted.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from time import perf_counter

from calmsim import dispenser, hashing, kmer, lattice, runtime, sketch, tables

RUNNERS = ((kmer, "impl_a_run"), (kmer, "threshold_rule_run"),
           (sketch, "design1_run"), (sketch, "design2_run"))


def _size(value) -> int:
    return len(value) if hasattr(value, "__len__") else 1


def _elems(value) -> int:
    """Leaf elements of a lattice value; a map counts its values' elements."""
    if isinstance(value, lattice.LMap):
        return sum(_elems(v) for v in value.entries.values())
    if hasattr(value, "elems"):
        return len(value.elems)
    return 1


def _new_elems(delta, current) -> int:
    """Leaf elements of ``delta`` that ``current`` does not hold yet."""
    if current is None:
        return _elems(delta)
    if isinstance(delta, lattice.LMap):
        return sum(_new_elems(v, current.entries.get(key))
                   for key, v in delta.entries.items())
    if hasattr(delta, "elems"):
        return len(delta.elems - current.elems)
    return int(lattice.merge(current, delta) != current)


class Tracer:
    def __init__(self):
        self.active = False
        self.rep = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start the counters of a new repetition."""
        self.rep += 1
        self.calls: Counter = Counter()
        self.secs: defaultdict = defaultdict(float)
        self.hash_keys: set = set()
        self.copied = self.merged_in = 0
        self.derived = self.new = 0
        self.in_flight_max = 0
        self._merging = False

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, name, parent, perf_counter()])
        return sid

    def end(self, sid: int) -> None:
        """Close span ``sid`` and any span still open inside it."""
        now = perf_counter()
        while self._stack:
            top, name, parent, start = self._stack.pop()
            self.spans.append((self.rep, top, parent, name, start, now))
            self.secs[name] += now - start
            self.calls[name] += 1
            if top == sid:
                return

    def rep_spans(self) -> list[tuple]:
        return [s for s in self.spans if s[0] == self.rep]

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _leaf(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.secs[name] += perf_counter() - start
                    self.calls[name] += 1
            return wrapper
        return make

    def _span(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                sid = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(sid)
            return wrapper
        return make

    def _tick(self, fn):
        # A tick has no call of its own: it runs from one on_tick to the
        # next, or to the end of the enclosing runner span.
        def wrapper(program, sim):
            if self.active:
                if self._stack and self._stack[-1][1] == "tick":
                    self.end(self._stack[-1][0])
                self.begin("tick")
            return fn(program, sim)
        return wrapper

    def _deliver_due(self, fn):
        span = self._span("deliver_due")(fn)

        def wrapper(sim):
            if self.active:
                self.in_flight_max = max(self.in_flight_max,
                                         len(sim.in_flight))
            return span(sim)
        return wrapper

    def _merge(self, fn):
        # Only the outermost merge is counted; a map's per-key merges are
        # part of its cost.
        def wrapper(a, b):
            if not self.active or self._merging:
                return fn(a, b)
            self._merging = True
            start = perf_counter()
            try:
                out = fn(a, b)
            finally:
                self._merging = False
                self.secs["lattice.merge"] += perf_counter() - start
                self.calls["lattice.merge"] += 1
            self.copied += _size(out)
            self.merged_in += _size(b)
            return out
        return wrapper

    def _hash64(self, fn):
        def wrapper(data, seed=0):
            if not self.active:
                return fn(data, seed)
            start = perf_counter()
            try:
                return fn(data, seed)
            finally:
                self.secs["hashing.hash64"] += perf_counter() - start
                self.calls["hashing.hash64"] += 1
                self.hash_keys.add((data, seed))
        return wrapper

    def _rule_expr(self, rule):
        def expr(tabs):
            start = perf_counter()
            delta = rule.expr(tabs)
            self.secs["runtime.rule_expr"] += perf_counter() - start
            self.derived += _elems(delta)
            self.new += _new_elems(delta, tabs[rule.target])
            return delta
        return expr

    def _engine_init(self, fn):
        def wrapper(engine, tables, rules):
            if self.active:
                rules = [dataclasses.replace(r, expr=self._rule_expr(r))
                         for r in rules]
            fn(engine, tables, rules)
        return wrapper

    def install(self) -> None:
        for mod, attr in RUNNERS:
            self._patch(mod, attr, self._span("runner:" + attr))
        # Wrap the name in every module that imported it.
        hash64, chunk_windows = hashing.hash64, kmer.chunk_windows
        for name, mod in list(sys.modules.items()):
            if not name.startswith("calmsim."):
                continue
            if getattr(mod, "hash64", None) is hash64:
                self._patch(mod, "hash64", self._hash64)
            if getattr(mod, "chunk_windows", None) is chunk_windows:
                self._patch(mod, "chunk_windows",
                            self._leaf("kmer.chunk_windows"))
        for cls in vars(lattice).values():
            if (isinstance(cls, type) and issubclass(cls, lattice.LatticeValue)
                    and "merge" in vars(cls)):
                self._patch(cls, "merge", self._merge)
        self._patch(runtime.Program, "on_tick", self._tick)
        self._patch(runtime.Simulation, "send", self._leaf("runtime.send"))
        self._patch(runtime.Simulation, "deliver_due", self._deliver_due)
        self._patch(runtime.TickRuleEngine, "__init__", self._engine_init)
        self._patch(runtime.TickRuleEngine, "tick", self._span("rule_tick"))
        for cls in (kmer.KmerIngestProgram, sketch.Design1Program):
            self._patch(cls, "worker_step", self._span("worker_step"))
        for cls in (kmer.KmerIngestProgram, sketch.Design1Program,
                    sketch.Design2Program):
            self._patch(cls, "on_deliver", self._span("on_deliver"))
        self._patch(kmer.KmerIngestProgram, "fingerprint",
                    self._span("fingerprint"))
        self._patch(tables.PartitionPlan, "owner_of_key",
                    self._leaf("tables.owner_of_key"))
        self._patch(sketch.SketchMatrix, "insert", self._leaf("sketch.insert"))
        for cls in (sketch.SketchMatrix, sketch.Design1Result):
            self._patch(cls, "query", self._leaf("sketch.query"))
        self._patch(dispenser.WorkPool, "next", self._leaf("dispenser.next"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name not covered by the span's children."""
    child = defaultdict(float)
    for rep, _sid, parent, _name, start, end in spans:
        if parent is not None:
            child[(rep, parent)] += end - start
    out: dict[str, float] = defaultdict(float)
    for rep, sid, _parent, name, start, end in spans:
        out[name] += end - start - child[(rep, sid)]
    return dict(out)
