"""Global tables over CRDTs, partition planning, tri-state lookups, and
the rule layer: ``TickRuleEngine`` and rule text, one line parser behind
``parse_rules`` (set-valued dataflow graphs: cycle analysis, the one-shot
rewrite of self-recursive difference rules, fixpoints) and
``compile_rules`` (the engine's programs).

A global table is a named collection of tuples whose logical contents are
the merge of all per-worker shards.  The partition plan decides which worker
owns which tuples; when the plan partitions on the grouping column, each
worker's aggregate is complete locally and no communication is needed
("coordination-free" grouping).
"""

from __future__ import annotations

import re
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby, repeat
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from . import lattice
from .errors import DivergenceError, LatticeTypeError, StratificationError
from .lattice import GSet, LMap, ThresholdLSet


# ---------------------------------------------------------------------------
# Partitioning


def hash_owners(workers: tuple, keys) -> list:
    """Where a hash plan over ``workers`` puts each of ``keys``, in order;
    hash routes and ``PartitionPlan.owner_of_key`` use it.

    The hash is an unkeyed crc32 of the UTF-8 key: stable across processes
    and runs, balanced, and for placement only, never for anything seeded.
    """
    n = len(workers)
    return [workers[zlib.crc32(key.encode()) % n] for key in keys]


@dataclass(frozen=True)
class PartitionPlan:
    """How tuples of a table are routed to workers.

    strategy is one of ``hash`` / ``range`` (deterministic in the key
    column) or ``round_robin`` (depends only on arrival index).  Range
    boundaries are the upper-exclusive cut points between consecutive
    workers, supplied by the caller: ``len(workers) - 1`` of them, strictly
    increasing, so every worker owns a non-empty range.  A plan rejects a
    field its strategy does not read: ``column`` is for hash and range
    plans only, ``boundaries`` for range plans only.
    """

    strategy: str
    workers: tuple
    column: str | None = None
    boundaries: tuple = ()

    def __post_init__(self):
        if self.strategy not in ("hash", "range", "round_robin"):
            raise ValueError(f"unknown partition strategy {self.strategy!r}")
        if self.strategy in ("hash", "range") and self.column is None:
            raise ValueError(f"{self.strategy} partitioning needs a key column")
        if self.strategy == "round_robin" and self.column is not None:
            raise ValueError("round_robin partitioning takes no key column")
        if self.strategy != "range" and self.boundaries:
            raise ValueError(f"{self.strategy} partitioning takes no boundaries")
        if not self.workers:
            raise ValueError("plan needs at least one worker")
        cuts = list(self.boundaries)
        if self.strategy == "range" and (len(cuts) != len(self.workers) - 1
                                         or cuts != sorted(set(cuts))):
            raise ValueError("a range plan needs len(workers) - 1 strictly "
                             "increasing boundaries")

    @property
    def keyed(self) -> bool:
        """True when tuple placement is a function of the key column."""
        return self.strategy in ("hash", "range")

    def owner_of_key(self, key) -> int:
        if self.strategy == "hash":
            return hash_owners(self.workers, (str(key),))[0]
        if self.strategy == "range":
            return self.workers[bisect_right(self.boundaries, key)]
        raise ValueError("round_robin placement is not a function of the key")


@dataclass
class GlobalTable:
    """A named tuple collection sharded per worker.

    Every shard is a G-Set of tuples, the only CRDT kind (``crdt_kind``) a
    table takes.  The logical table contents are the merge of all shards,
    so re-delivered or re-ordered updates cannot corrupt the table.  A
    keyed plan's ``column`` must name a column of ``schema``.  The
    constructor checks the shards it is given as ``merge_shard`` checks a
    delta, and marks a row off its plan owner (``_displaced``).
    """

    name: str
    crdt_kind: type
    schema: tuple
    plan: PartitionPlan
    shards: dict = field(default_factory=dict)
    _arrivals: int = 0
    _displaced: bool = field(default=False, init=False)  # a row off its owner

    def __post_init__(self):
        if self.crdt_kind is not GSet or not all(
                isinstance(shard, GSet) for shard in self.shards.values()):
            raise TypeError("global tables hold G-Set shards only")
        for shard in self.shards.values():
            self._check_arity(shard)
        if self.plan.keyed and self.plan.column not in self.schema:
            raise ValueError(f"partition column {self.plan.column!r} is not "
                             f"in the schema {self.schema}")
        for wid in self.plan.workers:
            self.shards.setdefault(wid, GSet.bottom())
        self._displaced = any(self._off_owner(wid, shard)
                              for wid, shard in self.shards.items())

    def insert(self, row: tuple) -> int:
        """Route a tuple to its owner shard; returns the owner worker id."""
        self._check_arity((row,))
        plan = self.plan
        if plan.keyed:
            wid = plan.owner_of_key(row[self.schema.index(plan.column)])
        else:
            wid = plan.workers[self._arrivals % len(plan.workers)]
            self._arrivals += 1
        self.shards[wid] = self.shards.get(wid, GSet.bottom()).add(row)
        return wid

    def merge_shard(self, wid: int, delta: GSet) -> None:
        """Merge ``delta`` into ``wid``'s shard as it stands; a row the
        plan puts elsewhere marks the table displaced, as a plan switch
        does, so ``lookup`` answers ``IDK`` rather than a false ``DNE``."""
        self._check_arity(delta.elems)
        self._displaced |= self._off_owner(wid, delta)
        cur = self.shards.get(wid, GSet.bottom())
        self.shards[wid] = lattice.merge(cur, delta)

    def _check_arity(self, rows) -> None:
        """``ValueError`` for a row without one value per schema column."""
        n = len(self.schema)
        if not {n}.issuperset(map(len, rows)):
            row = next(row for row in rows if len(row) != n)
            raise ValueError(f"row {row!r} has {len(row)} values; schema "
                             f"{self.schema} has {n}")

    def _off_owner(self, wid: int, rows) -> bool:
        """Whether the plan would put any of ``rows`` off ``wid``; a hash
        plan places their keys in one ``hash_owners`` call."""
        plan = self.plan
        if not plan.keyed:
            return bool(rows) and wid not in plan.workers
        key = self.schema.index(plan.column)
        if plan.strategy == "range":
            return any(plan.owner_of_key(row[key]) != wid for row in rows)
        return not {wid}.issuperset(
            hash_owners(plan.workers, [str(row[key]) for row in rows]))

    def merged(self) -> GSet:
        out = GSet.bottom()
        for wid in sorted(self.shards):
            out = lattice.merge(out, self.shards[wid])
        return out


# ---------------------------------------------------------------------------
# Query planning


@dataclass(frozen=True)
class QueryPlan:
    coordination_free: bool


def plan_query(table: GlobalTable, group_by: str) -> QueryPlan:
    """Decide whether a GROUP BY needs cross-worker communication.

    Grouping is coordination-free when the plan already partitions tuples on
    the grouping column (hash or range), or trivially when there is a single
    worker: every group then lives wholly on one shard.  Neither holds while
    a row sits where the plan would not put it.
    """
    if group_by not in table.schema:
        raise ValueError(f"unknown column {group_by!r} in table {table.name!r}")
    free = not table._displaced and (len(table.plan.workers) == 1 or (
        table.plan.keyed and table.plan.column == group_by))
    return QueryPlan(coordination_free=free)


def detect_skew(table: GlobalTable, factor: float = 2.0) -> bool:
    """True when the largest shard exceeds ``factor`` times the mean size."""
    if factor <= 1:
        raise ValueError("skew factor must be > 1")
    sizes = [len(shard) for shard in table.shards.values()]
    if not sizes or sum(sizes) == 0:
        return False
    return max(sizes) > factor * (sum(sizes) / len(sizes))


def switch_partitioning(table: GlobalTable, new: PartitionPlan) -> GlobalTable:
    """``table`` rebuilt by its constructor under plan ``new``; no tuple
    moves, so only routing of future inserts and the coordination cost of
    grouped queries change.  If some row sits on a shard the new plan would
    not put it on, a keyed ``lookup`` miss answers ``IDK`` and grouping is
    not coordination-free; a column not in the schema raises."""
    return replace(table, plan=new, shards=dict(table.shards))


# ---------------------------------------------------------------------------
# Tri-state lookups


class Tristate:
    __slots__ = ()


@dataclass(frozen=True)
class Value(Tristate):
    payload: Any


class _Absent(Tristate):
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


#: Global assertion: the key exists nowhere (requires key-locality + healthy net).
DNE = _Absent("DNE")
#: Local assertion: this worker cannot tell.
IDK = _Absent("IDK")


def lookup(table: GlobalTable, key, at_worker: int, net=None) -> Tristate:
    """Keyed membership probe with a tri-state answer instead of an error.

    Returns ``Value(rows)`` when matching tuples are locally visible.  On a
    miss, ``DNE`` is only justified when the plan guarantees the key lives on
    exactly one owner (no row sits off its owner) and that owner is
    reachable; otherwise the honest answer is ``IDK``.
    """
    key_idx = table.schema.index(table.plan.column or table.schema[0])

    def rows_at(wid):
        shard = table.shards.get(wid, GSet.bottom())
        return frozenset(r for r in shard.elems if r[key_idx] == key)

    local = rows_at(at_worker)
    if local:
        return Value(local)
    if not table.plan.keyed:
        return IDK
    owner = table.plan.owner_of_key(key)
    reachable = net is None or not net.partitioned(at_worker, owner)
    if not reachable:
        return IDK
    owned = rows_at(owner)
    return Value(owned) if owned else IDK if table._displaced else DNE


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
# Tick tables


@dataclass(frozen=True)
class Rule:
    """A rule merging ``expr(tables)`` into table ``target``.

    ``sources`` names the tables ``expr`` reads, the edges of the
    dependency map (``_ordered``).  Deferred rules apply their output at the
    start of the next tick.  ``op`` names the operator of a rule parsed
    from text (``_parse``); a hand-written ``expr`` has none.

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


class _Grown(set):
    """A ``GSet`` that its engine table grows in place; it reads as one."""
    __slots__ = ()
    elems = property(lambda self: self)


def _grow_into(entries: dict, delta: LMap) -> bool:
    """Merge a map of ``GSet``s into ``entries``; True if they changed.  A
    new key stores the ``GSet``, a merge that adds to it a ``_Grown`` copy."""
    size, changed = len(entries), False
    for key, value in delta.entries.items():
        cur = entries.setdefault(key, value)
        if cur is not value and not value <= cur:
            if type(cur) is GSet:
                entries[key] = cur = _Grown(cur)
            cur |= value
            changed = True
    return changed or len(entries) > size


def _own(value):
    """``value`` with each ``_Grown`` in it, in nested maps too, a ``GSet``:
    the engine's one converter of the sets it grows."""
    if type(value) is LMap and not {_Grown, LMap}.isdisjoint(
            map(type, value.entries.values())):
        return LMap({key: v if type(v) is GSet else _own(v)
                     for key, v in value.entries.items()})
    return GSet(value) if type(value) is _Grown else value


_FIXPOINT_CAP = 10_000


class TickRuleEngine:
    """Applies rules tick by tick with instantaneous/deferred timing.

    The engine owns its tables: it copies the caller's values at
    construction, merges maps in place, never mutates a caller's value or
    an injected one, and takes in a set another engine grows as a ``GSet``.
    A persistent map that rules read only as a ``below``'s limit merges a
    map of ``GSet``s copy-on-write into its own sets, which ``tick()``
    callers may see; ``run_to_fixpoint`` returns ``GSet``s.  Every table a
    rule or an inject names must be declared in ``tables``; any other name
    raises ``ValueError``.

    A plain value in ``tables`` declares a Bloom ``table``, which persists;
    ``Scratch(value)`` declares a ``scratch``, reset to bottom after every
    tick (Alvaro et al., CIDR 2011).  ``run_to_fixpoint`` stops after a
    tick that gains no persistent table anything and whose pending ``<+``
    output equals what it applied, so a scratch refilled on every tick, or
    a ``<+`` that repeats its output, lets the run settle.
    """

    def __init__(self, tables: dict, rules: Sequence[Rule]):
        self.rules = list(rules)
        # Persistent maps that rules read only as a below's limit, by size.
        read = {name for r in self.rules
                for name in (r.sources[:1] if r.op == "below" else r.sources)}
        self._grown = {name for name, value in tables.items()
                       if type(value) is LMap and name not in read}
        self.tables = {n: LMap() if n in self._grown else None for n in tables}
        self._scratch: dict[str, Callable] = {}  # name -> bottom maker
        for name, value in tables.items():
            if type(value) is Scratch:
                value = value.value
                self._scratch[name] = (  # keeps a declared threshold
                    partial(ThresholdLSet.bottom, value.threshold)
                    if type(value) is ThresholdLSet else type(value).bottom)
            self._absorb(name, _own(value))
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
        self._absorb(name, _own(delta))

    def _declared(self, name: str) -> None:
        if name not in self.tables:
            raise ValueError(f"undeclared table {name!r}")

    def _absorb(self, name: str, value) -> None:
        """Merge ``value`` into table ``name``; a gain in a persistent table
        keeps the fixpoint running."""
        if name in self._grown and not (type(value) is LMap and {
                *map(type, value.entries.values())} <= {GSet}):
            self.tables[name] = _own(self.tables[name])
            self._grown.remove(name)  # not a map of GSets: merge as any map
        changed = (_grow_into(self.tables[name].entries, value) if name
                   in self._grown else _merge_into(self.tables, name, value))
        if changed and name not in self._scratch:
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
                for name in self._grown:
                    self.tables[name] = _own(self.tables[name])
                return self.tables
        raise DivergenceError(
            f"rules did not quiesce within {_FIXPOINT_CAP} ticks")


# ---------------------------------------------------------------------------
# Rule text: set-valued dataflow graphs and tick-rule programs


@dataclass
class DataflowGraph:
    rules: list
    rewrite_map: dict = field(default_factory=dict)

    @property
    def needs_stratification(self) -> list:
        return detect_cycles(self)

    def nodes(self) -> set:
        return {n for r in self.rules for n in (r.target, *r.sources)}


def _below(a: LMap, b: LMap, limit: int) -> LMap:
    """The entries of ``a`` whose key has under ``limit`` elements in ``b``;
    ``LatticeTypeError`` for such a value of ``b`` with no size."""
    held = b.entries.get
    try:
        return LMap({key: value for key, value in a.entries.items()
                     if len(held(key, ())) < limit})
    except TypeError:  # from len: find the value
        bad = next(v for v in map(held, a.entries, repeat(()))
                   if not hasattr(v, "__len__"))
        raise LatticeTypeError(f"below: {type(bad).__name__} has no size")


#: Each binary operator over sets and over lattices.
_SET_OPS = {"union": set.union, "difference": set.difference}
_LATTICE_OPS = {"union": lattice.merge, "below": _below}
_OPS = {"+": "union", "-": "difference", "minus": "difference",
        "below": "below"}
# Compiled on first use, in ``re``'s cache, not when the module loads.
_LINE = (r"(table|scratch)\s+(\w+)|(\w+)\s*(<=|<\+)\s*(\w+)"
         r"(?:\s+(\+|-|minus|below)\s+(\w+))?(?:\s+([1-9]\d*))?")


def _rule(target: str, op: str, sources: tuple, fn, deferred=False) -> Rule:
    """A rule applying ``fn`` to its two sources; a copy has no ``fn``."""
    if fn is None:
        return Rule(target, itemgetter(*sources), sources, deferred, op)
    a, b = sources
    return Rule(target, lambda env: fn(env[a], env[b]), sources, deferred, op)


def _parse(text: str, lattices: bool) -> tuple[dict, list]:
    """The declared tables and the rules of rule text, a line at a time;
    ``lattices`` picks the forms and operators of ``compile_rules``."""
    tables, rules = {}, []
    ops = _LATTICE_OPS if lattices else _SET_OPS
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(_LINE, line)
        kind, name, target, arrow, a, symbol, b, limit = (
            m.groups() if m else (None,) * 8)
        op = _OPS.get(symbol, "copy")
        if not m:
            why = "not a declaration or a one-operator rule of single words"
        elif not lattices and (kind or arrow == "<+"):
            why = "a tick-rule form; set-valued graphs take no tables or <+"
        elif symbol and op not in ops:
            why = f"no {symbol!r} over {'lattices' if lattices else 'sets'}"
        elif (op == "below") != (limit is not None):
            why = "below, and only below, takes a positive integer limit"
        elif name in tables:
            why = f"{name!r} is declared twice"
        elif kind:
            tables[name] = Scratch(LMap()) if kind == "scratch" else LMap()
            continue
        else:
            fn = partial(_below, limit=int(limit)) if limit else ops.get(op)
            rules.append(_rule(target, op, (a, b) if b else (a,), fn,
                               arrow == "<+"))
            continue
        raise ValueError(f"line {lineno}: {why} in {raw!r}")
    return tables, rules


def parse_rules(text: str) -> DataflowGraph:
    """The set-valued dataflow graph of rule text: one ``target <= a``,
    ``target <= a + b`` (union) or ``target <= a - b`` (difference; also
    ``minus``) per line, ``#`` comments (README "Dataflow rule grammar").

    Raises ``ValueError`` naming the line for any other line, such as the
    tick-rule forms of ``compile_rules``: ``<+``, ``below`` and tables.
    """
    return DataflowGraph(_parse(text, lattices=False)[1])


def compile_rules(text: str) -> tuple[dict, list]:
    """The ``(tables, rules)`` of a tick-rule program over ``LMap`` tables,
    for ``TickRuleEngine(*compile_rules(text))``.

    Lines are ``table NAME`` (a persistent ``LMap``), ``scratch NAME``
    (``Scratch(LMap())``), or a rule ``target <= ...`` or ``target <+ ...``
    (deferred) over a copy, ``a + b`` (merge) or the guard ``a below b N``:
    the entries of ``a`` whose key holds fewer than ``N`` elements in
    ``b``.  Raises ``ValueError`` naming the line for any other line,
    ``-`` (not monotone) and a name declared twice.
    """
    return _parse(text, lattices=True)


def detect_cycles(g: DataflowGraph) -> list:
    """One tuple per cyclic strongly connected component of the graph.

    A component is cyclic when it has two or more nodes or a node that
    reads itself.  Members come in order of first appearance; components
    producers first, then by how many nodes they read, then by first
    appearance.  A component holding many cycles is reported once.  An
    empty result means the whole graph can be evaluated in a single pass.
    """
    return _ordered(g.rules)[1]


def rewrite_one_shot(g: DataflowGraph) -> DataflowGraph:
    """Replace each self-recursive difference ``X := X - Y`` with a
    two-phase-set reading.

    The recursive rule becomes ``X := X_adds - Y`` over a fresh base node
    holding the accumulated inserts: exactly a pos-set minus a tombstone
    set, so a single pass suffices.  Cycles that do not match the pattern
    (e.g. monotone recursion) are left intact and reported in
    ``needs_stratification``.
    """
    taken = g.nodes()
    rules, rewrite_map = [], {}
    for r in g.rules:
        if r.op == "difference" and r.sources[0] == r.target:
            pos = f"{r.target}_adds"
            while pos in taken:
                pos += "_"
            taken.add(pos)
            rewrite_map[r.target] = (pos, r.sources[1])
            rules.append(_rule(r.target, "difference", (pos, r.sources[1]),
                               set.difference))
        else:
            rules.append(r)
    return DataflowGraph(rules, rewrite_map=rewrite_map)


def _seed_env(g: DataflowGraph, inputs: Mapping[str, set]) -> dict:
    env = {n: set() for n in g.nodes()}
    env.update((name, set(v)) for name, v in inputs.items())
    # A rewritten target's accumulated inserts start as the target's input.
    for target, (pos, _neg) in g.rewrite_map.items():
        if not env.get(pos):
            env[pos] = set(inputs.get(target, ()))
    return env


def _pass(rules: list, env: dict) -> bool:
    """Evaluate every target once, in order; True when any node changed.

    A target's rules all read the same environment and their results are
    unioned.
    """
    changed = False
    for target, group in groupby(rules, lambda r: r.target):
        value = set().union(*(r.expr(env) for r in group))
        if value != env[target]:
            env[target] = value
            changed = True
    return changed


def one_shot_eval(g: DataflowGraph, inputs: Mapping[str, set]) -> dict:
    """Single pass in dependency order, exact when ``detect_cycles(g)`` is
    empty."""
    env = _seed_env(g, inputs)
    _pass(_ordered(g.rules)[0], env)
    return env


def evaluate_stratified(g: DataflowGraph, inputs: Mapping[str, set]) -> dict:
    """Repeat the dependency-ordered pass until no node changes; raises
    ``DivergenceError`` after ``_FIXPOINT_CAP`` passes."""
    env = _seed_env(g, inputs)
    rules = _ordered(g.rules)[0]
    for _ in range(_FIXPOINT_CAP):
        if not _pass(rules, env):
            return env
    raise DivergenceError(f"no fixed point after {_FIXPOINT_CAP} passes")
