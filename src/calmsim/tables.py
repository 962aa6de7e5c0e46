"""Global tables over CRDTs, partition planning, tri-state lookups, and
rule text: one line parser behind ``parse_rules`` (set-valued dataflow
graphs: cycle analysis, the one-shot rewrite of self-recursive difference
rules, fixpoints) and ``compile_rules`` (``TickRuleEngine`` programs).

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
from functools import partial, reduce
from itertools import groupby
from typing import Any, Mapping

from . import lattice
from .errors import DivergenceError
from .lattice import GSet, LMap
from .runtime import _FIXPOINT_CAP, Rule, Scratch, _ordered


# ---------------------------------------------------------------------------
# Partitioning


def hash_owners(workers: tuple, keys) -> list:
    """Where a hash plan over ``workers`` puts each of ``keys``, in order;
    hash routes use it.

    The hash is an unkeyed crc32 of the UTF-8 key: stable across processes
    and runs, balanced, and for placement only, never for anything seeded.
    """
    n = len(workers)
    return [workers[zlib.crc32(key.encode()) % n] for key in keys]


def hash_owner(workers: tuple, key: str) -> int:
    """``hash_owners`` for one key."""
    return hash_owners(workers, (key,))[0]


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
            return hash_owner(self.workers, str(key))
        if self.strategy == "range":
            return self.workers[bisect_right(self.boundaries, key)]
        raise ValueError("round_robin placement is not a function of the key")


@dataclass
class GlobalTable:
    """A named tuple collection sharded per worker.

    Every shard is a G-Set of tuples, the only CRDT kind (``crdt_kind``) a
    table takes.  The logical table contents are the merge of all shards,
    so re-delivered or re-ordered updates cannot corrupt the table.  A
    keyed plan's ``column`` must name a column of ``schema``.
    """

    name: str
    crdt_kind: type
    schema: tuple
    plan: PartitionPlan
    shards: dict = field(default_factory=dict)
    _arrivals: int = 0
    _displaced: bool = False  # some row sits off its plan's owner

    def __post_init__(self):
        if self.crdt_kind is not GSet:
            raise TypeError("global tables hold G-Set shards only")
        if self.plan.keyed and self.plan.column not in self.schema:
            raise ValueError(f"partition column {self.plan.column!r} is not "
                             f"in the schema {self.schema}")
        for wid in self.plan.workers:
            self.shards.setdefault(wid, GSet.bottom())

    def insert(self, row: tuple) -> int:
        """Route a tuple to its owner shard; returns the owner worker id."""
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
        self._displaced |= self._off_owner(wid, delta)
        cur = self.shards.get(wid, GSet.bottom())
        self.shards[wid] = lattice.merge(cur, delta)

    def _off_owner(self, wid: int, rows) -> bool:
        """Whether the plan would put any of ``rows`` off ``wid``."""
        plan = self.plan
        key = self.schema.index(plan.column) if plan.keyed else None
        return any(wid not in plan.workers if key is None
                   else plan.owner_of_key(row[key]) != wid for row in rows)

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
    """Swap the partition plan without moving any existing tuples.

    Only routing of future inserts and the coordination cost of grouped
    queries change; the merged logical contents are untouched.  If some
    row now sits on a shard the new plan would not put it on, a keyed
    ``lookup`` miss answers ``IDK`` and grouping is not coordination-free.
    """
    # replace runs GlobalTable's checks: a column not in the schema raises
    switched = replace(table, plan=new, shards=dict(table.shards))
    switched._displaced = any(switched._off_owner(wid, shard)
                              for wid, shard in table.shards.items())
    return switched


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
# Rule text: set-valued dataflow graphs and tick-rule programs


@dataclass
class DataflowGraph:
    rules: list
    rewrite_map: dict = field(default_factory=dict)
    needs_stratification: list = field(default_factory=list)

    def nodes(self) -> set:
        return {n for r in self.rules for n in (r.target, *r.sources)}


def _below(a: LMap, b: LMap, limit: int) -> LMap:
    """The entries of ``a`` whose key has under ``limit`` elements in ``b``."""
    held = b.entries.get
    return LMap({key: value for key, value in a.entries.items()
                 if len(held(key, ())) < limit})


#: Each binary operator over sets and over lattices.
_SET_OPS = {"union": set.union, "difference": set.difference}
_LATTICE_OPS = {"union": lattice.merge, "below": _below}
_OPS = {"+": "union", "-": "difference", "minus": "difference",
        "below": "below"}
_LINE = re.compile(r"(table|scratch)\s+(\w+)|(\w+)\s*(<=|<\+)\s*(\w+)"
                   r"(?:\s+(\+|-|minus|below)\s+(\w+))?(?:\s+([1-9]\d*))?")


def _rule(target: str, op: str, sources: tuple, fn, deferred=False) -> Rule:
    """A rule folding ``fn`` over its sources' values; a copy has no ``fn``."""
    return Rule(target, lambda env: reduce(fn, [env[s] for s in sources]),
                sources, deferred, op)


def _parse(text: str, lattices: bool) -> tuple[dict, list]:
    """The declared tables and the rules of rule text, a line at a time;
    ``lattices`` picks the forms and operators of ``compile_rules``."""
    tables, rules = {}, []
    ops = _LATTICE_OPS if lattices else _SET_OPS
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE.fullmatch(line)
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
    out = DataflowGraph(rules, rewrite_map=rewrite_map)
    out.needs_stratification = detect_cycles(out)
    return out


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
