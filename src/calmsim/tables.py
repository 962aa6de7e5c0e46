"""Global tables over CRDTs, partition planning, tri-state lookups, and
dataflow cycle analysis with the one-shot rewrite of self-recursive
difference rules.

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
from typing import Any, Mapping

from . import lattice
from .errors import DivergenceError
from .lattice import GSet
from .runtime import _FIXPOINT_CAP, _components, _cyclic


# ---------------------------------------------------------------------------
# Partitioning


def hash_owner(workers: tuple, key: str) -> int:
    """Where a hash plan over ``workers`` puts ``key``; hash routes use it.

    The hash is an unkeyed crc32 of the UTF-8 key: stable across processes
    and runs, balanced, and for placement only, never for anything seeded.
    """
    return workers[zlib.crc32(key.encode()) % len(workers)]


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
    _displaced: bool = False  # a plan switch left a row off its owner

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
        self.merge_shard(wid, GSet.of([row]))
        return wid

    def merge_shard(self, wid: int, delta: GSet) -> None:
        """Merge ``delta`` into ``wid``'s shard as it stands.

        The plan is not consulted.  Under a keyed plan the caller must merge
        onto ``wid`` only rows that ``wid`` owns: a row on a non-owner shard
        does not mark the table displaced, so ``lookup`` may answer a false
        ``DNE`` and ``plan_query`` may call grouping coordination-free.
        """
        cur = self.shards.get(wid, GSet.bottom())
        self.shards[wid] = lattice.merge(cur, delta)

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
    a plan switch has left rows where the plan would not put them.
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
    key = table.schema.index(new.column) if new.keyed else None
    switched._displaced = any(wid not in new.workers if key is None
                              else new.owner_of_key(row[key]) != wid
                              for wid, shard in table.shards.items()
                              for row in shard.elems)
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
    exactly one owner (no plan switch left a row elsewhere) and that owner
    is reachable; otherwise the honest answer is ``IDK``.
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
# Dataflow graphs, cycle detection, one-shot rewrite


@dataclass(frozen=True)
class RuleSpec:
    """One dataflow rule: target receives op(sources).

    op is ``copy`` (one source), ``union`` (two sources), or ``difference``
    (two sources, the second negated).  Several rules may share a target;
    the target then receives the union of their results.
    """

    target: str
    op: str
    sources: tuple


@dataclass
class DataflowGraph:
    rules: list
    rewrite_map: dict = field(default_factory=dict)
    needs_stratification: list = field(default_factory=list)

    def nodes(self) -> set:
        out = set()
        for r in self.rules:
            out.add(r.target)
            out.update(r.sources)
        return out


def _reads(g: DataflowGraph) -> dict:
    """``{target: nodes its rules read}``, in rule order."""
    deps: dict = {}
    for r in g.rules:
        deps.setdefault(r.target, []).extend(r.sources)
    return deps


_OPERATOR = re.compile(r"(?<!\S)(-|\+|minus)(?!\S)")
_OPS = {"-": "difference", "minus": "difference", "+": "union"}
_NAME = re.compile(r"\w+")


def parse_rules(text: str) -> DataflowGraph:
    """Parse the one-rule-per-line text form.

    Grammar (see README): ``target <= a``, ``target <= a + b``,
    ``target <= a - b`` (or ``a minus b``), with at most one operator per
    line; write a wider union as several rules with the same target.
    ``#`` starts a comment.  Raises ``ValueError`` naming the line for a
    missing ``<=``, for ``<+`` (set-valued graphs have no ticks to defer
    to; see ``runtime.Rule(deferred=True)``), for more than one operator,
    and for a node name that is not a single word of letters, digits or
    ``_``.
    """
    rules = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<+" in line:
            raise ValueError(f"line {lineno}: deferred rule (<+) in {raw!r}; "
                             "set-valued graphs have no ticks")
        target, arrow, rhs = line.partition("<=")
        if not arrow:
            raise ValueError(f"line {lineno}: missing <= in {raw!r}")
        pieces = [p.strip() for p in _OPERATOR.split(rhs)]
        if len(pieces) > 3:
            raise ValueError(f"line {lineno}: more than one operator in {raw!r}")
        target, names = target.strip(), pieces[0::2]
        if not all(_NAME.fullmatch(n) for n in (target, *names)):
            raise ValueError(f"line {lineno}: node names must be single "
                             f"words in {raw!r}")
        op = _OPS[pieces[1]] if len(pieces) == 3 else "copy"
        rules.append(RuleSpec(target, op, tuple(names)))
    return DataflowGraph(rules)


def detect_cycles(g: DataflowGraph) -> list:
    """One tuple per cyclic strongly connected component of the graph.

    A component is cyclic when it has two or more nodes or a node that
    reads itself.  Components and their members come in order of first
    appearance.  This is not a list of every elementary cycle: a component
    holding many cycles is reported once.  An empty result means the whole
    graph can be evaluated in a single pass.
    """
    deps = _reads(g)
    return [c for c in _components(deps) if _cyclic(c, deps)]


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
    rules = []
    rewrite_map = {}
    for r in g.rules:
        if r.op == "difference" and r.sources[0] == r.target:
            pos = f"{r.target}_adds"
            while pos in taken:
                pos += "_"
            taken.add(pos)
            rewrite_map[r.target] = (pos, r.sources[1])
            rules.append(RuleSpec(r.target, "difference", (pos, r.sources[1])))
        else:
            rules.append(r)
    out = DataflowGraph(rules, rewrite_map=rewrite_map)
    out.needs_stratification = detect_cycles(out)
    return out


def _eval_rule(rule: RuleSpec, env: Mapping[str, set]) -> set:
    vals = [env.get(s, set()) for s in rule.sources]
    if rule.op == "difference":
        return vals[0] - vals[1]
    out: set = set()
    for v in vals:
        out |= v
    return out


def _seed_env(g: DataflowGraph, inputs: Mapping[str, set]) -> dict:
    env = {n: set() for n in g.nodes()}
    for name, v in inputs.items():
        env[name] = set(v)
    # A rewritten target's accumulated inserts start as the target's input.
    for target, (pos, _neg) in g.rewrite_map.items():
        if not env.get(pos):
            env[pos] = set(inputs.get(target, ()))
    return env


def _strata(g: DataflowGraph) -> list:
    """``(target, rules)`` pairs with producers before consumers."""
    by_target: dict = {}
    for r in g.rules:
        by_target.setdefault(r.target, []).append(r)
    return [(n, by_target[n]) for comp in _components(_reads(g))
            for n in comp if n in by_target]


def _pass(strata: list, env: dict) -> bool:
    """Evaluate every target once, in order; True when any node changed.

    A target's rules all read the same environment and their results are
    unioned.
    """
    changed = False
    for target, rules in strata:
        value = set().union(*(_eval_rule(r, env) for r in rules))
        if value != env[target]:
            env[target] = value
            changed = True
    return changed


def one_shot_eval(g: DataflowGraph, inputs: Mapping[str, set]) -> dict:
    """Single pass in dependency order, exact when ``detect_cycles(g)`` is
    empty."""
    env = _seed_env(g, inputs)
    _pass(_strata(g), env)
    return env


def evaluate_stratified(g: DataflowGraph, inputs: Mapping[str, set]) -> dict:
    """Repeat the dependency-ordered pass until no node changes; raises
    ``DivergenceError`` after ``_FIXPOINT_CAP`` passes."""
    env = _seed_env(g, inputs)
    strata = _strata(g)
    for _ in range(_FIXPOINT_CAP):
        if not _pass(strata, env):
            return env
    raise DivergenceError(f"no fixed point after {_FIXPOINT_CAP} passes")
