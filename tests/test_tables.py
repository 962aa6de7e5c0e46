import random

import pytest

from conftest import run_python

from calmsim.errors import DivergenceError
from calmsim.lattice import GSet, LMap
from calmsim.runtime import NetworkCondition
from calmsim.tables import (DNE, IDK, GlobalTable, PartitionPlan, Scratch,
                            Value, compile_rules, detect_cycles, detect_skew,
                            evaluate_stratified, lookup, one_shot_eval,
                            parse_rules, plan_query, hash_owners,
                            rewrite_one_shot,
                            switch_partitioning)


def kmer_table(workers=(0, 1, 2, 3), strategy="hash", **kw):
    plan = PartitionPlan(strategy, tuple(workers),
                         column="seq" if strategy != "round_robin" else None,
                         **kw)
    return GlobalTable("kmers", GSet, ("seq", "token"), plan)


# -- planning ---------------------------------------------------------------


def test_hash_partition_on_group_by_is_coordination_free():
    assert plan_query(kmer_table(), "seq").coordination_free


def test_round_robin_needs_coordination():
    assert not plan_query(kmer_table(strategy="round_robin"), "seq").coordination_free


def test_single_worker_always_coordination_free():
    assert plan_query(kmer_table(workers=(0,), strategy="round_robin"),
                      "seq").coordination_free


def test_unknown_column_rejected():
    with pytest.raises(ValueError):
        plan_query(kmer_table(), "nope")


@pytest.mark.parametrize("boundaries", [(), ("G",), ("T", "C"), ("C", "C"),
                                        ("C", "G", "T")])
def test_range_plan_needs_one_increasing_cut_between_workers(boundaries):
    # ("G",) over three workers never routes to the third; ("T", "C")
    # routes nothing to the second.
    with pytest.raises(ValueError, match="strictly increasing boundaries"):
        kmer_table(workers=(0, 1, 2), strategy="range", boundaries=boundaries)


@pytest.mark.parametrize("strategy, kw, message", [
    ("round_robin", {"column": "seq"}, "takes no key column"),
    ("round_robin", {"boundaries": ("C",)}, "takes no boundaries"),
    ("hash", {"column": "seq", "boundaries": ("C",)}, "takes no boundaries"),
])
def test_plan_rejects_a_field_its_strategy_ignores(strategy, kw, message):
    with pytest.raises(ValueError, match=message):
        PartitionPlan(strategy, (0, 1), **kw)


@pytest.mark.parametrize("strategy, workers, column, message", [
    ("modulo", (0, 1), "seq", "unknown partition strategy 'modulo'"),
    ("hash", (0, 1), None, "hash partitioning needs a key column"),
    ("range", (0, 1), None, "range partitioning needs a key column"),
    ("hash", (), "seq", "plan needs at least one worker"),
    ("round_robin", (), None, "plan needs at least one worker"),
])
def test_plan_rejects_a_bad_strategy_column_or_worker_set(strategy, workers,
                                                           column, message):
    with pytest.raises(ValueError, match=message):
        PartitionPlan(strategy, workers, column=column)


def test_round_robin_plan_names_no_owner_of_a_key():
    plan = PartitionPlan("round_robin", (0, 1))
    with pytest.raises(ValueError, match="not a function of the key"):
        plan.owner_of_key("ACGT")


def test_global_table_holds_g_set_shards_only():
    with pytest.raises(TypeError, match="G-Set shards only"):
        GlobalTable("t", LMap, ("seq", "token"), PartitionPlan(
            "hash", (0, 1), column="seq"))


def test_keyed_plan_column_must_be_in_the_schema():
    plan = PartitionPlan("hash", (0, 1), column="zzz")
    with pytest.raises(ValueError, match="'zzz'"):
        GlobalTable("t", GSet, ("a", "b"), plan)
    with pytest.raises(ValueError, match="'zzz'"):
        switch_partitioning(kmer_table(workers=(0, 1)), plan)


def test_range_plan_routes_each_worker_its_range():
    plan = kmer_table(workers=(4, 5, 6), strategy="range",
                      boundaries=("C", "G")).plan
    owners = {key: plan.owner_of_key(key) for key in ("A", "C", "G", "T")}
    assert owners == {"A": 4, "C": 5, "G": 6, "T": 6}


KNOWN_OWNERS = [
    ("ACGTACGTACGT", 3), ("AAAAAAAAAAAA", 2), ("TTTTTTTTTTTT", 0),
    ("GATTACAGATTA", 2), ("CGCGC", 1), ("GGCAT", 0)]


@pytest.mark.parametrize("key, owner", KNOWN_OWNERS)
def test_hash_owner_known_answers(key, owner):
    # crc32 of the UTF-8 key: the same owner in every process and release
    assert hash_owners((0, 1, 2, 3), (key,)) == [owner]
    assert kmer_table().plan.owner_of_key(key) == owner


def test_hash_owners_places_a_batch_as_hash_owner_does():
    keys, owners = zip(*KNOWN_OWNERS)
    assert hash_owners((0, 1, 2, 3), iter(keys)) == list(owners)
    assert hash_owners((0, 1, 2, 3), []) == []
    rng = random.Random(7)
    keys = ["".join(rng.choices("ACGT", k=rng.randint(1, 16)))
            for _ in range(500)]
    for workers in ((5,), (0, 2), (3, 1, 4, 7, 9)):
        plan = PartitionPlan("hash", workers, column="seq")
        assert hash_owners(workers, keys) == [plan.owner_of_key(key)
                                              for key in keys]


def test_hash_owner_balances_uniform_windows():
    rng = random.Random(2024)
    seq = "".join(rng.choices("ACGT", k=120_011))
    counts = [0] * 4
    for owner in hash_owners((0, 1, 2, 3), (seq[i:i + 12]
                                             for i in range(len(seq) - 11))):
        counts[owner] += 1
    assert max(counts) / (sum(counts) / 4) <= 1.02


def test_detect_skew():
    t = kmer_table(workers=(0, 1, 2))
    for wid, n in zip((0, 1, 2), (100, 100, 100)):
        t.merge_shard(wid, GSet.of((f"w{wid}", i) for i in range(n)))
    assert not detect_skew(t, 2.0)
    t.merge_shard(0, GSet.of(("hot", i) for i in range(900)))
    assert detect_skew(t, 2.0)  # 1000 > 2 * 366.7


def test_detect_skew_edge_cases():
    assert not detect_skew(kmer_table())  # empty table
    t = kmer_table(workers=(0,))
    t.merge_shard(0, GSet.of([("a", 1)]))
    assert not detect_skew(t)  # one worker: max == mean
    with pytest.raises(ValueError):
        detect_skew(kmer_table(), factor=1.0)


def test_switch_partitioning_keeps_contents():
    t = kmer_table()
    rows = [(f"K{i}", i) for i in range(40)]
    for row in rows:
        t.insert(row)
    before = t.merged()
    t2 = switch_partitioning(
        t, PartitionPlan("round_robin", t.plan.workers))
    assert t2.merged() == before
    assert not plan_query(t2, "seq").coordination_free
    # Switching to the identical plan changes nothing observable.
    t3 = switch_partitioning(t, t.plan)
    assert t3.merged() == before and plan_query(t3, "seq").coordination_free


def test_post_switch_inserts_route_by_new_plan():
    t = kmer_table(workers=(0, 1))
    log = [(f"K{i}", i) for i in range(20)]
    for row in log[:10]:
        t.insert(row)
    t2 = switch_partitioning(t, PartitionPlan("round_robin", (0, 1)))
    for row in log[10:]:
        t2.insert(row)
    assert t2.merged() == GSet.of(log)


def test_switch_leaves_rows_off_their_new_owner():
    t = kmer_table(workers=(0, 1), strategy="round_robin")
    keys = ["ATAG", "CCCC", "GGGG", "TTTT"]
    for i, key in enumerate(keys):
        t.insert((key, i))
    t2 = switch_partitioning(t, PartitionPlan("hash", (0, 1), column="seq"))
    assert all(lookup(t2, key, wid) is not DNE
               for key in keys for wid in (0, 1))
    assert lookup(t2, "ACGT", 0) is IDK
    assert not plan_query(t2, "seq").coordination_free


def test_merging_a_row_off_its_owner_marks_the_table_displaced():
    t = kmer_table(workers=(0, 1))
    owner = t.plan.owner_of_key("ACGT")
    t.merge_shard(owner, GSet.of([("ACGT", 0)]))
    assert lookup(t, "ACGT", 1 - owner) == Value(frozenset({("ACGT", 0)}))
    assert plan_query(t, "seq").coordination_free
    t.merge_shard(1 - owner, GSet.of([("CCCC", 1), ("GGGG", 2)]))
    off = next(key for key in ("CCCC", "GGGG")
               if t.plan.owner_of_key(key) == owner)
    assert lookup(t, off, owner) is IDK  # its row sits off the owner
    assert not plan_query(t, "seq").coordination_free


def test_a_table_built_with_a_row_off_its_owner_is_displaced():
    plan = PartitionPlan("hash", (0, 1), column="seq")
    assert plan.owner_of_key("ATAG") == 1
    t = GlobalTable("k", GSet, ("seq", "tok"), plan, {0: GSet([("ATAG", 1)])})
    assert lookup(t, "ATAG", at_worker=1) is IDK
    assert not plan_query(t, "seq").coordination_free
    # Under the same workers listed the other way, worker 0 owns ATAG.
    owns = switch_partitioning(t, PartitionPlan("hash", (1, 0), column="seq"))
    assert owns.plan.owner_of_key("ATAG") == 0
    assert lookup(owns, "ATAG", at_worker=1) == Value(
        frozenset({("ATAG", 1)}))
    assert lookup(owns, "TTTT", owns.plan.owner_of_key("TTTT")) is DNE
    assert plan_query(owns, "seq").coordination_free


def test_a_table_rejects_given_shards_that_are_not_gsets():
    plan = PartitionPlan("hash", (0, 1), column="seq")
    with pytest.raises(TypeError, match="G-Set shards only"):
        GlobalTable("k", GSet, ("seq", "tok"), plan, {0: set(), 1: set()})
    with pytest.raises(TypeError, match="G-Set shards only"):
        GlobalTable("k", GSet, ("seq", "tok"), plan,
                    {0: GSet(), 1: LMap()})


def test_a_table_rejects_a_given_row_of_the_wrong_arity():
    plan = PartitionPlan("hash", (0, 1), column="seq")
    with pytest.raises(ValueError, match=r"has 2 values; .* has 1"):
        GlobalTable("k", GSet, ("seq",), plan, {0: GSet([("A", "B")])})


@pytest.mark.parametrize("strategy", ["hash", "round_robin"])
def test_a_row_of_the_wrong_arity_is_rejected_before_any_change(strategy):
    t = kmer_table(workers=(0, 1), strategy=strategy)
    t.insert(("ACGT", 0))
    shards = dict(t.shards)
    with pytest.raises(ValueError, match=r"has 1 values; .* has 2"):
        t.insert(("CCCC",))
    with pytest.raises(ValueError, match=r"has 3 values; .* has 2"):
        t.merge_shard(0, GSet.of([("GGGG", 1), ("TTTT", 2, 3)]))
    assert t.shards == shards and not t._displaced
    assert t._arrivals == (1 if strategy == "round_robin" else 0)
    # Every row is whole, so a later plan switch can read each key.
    switch_partitioning(t, PartitionPlan("hash", (0, 1), column="token"))


def test_insert_hashes_its_row_once(monkeypatch):
    owner_of_key, calls = PartitionPlan.owner_of_key, []

    def spy(plan, key):
        calls.append(key)
        return owner_of_key(plan, key)

    monkeypatch.setattr(PartitionPlan, "owner_of_key", spy)
    t = kmer_table(workers=(0, 1))
    t.insert(("ACGT", 0))
    assert calls == ["ACGT"] and plan_query(t, "seq").coordination_free


def test_switch_to_the_same_plan_or_of_an_empty_table_keeps_answers():
    t = kmer_table(workers=(0, 1))
    for i, key in enumerate(["ATAG", "CCCC", "GGGG"]):
        t.insert((key, i))
    same = switch_partitioning(t, t.plan)
    probes = [(key, wid) for key in ("ATAG", "CCCC", "GGGG", "TTTT", "ACGT")
              for wid in (0, 1)]
    assert [lookup(same, *p) for p in probes] == [
        lookup(t, *p) for p in probes]
    assert plan_query(same, "seq").coordination_free
    empty = switch_partitioning(
        kmer_table(workers=(0, 1), strategy="round_robin"),
        PartitionPlan("hash", (0, 1), column="seq"))
    empty.insert(("ATAG", 0))
    assert lookup(empty, "TTTT", 0) is DNE
    assert plan_query(empty, "seq").coordination_free


def _random_plan(rng, keyed_only=False):
    workers = tuple(sorted(rng.sample(range(4), rng.randint(1, 3))))
    strategy = rng.choice(("hash", "range") if keyed_only
                          else ("hash", "range", "round_robin"))
    if strategy == "round_robin":
        return PartitionPlan(strategy, workers)
    cuts = tuple(sorted(rng.sample(["C", "G", "T"], len(workers) - 1)))
    return PartitionPlan(strategy, workers, column="seq",
                         boundaries=cuts if strategy == "range" else ())


def test_no_held_key_reads_dne_after_random_switches():
    rng = random.Random(8)
    for _ in range(300):
        t = GlobalTable("kmers", GSet, ("seq", "token"), _random_plan(rng))
        for i in range(rng.randint(0, 12)):
            t.insert(("".join(rng.choice("ACGT") for _ in range(2)), i))
        for _ in range(rng.randint(1, 2)):
            t = switch_partitioning(t, _random_plan(rng, keyed_only=True))
        holders: dict = {}
        for wid, shard in t.shards.items():
            for key, _token in shard.elems:
                holders.setdefault(key, set()).add(wid)
        for key in holders:
            for wid in t.shards:
                assert lookup(t, key, wid) is not DNE
        if plan_query(t, "seq").coordination_free:
            assert all(len(wids) == 1 for wids in holders.values())


# -- tri-state lookups ------------------------------------------------------


def test_lookup_tristates():
    t = kmer_table(workers=(0, 1))
    t.insert(("ATAG", 1))
    owner = t.plan.owner_of_key("ATAG")
    out = lookup(t, "ATAG", at_worker=owner)
    assert isinstance(out, Value) and ("ATAG", 1) in out.payload
    # Absent key, healthy network, key-local plan: a global assertion.
    assert lookup(t, "GGGG", at_worker=0) is DNE
    # Same miss during a partition of the owner: only a local assertion.
    other = 1 - t.plan.owner_of_key("GGGG")
    net = NetworkCondition([(0, 1)])
    assert lookup(t, "GGGG", at_worker=other, net=net) is IDK


def test_lookup_round_robin_miss_is_idk():
    t = kmer_table(workers=(0, 1), strategy="round_robin")
    t.insert(("AAAA", 0))
    assert lookup(t, "CCCC", at_worker=0) is IDK


def test_lookup_never_dne_when_key_exists_anywhere():
    rng = random.Random(2)
    t = kmer_table(workers=(0, 1, 2))
    keys = [f"K{i}" for i in range(30)]
    for i, key in enumerate(keys):
        t.insert((key, i))
    for key in keys:
        for wid in (0, 1, 2):
            out = lookup(t, key, at_worker=wid)
            assert out is not DNE
    # Cross-shard scan agrees: DNE only for keys in no shard.
    for _ in range(20):
        key = f"M{rng.randint(0, 9)}"
        everywhere = any(
            key in {r[0] for r in shard.elems} for shard in t.shards.values())
        assert everywhere == (lookup(t, key, at_worker=0) is not DNE)


# -- dataflow analysis ------------------------------------------------------

RECURSIVE = "cart <= cart - bad\n"
ONE_SHOT = "cart <= added - bad\n"


def test_detect_cycles():
    assert detect_cycles(parse_rules(RECURSIVE)) == [("cart",)]
    assert detect_cycles(parse_rules(ONE_SHOT)) == []
    assert detect_cycles(parse_rules("")) == []
    # One component, not its ~1.1 million elementary cycles.
    nodes = [f"n{i}" for i in range(10)]
    complete = "\n".join(f"{a} <= {b}" for a in nodes for b in nodes if a != b)
    assert detect_cycles(parse_rules(complete)) == [tuple(nodes)]


def test_detect_cycles_independent_of_hash_seed():
    # Producers first, then by how many nodes a component reads.
    code = ("from calmsim.tables import detect_cycles, parse_rules\n"
            "for text in ('a <= b\\nb <= c\\nc <= a', 'a <= a + c\\nc <= c',\n"
            "             'a <= b\\nb <= a\\nc <= c'):\n"
            "    print(detect_cycles(parse_rules(text)))")
    for seed in ("0", "1"):
        out = run_python(code, PYTHONHASHSEED=seed)
        assert out == ("[('a', 'b', 'c')]\n[('c',), ('a',)]\n"
                       "[('c',), ('a', 'b')]\n")


@pytest.mark.parametrize("bad", [
    "x <+ a",            # deferral has no meaning without ticks
    "x <= a - b + c",    # more than one operator
    "x <= a - b - c",
    "x <= a + b + c",
    " <= a",             # empty target
    "x <=",              # empty source
    "x <= a -",
    "x a",               # no arrow
    "x <= a <= b",       # node names are single words
    "x <= a b",
    "x y <= a",
    "x <= -a",
    "x <= a below b 3",  # a guard over lattices: compile_rules only
    "table x",           # declarations: compile_rules only
])
def test_parse_rules_rejects_unrepresentable_lines(bad):
    with pytest.raises(ValueError, match="^line 2: "):
        parse_rules(ONE_SHOT + bad)


def test_compile_rules_builds_tables_and_rules():
    tables, rules = compile_rules("table local  # persists\n"
                                  "scratch arrivals\n\n"
                                  "local <+ arrivals below local 2\n"
                                  "local <= arrivals + arrivals\n"
                                  "local<=arrivals\n")
    assert tables == {"local": LMap(), "arrivals": Scratch(LMap())}
    assert [(r.target, r.op, r.sources, r.deferred) for r in rules] == [
        ("local", "below", ("arrivals", "local"), True),
        ("local", "union", ("arrivals", "arrivals"), False),
        ("local", "copy", ("arrivals",), False)]
    arrivals = LMap({"x": GSet.of([1]), "y": GSet.of([2])})
    env = {"arrivals": arrivals, "local": LMap({"x": GSet.of([7, 8])})}
    assert rules[0].expr(env) == LMap({"y": GSet.of([2])})
    assert rules[1].expr(env) == rules[2].expr(env) == arrivals


PROGRAM = "table a\nscratch b\ntable c\n"


@pytest.mark.parametrize("bad", [
    "c <= a - b",        # a difference is not monotone
    "c <= a minus b",
    "c <= a below b",    # below needs a positive integer limit
    "c <= a below b 0",
    "c <= a below b -1",
    "c <= a below b x",
    "c <= a + b 3",      # and no other rule takes one
    "table a",           # a name declared twice
    "scratch a",
    "table",             # a declaration names one table
    "scratch",
    "table a b",
    "c <+ a <= b",       # one arrow
])
def test_compile_rules_rejects_bad_lines(bad):
    with pytest.raises(ValueError, match="^line 4: "):
        compile_rules(PROGRAM + bad)


def test_rewrite_one_shot_removes_self_difference():
    g = rewrite_one_shot(parse_rules(RECURSIVE))
    assert detect_cycles(g) == []
    assert g.rewrite_map == {"cart": ("cart_adds", "bad")}


def test_rewrite_leaves_acyclic_graph_unchanged():
    g = parse_rules(ONE_SHOT)
    g2 = rewrite_one_shot(g)
    assert g2.rules == g.rules and not g2.rewrite_map


def test_rewrite_reports_monotone_cycles():
    g = rewrite_one_shot(parse_rules("a <= b\nb <= a\n"))
    assert g.needs_stratification  # not the difference pattern; flagged


def test_a_parsed_graph_reports_its_cycles():
    assert parse_rules("x <= x + y").needs_stratification == [("x",)]
    assert parse_rules(ONE_SHOT).needs_stratification == []


def test_rewrite_picks_a_fresh_name_for_the_inserts():
    g = rewrite_one_shot(parse_rules(RECURSIVE + "cart_adds <= bad\n"))
    assert g.rewrite_map == {"cart": ("cart_adds_", "bad")}
    assert detect_cycles(g) == []


@pytest.mark.parametrize("evaluate", [one_shot_eval, evaluate_stratified])
@pytest.mark.parametrize("text, node, expected", [
    ("c <= b\nb <= a\n", "c", {1}),        # rules listed consumer first
    ("x <= a\nx <= b\n", "x", {1, 2}),     # shared target: union
    ("x <= a minus b\n", "x", {1}),
])
def test_evaluation_follows_dependencies(evaluate, text, node, expected):
    env = evaluate(parse_rules(text), {"a": {1}, "b": {2}})
    assert env[node] == expected


def test_shopping_cart_fixpoint():
    env = evaluate_stratified(parse_rules(RECURSIVE),
                              {"cart": {"a", "b", "c"}, "bad": {"b"}})
    assert env["cart"] == {"a", "c"}


def test_no_rules_means_inputs_unchanged():
    env = evaluate_stratified(parse_rules(""), {"x": {1, 2}})
    assert env == {"x": {1, 2}}


def test_one_shot_equals_fixpoint_on_random_instances():
    rng = random.Random(9)
    g1 = parse_rules(RECURSIVE)
    g2 = rewrite_one_shot(g1)
    for _ in range(50):
        added = {rng.randint(0, 30) for _ in range(rng.randint(0, 15))}
        bad = {rng.randint(0, 30) for _ in range(rng.randint(0, 10))}
        fix = evaluate_stratified(g1, {"cart": set(added), "bad": set(bad)})
        once = one_shot_eval(g2, {"cart": set(added), "bad": set(bad)})
        assert fix["cart"] == once["cart"] == added - bad


def test_evaluation_equals_a_recursive_reference_on_random_dags():
    ops = {"": lambda a: a, "+": set.union, "-": set.difference}
    rng = random.Random(24)
    for _ in range(200):
        nodes = [f"n{i}" for i in range(rng.randint(2, 9))]
        rng.shuffle(nodes)  # a rule reads only nodes earlier in this list
        rules = []
        for _ in range(rng.randint(1, 12)):
            at = rng.randrange(1, len(nodes))
            op = rng.choice(list(ops))
            sources = [rng.choice(nodes[:at]) for _ in range(2 if op else 1)]
            rules.append((nodes[at], op, sources))
        text = "".join(f"{t} <= {f' {op} '.join(srcs)}\n"
                       for t, op, srcs in rules)
        inputs = {n: {rng.randint(0, 5) for _ in range(3)} for n in nodes}
        memo = {}

        def value(node):
            if node not in memo:
                mine = [(op, srcs) for t, op, srcs in rules if t == node]
                memo[node] = set().union(*(
                    ops[op](*map(value, srcs)) for op, srcs in mine
                )) if mine else inputs[node]
            return memo[node]

        g = parse_rules(text)
        assert detect_cycles(g) == []
        expected = {n: value(n) for n in nodes}
        assert one_shot_eval(g, inputs) == expected, text
        assert evaluate_stratified(g, inputs) == expected, text


def test_divergent_fixpoint_hits_cap():
    env = evaluate_stratified(parse_rules("x <= x + y\n"), {"x": {1}, "y": {2}})
    assert env["x"] == {1, 2}  # a growing union converges
    # x = {2} - x flips between {2} and {} on every pass.
    with pytest.raises(DivergenceError):
        evaluate_stratified(parse_rules("x <= y - x\n"), {"x": {1}, "y": {2}})
