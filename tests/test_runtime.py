import pytest

import calmsim
from calmsim import kmer, lattice, runtime, tables
from calmsim.errors import (DivergenceError, LatticeTypeError,
                            StratificationError, UnknownWorkerError)
from calmsim.lattice import GSet, LMap, LMax, ThresholdLSet
from calmsim.runtime import (DeliverySchedule, Program, Simulation,
                             run_to_quiescence)
from calmsim.tables import Rule, Scratch, TickRuleEngine, compile_rules

from helpers import EngineSpy


class GSetSink(Program):
    """Sends a fixed batch of payloads from worker 0 to worker 1's G-Set."""

    def __init__(self, payloads):
        self.payloads = list(payloads)
        self.shard = GSet.bottom()
        self.sent = False

    def setup(self, sim):
        sim.register_worker()
        sim.register_worker()

    def worker_step(self, sim, wid):
        if wid == 0 and not self.sent:
            for p in self.payloads:
                sim.send(0, 1, p)
            self.sent = True

    def on_deliver(self, sim, env):
        self.shard = self.shard.merge(GSet.of([env.payload]))

    def idle(self, sim):
        return self.sent


def test_lossy_duplicating_channel_converges_to_payload_set():
    payloads = [f"p{i}" for i in range(100)]
    sim = Simulation(DeliverySchedule(seed=3, duplicate_prob=0.5,
                                      reorder_window=4, drop_prob=0.3))
    program = GSetSink(payloads)
    run_to_quiescence(sim, program)
    assert program.shard == GSet.of(payloads)


def test_every_token_delivered_at_least_once():
    sim = Simulation(DeliverySchedule(seed=8, duplicate_prob=0.2,
                                      reorder_window=3, drop_prob=0.4))
    run_to_quiescence(sim, GSetSink([f"p{i}" for i in range(50)]))
    sent = {ev[4] for ev in sim.events if ev[1] == "send"}
    delivered = {ev[4] for ev in sim.events if ev[1] == "deliver"}
    assert sent <= delivered


def test_determinism_byte_identical_event_logs():
    def one_run():
        sim = Simulation(DeliverySchedule(seed=42, duplicate_prob=0.3,
                                          reorder_window=5, drop_prob=0.2))
        run_to_quiescence(sim, GSetSink([f"p{i}" for i in range(40)]))
        return sim.event_lines()

    assert one_run() == one_run()


def test_register_workers():
    sim = Simulation()
    wids = [sim.register_worker() for _ in range(4)]
    assert wids == [0, 1, 2, 3]


def test_unknown_worker_rejected():
    with pytest.raises(UnknownWorkerError):
        Simulation().fail_worker(9)


@pytest.mark.parametrize("window", [1.5, 2.0, "2"])
def test_a_non_integer_reorder_window_is_rejected_at_construction(window):
    # Accepted, it would fail only at the run's first send, in the keyed
    # delay's arithmetic.
    with pytest.raises(ValueError, match="reorder_window must be an int"):
        DeliverySchedule(reorder_window=window)


def test_partition_pair_cutting_a_worker_from_itself_is_rejected():
    sim = Simulation()
    sim.register_worker()
    sim.register_worker()
    with pytest.raises(ValueError, match="worker 1 cannot be cut off from it"):
        sim.set_partition([(0, 1), (1, 1)])
    for cut in ((0, 1, 2), ()):  # neither names a pair of workers
        with pytest.raises(ValueError, match="must name two workers"):
            sim.set_partition([(0, 1), cut])
    assert sim.net.partitioned(0, 1) is False
    assert [ev[1] for ev in sim.events] == ["register", "register"]


def test_partition_holds_then_heals():
    class TwoSender(GSetSink):
        def worker_step(self, sim, wid):
            super().worker_step(sim, wid)
            if sim.now == 3:
                sim.heal()

    sim = Simulation(DeliverySchedule(seed=1))
    prog = TwoSender(["a", "b"])
    prog.setup(sim)
    sim.set_partition([(0, 1)])
    sim.now = 1
    prog.worker_step(sim, 0)
    assert len(sim.held) == 2 and not sim.in_flight
    assert prog.shard == GSet.bottom()  # receiver unchanged, sender not blocked
    sim.heal()
    assert not sim.held and len(sim.in_flight) == 2


def test_new_partition_keeps_an_envelope_its_cut_still_separates():
    sim = Simulation()
    for _ in range(3):
        sim.register_worker()
    sim.set_partition([(0, 1)])
    env = sim.send(0, 1, "a")
    sim.set_partition([(0, 1), (1, 2)])  # 0-1 is still cut
    assert sim.held == [env] and not sim.in_flight
    sim.heal()
    assert not sim.held and [e[2] for e in sim.in_flight] == [env]


class Scripted:
    """A choice source that gives ``fates`` in turn and records each call."""

    def __init__(self, *fates):
        self.fates, self.calls = iter(fates), []

    def fate(self, env, attempts, copy):
        self.calls.append((env.payload, attempts, copy))
        return next(self.fates)


def test_deliver_due_orders_by_due_and_resends_a_drop_later():
    # Scripted fates, ``(delay, dropped, dup)``: one per send, then the
    # resend's.  Ids still come from the seeded generator.
    keep, drop = (0, False, False), (0, True, False)
    choices = Scripted(keep, keep, drop, keep)
    sim = Simulation(DeliverySchedule(drop_prob=0.5), choices)
    sim.now = 4
    late = sim.send(0, 1, "late")  # due 5
    sim.now = 0
    early = sim.send(0, 1, "early")  # due 1, a later seq
    lost = sim.send(0, 1, "lost")  # due 1, dropped
    sim.now = 5
    assert sim.deliver_due() == [early, late]
    assert [(ev[1], ev[4]) for ev in sim.events if ev[1] != "send"] == [
        ("deliver", early.token_id), ("drop", lost.token_id),
        ("deliver", late.token_id)]
    assert [entry[2] for entry in sim.in_flight] == [lost]
    sim.now = 8  # resent with a backoff of 2
    assert sim.deliver_due() == [lost] and not sim.in_flight
    assert choices.calls == [("late", 0, 0), ("early", 0, 0), ("lost", 0, 0),
                             ("lost", 1, 0)]


def test_a_duplicate_is_a_second_copy_and_a_resend_keeps_its_copy():
    choices = Scripted((0, False, True), (1, True, True), (0, False, True))
    sim = Simulation(choices=choices)
    sim.now = 3
    env = sim.send(0, 1, "x")  # due 4; a copy's or a resend's dup is unread
    assert [(e[0], e[4], e[5]) for e in sorted(sim.in_flight)] == [
        (4, False, 0), (5, True, 1)]
    sim.now = 5
    assert sim.deliver_due() == [env]
    assert [(e[0], e[3], e[5]) for e in sim.in_flight] == [(8, 1, 1)]
    assert choices.calls == [("x", 0, 0), ("x", 0, 1), ("x", 1, 1)]
    assert [ev[1] for ev in sim.events] == ["send", "dup", "deliver", "drop"]


FATEFUL = DeliverySchedule(seed=4, duplicate_prob=0.5, reorder_window=7,
                           drop_prob=0.5)


def fates(sim, env):
    """``env``'s entries in flight as ``(delay, dropped, copy)``."""
    return sorted((due - sim.now - 1, dropped, copy)
                  for due, _, e, _, dropped, copy in sim.in_flight if e is env)


def test_an_unrelated_send_moves_no_fate_of_a_message():
    def fate_of(token, unrelated):
        sim = Simulation(FATEFUL)
        for src, dst, other in unrelated:
            sim.send(src, dst, "other", token_id=other)
        return fates(sim, sim.send(0, 1, "m", token_id=token))

    # Sends of a token on other links, and of other tokens on its link.
    earlier = [(0, 2, 7), (1, 0, 7), (0, 1, 100), (0, 1, 101)]
    seen = [fate_of(token, ()) for token in range(20)]
    assert seen == [fate_of(token, earlier) for token in range(20)]
    assert len({repr(f) for f in seen}) > 5  # the fates do vary


def test_two_sends_of_one_token_on_one_link_are_keyed_apart():
    sim = Simulation(FATEFUL)
    pairs = [(sim.send(0, 1, "a", token_id=t), sim.send(0, 1, "b", token_id=t))
             for t in range(20)]
    assert {(a.n, b.n) for a, b in pairs} == {(0, 1)}
    assert any(fates(sim, a) != fates(sim, b) for a, b in pairs)
    assert sim.send(1, 0, "c", token_id=0).n == 0  # another link


def test_keyed_fates_meet_the_schedule_probabilities():
    sim = Simulation(DeliverySchedule(seed=2, duplicate_prob=1.0))
    for token in range(50):
        sim.send(0, 1, None, token_id=token)
    assert sum(ev[1] == "dup" for ev in sim.events) == 50
    sim = Simulation(DeliverySchedule(seed=2, duplicate_prob=0.3,
                                      reorder_window=3, drop_prob=0.3))
    for token in range(2000):
        sim.send(0, 1, None, token_id=token)
    dups = sum(ev[1] == "dup" for ev in sim.events)
    drops = sum(entry[4] for entry in sim.in_flight)
    delays = {entry[0] - 1 for entry in sim.in_flight}
    assert 500 < dups < 700 and 650 < drops < 900 and delays == {0, 1, 2, 3}


def test_empty_program_quiescent_at_tick_zero():
    sim = Simulation()
    run_to_quiescence(sim, Program())
    assert sim.now == 0


def test_idle_program_stops_on_its_last_harness_tick():
    sim = Simulation()
    ran = []
    run_to_quiescence(sim, Program(),
                      {5: [lambda sim, program: ran.append(sim.now)]})
    assert ran == [5] and sim.now == 5


@pytest.mark.parametrize("tick", [0, -2])
def test_harness_event_before_tick_one_is_rejected(tick):
    ran = []
    sim = Simulation()
    events = {tick: [lambda sim, program: ran.append(sim.now)], 3: []}
    with pytest.raises(ValueError, match=f"harness event at tick {tick} "):
        run_to_quiescence(sim, GSetSink(["a"]), events)
    assert not ran and not sim.events


def test_divergence_guard(monkeypatch):
    class Chatter(Program):
        def setup(self, sim):
            sim.register_worker()
            sim.register_worker()

        def worker_step(self, sim, wid):
            sim.send(wid, 1 - wid, "ping")

        def idle(self, sim):
            return False

    monkeypatch.setattr(runtime, "_TICK_CAP", 50)
    with pytest.raises(DivergenceError, match="within 50 ticks"):
        run_to_quiescence(Simulation(), Chatter())


def test_unhealed_partition_raises_at_once():
    sim = Simulation()
    cut = {1: [lambda sim, program: sim.set_partition([(0, 1)])]}
    with pytest.raises(DivergenceError, match=r"per cut link: 0->1: 3\)"):
        run_to_quiescence(sim, GSetSink(["a", "b", "c"]), cut)
    assert len(sim.held) == 3
    assert sim.now < runtime._TICK_CAP // 1000


def test_run_with_no_live_worker_raises_at_once():
    def kill_both(sim, program):
        sim.fail_worker(0)
        sim.fail_worker(1)

    sim = Simulation()
    with pytest.raises(DivergenceError, match="no worker is alive"):
        run_to_quiescence(sim, GSetSink(["a"]), {1: [kill_both]})
    assert sim.now == 1 and not sim.in_flight


def test_held_envelopes_keep_their_message_when_no_worker_is_alive():
    class SendThenDie(GSetSink):
        def idle(self, sim):
            return False

    def cut(sim, program):
        sim.set_partition([(0, 1)])

    def kill_both(sim, program):
        sim.fail_worker(0)
        sim.fail_worker(1)

    sim = Simulation()
    with pytest.raises(DivergenceError, match=r"per cut link: 0->1: 2\)"):
        run_to_quiescence(sim, SendThenDie(["a", "b"]),
                          {1: [cut], 2: [kill_both]})
    assert sim.now == 2


def test_fresh_ids_unique():
    sim = Simulation()
    ids = [sim.fresh_id() for _ in range(2000)]
    assert len(set(ids)) == len(ids)


# -- tick rules -------------------------------------------------------------


def test_instantaneous_rule_visible_same_tick():
    eng = TickRuleEngine(
        tables={"a": GSet.bottom(), "b": GSet.bottom(), "c": GSet.bottom()},
        rules=[
            Rule("b", lambda t: t["a"], sources=("a",)),
            Rule("c", lambda t: t["b"], sources=("b",)),
        ])
    eng.inject("a", GSet.of([1]))
    eng.tick()
    assert eng.tables["c"] == GSet.of([1])


def test_deferred_rule_visible_next_tick():
    eng = TickRuleEngine(
        tables={"a": GSet.bottom(), "b": GSet.bottom()},
        rules=[Rule("b", lambda t: t["a"], sources=("a",), deferred=True)])
    eng.inject("a", GSet.of([1]))
    eng.tick()
    assert eng.tables["b"] == GSet.bottom()
    eng.tick()
    assert eng.tables["b"] == GSet.of([1])


def test_deferred_into_untouched_table():
    eng = TickRuleEngine(
        tables={"a": GSet.bottom(), "b": GSet.bottom()},
        rules=[Rule("b", lambda t: t["a"], sources=("a",), deferred=True)])
    eng.tick()
    assert eng.tables["b"] == GSet.bottom()


def test_instantaneous_cycle_is_stratification_error():
    with pytest.raises(StratificationError) as err:
        TickRuleEngine(
            tables={"x": GSet.bottom(), "y": GSet.bottom()},
            rules=[
                Rule("x", lambda t: t["y"], sources=("y",)),
                Rule("y", lambda t: t["x"], sources=("x",)),
            ])
    assert err.value.cycle == ("x", "y", "x")


def test_self_feeding_rule_is_stratification_error():
    with pytest.raises(StratificationError) as err:
        TickRuleEngine(tables={"x": LMax.bottom()},
                       rules=[Rule("x", lambda t: t["x"], sources=("x",))])
    assert err.value.cycle == ("x", "x")


def test_stratification_error_names_a_real_cycle():
    # x reads y and z, both of which read x: the component {x, y, z} holds
    # the cycles x -> y -> x and x -> z -> x, but no cycle x -> y -> z.
    with pytest.raises(StratificationError) as err:
        TickRuleEngine(
            tables={n: GSet.bottom() for n in "xyz"},
            rules=[
                Rule("x", lambda t: t["y"].merge(t["z"]), sources=("y", "z")),
                Rule("y", lambda t: t["x"], sources=("x",)),
                Rule("z", lambda t: t["x"], sources=("x",)),
            ])
    assert err.value.cycle == ("x", "y", "x")


def test_stratification_error_names_a_shortest_cycle():
    # x reads y before z, but the way back through y (x -> y -> w -> x) is
    # longer than the one through z (x -> z -> x).
    with pytest.raises(StratificationError) as err:
        TickRuleEngine(
            tables={n: GSet.bottom() for n in "xyzw"},
            rules=[
                Rule("x", lambda t: t["y"].merge(t["z"]), sources=("y", "z")),
                Rule("y", lambda t: t["w"], sources=("w",)),
                Rule("w", lambda t: t["x"], sources=("x",)),
                Rule("z", lambda t: t["x"], sources=("x",)),
            ])
    assert err.value.cycle == ("x", "z", "x")


def test_rule_fixpoint():
    # Tick 1 gains nothing but leaves pending an output it did not apply,
    # even when b already holds it; the run stops once a tick repeats.
    for b, ticks in [(GSet.bottom(), 3), (GSet.of([1, 2]), 2)]:
        eng = TickRuleEngine(
            tables={"a": GSet.of([1, 2]), "b": b},
            rules=[Rule("b", lambda t: t["a"], sources=("a",),
                        deferred=True)])
        tables = eng.run_to_fixpoint()
        assert tables["b"] == GSet.of([1, 2])
        assert eng.now == ticks


def test_rules_that_grow_forever_diverge():
    eng = TickRuleEngine(
        tables={"c": LMax(0)},
        rules=[Rule("c", lambda t: LMax(t["c"].value + 1), sources=("c",),
                    deferred=True)])
    with pytest.raises(DivergenceError, match="did not quiesce within"):
        eng.run_to_fixpoint()
    assert eng.tables["c"] == LMax(tables._FIXPOINT_CAP - 1)


def test_engine_never_mutates_caller_values():
    initial = LMap({"k": GSet.of([1])})
    injected = [LMap({"k": GSet.of([2]), "j": GSet.of([3])}),
                LMap({"k": GSet.of([1, 4])})]
    snapshots = [dict(v.entries) for v in (initial, *injected)]
    eng = TickRuleEngine(
        tables={"a": initial, "b": LMap()},
        rules=[Rule("a", lambda t: t["b"], sources=("b",), deferred=True),
               Rule("b", lambda t: t["a"], sources=("a",))])
    for delta in injected:
        eng.inject("a", delta)
        eng.inject("b", delta)
        eng.tick()
    eng.run_to_fixpoint()
    assert eng.tables["a"] == LMap({"k": GSet.of([1, 2, 4]),
                                    "j": GSet.of([3])})
    for value, before in zip((initial, *injected), snapshots):
        assert value.entries == before
        assert all(value.entries[k] is v for k, v in before.items())
    assert eng.tables["a"] is not initial


@pytest.mark.parametrize("rule", [
    Rule("b", lambda t: t["a"], sources=("a",), deferred=True),
    Rule("a", lambda t: t["b"], sources=("b",)),
], ids=["target", "source"])
def test_rule_on_undeclared_table_rejected(rule):
    with pytest.raises(ValueError, match="undeclared table 'b'"):
        TickRuleEngine({"a": GSet.of([1])}, [rule])


def test_inject_into_undeclared_table_rejected():
    eng = TickRuleEngine({"a": GSet.of([1])}, [])
    with pytest.raises(ValueError, match="undeclared table 'b'"):
        eng.inject("b", GSet.of([2]))
    assert set(eng.tables) == {"a"}


def test_noop_inject_does_not_keep_fixpoint_running():
    eng = TickRuleEngine(
        tables={"a": LMap({"k": GSet.of([1, 2])}), "b": LMap()},
        rules=[Rule("b", lambda t: t["a"], sources=("a",), deferred=True)])
    eng.run_to_fixpoint()
    assert eng.tables["b"] == eng.tables["a"]
    now = eng.now
    eng.inject("a", LMap({"k": GSet.of([2])}))
    eng.run_to_fixpoint()
    assert eng.now == now + 1



# -- scratch tables ---------------------------------------------------------


def test_scratch_table_reads_bottom_after_each_tick():
    eng = TickRuleEngine(
        tables={"s": Scratch(LMap({"k": GSet.of([1])})), "p": LMap()},
        rules=[Rule("p", lambda t: t["s"], sources=("s",))])
    eng.tick()
    assert eng.tables["s"] == LMap() and "s" in eng.tables
    eng.inject("s", LMap({"k": GSet.of([2])}))
    assert eng.tables["s"] == LMap({"k": GSet.of([2])})
    eng.tick()
    assert eng.tables["s"] == LMap()
    assert eng.tables["p"] == LMap({"k": GSet.of([1, 2])})


def test_injected_scratch_value_is_seen_for_one_tick():
    seen = []

    def read(t):
        seen.append(t["s"])
        return t["s"]

    injected = LMap({"k": GSet.of([1])})
    eng = TickRuleEngine(
        tables={"s": Scratch(LMap()), "p": LMap()},
        rules=[Rule("p", read, sources=("s",))])
    eng.inject("s", injected)
    eng.tick()
    eng.tick()
    eng.inject("s", injected)  # a repeat is new again: s forgot it
    eng.tick()
    assert seen == [injected, LMap(), injected]
    assert injected == LMap({"k": GSet.of([1])})


def test_scratch_fed_in_full_from_a_table_reaches_fixpoint():
    for p, rules in [
        (GSet.of([1, 2]),
         [Rule("s", lambda t: t["p"], sources=("p",)),
          Rule("q", lambda t: t["s"], sources=("s",), deferred=True)]),
        # The reset empties s after every tick, so s never holds the
        # pending s <+ p; it settles once that repeats what the tick
        # applied to s.
        (GSet.of([1]),
         [Rule("s", lambda t: t["p"], sources=("p",), deferred=True),
          Rule("q", lambda t: t["s"], sources=("s",))]),
    ]:
        eng = TickRuleEngine(
            tables={"p": p, "s": Scratch(GSet.bottom()), "q": GSet.bottom()},
            rules=rules)
        tables = eng.run_to_fixpoint()
        assert tables["q"] == p
        assert eng.now == 3


def test_undeclared_table_rejected_beside_scratch():
    with pytest.raises(ValueError, match="undeclared table 'b'"):
        TickRuleEngine({"a": Scratch(GSet.bottom())},
                       [Rule("b", lambda t: t["a"], sources=("a",))])
    eng = TickRuleEngine({"a": Scratch(GSet.bottom())}, [])
    with pytest.raises(ValueError, match="undeclared table 'b'"):
        eng.inject("b", GSet.of([1]))


def test_instantaneous_cycle_through_scratch_is_stratification_error():
    with pytest.raises(StratificationError) as err:
        TickRuleEngine(
            tables={"x": GSet.bottom(), "s": Scratch(GSet.bottom())},
            rules=[Rule("s", lambda t: t["x"], sources=("x",)),
                   Rule("x", lambda t: t["s"], sources=("s",))])
    assert err.value.cycle == ("s", "x", "s")


# -- bottoms of threshold tables ---------------------------------------------


def test_threshold_scratch_resets_to_its_declared_threshold():
    eng = TickRuleEngine(
        tables={"s": Scratch(ThresholdLSet(frozenset({1}), 3)),
                "p": ThresholdLSet.bottom(3)},
        rules=[Rule("p", lambda t: t["s"], sources=("s",))])
    eng.tick()
    assert eng.tables["s"] == ThresholdLSet.bottom(3)
    eng.inject("s", ThresholdLSet(frozenset({2}), 3))
    eng.tick()
    assert eng.tables["s"] == ThresholdLSet.bottom(3)
    assert eng.tables["p"] == ThresholdLSet(frozenset({1, 2}), 3)


# -- tables grown in place ---------------------------------------------------


def limit_engine(**tables):
    """An engine whose table ``t`` only a ``below`` reads, as its limit."""
    declared, rules = compile_rules("""
        table a
        table t
        table x
        x <= a below t 3
    """)
    return TickRuleEngine({**declared, **tables}, rules)


def test_threshold_rule_run_grows_local_in_place(monkeypatch):
    spy = EngineSpy(monkeypatch)
    seen = []
    tick = TickRuleEngine.tick

    def spy_tick(engine):
        tick(engine)
        seen.extend(map(type, engine.tables["local"].entries.values()))

    monkeypatch.setattr(TickRuleEngine, "tick", spy_tick)
    counts = kmer.threshold_rule_run("ACGTACGTACGT\n" * 8, 4, 3, batch=5)
    engine, = spy.engines
    assert engine._grown == {"local"}
    assert tables._Grown in seen  # a tick() caller may see the engine's sets
    local = engine.tables["local"].entries
    assert {type(ids) for ids in local.values()} == {GSet}
    assert counts == {km: len(ids) for km, ids in local.items()}


@pytest.mark.parametrize("text", [
    "x <= t", "x <= t + u", "x <= u + t", "x <= t below t 3",
    "x <+ t below u 3", "x <= t below u 3\ny <= t"])
def test_a_table_whose_values_a_rule_reads_is_not_grown(text):
    tables, rules = compile_rules("table t\ntable u\ntable x\ntable y\n"
                                  + text)
    assert "t" not in TickRuleEngine(tables, rules)._grown


def test_a_table_a_hand_written_rule_reads_is_not_grown():
    eng = TickRuleEngine(
        tables={"t": LMap(), "x": LMap(), "s": Scratch(LMap())},
        rules=[Rule("x", lambda t: LMap(), sources=("t",))])
    assert eng._grown == {"x"}  # read by no rule; a scratch is never grown


def test_grow_into_reports_exactly_the_merges_that_add():
    entries = {}
    first = GSet.of([1])
    assert tables._grow_into(entries, LMap({"k": first}))
    assert entries["k"] is first
    assert not tables._grow_into(entries, LMap({"k": first}))
    assert not tables._grow_into(entries, LMap({"k": GSet.of([1])}))
    assert tables._grow_into(entries, LMap({"k": GSet.of([1, 2])}))
    grown = entries["k"]
    assert type(grown) is tables._Grown and grown == {1, 2}
    assert not tables._grow_into(entries, LMap({"k": GSet.of([2])}))
    assert tables._grow_into(entries, LMap({"k": GSet.of([3])}))
    assert entries["k"] is grown and grown == {1, 2, 3}
    assert first == {1}
    assert not tables._grow_into(entries, LMap())


def test_grown_table_never_mutates_a_constructor_or_injected_gset():
    initial = LMap({"k": GSet.of([1])})
    injected = [LMap({"k": GSet.of([2]), "j": GSet.of([3])}),
                LMap({"k": GSet.of([1, 4]), "j": GSet.of([5])}),
                LMap({"j": GSet.of([6])})]
    snapshots = [{key: (ids, frozenset(ids)) for key, ids in v.entries.items()}
                 for v in (initial, *injected)]
    eng = limit_engine(t=initial)
    assert eng._grown == {"t", "x"}
    for delta in injected:
        eng.inject("t", delta)
        eng.inject("a", delta)
        eng.tick()
    assert eng.tables["t"] == LMap({"k": GSet.of([1, 2, 4]),
                                    "j": GSet.of([3, 5, 6])})
    eng.run_to_fixpoint()
    for value, before in zip((initial, *injected), snapshots):
        assert value.entries.keys() == before.keys()
        for key, (ids, elems) in before.items():
            assert value.entries[key] is ids and ids == elems


def test_an_engines_grown_set_never_leaks_into_another_table():
    eng = TickRuleEngine(*compile_rules("""
        table a
        table t
        table x
        table u
        table y
        x <= a below t 3
        y <= u
    """))
    for ids in ([1], [2]):
        eng.inject("t", LMap({"k": GSet.of(ids)}))
        eng.tick()
    grown = eng.tables["t"].entries["k"]
    assert type(grown) is tables._Grown
    eng.inject("u", LMap({"k": grown}))
    eng.tick()
    # Another engine's tables, the same set again and a map nested in one.
    other = TickRuleEngine({"t": LMap({"k": grown}), "s": grown}, [])
    eng.inject("u", LMap({"j": LMap({"k": grown})}))
    eng.inject("t", LMap({"k": GSet.of([3])}))
    eng.tick()
    assert grown == {1, 2, 3}
    u, y = eng.tables["u"].entries["k"], eng.tables["y"].entries["k"]
    assert type(u) is type(y) is GSet and u == y == {1, 2}
    assert eng.tables["u"].entries["j"] == LMap({"k": GSet.of([1, 2])})
    assert other.tables == {"t": LMap({"k": GSet.of([1, 2])}),
                            "s": GSet.of([1, 2])}
    for table in eng.run_to_fixpoint().values():
        for value in table.entries.values():
            values = value.entries.values() if type(value) is LMap else [value]
            assert {type(v) for v in values} == {GSet}


@pytest.mark.parametrize("delta", [
    LMap({"k": LMax(1)}),
    LMap({"j": GSet.of([7]), "k": LMax(1)}),
    LMap({"k": GSet.of([7]), "j": ThresholdLSet(frozenset({7}), 3)}),
    GSet.of([7])], ids=["lmax", "gset-then-lmax", "gset-then-threshold",
                        "not-a-map"])
def test_a_mixed_type_delta_raises_and_leaves_the_grown_table(delta):
    eng = limit_engine()
    eng.inject("t", LMap({"k": GSet.of([1])}))
    eng.inject("t", LMap({"k": GSet.of([2]), "j": GSet.of([3])}))
    eng.tick()
    before = {key: frozenset(ids)
              for key, ids in eng.tables["t"].entries.items()}
    with pytest.raises(LatticeTypeError):
        eng.inject("t", delta)
    assert eng.tables["t"] == LMap(before)
    eng.inject("t", LMap({"k": GSet.of([9])}))  # merges as into any map
    assert eng.tables["t"].entries["k"] == {1, 2, 9}


def test_a_grown_table_of_other_values_merges_as_any_map():
    eng = limit_engine(t=LMap({"k": ThresholdLSet(frozenset({1}), 3)}))
    assert "t" not in eng._grown
    for elem in (2, 3):
        eng.inject("t", LMap({"k": ThresholdLSet(frozenset({elem}), 3)}))
    eng.inject("a", LMap({"k": GSet.of([5]), "j": GSet.of([6])}))
    assert eng.run_to_fixpoint()["x"] == LMap({"j": GSet.of([6])})


def test_noop_merge_into_a_grown_table_does_not_keep_fixpoint_running():
    eng = TickRuleEngine(
        tables={"s": LMap({"k": GSet.of([1, 2])}), "t": LMap()},
        rules=[Rule("t", lambda t: t["s"], sources=("s",), deferred=True)])
    assert eng._grown == {"t"}
    eng.run_to_fixpoint()
    eng.inject("t", LMap({"k": GSet.of([3])}))
    assert type(eng.tables["t"].entries["k"]) is tables._Grown
    now = eng.now
    eng.inject("s", LMap({"k": GSet.of([2])}))
    eng.run_to_fixpoint()
    assert eng.now == now + 1
    assert eng.tables["t"] == LMap({"k": GSet.of([1, 2, 3])})


def test_run_to_fixpoint_returns_gsets_in_every_grown_table():
    eng = limit_engine()
    for ids in ([1], [2], [2, 3]):
        eng.inject("t", LMap({"k": GSet.of(ids), "j": GSet.of([0])}))
        eng.inject("a", LMap({"k": GSet.of(ids)}))
        eng.tick()
    tables = eng.run_to_fixpoint()
    for name in ("t", "x"):
        assert {type(v) for v in tables[name].entries.values()} == {GSet}
    assert tables["t"] == LMap({"k": GSet.of([1, 2, 3]), "j": GSet.of([0])})


def test_below_over_a_value_with_no_size_raises_lattice_type_error():
    eng = limit_engine(t=LMap({"k": LMax(5)}))
    eng.inject("a", LMap({"k": GSet.of([1]), "j": GSet.of([2])}))
    with pytest.raises(LatticeTypeError, match="LMax has no size"):
        eng.tick()


# The benchmark imports the engine from runtime and patches it there; were
# runtime's name to fork from tables', it would silently record no engine.
def test_runtime_and_the_package_name_the_engine_tables_defines():
    assert runtime.TickRuleEngine is tables.TickRuleEngine
    assert (calmsim.TickRuleEngine, calmsim.Rule, calmsim.Scratch) == (
        tables.TickRuleEngine, tables.Rule, tables.Scratch)


def test_a_wrapper_on_the_runtime_engine_sees_threshold_rule_runs(
        monkeypatch):
    init, seen = runtime.TickRuleEngine.__init__, []

    def record(engine, *args, **kwargs):  # as bench's _EngineRecord does
        init(engine, *args, **kwargs)
        seen.append(engine)

    monkeypatch.setattr(runtime.TickRuleEngine, "__init__", record)
    assert kmer.threshold_rule_run("ACGTACGT\n", 3, 2) == {
        "ACG": 2, "CGT": 2, "GTA": 1, "TAC": 1}
    assert len(seen) == 1 and seen[0].now > 0
