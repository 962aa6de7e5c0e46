import pytest

from calmsim import lattice, runtime
from calmsim.errors import (DivergenceError, StratificationError,
                            UnknownWorkerError)
from calmsim.lattice import GSet, LMap, LMax, ThresholdLSet
from calmsim.runtime import (DeliverySchedule, Program, Rule, Scratch,
                             Simulation, TickRuleEngine, run_to_quiescence)


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


def test_deliver_due_orders_by_due_and_resends_a_drop_later():
    sim = Simulation(DeliverySchedule(drop_prob=0.5))
    # Scripted drop and duplicate draws: two per send, then the resend's
    # drop draw.  Ids and delays still come from the seeded generator.
    draws = iter([0.9, 0.9, 0.9, 0.9, 0.1, 0.9, 0.9])
    sim.rng.random = lambda: next(draws)
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
