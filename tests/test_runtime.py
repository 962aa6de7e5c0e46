import pytest

from calmsim import lattice
from calmsim.errors import (DivergenceError, StratificationError,
                            UnknownWorkerError)
from calmsim.lattice import GSet, LMax
from calmsim.runtime import (DeliverySchedule, Program, Rule, Simulation,
                             TickRuleEngine, run_to_quiescence)


class GSetSink(Program):
    """Sends a fixed batch of payloads from worker 0 to worker 1's G-Set."""

    def __init__(self, payloads):
        self.payloads = list(payloads)
        self.shard = GSet.bottom()
        self.sent = False

    def setup(self, sim):
        sim.register_worker("src")
        sim.register_worker("dst")

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
    wids = [sim.register_worker(f"m{i}") for i in range(4)]
    assert wids == [0, 1, 2, 3]
    assert len(sim.membership) == 4
    # Redelivered registration envelope: set idempotence, no change.
    sim.membership = sim.membership.merge(GSet.of([(0, "m0")]))
    assert len(sim.membership) == 4


def test_unknown_worker_rejected():
    with pytest.raises(UnknownWorkerError):
        Simulation().fail_worker(9)


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


def test_divergence_guard():
    class Chatter(Program):
        def setup(self, sim):
            sim.register_worker()
            sim.register_worker()

        def worker_step(self, sim, wid):
            sim.send(wid, 1 - wid, "ping")

        def idle(self, sim):
            return False

    with pytest.raises(DivergenceError):
        run_to_quiescence(Simulation(tick_cap=50), Chatter())


def test_fresh_ids_unique():
    sim = Simulation()
    ids = [sim.fresh_id() for _ in range(2000)]
    assert len(set(ids)) == len(ids)


def test_worker_clocks_monotone():
    sim = Simulation()
    sim.register_worker()
    sim.register_worker()
    ts = [sim.next_ts(0) for _ in range(5)] + [sim.next_ts(1)]
    assert ts == sorted(ts) or ts[-1].tiebreak == 1
    assert len(set(ts)) == 6


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


def test_rule_fixpoint():
    eng = TickRuleEngine(
        tables={"a": GSet.of([1, 2]), "b": GSet.bottom()},
        rules=[Rule("b", lambda t: t["a"], sources=("a",), deferred=True)])
    tables = eng.run_to_fixpoint()
    assert tables["b"] == GSet.of([1, 2])
