"""Every delivery schedule of a small run, up to a bound, not a sample.

A schedule is the sequence of choices a ``Simulation`` asks its choice
source for: per enqueue, how far to delay the envelope and whether to drop
it, and on a send's first enqueue whether to duplicate it.  ``Choices`` is
such a source, passed to ``kmer._run``.  It replays a prefix of choice
indices and then takes each choice's default: deliver at once, no drop, no
duplicate.  ``schedules`` walks, depth first, every prefix with at most
``BOUND`` non-default choices (a delay-bounded search), so each program
below is checked against its oracle under every such schedule, with no
fault or with the faults given.
"""

from itertools import product

import pytest

from calmsim.kmer import ImplAProgram, ImplBProgram, _run, oracle_count
from calmsim.runtime import DeliverySchedule
from calmsim.sketch import (CmsParams, Design1Program, Design2Program,
                            SketchResult, corpus_stream, row_seeds,
                            sequential_sketch)

# AAAA is in two chunks' batches, twice and once.  Worker 0 ingests both
# chunks and worker 1 owns AAAA, so the two batches race over the network
# (an owner absorbs its own batch at once), and implementation B's capped
# count depends on which batch arrives first.
CORPUS, K, WORKERS, CHUNK_LEN = "AAAAACGTCGTACGT\nAAAACGTCGTACG\n", 4, 2, 8
BOUND = 2
# Both probabilities above 0, as the keyed default would otherwise never
# duplicate or drop; a reorder window of 2 gives each delay three answers.
SCHEDULE = DeliverySchedule(duplicate_prob=0.5, reorder_window=2,
                            drop_prob=0.5)
ITEMS = sorted(oracle_count(CORPUS, K))


class Choices:
    """A choice source for one schedule: choice i takes ``prefix[i]``, or
    the default 0 past the prefix; ``arities`` records each choice's
    number of answers."""

    def __init__(self, prefix: tuple):
        self.prefix, self.arities = prefix, []

    def _choose(self, arity: int) -> int:
        i = len(self.arities)
        self.arities.append(arity)
        return self.prefix[i] if i < len(self.prefix) else 0

    def fate(self, env, attempts: int, copy: int) -> tuple:
        delay = self._choose(SCHEDULE.reorder_window + 1)
        dropped = bool(self._choose(2))
        return delay, dropped, attempts == copy == 0 and bool(self._choose(2))


def schedules(build, bound: int = BOUND, **faults):
    """``(prefix, sim, program)`` for ``build()`` run to quiescence under
    the faults and every schedule with at most ``bound`` non-default
    choices."""
    stack = [()]
    while stack:
        prefix = stack.pop()
        choices = Choices(prefix)
        sim, program = _run(build(), SCHEDULE, choices=choices, **faults)
        yield prefix, sim, program
        if sum(map(bool, prefix)) < bound:
            # Deviate once more, at a choice the prefix left at its default.
            for i in range(len(prefix), len(choices.arities)):
                zeros = (0,) * (i - len(prefix))
                stack.extend(prefix + zeros + (alt,)
                             for alt in range(1, choices.arities[i]))


def chunked(program):
    program.chunk_len = CHUNK_LEN
    return program


def test_implementation_a_matches_the_oracle_on_every_schedule():
    truth, runs = oracle_count(CORPUS, K), 0
    for prefix, _, prog in schedules(
            lambda: ImplAProgram(CORPUS, K, WORKERS, CHUNK_LEN)):
        assert prog.histogram() == truth, prefix
        runs += 1
    assert runs > 100


def test_implementation_a_reissues_a_lost_chunk_on_every_schedule():
    # Worker 1 takes its first chunk at tick 1 and would complete it at
    # tick 2, so failing it at the start of tick 2 always loses that chunk.
    truth, runs, fail_tick = oracle_count(CORPUS, K), 0, 2
    for prefix, sim, prog in schedules(
            lambda: ImplAProgram(CORPUS, K, WORKERS, CHUNK_LEN),
            failures=[(fail_tick, 1)]):
        assert prog.histogram() == truth, prefix
        lost = {token for _, kind, _, dst, token, _ in sim.events
                if kind == "assign" and dst == 1}
        lost -= {token for _, kind, _, dst, token, _ in sim.events
                 if kind == "complete" and dst == 1}
        reissued = {token for tick, kind, _, dst, token, _ in sim.events
                    if kind == "assign" and dst == 0 and tick > fail_tick}
        assert lost and lost <= reissued, prefix
        runs += 1
    assert runs > 100


def test_implementation_b_meets_its_predicate_on_every_schedule():
    truth, threshold, seen = oracle_count(CORPUS, K), 2, set()
    for prefix, _, prog in schedules(
            lambda: chunked(ImplBProgram(CORPUS, K, WORKERS, threshold))):
        counts = prog.histogram()
        assert counts.keys() == truth.keys(), prefix
        for kmer, true in truth.items():
            c = counts[kmer]
            assert c <= true, prefix
            assert (c >= threshold) == (true >= threshold), prefix
            assert true >= threshold or c == true, prefix
        seen.add(tuple(sorted(counts.items())))
    # A bound too small to reach an order-dependent count fails here.
    assert len(seen) >= 2


@pytest.mark.parametrize("design, replicas",
                         [(Design1Program, 1), (Design2Program, WORKERS)])
def test_sketch_designs_match_the_reference_on_every_schedule(design,
                                                              replicas):
    params = CmsParams(2, 8, row_seeds(2))
    ref = sequential_sketch(corpus_stream(CORPUS, K), params)
    runs = 0
    for prefix, sim, prog in schedules(lambda: chunked(
            design(CORPUS, K, WORKERS, params, replicas))):
        res = SketchResult(sim, prog)
        assert res.converged(), prefix
        for item, at in product(ITEMS, range(WORKERS)):
            assert res.estimate(item, at) == ref.query(item), prefix
        runs += 1
    assert runs > 100
