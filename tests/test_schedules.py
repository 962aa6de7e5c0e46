"""Every delivery schedule of a small run, up to a bound, not a sample.

A schedule is the sequence of draws a ``Simulation`` makes: duplicate a
send or not, how far to delay an envelope, drop it or not.  ``Choices``
stands in for ``sim.rng``.  It replays a prefix of choice indices and then
takes each draw's default: deliver at once, no duplicate, no drop.
``schedules`` walks, depth first, every prefix with at most ``BOUND``
non-default choices (a delay-bounded search), so each program below is
checked against its oracle under every such schedule.  Faults are not
explored: ``kmer._run`` builds their harness events and its own
``Simulation``, so a run under this search has none.
"""

from itertools import product

import pytest

from calmsim.kmer import ImplAProgram, ImplBProgram, oracle_count
from calmsim.runtime import DeliverySchedule, Simulation, run_to_quiescence
from calmsim.sketch import (CmsParams, Design1Program, Design2Program,
                            SketchResult, corpus_stream, row_seeds,
                            sequential_sketch)

# AAAA is in two chunks' batches, twice and once.  Worker 0 ingests both
# chunks and worker 1 owns AAAA, so the two batches race over the network
# (an owner absorbs its own batch at once), and implementation B's capped
# count depends on which batch arrives first.
CORPUS, K, WORKERS, CHUNK_LEN = "AAAAACGTCGTACGT\nAAAACGTCGTACG\n", 4, 2, 8
BOUND = 2
# Both probabilities above 0, so the non-default answer of either draw
# takes effect; a reorder window of 2 gives each delay three choices.
SCHEDULE = DeliverySchedule(duplicate_prob=0.5, reorder_window=2,
                            drop_prob=0.5)
ITEMS = sorted(oracle_count(CORPUS, K))


class Choices:
    """``sim.rng`` for one schedule: draw i takes ``prefix[i]``, or the
    default 0 past the prefix; ``arities`` records each draw's choices."""

    def __init__(self, prefix: tuple):
        self.prefix, self.arities, self.ids = prefix, [], 0

    def _choose(self, arity: int) -> int:
        i = len(self.arities)
        self.arities.append(arity)
        return self.prefix[i] if i < len(self.prefix) else 0

    def random(self) -> float:
        # Choice 0 is "no": no probability exceeds 1.0, and both exceed 0.
        return (1.0, 0.0)[self._choose(2)]

    def randint(self, a: int, b: int) -> int:
        return a + self._choose(b - a + 1)

    def getrandbits(self, bits: int) -> int:
        """Ids are not choices: count them, so each is fresh."""
        self.ids += 1
        return self.ids


def schedules(build, bound: int = BOUND):
    """``(prefix, sim, program)`` for ``build()`` run to quiescence under
    every schedule with at most ``bound`` non-default choices."""
    stack = [()]
    while stack:
        prefix = stack.pop()
        sim, program = Simulation(SCHEDULE), build()
        sim.rng = choices = Choices(prefix)
        run_to_quiescence(sim, program)
        yield prefix, sim, program
        if sum(map(bool, prefix)) < bound:
            # Deviate once more, at a draw the prefix left at its default.
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
