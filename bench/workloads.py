"""The benchmark's workloads: seeded inputs, one repetition, and its check.

Each workload builds its corpus from the workload seed with stdlib
``random`` only; calmsim receives nothing but the generated text.  One
repetition calls calmsim's public runners; its result is checked in full
against the in-repo oracle (no sampling).

The adversarial delivery schedule is part of a workload's definition and
uses a fixed seed (``FAULTY_SCHEDULE``); the workload seed varies the corpus
(and the sketch's row seeds).  Across schedule seeds the tick count has a
heavy tail from the exponential drop backoff: over schedule seeds 1-10,
``cms_two_designs`` took 63 to 146 ticks, and ``kmer_a_faults`` run time
follows its tick count.  A seeded schedule would make ``ticks`` and the
throughput metrics measure that tail rather than the code.

``distinct_share`` below is ``hashing.distinct_share`` from traced runs at
full size on seeds 1-5: distinct ``(data, seed)`` pairs passed to
``hash64`` over all its calls in one repetition.
"""

from __future__ import annotations

import hashlib
import random

from calmsim import kmer, sketch
from calmsim.runtime import DeliverySchedule, TickRuleEngine

LINE_LEN = 100
FAULTY_SCHEDULE = dict(seed=0, duplicate_prob=0.3, reorder_window=5,
                       drop_prob=0.1)


def uniform_corpus(rng: random.Random, nbytes: int) -> str:
    """Lines of LINE_LEN uniform random bases: almost every k-mer distinct."""
    lines = nbytes // (LINE_LEN + 1)
    return "".join(
        "".join(rng.choices("ACGT", k=LINE_LEN)) + "\n" for _ in range(lines))


def repeat_rich_corpus(rng: random.Random, nbytes: int, motifs: int = 16,
                       motif_len: int = 12, mutation: float = 0.02) -> str:
    """Lines tiled from a few random motifs with point mutations: few
    distinct k-mers, each repeated many times."""
    pool = ["".join(rng.choices("ACGT", k=motif_len)) for _ in range(motifs)]
    out = []
    for _ in range(nbytes // (LINE_LEN + 1)):
        line = "".join(rng.choice(pool)
                       for _ in range(-(-LINE_LEN // motif_len)))
        out.append("".join(rng.choice("ACGT") if rng.random() < mutation
                           else base for base in line[:LINE_LEN]) + "\n")
    return "".join(out)


def events_digest(sims) -> str:
    h = hashlib.sha256()
    for sim in sims:
        h.update(sim.event_lines().encode())
    return h.hexdigest()[:16]


def sends(sims) -> int:
    return sum(ev[1] == "send" for sim in sims for ev in sim.events)


class Workload:
    """One benchmark workload; subclasses fill in the class attributes."""

    name: str
    why: str
    k: int
    nbytes: int
    smoke_nbytes: int
    generator = staticmethod(uniform_corpus)

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.corpus = self.generator(
            rng, self.smoke_nbytes if smoke else self.nbytes)
        self.truth: dict[str, int] = {}

    def prepare(self) -> None:
        """Compute what ``check`` compares against; not part of a run."""
        self.truth = kmer.oracle_count(self.corpus, self.k)

    @property
    def windows(self) -> int:
        """k-mer windows one repetition ingests."""
        return sum(self.truth.values())

    def setup_spec(self) -> dict:
        """What the set-up child builds besides the normalized corpus."""
        return {}

    def reference(self) -> None:
        """The in-process sequential computation ``oracle_x`` divides by."""
        kmer.oracle_count(self.corpus, self.k)

    def run(self):
        raise NotImplementedError

    def check(self, result) -> str | None:
        """None when the result is correct, else what was wrong."""
        raise NotImplementedError

    def sims(self, result) -> list:
        return []

    def ticks_messages(self, result) -> tuple[int, int]:
        sims = self.sims(result)
        return sum(sim.now for sim in sims), sends(sims)

    def digest(self, result) -> str:
        return events_digest(self.sims(result))

    def state_elems(self, result) -> int:
        raise NotImplementedError


class KmerAFaults(Workload):
    # Headline case study under every fault kind at once.  Most of its time
    # goes to lattice merges and the fingerprint -> state_size rescan; it
    # also drives runtime hold/drop/backoff and dispenser reassignment.
    # distinct_share 0.997: a per-key hash64 cache has nothing to save here,
    # so this is the workload on which such a cache should change nothing.
    name = "kmer_a_faults"
    why = ("impl_a_run under dup, reorder, drop, partition, failure and "
           "join; many keys with singleton sets; hash cache bypassed")
    k = 12
    workers = 4
    chunk_len = 512
    nbytes = 100_000
    smoke_nbytes = 4_000

    def setup_spec(self) -> dict:
        return {"schedule": FAULTY_SCHEDULE}

    def run(self):
        return kmer.impl_a_run(
            self.corpus, self.k, self.workers,
            schedule=DeliverySchedule(**FAULTY_SCHEDULE),
            failures=[(6, 1)], joins=[8],
            partitions=[(4, ((0, 2),)), (10, ())], chunk_len=self.chunk_len)

    def check(self, result) -> str | None:
        if result.histogram != self.truth:
            return "histogram differs from oracle_count"
        return None

    def sims(self, result) -> list:
        return [result.sim]

    def state_elems(self, result) -> int:
        return result.program.state_size()


class CmsTwoDesigns(Workload):
    # Both sketch designs on a repeat-rich corpus, then one estimate per
    # distinct item.  About half its time is hashing; it also exercises
    # sketch writes beside reads, tables range routing and the runtime
    # channel under broadcast, and no lattice values.  distinct_share
    # 0.023-0.026 (each item is hashed once per row on every replica and
    # again per estimate): the workload on which a hash64 cache can show.
    # No faults, because design*_run accept no fault schedule.
    name = "cms_two_designs"
    why = ("design1_run and design2_run plus an estimate per item on a "
           "repeat-rich corpus; hash-heavy, so a hash cache is used")
    generator = staticmethod(repeat_rich_corpus)
    k = 8
    workers = 4
    eps = delta = 0.01
    nbytes = 20_000
    smoke_nbytes = 2_000

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.params = sketch.choose_params(self.eps, self.delta, seed)
        self.items = sorted(kmer.oracle_count(self.corpus, self.k))

    def prepare(self) -> None:
        super().prepare()
        ref = sketch.sequential_sketch(
            sketch.corpus_stream(self.corpus, self.k), self.params)
        self.expected = {item: ref.query(item) for item in self.items}

    @property
    def windows(self) -> int:
        return 2 * super().windows

    def setup_spec(self) -> dict:
        return {"schedule": FAULTY_SCHEDULE,
                "cms": [self.eps, self.delta, self.seed]}

    def reference(self) -> None:
        sketch.sequential_sketch(
            sketch.corpus_stream(self.corpus, self.k), self.params)

    def run(self):
        schedule = DeliverySchedule(**FAULTY_SCHEDULE)
        d1 = sketch.design1_run(self.corpus, self.k, self.params,
                                self.workers, schedule=schedule)
        d2 = sketch.design2_run(self.corpus, self.k, self.params,
                                self.workers, schedule=schedule)
        est1 = {item: d1.estimate(item) for item in self.items}
        est2 = {item: d2.query(item) for item in self.items}
        return d1, d2, est1, est2

    def check(self, result) -> str | None:
        # Acceptance test 10's predicate.
        _d1, d2, est1, est2 = result
        if not d2.converged():
            return "design2 replicas did not converge"
        n = sum(self.truth.values())
        over = 0
        for item, true in self.truth.items():
            if not est1[item] == est2[item] == self.expected[item]:
                return f"designs disagree on {item}"
            if est1[item] < true:
                return f"estimate below true count for {item}"
            over += est1[item] - true > self.eps * n
        if over > 0.05 * len(self.truth):
            return f"{over} items overcounted by more than eps*N"
        return None

    def sims(self, result) -> list:
        return [result[0].sim, result[1].sim]

    def state_elems(self, result) -> int:
        return sum(d.program.state_size() for d in result[:2])


class _EngineRecord:
    """Ticks and injected batches of the rule engines built during a run.

    ``threshold_rule_run`` returns only the histogram, so the engine it
    builds is caught at construction.
    """

    def __init__(self):
        self.engines: list[TickRuleEngine] = []
        self.injects = 0
        self._init = TickRuleEngine.__init__

    def __enter__(self):
        def init(engine, *args, **kwargs):
            self._init(engine, *args, **kwargs)
            inject = engine.inject

            def counted(*a, **kw):
                self.injects += 1
                return inject(*a, **kw)

            engine.inject = counted
            self.engines.append(engine)

        TickRuleEngine.__init__ = init
        return self

    def __exit__(self, *exc):
        TickRuleEngine.__init__ = self._init


class ThresholdRules(Workload):
    # Tick rules only: runtime.TickRuleEngine and lattice.LMap with few keys
    # holding large sets, all read every tick by admit.  No Simulation, no
    # dispenser and no hashing (distinct_share 0: hash64 is never called).  Uses the lattice layer unlike
    # kmer_a_faults (many keys, singleton sets).  Cost grows faster than n^2.
    name = "threshold_rules"
    why = ("threshold_rule_run on a repeat-rich corpus: tick-rule engine "
           "and lattice maps of few keys with large sets")
    generator = staticmethod(repeat_rich_corpus)
    k = 8
    threshold = 16
    nbytes = 16_000
    smoke_nbytes = 2_000

    def run(self):
        with _EngineRecord() as rec:
            counts = kmer.threshold_rule_run(self.corpus, self.k,
                                             self.threshold)
        return counts, rec

    def check(self, result) -> str | None:
        # The kmer_b predicate: never over, exact below the threshold, and
        # the at-or-above predicate exact.
        counts, _rec = result
        t = self.threshold
        for item in set(counts) | set(self.truth):
            c, true = counts.get(item, 0), self.truth.get(item, 0)
            if c > true or (true < t and c != true) or (c >= t) != (true >= t):
                return f"count {c} for {item} breaks the threshold predicate"
        return None

    def ticks_messages(self, result) -> tuple[int, int]:
        _counts, rec = result
        return sum(e.now for e in rec.engines), rec.injects

    def digest(self, result) -> str:
        counts, _rec = result
        return hashlib.sha256(
            repr(sorted(counts.items())).encode()).hexdigest()[:16]

    def state_elems(self, result) -> int:
        return sum(result[0].values())


WORKLOADS = {cls.name: cls for cls in (KmerAFaults, CmsTwoDesigns,
                                        ThresholdRules)}
