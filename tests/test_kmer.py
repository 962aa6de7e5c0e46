import random

import pytest

from calmsim import kmer, sketch
from calmsim.errors import StratificationError
from calmsim.runtime import DeliverySchedule

THRESH_CORPUS = ("AAAA\n" + "CCCC\n" * 2 + "GGGG\n" * 3
                 + "TTTT\n" * 10 + "ACGT\n" * 100)
THRESH_TRUTH = {"AAAA": 1, "CCCC": 2, "GGGG": 3, "TTTT": 10, "ACGT": 100}


def adversarial(seed):
    return DeliverySchedule(seed=seed, duplicate_prob=0.4,
                            reorder_window=4, drop_prob=0.15)


# -- extraction and oracle --------------------------------------------------


def test_extract_kmers_atag():
    kmers = [km for km, _ in kmer.extract_kmers("ATAGATAG", 4)]
    assert kmers == ["ATAG", "TAGA", "AGAT", "GATA", "ATAG"]


def test_extract_exact_length():
    assert kmer.extract_kmers("ACGT", 4) == [("ACGT", 0)]
    assert kmer.extract_kmers("ACG", 4) == []


def test_extract_window_count():
    seq = "".join(random.Random(1).choice("ACGT") for _ in range(200))
    assert len(kmer.extract_kmers(seq, 7)) == 194


def test_extract_rejects_invalid_base():
    with pytest.raises(ValueError):
        kmer.extract_kmers("ACGN", 2)
    with pytest.raises(ValueError):
        kmer.extract_kmers("ACGT", 0)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected_by_every_window_reader(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        kmer.impl_a_run("ACGT\nAC\n", k, 2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        kmer.threshold_rule_run("ACGT\n", k, 3)
    with pytest.raises(ValueError, match="k must be >= 1"):
        sketch.corpus_stream("ACGT\n", k)


def test_oracle_count_atag():
    assert kmer.oracle_count("ATAGATAG", 4) == {
        "ATAG": 2, "TAGA": 1, "AGAT": 1, "GATA": 1}
    assert kmer.oracle_count("", 4) == {}


def test_oracle_window_identity(small_corpus):
    counts = kmer.oracle_count(small_corpus, 5)
    expected = sum(max(0, len(line) - 4)
                   for line in small_corpus.splitlines() if line)
    assert sum(counts.values()) == expected


# -- implementation A -------------------------------------------------------


def test_impl_a_single_worker_equals_oracle(small_corpus):
    res = kmer.impl_a_run(small_corpus, 4, 1)
    assert res.histogram == kmer.oracle_count(small_corpus, 4)


def test_impl_a_adversarial_with_failure(small_corpus):
    truth = kmer.oracle_count(small_corpus, 4)
    for seed in range(6):
        res = kmer.impl_a_run(small_corpus, 4, 4, schedule=adversarial(seed),
                              failures=[(4, 1)])
        assert res.histogram == truth


def test_impl_a_partition_disjointness(small_corpus):
    res = kmer.impl_a_run(small_corpus, 4, 4, schedule=adversarial(1))
    seen = set()
    for shard in res.program.shards.values():
        keys = set(shard.entries)
        assert not (keys & seen)
        seen |= keys


def test_impl_a_confluent_across_schedules(small_corpus):
    results = {
        tuple(sorted(kmer.impl_a_run(small_corpus, 4, 3,
                                     schedule=adversarial(s)).histogram.items()))
        for s in range(8)
    }
    assert len(results) == 1


# -- implementation B -------------------------------------------------------


def test_impl_b_exact_below_threshold():
    res = kmer.impl_b_run("ATAGATAG", 4, 2, threshold=5)
    assert res.histogram["ATAG"] == 2


def test_impl_b_threshold_semantics():
    for seed in range(5):
        res = kmer.impl_b_run(THRESH_CORPUS, 4, 4, threshold=3,
                              schedule=adversarial(seed))
        for km, true in THRESH_TRUTH.items():
            c = res.histogram[km]
            assert c <= true
            if true < 3:
                assert c == true
            assert (c >= 3) == (true >= 3)


def test_impl_b_threshold_one():
    res = kmer.impl_b_run(THRESH_CORPUS, 4, 2, threshold=1)
    assert set(res.histogram) == set(THRESH_TRUTH)
    assert all(c >= 1 for c in res.histogram.values())


def test_impl_b_memory_bound():
    res = kmer.impl_b_run(THRESH_CORPUS, 4, 3, threshold=3,
                          schedule=adversarial(2))
    for shard in res.program.shards.values():
        for km, ids in shard.entries.items():
            true = THRESH_TRUTH[km]
            assert len(ids) <= true
            if true < 3:
                assert len(ids) == true


# -- global-table variant ---------------------------------------------------


def test_table_kmer_equals_oracle_and_coordination_free(small_corpus):
    res = kmer.table_kmer_run(small_corpus, 4, 4, schedule=adversarial(3))
    assert res.histogram == kmer.oracle_count(small_corpus, 4)
    assert res.coordination_free


def test_table_kmer_midrun_join(small_corpus):
    res = kmer.table_kmer_run(small_corpus, 4, 2, schedule=adversarial(4),
                              joins=[3])
    assert res.histogram == kmer.oracle_count(small_corpus, 4)
    assert len(res.sim.workers) == 3


def test_table_kmer_failure_recovery(small_corpus):
    truth = kmer.oracle_count(small_corpus, 4)
    for seed in range(5):
        schedule = DeliverySchedule(seed=seed, duplicate_prob=0.5)
        res = kmer.table_kmer_run(small_corpus, 4, 4, schedule=schedule,
                                  failures=[(4, 2)])
        assert res.histogram == truth


# -- tick-rule variant (instantaneous vs deferred merge) --------------------


def test_instantaneous_merge_is_stratification_error():
    with pytest.raises(StratificationError):
        kmer.threshold_rule_run(THRESH_CORPUS, 4, 3, deferred=False)


def test_deferred_merge_runs_and_matches_oracle():
    counts = kmer.threshold_rule_run(THRESH_CORPUS, 4, 3, deferred=True,
                                     batch=7)
    for km, true in THRESH_TRUTH.items():
        c = counts[km]
        assert c <= true
        if true < 3:
            assert c == true
        assert (c >= 3) == (true >= 3)


# -- O(1) quiescence fingerprint --------------------------------------------

CMS = sketch.CmsParams(3, 96, sketch.row_seeds(3))
FAULTS = dict(failures=[(6, 1)], joins=[8],
              partitions=[(4, ((0, 2),)), (10, ())])
RUNNERS = {
    "impl_a": lambda corpus, **kw: kmer.impl_a_run(corpus, 4, 3, **kw),
    "impl_b": lambda corpus, **kw: kmer.impl_b_run(corpus, 4, 3, 3, **kw),
    "table_kmer": lambda corpus, **kw: kmer.table_kmer_run(corpus, 4, 3, **kw),
    "design1": lambda corpus, **kw: sketch.design1_run(corpus, 4, CMS, 3, **kw),
    "design2": lambda corpus, **kw: sketch.design2_run(corpus, 4, CMS, 3, **kw),
}


def faulty_run(name, corpus, seed):
    schedule = DeliverySchedule(seed=seed, duplicate_prob=0.3,
                                reorder_window=5, drop_prob=0.1)
    return RUNNERS[name](corpus, schedule=schedule, **FAULTS)


def agrees_with_oracle(name, corpus, res) -> bool:
    truth = kmer.oracle_count(corpus, 4)
    if name in ("impl_a", "table_kmer"):
        return res.histogram == truth
    if name == "impl_b":
        return res.histogram.keys() == truth.keys() and all(
            c <= truth[km] and (c == truth[km] or c >= 3)
            for km, c in res.histogram.items())
    ref = sketch.sequential_sketch(sketch.corpus_stream(corpus, 4), CMS)
    if name == "design2":
        return res.converged() and res.sketch() == ref
    return all(res.estimate(km) == ref.query(km) for km in truth)


@pytest.mark.parametrize("name", RUNNERS)
def test_inflation_counter_moves_exactly_with_state_size(
        name, small_corpus, monkeypatch):
    seen = []
    fingerprint = kmer.KmerIngestProgram.fingerprint

    def recording(program, sim):
        fp = fingerprint(program, sim)
        seen.append((fp, program.state_size()))
        return fp

    monkeypatch.setattr(kmer.KmerIngestProgram, "fingerprint", recording)
    for seed in range(5):
        seen.clear()
        res = faulty_run(name, small_corpus, seed)
        assert agrees_with_oracle(name, small_corpus, res)
        assert len(seen) == res.sim.now
        for (fp0, size0), (fp1, size1) in zip(seen, seen[1:]):
            assert (fp1[-1] != fp0[-1]) == (size1 != size0)
            # Hence quiescence sees the same fingerprint changes as a rescan.
            assert (fp1 != fp0) == (fp1[:-1] + (size1,) != fp0[:-1] + (size0,))


@pytest.mark.parametrize("name", RUNNERS)
def test_runs_never_rescan_state(name, small_corpus, monkeypatch):
    def rescan(program):
        raise AssertionError("state_size() called during the run")

    for cls in (kmer.ImplAProgram, kmer.TableKmerProgram,
                sketch.Design1Program, sketch.Design2Program):
        monkeypatch.setattr(cls, "state_size", rescan)
    res = faulty_run(name, small_corpus, 0)
    assert agrees_with_oracle(name, small_corpus, res)
