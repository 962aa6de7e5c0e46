import gc
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from calmsim import kmer, runtime, sketch
from calmsim.dispenser import Chunk
from calmsim.errors import StratificationError, UnknownWorkerError
from calmsim.lattice import GSet, LMap, ThresholdLSet
from calmsim.runtime import DeliverySchedule, Simulation
from calmsim.tables import (DNE, Rule, TickRuleEngine, Value, hash_owners,
                            lookup, plan_query)

from helpers import EngineSpy, columns, kmer_batch

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


def per_window_chunk_windows(data, chunk, k):
    """The per-window scan ``chunk_windows`` replaced: decodes and
    validates every window on its own."""
    end = min(chunk.start + chunk.length, len(data))
    out = []
    for off in range(chunk.start, end):
        win = data[off:off + k]
        if len(win) < k or b"\n" in win:
            continue
        if not frozenset(b"ACGT").issuperset(win):
            raise ValueError(f"invalid base at offset {off}")
        out.append((win.decode("ascii"), off))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=60).map(
           lambda b: bytes(b"ACGT\nX"[x % 6] for x in b)),
       k=st.integers(1, 6), start=st.integers(0, 62),
       length=st.integers(0, 62))
def test_chunk_windows_matches_per_window_scan(data, k, start, length):
    chunk = Chunk(start, length, 0)
    assert (outcome(kmer.chunk_windows, data, chunk, k)
            == outcome(per_window_chunk_windows, data, chunk, k))


def transposed_chunk_windows(data, chunk, k):
    return columns(kmer.chunk_windows(data, chunk, k))


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=60).map(
           lambda b: bytes(b"ACGT\nX"[x % 6] for x in b)),
       k=st.integers(1, 6), start=st.integers(0, 62),
       length=st.integers(0, 62), valid=st.booleans())
@example(data=b"ACGTA\nXX\nACGTAXG", k=4, start=0, length=17, valid=False)
@example(data=b"ACGTA", k=0, start=0, length=5, valid=True)
def test_chunk_columns_are_chunk_windows_transposed(data, k, start, length,
                                                    valid):
    # The same columns, or the same ValueError: a k below 1, or an invalid
    # base at the same offset.  Half the corpora hold no invalid base and
    # every chunk starts in the corpus, or few examples would hold a window.
    if valid:
        data = data.replace(b"X", b"A")
    chunk = Chunk(start % (len(data) + 1), length, 0)
    assert (outcome(kmer.chunk_columns, data, chunk, k)
            == outcome(transposed_chunk_windows, data, chunk, k))


@pytest.mark.parametrize("build", [
    lambda n: kmer.ImplAProgram("", 4, n),
    lambda n: kmer.ImplBProgram("", 4, n, threshold=3)], ids=["a", "b"])
@settings(max_examples=100, deadline=None)
@given(windows=st.lists(st.tuples(st.text("ACGT", min_size=1, max_size=5),
                                  st.integers(0, 2**64 - 1)), max_size=40),
       workers=st.integers(1, 4))
def test_route_on_columns_gives_each_owner_its_hash_owners_group(
        build, windows, workers):
    prog = build(workers)
    owners = hash_owners(prog.workers, [km for km, _ in windows])
    groups: dict = {}
    for owner, pair in zip(owners, windows):
        groups.setdefault(owner, []).append(pair)
    out = prog.route(*columns(windows))
    assert out == {w: kmer_batch(pairs) for w, pairs in groups.items()}
    assert list(out) == sorted(groups)


def test_chunk_windows_skips_invalid_bytes_on_short_lines():
    data = b"ACGTA\nXX\nAXGTT"
    assert kmer.chunk_windows(data, Chunk(0, 9, 0), 4) == [
        ("ACGT", 0), ("CGTA", 1)]
    # threshold_rule_run reads lines as chunk_windows does, so it raises
    # at the same offset: the line's start, or the first window with the
    # bad byte when that starts later.
    for corpus, offset in ((data, 9), (b"ACGTA\nXX\nACGTAXG", 11)):
        for read in (lambda: kmer.chunk_windows(
                         corpus, Chunk(0, len(corpus), 0), 4),
                     lambda: kmer.threshold_rule_run(corpus, 4, 3)):
            with pytest.raises(ValueError,
                               match=f"invalid base at offset {offset}$"):
                read()


@pytest.mark.parametrize("corpus", ["ACGT\r\nACGT\r\n", "AN\nACGT\n",
                                    "ACGT\x0bACGT\n", "ACGT\x1cACGT"])
def test_oracle_and_runner_accept_the_same_corpora(corpus):
    answers = []
    for count in (lambda: kmer.oracle_count(corpus, 4),
                  lambda: kmer.impl_a_run(corpus, 4, 2).histogram):
        try:
            answers.append(count())
        except ValueError:
            answers.append(ValueError)
    assert answers[0] == answers[1]


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


def test_impl_a_shards_view_and_redelivery(small_corpus, monkeypatch):
    absorb, delivered = kmer.ImplAProgram.absorb, []

    def spy_absorb(self, wid, delta):
        delivered.append((wid, delta))
        absorb(self, wid, delta)

    monkeypatch.setattr(kmer.ImplAProgram, "absorb", spy_absorb)
    res = faulty_run("impl_a", small_corpus, 0)
    assert {"dup", "drop", "fail"} <= {ev[1] for ev in res.sim.events}
    prog, truth = res.program, kmer.oracle_count(small_corpus, 4)
    shards = prog.shards
    assert sorted(shards) == sorted(prog.batches)
    for wid, batches in prog.batches.items():
        offsets: dict = {}
        for first, (kms, offs) in batches.items():
            assert first == offs[0] and len(kms) == len(offs)
            for km, off in zip(kms, offs):
                offsets.setdefault(km, set()).add(off)
        assert list(shards[wid].entries) == sorted(offsets)
        assert {km: ids.elems
                for km, ids in shards[wid].entries.items()} == offsets
    assert (prog.state_size()
            == sum(len(offs) for batches in prog.batches.values()
                   for _, offs in batches.values())
            == sum(truth.values()))
    with pytest.raises(AttributeError):
        prog.shards = {}
    # Absorbing a delivered delta again changes neither side.
    wid, delta = delivered[len(delivered) // 2]
    held, pairs = dict(prog.batches[wid]), list(zip(*delta))
    absorb(prog, wid, delta)
    assert prog.batches[wid] == held and list(zip(*delta)) == pairs
    assert prog.histogram() == truth


def test_impl_a_batch_is_held_under_its_first_id(small_corpus):
    res = faulty_run("impl_a", small_corpus, 0)
    prog, truth = res.program, kmer.oracle_count(small_corpus, 4)
    wid = next(w for w, batches in prog.batches.items() if batches)
    first, held = next(iter(prog.batches[wid].items()))
    before = dict(prog.batches[wid])
    # A reprocessed chunk rebuilds an equal batch as a new object.
    again = kmer_batch(list(zip(*held)))
    assert again == held and again is not held
    prog.absorb(wid, again)
    assert prog.batches[wid] == before and prog.batches[wid][first] is held
    assert prog.histogram() == truth
    # A different batch under a held first id is a fault, not a merge.
    other = kmer_batch([*zip(*held), ("ACGT", 10**6)])
    with pytest.raises(AssertionError, match="two batches, one first id"):
        prog.absorb(wid, other)
    assert prog.batches[wid] == before and prog.batches[wid][first] is held
    assert prog.state_size() == sum(truth.values())


def test_impl_a_holds_at_most_90_bytes_per_window():
    rng = random.Random(1)  # 20 KB of 100-base lines, as the benchmark draws
    corpus = "".join("".join(rng.choices("ACGT", k=100)) + "\n"
                     for _ in range(20_000 // 101))
    truth = kmer.oracle_count(corpus, 12)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # sim stays alive, so its event log counts as held too.
        sim, prog = kmer._run(kmer.ImplAProgram(corpus, 12, 4))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert prog.histogram() == truth
    assert held <= 90 * sum(truth.values())


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


@pytest.mark.parametrize("threshold", [1, 2, 3, 5])
def test_impl_b_absorb_matches_the_threshold_lattice_fold(threshold):
    # Each owner draws from three k-mers of its own and few ids, so groups
    # repeat and overlap; a third of the deliveries are an earlier batch
    # again, at the same owner.
    for seed in range(10):
        rng = random.Random(seed)
        prog = kmer.ImplBProgram("ACGT", 2, 3, threshold)
        ref = {wid: LMap.bottom() for wid in prog.ids}
        delivered = []
        for _ in range(40):
            if delivered and rng.random() < 0.3:
                wid, pairs = rng.choice(delivered)
            else:
                wid = rng.choice(sorted(prog.ids))
                pairs = [(f"{wid}{rng.randrange(3)}", rng.randrange(30))
                         for _ in range(rng.randint(1, 8))]
                delivered.append((wid, pairs))
            prog.absorb(wid, kmer_batch(pairs))
            grouped = {}
            for km, off in pairs:
                grouped.setdefault(km, []).append(off)
            ref[wid] = ref[wid].merge(LMap({
                km: ThresholdLSet(frozenset(ids), threshold)
                for km, ids in grouped.items()}))
        shards = prog.shards
        assert shards == ref
        assert all(list(shards[w].entries) == list(ref[w].entries)
                   for w in ref)
        assert list(prog.histogram().items()) == [
            (km, len(ids)) for w in sorted(ref)
            for km, ids in ref[w].entries.items()]


def test_impl_b_state_size_counts_the_capped_ids():
    prog = kmer.ImplBProgram("ACGT", 2, 3, threshold=2)
    assert prog.state_size() == 0
    for pairs in ([("AC", 1), ("AC", 2), ("AC", 3), ("GT", 4)],
                  [("AC", 5), ("CG", 6)], [("GT", 7), ("GT", 4)]):
        prog.absorb(0, kmer_batch(pairs))
    assert prog.histogram() == {"AC": 3, "GT": 2, "CG": 1}
    assert prog.state_size() == sum(prog.histogram().values()) == 6


def test_impl_b_run_builds_no_threshold_set_and_merges_no_map(small_corpus,
                                                              monkeypatch):
    # Owners apply the threshold merge in place to sets only they hold.
    def refuse(*args):
        raise AssertionError("ThresholdLSet or LMap.merge_in used in the run")

    for seed in range(3):
        with monkeypatch.context() as patched:
            patched.setattr(ThresholdLSet, "__post_init__", refuse)
            patched.setattr(LMap, "merge_in", refuse)
            res = faulty_run("impl_b", small_corpus, seed)
        assert agrees_with_oracle("impl_b", small_corpus, res)


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


def test_table_view_of_a_batch_off_its_owner_is_not_coordination_free(
        small_corpus):
    res = kmer.impl_a_run(small_corpus, 4, 3, schedule=adversarial(5))
    batches = res.program.batches
    assert plan_query(res.program.table, "seq").coordination_free
    first = next(iter(batches[0]))
    batches[1][first] = batches[0].pop(first)
    assert not plan_query(res.program.table, "seq").coordination_free


def test_table_view_is_a_copy_of_the_rows_on_their_owners(small_corpus):
    res = kmer.table_kmer_run(small_corpus, 4, 3, schedule=adversarial(5),
                              failures=[(4, 1)], joins=[6])
    table, stream = res.program.table, kmer.corpus_stream(small_corpus, 4)
    assert table.merged().elems == set(stream)
    for wid, shard in table.shards.items():
        assert all(table.plan.owner_of_key(seq) == wid
                   for seq, _token in shard.elems)
    for seq in res.histogram:
        rows = frozenset(row for row in stream if row[0] == seq)
        assert lookup(table, seq, table.plan.owner_of_key(seq)) == Value(rows)
    absent = "NNNN"  # no window holds a base outside ACGT
    assert lookup(table, absent, table.plan.owner_of_key(absent)) is DNE
    before = list(res.program.histogram().items())
    table.insert(("ACGT", 10**6))
    assert list(res.program.histogram().items()) == before


# -- tick-rule variant (instantaneous vs deferred merge) --------------------


@pytest.mark.parametrize("build", [
    lambda w: kmer.ImplAProgram(THRESH_CORPUS, 4, w),
    lambda w: kmer.ImplBProgram(THRESH_CORPUS, 4, w, 3),
    lambda w: sketch.Design1Program(THRESH_CORPUS, 4, w,
                                    sketch.choose_params(0.1, 0.1), 1),
], ids=["impl_a", "impl_b", "design1"])
@pytest.mark.parametrize("workers", [0, -1])
def test_a_program_needs_at_least_one_worker(build, workers):
    with pytest.raises(ValueError, match="need at least one worker"):
        build(workers)


@pytest.mark.parametrize("threshold", [0, -2])
def test_impl_b_threshold_must_be_at_least_1(threshold):
    with pytest.raises(ValueError, match="threshold must be >= 1"):
        kmer.impl_b_run(THRESH_CORPUS, 4, 2, threshold)


def test_instantaneous_merge_is_stratification_error():
    with pytest.raises(StratificationError) as err:
        kmer.threshold_rule_run(THRESH_CORPUS, 4, 3, deferred=False)
    assert err.value.cycle == ("incoming", "local", "incoming")


@pytest.mark.parametrize("threshold, batch", [(0, 64), (3, 0), (3, -1)])
def test_threshold_rule_run_rejects_bad_threshold_or_batch(threshold, batch):
    with pytest.raises(ValueError, match="must be >= 1"):
        kmer.threshold_rule_run(THRESH_CORPUS, 4, threshold, batch=batch)


def test_deferred_merge_runs_and_matches_oracle():
    counts = kmer.threshold_rule_run(THRESH_CORPUS, 4, 3, deferred=True,
                                     batch=7)
    for km, true in THRESH_TRUTH.items():
        c = counts[km]
        assert c <= true
        if true < 3:
            assert c == true
        assert (c >= 3) == (true >= 3)


def persistent_tables_run(corpus, k, threshold, batch):
    """``threshold_rule_run`` with ``arrivals`` and ``incoming`` kept as
    persistent tables, so both rules re-read every earlier arrival on every
    tick."""
    data = kmer.normalize_corpus(corpus)
    windows = kmer.chunk_windows(data, Chunk(0, len(data), 0), k)

    def admit(tabs):
        return LMap({km: ids for km, ids in tabs["arrivals"].entries.items()
                     if len(tabs["local"].get(km, GSet())) < threshold})

    engine = TickRuleEngine(
        tables={"arrivals": LMap(), "incoming": LMap(), "local": LMap()},
        rules=[Rule("incoming", admit, sources=("arrivals", "local")),
               Rule("local", lambda t: t["incoming"], sources=("incoming",),
                    deferred=True)])
    for i in range(0, len(windows), batch):
        grouped: dict = {}
        for km, off in windows[i:i + batch]:
            grouped.setdefault(km, set()).add(off)
        engine.inject("arrivals", LMap({km: GSet.of(offs)
                                        for km, offs in grouped.items()}))
        engine.tick()
    engine.run_to_fixpoint()
    return ({km: len(ids) for km, ids in engine.tables["local"].entries.items()},
            engine.now)


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(st.text("ACGT", max_size=30), max_size=12),
       k=st.integers(1, 5), threshold=st.integers(1, 6),
       batch=st.integers(1, 20))
def test_scratch_tables_match_persistent_tables(lines, k, threshold, batch):
    corpus = "\n".join(lines) + "\n"
    want, ticks = persistent_tables_run(corpus, k, threshold, batch)
    with pytest.MonkeyPatch.context() as mp:
        spy = EngineSpy(mp)
        got = kmer.threshold_rule_run(corpus, k, threshold, deferred=True,
                                      batch=batch)
    assert got == want
    assert spy.engines[0].now == ticks
    truth = kmer.oracle_count(corpus, k)
    assert got.keys() == truth.keys()
    assert all(c <= truth[km] and min(c, threshold) == min(truth[km], threshold)
               for km, c in got.items())


def test_threshold_rule_run_holds_one_batch_of_windows():
    # A run that listed every window first would peak at over 100 bytes a
    # window; reading a line at a time keeps the peak near the corpus copy.
    corpus = ("A" * 100 + "\n") * 800
    gc.collect()
    tracemalloc.start()
    try:
        counts = kmer.threshold_rule_run(corpus, 4, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.keys() == {"AAAA"} and counts["AAAA"] >= 16
    assert peak < 4 * len(corpus)


def test_engine_keeps_one_batch_of_arrivals(monkeypatch):
    # Counts the ids the engine holds outside ``local`` instead of timing
    # the run: a table that kept every arrival would grow with the corpus.
    corpus = "ACGTACGTAC\nTTTTTT\n" * 20 + "GATTACA\n"
    batch = 5
    held = []

    def wrap(rule):
        if rule.target != "incoming":
            return rule.expr

        def expr(tabs):
            held.append(sum(len(ids) for ids in
                            tabs["arrivals"].entries.values()))
            return rule.expr(tabs)
        return expr

    EngineSpy(monkeypatch, wrap)
    kmer.threshold_rule_run(corpus, 3, 4, batch=batch)
    assert held and max(held) <= batch
    assert sum(held) == sum(kmer.oracle_count(corpus, 3).values())


# -- quiescence under faults ------------------------------------------------

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


@pytest.mark.parametrize("name", ["impl_a", "impl_b", "table_kmer"])
def test_a_kmer_on_two_owner_shards_is_rejected(name, small_corpus):
    res = faulty_run(name, small_corpus, 0)
    prog = res.program
    for wid in prog.workers:
        prog.absorb(wid, kmer_batch([("ACGT", 10**6)]))
    with pytest.raises(AssertionError, match="two owner shards"):
        prog.histogram()


@pytest.mark.parametrize("owners", [(0, 1), (0, 2), (1, 2)])
def test_impl_a_kmer_on_exactly_two_owner_shards_is_rejected(owners,
                                                            small_corpus):
    prog = faulty_run("impl_a", small_corpus, 0).program
    for wid in owners:
        prog.absorb(wid, kmer_batch([("ACGTA", 10**6)]))
    with pytest.raises(AssertionError, match="two owner shards"):
        prog.histogram()


def test_impl_a_kmer_only_on_the_last_owner_is_counted(small_corpus):
    prog = faulty_run("impl_a", small_corpus, 0).program
    prog.absorb(max(prog.batches),
                kmer_batch([("ACGTA", 10**6), ("ACGTA", 10**6 + 1)]))
    hist = prog.histogram()
    assert hist == {**kmer.oracle_count(small_corpus, 4), "ACGTA": 2}
    assert list(hist)[-1] == "ACGTA"


@pytest.mark.parametrize("name", RUNNERS)
def test_run_ends_on_its_last_active_tick(name, small_corpus):
    for seed in range(5):
        res = faulty_run(name, small_corpus, seed)
        last = max(ev[0] for ev in res.sim.events
                   if ev[1] not in ("aggregate", "gather"))
        assert res.sim.now == last
        assert agrees_with_oracle(name, small_corpus, res)


@pytest.mark.parametrize("name", RUNNERS)
def test_runs_never_rescan_state(name, small_corpus, monkeypatch):
    def rescan(program):
        raise AssertionError("state_size() called during the run")

    for cls in (kmer.ImplAProgram, kmer.ImplBProgram,
                sketch.Design1Program, sketch.Design2Program):
        monkeypatch.setattr(cls, "state_size", rescan)
    res = faulty_run(name, small_corpus, 0)
    assert agrees_with_oracle(name, small_corpus, res)


@pytest.mark.parametrize("name", ["design1", "design2"])
def test_sketch_runs_never_build_cells_or_counts(name, small_corpus,
                                                 monkeypatch):
    # Delivery keeps batches whole: no per-cell set and no cell count is
    # built until the run has ended.
    def build(*args):
        raise AssertionError("cell sets or counts built during the run")

    with monkeypatch.context() as patched:
        patched.setattr(sketch.SketchMatrix, "add", build)
        patched.setattr(PROGRAMS[name], "counts", build)
        res = faulty_run(name, small_corpus, 0)
    assert agrees_with_oracle(name, small_corpus, res)


@pytest.mark.parametrize("faults, error", [
    (dict(failures=[(3, 1), (5, 1)]), "worker 1 is listed to fail more than"),
    (dict(partitions=[(3, ((0, 1),)), (3, ((1, 2),)), (9, ())]),
     "two partitions at tick 3"),
    (dict(partitions=[(3, ((1, 1),)), (6, ())]),
     "worker 1 cannot be cut off from itself"),
    (dict(partitions=[(3, ((0, 1, 2),)), (6, ())]),
     "each cut pair must name two workers"),
    (dict(failures=[(0, 1)]), "fault ticks must be >= 1"),
    # Worker 3 joins at tick 5, after that tick's failures.
    (dict(failures=[(5, 3)], joins=[5]), "worker 3 is not registered"),
    (dict(joins=[5], partitions=[(4, ((0, 3),)), (9, ())]),
     "worker 3 is not registered"),
], ids=["worker-failed-twice", "two-cuts-at-one-tick", "self-cut",
        "three-worker-cut", "fault-at-tick-0", "unknown-failed-worker",
        "unknown-cut-worker"])
def test_fault_schedule_is_checked_before_the_run(faults, error, small_corpus,
                                                   monkeypatch):
    logged = []
    monkeypatch.setattr(Simulation, "log",
                        lambda sim, *args, **kw: logged.append(args))
    for name, run in RUNNERS.items():
        with pytest.raises(ValueError, match=error):
            run(small_corpus, **faults)
        assert logged == [], name


@pytest.mark.parametrize("name", RUNNERS)
def test_a_cut_may_name_the_worker_joining_at_its_tick(name, small_corpus):
    # Within a tick, joins come before cuts.
    res = RUNNERS[name](small_corpus, schedule=DeliverySchedule(seed=2),
                        joins=[5], partitions=[(5, ((0, 3),)), (9, ())])
    assert len(res.sim.workers) == 4
    assert sum(ev[1] == "partition" for ev in res.sim.events) == 2
    assert agrees_with_oracle(name, small_corpus, res)


# -- deltas shipped once, owners routed directly ----------------------------

PROGRAMS = {"impl_a": kmer.ImplAProgram, "impl_b": kmer.ImplBProgram,
            "table_kmer": kmer.ImplAProgram,
            "design1": sketch.Design1Program,
            "design2": sketch.Design2Program}


# Each runner's program, built as the runner builds it.
BUILDS = {
    "impl_a": lambda corpus: kmer.ImplAProgram(corpus, 4, 3),
    "impl_b": lambda corpus: kmer.ImplBProgram(corpus, 4, 3, 3),
    "table_kmer": lambda corpus: kmer.ImplAProgram(corpus, 4, 3),
    "design1": lambda corpus: sketch.Design1Program(corpus, 4, 3, CMS, 1),
    "design2": lambda corpus: sketch.Design2Program(corpus, 4, 3, CMS, 3),
}


@pytest.mark.parametrize("name", RUNNERS)
def test_a_program_is_whole_when_built(name, small_corpus):
    prog = BUILDS[name](small_corpus)
    assert type(prog) is PROGRAMS[name]
    assert prog.workers == (0, 1, 2) and prog.pool is None
    owners = prog.ids if name == "impl_b" else prog.batches
    assert owners == {0: {}, 1: {}, 2: {}}
    assert prog.state_size() == 0
    if name.startswith("design"):
        ran = kmer._run(BUILDS[name](small_corpus), **FAULTS)[1]
        assert (prog.slabs, prog.holders) == (ran.slabs, ran.holders)
        assert len(prog.slabs) == (3 if name == "design1" else 1)


@pytest.mark.parametrize("size, workers, chunks", [
    (1000, 1, 8), (1000, 2, 16), (1001, 3, 24), (3, 2, 3), (0, 2, 0)])
def test_default_tiling_is_about_eight_chunks_per_worker(size, workers,
                                                         chunks):
    # Chunks are at least 1 byte long, so a short corpus gets fewer.
    prog = kmer.ImplAProgram(b"A" * size, 4, workers)
    prog.setup(Simulation())
    assert len(prog.pool.pending) == chunks
    assert sum(c.length for c in prog.pool.pending) == size


def test_an_explicit_chunk_len_of_zero_is_refused():
    with pytest.raises(ValueError, match="chunk_len must be positive"):
        kmer.ImplAProgram(b"ACGT", 4, 2, chunk_len=0).setup(Simulation())


@pytest.mark.parametrize("name", RUNNERS)
def test_a_run_on_a_simulation_with_workers_is_refused(name, small_corpus):
    # Setup registers workers 1..3 here, so worker 0 holds no pool entry.
    sim = Simulation()
    sim.register_worker()
    with pytest.raises(UnknownWorkerError, match="worker 0 not registered"):
        runtime.run_to_quiescence(sim, BUILDS[name](small_corpus))
    assert sim.now == 1


@pytest.mark.parametrize("name", RUNNERS)
def test_each_delta_is_built_once_and_delivered_as_sent(
        name, small_corpus, monkeypatch):
    cls = PROGRAMS[name]
    route, step, absorb = cls.route, cls.worker_step, cls.absorb
    send, on_deliver = Simulation.send, cls.on_deliver
    stepping, built, handled, absorbed_at, delivered = [], [], [], [], []

    def spy_step(self, sim, wid):
        stepping.append((sim, wid))
        step(self, sim, wid)
        stepping.pop()

    def spy_route(self, kmers, ids):
        out = route(self, kmers, ids)
        built.append((stepping[-1][1], (list(kmers), list(ids)), out))
        return out

    def spy_absorb(self, wid, delta):
        if stepping:  # in the ingesting worker's step, not on delivery
            sim = stepping[-1][0]
            (chunk,) = self.pool.assigned[wid]  # not yet complete
            handled.append(("absorb", wid, wid, delta))
            absorbed_at.append((len(sim.events), sim.now, wid,
                                chunk.token_id))
        return absorb(self, wid, delta)

    def spy_send(sim, src, dst, payload, token_id=None):
        handled.append(("send", src, dst, payload))
        return send(sim, src, dst, payload, token_id)

    def spy_deliver(self, sim, env):
        delivered.append(env.payload)
        return on_deliver(self, sim, env)

    monkeypatch.setattr(cls, "worker_step", spy_step)
    monkeypatch.setattr(cls, "route", spy_route)
    monkeypatch.setattr(cls, "absorb", spy_absorb)
    monkeypatch.setattr(Simulation, "send", spy_send)
    monkeypatch.setattr(cls, "on_deliver", spy_deliver)
    res = faulty_run(name, small_corpus, 0)
    events = res.sim.events
    assert agrees_with_oracle(name, small_corpus, res)
    assert {"dup", "drop", "hold"} <= {ev[1] for ev in events}

    # Each route payload, in owner order, is absorbed by the worker that
    # built it or sent once to another owner, never both; the payload is
    # the object built.
    expected = [("absorb" if owner == wid else "send", wid, owner, out[owner])
                for wid, _columns, out in built for owner in sorted(out)]
    assert [h[:3] for h in handled] == [e[:3] for e in expected]
    assert all(h[3] is e[3] for h, e in zip(handled, expected))
    kinds = [h[0] for h in handled]
    assert "absorb" in kinds and "send" in kinds
    assert kinds.count("send") == sum(ev[1] == "send" for ev in events)
    # An owner absorbs its own batch before its chunk's ``complete``, in
    # the same tick.
    for n, now, wid, token in absorbed_at:
        assert (now, "complete", None, wid, token, None) in events[n:]
    assert len(delivered) == sum(ev[1] == "deliver" for ev in events)
    sent_ids = {id(h[3]) for h in handled if h[0] == "send"}
    assert all(id(p) in sent_ids for p in delivered)
    # Merging a delta never mutated it.
    assert all(out == route(res.program, *columns)
               for _wid, columns, out in built)


@pytest.mark.parametrize("name", RUNNERS)
def test_delivery_never_sends(name, small_corpus, monkeypatch):
    cls = PROGRAMS[name]
    send, on_deliver = Simulation.send, cls.on_deliver
    delivering = []

    def spy_send(sim, *args, **kw):
        assert not delivering, "on_deliver sent a message"
        return send(sim, *args, **kw)

    def spy_deliver(self, sim, env):
        delivering.append(env)
        on_deliver(self, sim, env)
        delivering.pop()

    monkeypatch.setattr(Simulation, "send", spy_send)
    monkeypatch.setattr(cls, "on_deliver", spy_deliver)
    res = faulty_run(name, small_corpus, 0)
    assert agrees_with_oracle(name, small_corpus, res)
    assert any(ev[1] == "deliver" for ev in res.sim.events)


def test_design2_sends_each_chunk_once_to_every_other_replica(
        small_corpus, monkeypatch):
    send = Simulation.send
    sent: dict = {}

    def spy_send(sim, src, dst, payload, token_id=None):
        sent.setdefault(token_id, []).append((dst, payload))
        return send(sim, src, dst, payload, token_id)

    monkeypatch.setattr(Simulation, "send", spy_send)
    for seed in range(3):
        sent.clear()
        res = faulty_run("design2", small_corpus, seed)
        replicas = res.program.workers
        # A replica absorbs its own chunk; every other replica gets it.
        completed = {ev[4]: ev[3] for ev in res.sim.events
                     if ev[1] == "complete"}
        others = {token: [r for r in replicas if r != wid]
                  for token, wid in completed.items()}
        assert sum(ev[1] == "send" for ev in res.sim.events) == (
            sum(map(len, others.values())))
        assert any(wid not in replicas for wid in completed.values())
        assert sorted(sent) == sorted(completed)
        for token, envelopes in sent.items():
            assert [dst for dst, _ in envelopes] == others[token]
            assert all(p is envelopes[0][1] for _, p in envelopes)


@pytest.mark.parametrize("name", ["impl_a"])
def test_direct_owner_agrees_with_the_plan(name, corpus_10k):
    res = faulty_run(name, corpus_10k, 1)
    prog = res.program
    windows = kmer.corpus_stream(corpus_10k, 4)
    kmer_at = dict((off, km) for km, off in windows)
    plan = prog.table.plan  # each read of ``table`` copies every pair
    for owner, batch in prog.route(*columns(windows)).items():
        for km, off in zip(*batch):
            assert km == kmer_at[off]
            assert owner == plan.owner_of_key(km)
    assert len(prog.workers) == 3 < len(res.sim.workers)
