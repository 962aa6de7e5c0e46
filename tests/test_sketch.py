import random

import pytest
from hypothesis import given, settings, strategies as st

from calmsim import sketch
from calmsim.hashing import hash64
from calmsim.runtime import DeliverySchedule, NetworkCondition
from calmsim.sketch import (CmsParams, SketchMatrix, choose_params,
                            corpus_stream, design1_run, design2_run,
                            row_seeds, sequential_sketch)
from calmsim.tables import IDK, Value

from conftest import make_corpus


def params(h=3, m=64, seed=0):
    return CmsParams(h, m, row_seeds(h, seed))


# -- parameters -------------------------------------------------------------


def test_choose_params_standard_sizing():
    p = choose_params(0.01, 0.01)
    # ceil(e / 0.01) and ceil(ln 100), computed by hand.
    assert (p.m, p.h) == (272, 5)
    assert choose_params(0.99, 0.6).m == 3
    assert choose_params(0.5, 0.5).h == 1


def test_params_validation():
    with pytest.raises(ValueError):
        CmsParams(0, 10, ())
    with pytest.raises(ValueError):
        CmsParams(2, 10, (1, 1))  # seeds must be distinct
    with pytest.raises(ValueError):
        CmsParams(2, 10, (1,))  # wrong arity
    with pytest.raises(ValueError):
        choose_params(0.0, 0.1)
    with pytest.raises(ValueError):
        choose_params(0.1, 1.0)


def test_row_seeds_reproducible_and_distinct():
    assert row_seeds(8, 3) == row_seeds(8, 3)
    assert len(set(row_seeds(8, 3))) == 8
    assert row_seeds(4, 1) != row_seeds(4, 2)


def test_columns_hash_each_row_seed_of_the_item(monkeypatch):
    rng = random.Random(4)
    items = ["".join(rng.choice("ACGTé") for _ in range(rng.randint(0, 12)))
             for _ in range(200)]
    for h, m in ((1, 7), (5, 272)):
        p = params(h=h, m=m, seed=h)
        for item in items:
            assert p.columns(item) == [hash64(item, s) % m for s in p.seeds]
    hashed = []
    monkeypatch.setattr(sketch, "hash64",
                        lambda data, seed: hashed.append(data) or 0)
    params(h=4).columns("ACGT")
    assert hashed == [b"ACGT"] * 4  # one encoding serves every row


# -- matrix core ------------------------------------------------------------


def test_insert_idempotent():
    sk = SketchMatrix(params())
    for _ in range(5):
        sk.insert("ACGT", 7)
    assert sk.query("ACGT") == 1


def test_row_sum_identity():
    sk = SketchMatrix(params())
    pairs = [(f"K{i}", i) for i in range(50)]
    for item, tok in pairs:
        sk.insert(item, tok)
    # Every row holds each distinct token exactly once.
    for row in sk.cells:
        assert sum(len(c) for c in row) == 50


def test_exact_when_matrix_is_huge():
    rng = random.Random(5)
    stream = [(f"K{rng.randint(0, 9)}", tok) for tok in range(300)]
    sk = sequential_sketch(stream, params(h=4, m=1 << 16))
    truth = {}
    for item, _ in stream:
        truth[item] = truth.get(item, 0) + 1
    assert all(sk.query(item) == n for item, n in truth.items())


def test_estimates_never_undercount():
    rng = random.Random(6)
    stream = [(f"K{rng.randint(0, 40)}", tok) for tok in range(500)]
    sk = sequential_sketch(stream, params(h=3, m=16))  # heavy collisions
    truth = {}
    for item, _ in stream:
        truth[item] = truth.get(item, 0) + 1
    assert all(sk.query(item) >= n for item, n in truth.items())


def test_merge_is_union_of_streams():
    rng = random.Random(7)
    stream = [(f"K{rng.randint(0, 20)}", tok) for tok in range(200)]
    p = params()
    merged = sequential_sketch(stream[:90], p)
    merged.add((i, j, tok) for item, tok in stream[90:]
               for i, j in enumerate(p.columns(item)))
    assert merged == sequential_sketch(stream, p)


def test_dump_shape():
    sk = SketchMatrix(params(h=2, m=8))
    sk.insert("AC", 1)
    d = sk.dump()
    assert (d["h"], d["m"], len(d["cells"])) == (2, 8, 16)
    assert sum(d["cells"]) == 2


# -- distributed designs ----------------------------------------------------


def adversarial(seed):
    return DeliverySchedule(seed=seed, duplicate_prob=0.4,
                            reorder_window=4, drop_prob=0.15)


@pytest.fixture(scope="module")
def cms_corpus():
    return make_corpus(random.Random(11), lines=20, width=80)


def test_design2_converges_to_sequential(cms_corpus):
    p = params(h=3, m=128)
    ref = sequential_sketch(corpus_stream(cms_corpus, 6), p)
    res = design2_run(cms_corpus, 6, p, workers=3, schedule=adversarial(1))
    assert res.converged()
    assert res.sketch() == ref


def test_design1_matches_design2_and_sequential(cms_corpus):
    p = params(h=3, m=96)
    ref = sequential_sketch(corpus_stream(cms_corpus, 6), p)
    d1 = design1_run(cms_corpus, 6, p, workers=4, schedule=adversarial(2))
    d2 = design2_run(cms_corpus, 6, p, workers=2, schedule=adversarial(3))
    for item in {km for km, _ in corpus_stream(cms_corpus, 6)}:
        assert d1.estimate(item) == d2.query(item) == ref.query(item)


def test_designs_match_sequential_under_faults(cms_corpus):
    p = params(h=3, m=96)
    ref = sequential_sketch(corpus_stream(cms_corpus, 6), p)
    items = {km for km, _ in corpus_stream(cms_corpus, 6)}
    faults = dict(failures=[(6, 1)], joins=[8],
                  partitions=[(4, ((0, 2),)), (10, ())])
    for seed in range(5):
        schedule = DeliverySchedule(seed=seed, duplicate_prob=0.3,
                                    reorder_window=5, drop_prob=0.1)
        d1 = design1_run(cms_corpus, 6, p, workers=3, schedule=schedule,
                         **faults)
        d2 = design2_run(cms_corpus, 6, p, workers=3, schedule=schedule,
                         **faults)
        assert {ev[1] for ev in d1.sim.events} >= {"fail", "partition"}
        assert len(d2.sim.workers) == 4  # the join took effect
        assert d2.converged() and d2.sketch() == ref
        assert all(d1.estimate(item) == ref.query(item) for item in items)


FAULTS = dict(schedule=DeliverySchedule(seed=4, duplicate_prob=0.3),
              failures=[(6, 1)], joins=[8])


def counted_columns(monkeypatch) -> list:
    """Patch ``CmsParams.columns`` to record every item it hashes."""
    calls = []
    columns = CmsParams.columns

    def counted(self, item):
        calls.append(item)
        return columns(self, item)

    monkeypatch.setattr(CmsParams, "columns", counted)
    return calls


def estimates(res, items) -> dict:
    # Design 1 answers a Tristate from query and an int from estimate.
    query = getattr(res, "estimate", res.query)
    return {item: query(item) for item in items}


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_run_hashes_each_distinct_item_once(cms_corpus, run, monkeypatch):
    # The ingesting worker hashes a window's item into cells, owners and
    # replicas only apply cells even when deliveries repeat, and estimates
    # reuse what ingestion hashed.
    stream = corpus_stream(cms_corpus, 6)
    items = sorted({km for km, _ in stream})
    assert len(items) < len(stream)  # items repeat, so the memo is hit
    calls = counted_columns(monkeypatch)
    res = run(cms_corpus, 6, params(), workers=3, **FAULTS)
    estimates(res, items)
    assert {ev[1] for ev in res.sim.events} >= {"dup", "fail"}
    assert len(res.sim.workers) == 4  # the join took effect
    assert len(calls) == len(set(calls)) == len(items)


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_no_memo_outlives_a_run(cms_corpus, run, monkeypatch):
    # A memo shared across runs would let a later run, or the sequential
    # reference it is timed against, read columns hashed by an earlier one.
    p = params()
    fields_before, hash_before = dict(vars(p)), hash(p)
    items = sorted({km for km, _ in corpus_stream(cms_corpus, 6)})
    calls = counted_columns(monkeypatch)
    per_run = []
    for _ in range(2):
        estimates(run(cms_corpus, 6, p, workers=3, **FAULTS), items)
        per_run.append(len(calls))
        calls.clear()
    assert per_run[0] == per_run[1] == len(items)
    assert vars(p) == fields_before and hash(p) == hash_before
    assert p == CmsParams(**fields_before)


# Lines tiled from at most three short motifs, so k-mers repeat often.
motif_corpora = st.lists(
    st.text("ACGT", min_size=2, max_size=6), min_size=1, max_size=3
).flatmap(lambda motifs: st.lists(
    st.lists(st.sampled_from(motifs), max_size=10).map("".join),
    min_size=1, max_size=6)).map(lambda lines: "\n".join(lines) + "\n")


@settings(max_examples=40, deadline=None)
@given(corpus=motif_corpora, workers=st.integers(1, 4),
       schedule=st.builds(DeliverySchedule, seed=st.integers(0, 1 << 16),
                          duplicate_prob=st.floats(0, 0.5),
                          reorder_window=st.integers(0, 5),
                          drop_prob=st.floats(0, 0.3)))
def test_designs_match_sequential_on_repeat_rich_corpora(corpus, workers,
                                                         schedule):
    k, p = 4, params(h=3, m=16)
    stream = corpus_stream(corpus, k)
    ref = sequential_sketch(stream, p)
    d1 = design1_run(corpus, k, p, workers, schedule=schedule)
    d2 = design2_run(corpus, k, p, workers, schedule=schedule)
    for item in {km for km, _ in stream}:
        assert d1.estimate(item) == d2.query(item) == ref.query(item)


def test_design1_sketches_partition_the_reference(cms_corpus):
    p = params(h=3, m=90)
    ref = sequential_sketch(corpus_stream(cms_corpus, 6), p)
    res = design1_run(cms_corpus, 6, p, workers=4, schedule=adversarial(5))
    prog = res.program
    assert sorted(prog.sketches) == [0, 1, 2, 3]
    for wid, sk in prog.sketches.items():
        for i in range(p.h):
            for j in range(p.m):
                want = ref.cells[i][j] if prog.column_owners[j] == wid else set()
                assert sk.cells[i][j] == want


def test_design1_query_gathers_from_cell_owners(cms_corpus):
    p = params(h=3, m=90)
    res = design1_run(cms_corpus, 6, p, workers=3)
    item = corpus_stream(cms_corpus, 6)[0][0]
    owners = {res.program.column_owners[j] for j in p.columns(item)}
    before = len(res.sim.events)
    res.query(item, at_worker=0)
    gathers = [ev for ev in res.sim.events[before:] if ev[1] == "gather"]
    assert len(gathers) == len(owners - {0})


def test_design1_partitioned_owner_means_idk(cms_corpus):
    p = params(h=3, m=90)
    res = design1_run(cms_corpus, 6, p, workers=3)
    item = corpus_stream(cms_corpus, 6)[0][0]
    assert isinstance(res.query(item, at_worker=0), Value)
    res.sim.set_partition([(0, 1), (0, 2)])
    out = res.query(item, at_worker=0)
    owners = {res.program.column_owners[j] for j in p.columns(item)}
    if owners - {0}:
        assert out is IDK
    res.sim.heal()
    assert isinstance(res.query(item, at_worker=0), Value)
