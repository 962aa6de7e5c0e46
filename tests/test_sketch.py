import gc
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from calmsim import kmer, sketch
from calmsim.errors import UnknownWorkerError
from calmsim.hashing import hash64
from calmsim.runtime import DeliverySchedule, NetworkCondition, Simulation
from calmsim.sketch import (CmsParams, SketchMatrix, choose_params,
                            corpus_stream, design1_run, design2_run,
                            row_seeds, sequential_sketch)
from calmsim.tables import IDK, PartitionPlan, Value

from conftest import make_corpus
from helpers import columns


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


def range_plan_owners(m, workers) -> list:
    """Each column's owner under a range plan of one contiguous slab of
    ceil(m / workers) columns per worker."""
    slab = -(-m // workers)
    plan = PartitionPlan("range", tuple(range(workers)), column="column",
                         boundaries=tuple(slab * i for i in range(1, workers)))
    return [plan.owner_of_key(j) for j in range(m)]


def test_design1_sketches_partition_the_reference(cms_corpus):
    # Design 1's one holder per slab is the range plan's column owner,
    # also when there are fewer columns than workers.
    for m, workers in ((90, 4), (7, 3), (12, 4), (3, 5), (1, 2)):
        p = params(h=3, m=m)
        ref = sequential_sketch(corpus_stream(cms_corpus, 6), p)
        res = design1_run(cms_corpus, 6, p, workers=workers,
                          schedule=adversarial(5))
        prog = res.program
        owners = range_plan_owners(m, workers)
        assert prog.holders == [(w,) for w in owners] * p.h
        assert sorted(prog.batches) == list(range(workers))
        for wid in prog.batches:
            sk = prog.matrix(wid)
            for i in range(p.h):
                for j in range(p.m):
                    want = ref.cells[i][j] if owners[j] == wid else set()
                    assert sk.cells[i][j] == want
        assert res.converged() and res.sketch() == ref


def test_design2_route_gives_every_replica_one_batch(cms_corpus):
    # Replicas share one batch object, so a chunk's cells are built once
    # however many replicas there are.
    prog = design2_run(cms_corpus, 6, params(), workers=3).program
    assert prog.slabs == [prog.workers]
    batches = prog.route(*columns(corpus_stream(cms_corpus, 6)[:40]))
    assert sorted(batches) == [0, 1, 2]
    assert batches[0] and all(b is batches[0] for b in batches.values())


def test_design1_query_gathers_from_cell_owners(cms_corpus):
    # One gather per cell held elsewhere, in row order, even when two of
    # an item's cells share a holder.
    p = params(h=3, m=90)
    res = design1_run(cms_corpus, 6, p, workers=3)
    holders = res.program.holders  # a cell's holders are its column's
    shared = 0
    for item in sorted({km for km, _ in corpus_stream(cms_corpus, 6)}):
        remote = [holders[j][0] for j in p.columns(item)
                  if holders[j][0] != 0]
        before = len(res.sim.events)
        res.query(item, at_worker=0)
        gathers = [ev[2:4] for ev in res.sim.events[before:]
                   if ev[1] == "gather"]
        assert gathers == [(0, owner) for owner in remote]
        shared += len(set(remote)) < len(remote)
    assert shared > 0


def test_design2_query_at_a_joined_worker_gathers(cms_corpus):
    # A worker that joined after setup holds no replica: its answer is
    # the replicas' count, gathered from the slab's first holder.
    p = params(h=3, m=90)
    res = design2_run(cms_corpus, 6, p, workers=3, joins=[4])
    joiner = max(res.sim.workers)
    assert joiner not in res.program.batches
    for item in sorted({km for km, _ in corpus_stream(cms_corpus, 6)})[:8]:
        before = len(res.sim.events)
        assert res.query(item, at_worker=joiner) == res.query(item)
        gathers = [ev for ev in res.sim.events[before:] if ev[1] == "gather"]
        assert gathers and all(ev[2:4] == (joiner, 0) for ev in gathers)


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_a_query_at_a_worker_never_registered_raises(cms_corpus, run):
    # FAULTS fails worker 1 and adds worker 3; worker 4 was never added.
    res = run(cms_corpus, 6, params(), workers=3, **FAULTS)
    item = corpus_stream(cms_corpus, 6)[0][0]
    events = list(res.sim.events)
    for read in (res.query, res.estimate):
        with pytest.raises(UnknownWorkerError,
                           match="worker 4 was never registered"):
            read(item, at_worker=4)
    assert res.sim.events == events
    # A failed worker and a joined one still read.
    for wid in (1, 3):
        assert res.estimate(item, at_worker=wid) == res.estimate(item)


def test_design1_partitioned_owner_means_idk(cms_corpus):
    p = params(h=3, m=90)
    res = design1_run(cms_corpus, 6, p, workers=3)
    item = corpus_stream(cms_corpus, 6)[0][0]
    assert isinstance(res.query(item, at_worker=0), Value)
    res.sim.set_partition([(0, 1), (0, 2)])
    out = res.query(item, at_worker=0)
    owners = {res.program.holders[j][0] for j in p.columns(item)}
    if owners - {0}:
        assert out is IDK
    res.sim.heal()
    assert isinstance(res.query(item, at_worker=0), Value)


# -- owners keep delivered batches whole ------------------------------------


def rebuilt_deltas(prog):
    """Each completed chunk's deltas built again from its columns, as for a
    reissued chunk: ``(receiver, delta)`` pairs."""
    for chunk in sorted(prog.pool.completed):
        yield from prog.route(
            *kmer.chunk_columns(prog.data, chunk, prog.k)).items()


def cell_set_size(prog) -> int:
    """``state_size`` as it was defined over per-cell sets."""
    return sum(len(c) for sk in map(prog.matrix, prog.batches)
               for row in sk.cells for c in row)


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_rebuilt_batch_is_absorbed_again_with_no_effect(cms_corpus, run):
    res = run(cms_corpus, 6, params(), workers=3, **FAULTS)
    prog = res.program
    before = {w: dict(held) for w, held in prog.batches.items()}
    sizes, answers = cell_set_size(prog), estimates(res, ["ACGTAC"])
    rebuilt = 0
    for wid, delta in rebuilt_deltas(prog):
        if delta:
            held = prog.batches[wid][delta[1][0]]
            assert delta == held and delta is not held
            rebuilt += 1
        prog.absorb(wid, delta)
    assert rebuilt == sum(map(len, before.values()))
    assert all(prog.batches[w][t] is b
               for w, held in before.items() for t, b in held.items())
    assert prog.batches == before
    assert cell_set_size(prog) == sizes == prog.state_size()
    assert estimates(res, ["ACGTAC"]) == answers


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_a_different_batch_under_a_held_first_token_is_rejected(cms_corpus,
                                                                run):
    prog = run(cms_corpus, 6, params(), workers=3, **FAULTS).program
    wid, held = next((w, b) for w, bs in prog.batches.items()
                     for b in bs.values() if len(b[0]) > 1)
    cells, tokens = held
    for other in ((cells[:-1], tokens[:-1]), (cells[::-1], tokens)):
        with pytest.raises(AssertionError, match="two batches, one first"):
            prog.absorb(wid, other)
        assert prog.batches[wid][tokens[0]] is held


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_chunks_without_windows_change_nothing(run, monkeypatch):
    # Every line is shorter than k, so no chunk has a cell to send.
    corpus = "ACGTA\nCG\nTTGCA\n" * 30
    sent = []
    send = Simulation.send

    def spy_send(sim, src, dst, payload, token_id=None):
        sent.append(payload)
        return send(sim, src, dst, payload, token_id)

    monkeypatch.setattr(Simulation, "send", spy_send)
    res = run(corpus, 6, params(), workers=3, **FAULTS)
    prog = res.program
    chunks = len(prog.pool.completed)
    assert chunks > 1
    assert sent == []
    assert any(ev[1] == "deliver" for ev in res.sim.events) == bool(sent)
    assert all(held == {} for held in prog.batches.values())
    assert prog.state_size() == cell_set_size(prog) == 0
    assert estimates(res, ["ACGTAC"]) == {"ACGTAC": 0}
    if run is design2_run:
        assert res.converged() and res.sketch() == SketchMatrix(params())


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_a_query_after_a_new_batch_counts_it(cms_corpus, run):
    res = run(cms_corpus, 6, params(), workers=3, **FAULTS)
    prog = res.program
    item = corpus_stream(cms_corpus, 6)[0][0]
    before = estimates(res, [item])[item]
    for wid, batch in prog.route([item], [10**6]).items():
        prog.absorb(wid, batch)
    assert estimates(res, [item])[item] == before + 1


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_state_size_counts_the_cell_sets(cms_corpus, run):
    res = run(cms_corpus, 6, params(), workers=3, **FAULTS)
    size = res.program.state_size()
    assert size == cell_set_size(res.program) > 0
    ref = sequential_sketch(corpus_stream(cms_corpus, 6), params())
    replicas = len(res.program.batches) if run is design2_run else 1
    assert size == replicas * sum(len(c) for row in ref.cells for c in row)


@pytest.mark.parametrize("h, code", [(2, "H"), (3, "I")])
def test_batches_are_typed_arrays_in_the_narrowest_cell_code(cms_corpus, h,
                                                              code):
    # Two rows of 2**15 columns end at cell 65535, the last an "H" holds;
    # a third row's cells start at 65536.
    prog = sketch.Design1Program(cms_corpus, 6, 3, params(h=h, m=1 << 15), 1)
    windows = corpus_stream(cms_corpus, 6)[:40]
    batches = prog.route(*columns(windows))
    # Each holder's (cell, token) pairs in window order, as route meets them.
    want = {}
    for item, off in windows:
        for c in prog.cells(item):
            want.setdefault(prog.holders[c][0], []).append((c, off))
    assert sorted(batches) == sorted(want)
    for wid, (cells, tokens) in batches.items():
        assert (cells.typecode, tokens.typecode) == (code, "Q")
        assert list(zip(cells, tokens)) == want[wid]
        assert cells == array(code, [c for c, _ in want[wid]])
    assert (max(c for pairs in want.values() for c, _ in pairs)
            >= 1 << 16) == (code == "I")


def test_the_cells_memo_shares_one_int_per_cell(cms_corpus):
    prog = design1_run(cms_corpus, 6, params(h=3, m=400), workers=3).program
    first = {}
    for item, _ in corpus_stream(cms_corpus, 6):
        for c in prog.cells(item):
            assert first.setdefault(c, c) is c
    assert max(first) > 256  # past the small ints CPython caches


def repeat_rich_corpus(rng: random.Random, nbytes: int) -> str:
    """100-base lines tiled from 16 random 12-base motifs, with 2% point
    mutations: few distinct k-mers, each repeated many times."""
    motifs = ["".join(rng.choices("ACGT", k=12)) for _ in range(16)]
    lines = []
    for _ in range(nbytes // 101):
        line = "".join(rng.choice(motifs) for _ in range(9))[:100]
        lines.append("".join(rng.choice("ACGT") if rng.random() < 0.02
                             else base for base in line))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_designs_hold_at_most_110_bytes_per_window(run):
    # Tuple batches box every cell id and token, about 160 bytes a window;
    # typed arrays and one shared int per cell id hold about 85.
    corpus = repeat_rich_corpus(random.Random(1), 20_000)
    p = choose_params(0.01, 0.01)
    windows = len(corpus_stream(corpus, 8))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # res keeps sim alive, so its event log counts as held too.
        res = run(corpus, 8, p, workers=4)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.converged()
    assert held <= 110 * windows


def test_design2_replica_missing_a_batch_has_not_converged(cms_corpus):
    res = design2_run(cms_corpus, 6, params(), workers=3, **FAULTS)
    assert res.converged()
    held = res.program.batches[max(res.program.batches)]
    held.pop(next(iter(held)))
    assert not res.converged()


@pytest.mark.parametrize("run", [design1_run, design2_run])
def test_a_count_behind_an_unhealed_cut_raises(cms_corpus, run):
    # Design 1 reads at worker 0, which holds one slab; design 2's replicas
    # hold every cell, so its reader is a worker that joined after setup.
    res = run(cms_corpus, 6, params(h=3, m=90), workers=3, joins=[4])
    prog = res.program
    at = 0 if run is design1_run else max(res.sim.workers)
    assert (at in prog.batches) == (run is design1_run)
    item = next(x for x, _ in corpus_stream(cms_corpus, 6)
                if any(at not in prog.holders[c] for c in prog.cells(x)))
    read = res.estimate if run is design1_run else res.query
    answer = read(item, at_worker=at)
    res.sim.set_partition([(at, w) for w in prog.batches if w != at])
    with pytest.raises(RuntimeError, match="IDK"):
        read(item, at_worker=at)
    res.sim.heal()
    assert read(item, at_worker=at) == answer


def test_a_read_cut_off_from_the_first_holder_gathers_from_the_next(
        cms_corpus):
    # Design 2's joined reader holds no cell; worker 0 is every slab's first
    # holder, and worker 1 holds the same replica.
    res = design2_run(cms_corpus, 6, params(h=3, m=90), workers=3, joins=[4])
    at = max(res.sim.workers)
    assert at not in res.program.batches
    item = corpus_stream(cms_corpus, 6)[0][0]
    healed = sketch.SketchResult.query(res, item, at_worker=at)
    res.sim.set_partition([(at, 0)])
    before = len(res.sim.events)
    assert sketch.SketchResult.query(res, item, at_worker=at) == healed
    gathers = {ev[1:4] for ev in res.sim.events[before:]}
    assert gathers == {("gather", at, 1)}
    assert isinstance(healed, Value)
