import pytest

from calmsim.dispenser import WorkPool
from calmsim.errors import UnknownWorkerError


def make_pool(size=1000, chunk_len=100, fill=b"A"):
    return WorkPool(fill * size, chunk_len)


def test_open_tiles_file():
    pool = WorkPool(b"x" * 1000, 100)
    assert len(pool.pending) == 10
    assert all(c.length == 100 for c in pool.pending)


@pytest.mark.parametrize("chunk_len", [0, -1])
def test_chunk_len_must_be_positive(chunk_len):
    with pytest.raises(ValueError, match="chunk_len must be positive"):
        make_pool(100, chunk_len)


def test_uneven_tail_chunk():
    pool = make_pool(1001, 100)
    assert len(pool.pending) == 11
    assert pool.pending[-1].length == 1


def test_token_ids_distinct_and_reproducible():
    data = bytes(range(256)) * 8
    tokens1 = [c.token_id for c in WorkPool(data, 64).pending]
    tokens2 = [c.token_id for c in WorkPool(data, 64).pending]
    assert tokens1 == tokens2
    assert len(set(tokens1)) == len(tokens1)


def test_token_ids_follow_offsets_not_content():
    # Delivery fates are keyed by token, so equal tilings of different
    # inputs must get equal tokens for a run's schedule to be the input's
    # shape alone.
    a = [c.token_id for c in WorkPool(b"A" * 300, 64).pending]
    b = [c.token_id for c in WorkPool(bytes(range(150)) * 2, 64).pending]
    assert a == b


def test_next_assigns_and_exhausts():
    pool = make_pool(300, 100)
    pool.add_worker(0)
    chunks = [pool.next(0, 1) for _ in range(3)]
    assert all(chunks) and pool.next(0, 1) is None
    assert not pool.pending and not pool.done
    for c in chunks:
        pool.complete(0, c)
    assert pool.done


def test_unknown_worker():
    pool = make_pool()
    with pytest.raises(UnknownWorkerError):
        pool.next(5, 1)
    with pytest.raises(UnknownWorkerError):
        pool.fail(5, 1)


def test_completing_unassigned_chunk_rejected():
    pool = make_pool(200, 100)
    pool.add_worker(0)
    pool.add_worker(1)
    chunk = pool.next(0, 1)
    with pytest.raises(ValueError):
        pool.complete(1, chunk)


def test_fail_returns_uncompleted_work():
    pool = make_pool(600, 100)
    pool.add_worker(0)
    pool.add_worker(1)
    done = pool.next(0, 1)
    pool.complete(0, done)
    held = [pool.next(0, 1) for _ in range(3)]
    lost = pool.fail(0, 2)
    assert sorted(lost) == sorted(held)
    assert done in pool.completed and done not in pool.pending
    # Survivor finishes the whole file.
    while (c := pool.next(1, 3)) is not None:
        pool.complete(1, c)
    assert pool.done
    spans = sorted((c.start, c.length) for c in pool.completed)
    assert [start for start, _ in spans] == list(range(0, 600, 100))
    assert sum(length for _, length in spans) == 600


def test_a_lost_chunk_is_handed_out_from_the_tick_after_its_loss():
    pool = make_pool(300, 100)
    pool.add_worker(0)
    pool.add_worker(1)
    lost, _ = pool.next(0, 1), pool.next(1, 1)
    assert pool.fail(0, 4) == [lost]
    last = pool.next(1, 4)  # the loss tick skips the lost chunk
    assert last.start == 200
    assert pool.next(1, 4) is None and not pool.done  # held back, counted
    assert pool.next(1, 5) == lost


def test_fail_with_no_assignments():
    pool = make_pool(200, 100)
    pool.add_worker(0)
    assert pool.fail(0, 1) == []
    with pytest.raises(UnknownWorkerError):
        pool.next(0, 2)  # worker removed


def test_faster_worker_gets_proportional_share():
    pool = make_pool(1200, 100)  # 12 chunks
    pool.add_worker(0)
    pool.add_worker(1)
    shares = {0: 0, 1: 0}
    while pool.pending:
        # Worker 0 requests twice per round, worker 1 once.
        for wid in (0, 0, 1):
            c = pool.next(wid, 1)
            if c:
                pool.complete(wid, c)
                shares[wid] += 1
    assert abs(shares[0] - 8) <= 1 and abs(shares[1] - 4) <= 1


def test_midrun_joiner_gets_only_pending_chunks():
    pool = make_pool(800, 100)
    pool.add_worker(0)
    finished = [pool.next(0, 1) for _ in range(4)]
    for c in finished:
        pool.complete(0, c)
    pool.add_worker(1)
    seen = []
    while (c := pool.next(1, 2)) is not None:
        seen.append(c)
    assert not (set(seen) & set(finished))
