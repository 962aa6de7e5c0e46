import hashlib

from calmsim.hashing import MASK64, hash64


def one_shot(data: bytes, seed: int) -> int:
    key = (seed & MASK64).to_bytes(8, "little")
    digest = hashlib.blake2b(data, digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def test_known_answers():
    assert hash64("ACGT") == 2040575943099955307
    assert hash64(b"x", 2**70 + 3) == 15845680303652373797
    assert hash64("AC", -1) == 18208138170183317475


def test_str_hashes_as_its_utf8_bytes():
    for seed in (0, 7, -1, 2**64 + 7):
        assert hash64("GATTACA", seed) == hash64(b"GATTACA", seed)
    assert hash64("é") == hash64("é".encode("utf-8"))


def test_seeds_are_masked_to_64_bits():
    assert hash64(b"x", 2**70 + 3) == hash64(b"x", 3)
    assert hash64("AC", -1) == hash64("AC", MASK64)


def test_interleaved_calls_match_one_shot_keyed_hash():
    # The keyed state cached per seed is copied on every call: a call's
    # data never reaches a later call of the same or another seed.
    seeds = (0, 1, 2**63 + 5, -2, 99)
    datas = (b"", b"A", b"ACGT" * 20, "CAT", b"\x00\xff")
    for rnd in range(3):
        for i, data in enumerate(datas):
            for seed in seeds[i % 2:] + seeds[:i % 2]:
                raw = data.encode() if isinstance(data, str) else data
                assert hash64(data, seed + rnd) == one_shot(raw, seed + rnd)
