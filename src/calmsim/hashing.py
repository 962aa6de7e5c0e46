"""Stable seeded 64-bit hashing.

Python's builtin ``hash`` is randomized per process, so anything that must
be reproducible across runs (chunk tokens, sketch rows) goes through these
helpers instead.  Owner routing needs no seed and uses an unkeyed crc32
(``tables.hash_owners``).
"""

from __future__ import annotations

import hashlib
import struct

MASK64 = (1 << 64) - 1
_KEYED: dict = {}  # seed -> keyed blake2b, copied by every call
_UINT64 = struct.Struct("<Q").unpack


def hash64(data: bytes | str, seed: int = 0) -> int:
    """64-bit keyed hash of ``data``, stable across processes and runs."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    keyed = _KEYED.get(seed)
    if keyed is None:
        keyed = _KEYED[seed] = hashlib.blake2b(
            digest_size=8, key=(seed & MASK64).to_bytes(8, "little"))
    h = keyed.copy()
    h.update(data)
    return _UINT64(h.digest())[0]


def digest16(data: bytes) -> bytes:
    """Short content digest used to anchor chunk token identities."""
    return hashlib.blake2b(data, digest_size=16).digest()
