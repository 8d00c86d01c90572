"""Mergeable sketches (distinct-count) for manifest-scale statistics.

HyperLogLog (Flajolet et al. 2007, public method): per-batch sketches
(one ``2^p``-byte register array each) merged by elementwise max -- the
canonical "emit one sketch per batch, merge in a tiny final stage"
pattern for distinct counts over 10^12 rows where an exact
``unique()`` shuffle is unaffordable (SURVEY 2.5 A5 scale path).

Deterministic hashing (blake2b) -> identical estimates across runs.
"""

from __future__ import annotations

import hashlib

import numpy as np


class HyperLogLog:
    """Fixed-seed HLL with 2^p registers (p=12 -> +-1.6% typical)."""

    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray):
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64(1)  # sentinel avoids log(0)
        # rank = leading zeros of the remaining bits + 1, via bit_length
        lz = np.zeros(len(h), dtype=np.uint8)
        v = rest.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            mask = v < (np.uint64(1) << np.uint64(64 - shift))
            lz[mask] += shift
            v[mask] <<= np.uint64(shift)
        rank = lz + 1
        np.maximum.at(self.registers, idx, rank)

    def add_strings(self, values):
        """NULLs are skipped (COUNT DISTINCT semantics: an all-null
        column estimates 0, and nulls never collide with 'None')."""
        vals = [v for v in values if v is not None and v == v]
        if not vals:
            return
        h = np.fromiter(
            (
                int.from_bytes(hashlib.blake2b(str(v).encode("utf-8"), digest_size=8).digest(), "little")
                for v in vals
            ),
            dtype=np.uint64,
            count=len(vals),
        )
        self.add_hashes(h)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        out = HyperLogLog(self.p)
        out.registers = np.maximum(self.registers, other.registers)
        return out

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(np.power(2.0, -self.registers.astype(np.float64)))
        zeros = int((self.registers == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # linear counting for small cardinalities
        return float(est)

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes, p: int = 12) -> "HyperLogLog":
        h = cls(p)
        h.registers = np.frombuffer(b, dtype=np.uint8).copy()
        return h
