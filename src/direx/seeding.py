"""Deterministic seeding: labeled bit streams derived from a 256-bit master seed.

Protocol seed randomness (the bits whose uniformity the security statements
condition on) and simulation randomness (Born-rule sampling inside simulated
devices) are kept as distinct labeled streams.  Every stream is derived as
SHA-256(master || label || counter), so identical configurations replay
bit-for-bit on any platform.
"""

from __future__ import annotations

import hashlib

import numpy as np


def parse_master_seed(hex_seed: str) -> bytes:
    """Parse a hex master seed into exactly 32 bytes (left-padded)."""
    s = hex_seed.lower().removeprefix("0x")
    raw = bytes.fromhex(s if len(s) % 2 == 0 else "0" + s)
    if len(raw) > 32:
        raise ValueError("master seed longer than 256 bits")
    return raw.rjust(32, b"\x00")


class BitStream:
    """An endless deterministic stream of uniform bits.

    Parameters
    ----------
    master : bytes
        32-byte master seed.
    label : str
        Stream label; distinct labels give independent streams.
    queued : sequence of 0/1
        Bits served, in order, before the label's own bits (a cross-feed
        stage's seed is the previous stage's output).  They count towards
        ``consumed`` like any other bit.

    The cursor rule, which ``take``, ``take_bits`` and both decoders of
    ``protocols`` (uniform and two-slice) keep: the unread bits are the low
    ``_buffered`` bits of ``_buffer``, and a draw of k bits lowers
    ``_buffered`` by k, its one store.  ``_refill(k)`` appends hash blocks
    until at least k bits are unread, adds them to ``_supplied`` (the bits
    supplied: the queued ones and 256 per hash block), and moves no bit
    past the cursor.  So ``consumed``, the bits drawn, is ``_supplied``
    less ``_buffered``.
    """

    def __init__(self, master: bytes, label: str, queued=()):
        self._prefix = master + label.encode("utf-8")
        self._counter = 0
        # the bits above the unread ones are already drawn and are masked
        # off on refill
        queued = np.asarray(queued, dtype=np.uint8)
        self._buffered = self._supplied = queued.size
        self._buffer = (int.from_bytes(np.packbits(queued).tobytes(), "big")
                        >> (-queued.size % 8))

    @property
    def consumed(self) -> int:
        """Bits drawn from this stream so far."""
        return self._supplied - self._buffered

    def _refill(self, k: int):
        """Append the hash blocks a k-bit read still needs, in one shift."""
        blocks = -(-(k - self._buffered) // 256)
        prefix, at = self._prefix, self._counter
        fresh = b"".join([hashlib.sha256(prefix + c.to_bytes(8, "big")).digest()
                          for c in range(at, at + blocks)])
        self._counter = at + blocks
        self._buffer = (((self._buffer & ((1 << self._buffered) - 1))
                         << (256 * blocks)) | int.from_bytes(fresh, "big"))
        self._buffered += 256 * blocks
        self._supplied += 256 * blocks

    def take(self, k: int) -> int:
        """Draw k bits and return them as an integer (big-endian)."""
        if k < 0:
            raise ValueError("cannot draw a negative number of bits")
        if self._buffered < k:
            self._refill(k)
        self._buffered -= k
        return (self._buffer >> self._buffered) & ((1 << k) - 1)

    def take_bits(self, k: int) -> np.ndarray:
        """Draw k bits and return them as a uint8 array of 0/1 in draw order."""
        raw = self.take(k).to_bytes(-(-k // 8), "big")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        return bits[bits.size - k:]


def substream(master: bytes, label: str, index: int | None = None,
              queued=()) -> BitStream:
    """Derive a labeled (and optionally indexed) bit stream."""
    full = label if index is None else f"{label}/{index}"
    return BitStream(master, full, queued=queued)


def numpy_rng(master: bytes, label: str, index: int | None = None) -> np.random.Generator:
    """A numpy Generator seeded deterministically from (master, label, index).

    Used for simulation-side randomness (device Born sampling, noise
    injection); never for protocol seed bits.
    """
    full = label if index is None else f"{label}/{index}"
    digest = hashlib.sha256(master + b"rng:" + full.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "big")))
