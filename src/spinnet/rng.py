"""Deterministic, stream-keyed random number generation.

Every random draw in the library comes from a stream identified by a
64-bit (seed, stream_id) pair.  Stream ids are derived from a role string
plus an integer index with a stable hash, so the sequence produced by
(seed, role, index) is the same no matter in which order streams are
created or how work is distributed over worker processes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _hash64(*parts: str) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def _stream_id(role: str, index: int) -> int:
    return _hash64(role, str(int(index)))


@dataclass(frozen=True)
class RngStream:
    """Value-like handle for one deterministic sample sequence."""

    seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of the stream."""
        ss = np.random.SeedSequence((self.seed & _MASK64, self.stream_id & _MASK64))
        return np.random.Generator(np.random.PCG64(ss))


def stream(seed: int, role: str, index: int = 0) -> RngStream:
    """Stream keyed by (seed, role, index)."""
    return RngStream(seed & _MASK64, _stream_id(role, index))


def subseed(seed: int, role: str, index: int = 0) -> int:
    """Derive a 64-bit child seed, e.g. one per grid cell of an experiment."""
    return _hash64(str(seed & _MASK64), role, str(int(index)))


def _check_rng(rng) -> None:
    """Raise TypeError unless rng is an RngStream or a numpy Generator."""
    if not isinstance(rng, (RngStream, np.random.Generator)):
        raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


def generator_for(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept an RngStream or an already-built Generator."""
    _check_rng(rng)
    return rng.generator() if isinstance(rng, RngStream) else rng


# ---------------------------------------------------------------------------
# PCG64 seed states of many streams at once
#
# RngStream.generator() builds PCG64(SeedSequence((seed, stream_id))).  The
# constants below are those of NumPy's SeedSequence (NEP 19, after O'Neill's
# seed_seq_fe: a 4-word pool, hashmix and mix) and of PCG64's 128-bit LCG.

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> list:
    """(xor, multiplier) words of count successive hashmix calls."""
    out, h = [], init
    for _ in range(count):
        nxt = h * mult & _MASK32
        out.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return out


# mix_entropy's 16 hashmix calls, generate_state's 8
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(v: np.ndarray, const: tuple) -> np.ndarray:
    x, m = const
    v = v ^ x
    v *= m
    v ^= v >> np.uint32(16)
    return v


def _entropy_words(x: int) -> list:
    """NumPy's coercion of a non-negative int to entropy words: 32-bit
    little-endian words, and 0 as the one word [0]."""
    words = []
    while True:
        words.append(x & _MASK32)
        x >>= 32
        if not x:
            return words


def _pcg64_states(seed: int, ids) -> list:
    """(state, inc) that PCG64(SeedSequence((seed, i))) holds, for each
    stream id i, as Python ints.

    The pool mixing and generate_state(4, uint64) of SeedSequence run for all
    ids at once in uint32 arithmetic.  The (seed, id) entropy has at most 4
    words, so it fills the pool with zero words after it, and an id below
    2^32 (one word) gives the same pool as its two words with a zero high
    word.  PCG64's srandom step then runs on Python ints.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    seed_words = _entropy_words(seed & _MASK64)
    s = len(seed_words)
    entropy = np.zeros((_POOL, ids.size), dtype=np.uint32)
    entropy[:s] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[s] = (ids & np.uint64(_MASK32)).astype(np.uint32)
    entropy[s + 1] = (ids >> np.uint64(32)).astype(np.uint32)
    consts = iter(_HASH_A)
    pool = [_hashmix(entropy[i], next(consts)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h = _hashmix(pool[src], next(consts))
                r = pool[dst] * np.uint32(_MIX_L)
                r -= h * np.uint32(_MIX_R)
                r ^= r >> np.uint32(16)
                pool[dst] = r
    words = [_hashmix(pool[i % _POOL], c).astype(np.uint64) for i, c in enumerate(_HASH_B)]
    # little-endian pairs of words -> seed high, seed low, inc high, inc low
    u64 = [(words[2 * j] | words[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*u64):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


class _StepStreams:
    """Generators at the start of stream(seed, role, k) for the steps k of
    one run, from one reused PCG64.

    cover(lo, hi) computes the seed states of steps lo..hi-1 in one pass;
    generator(k), for lo <= k < hi, resets the PCG64 to step k's state and
    returns its Generator, which then draws what
    stream(seed, role, k).generator() draws.  The first cover() compares
    its first state with that generator's and raises RuntimeError if they
    differ.
    """

    def __init__(self, seed: int, role: str):
        self.seed, self.role = seed & _MASK64, role
        self.lo = self.hi = 0
        self._table: list = []
        self._checked = False
        self._bg = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bg)
        self._pcg = {"state": 0, "inc": 0}
        self._state = {"bit_generator": "PCG64", "state": self._pcg, "has_uint32": 0, "uinteger": 0}

    def cover(self, lo: int, hi: int) -> None:
        self._table = _pcg64_states(self.seed, [_stream_id(self.role, k) for k in range(lo, hi)])
        self.lo, self.hi = lo, hi
        if not self._checked and self._table:
            want = stream(self.seed, self.role, lo).generator().bit_generator.state["state"]
            if (want["state"], want["inc"]) != self._table[0]:
                raise RuntimeError(
                    f"seed state of stream ({self.seed}, {self.role!r}, {lo}) differs from "
                    "numpy's SeedSequence + PCG64"
                )
            self._checked = True

    def generator(self, k: int) -> np.random.Generator:
        self._pcg["state"], self._pcg["inc"] = self._table[k - self.lo]
        self._bg.state = self._state
        return self._gen
