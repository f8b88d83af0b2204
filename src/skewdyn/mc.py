"""Block-keyed Monte Carlo draws.

Sampling is organised in fixed-size blocks keyed by (seed, tag, block index)
through a counter-based generator, so the stream consumed by block i
depends only on (seed, tag, i).  Blocks run in order in one thread and are
concatenated in block order; `draw_batches` hands them out a batch of whole
blocks at a time, so a sampler's working arrays stay one batch long.

The generator is Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel
random numbers: as easy as 1, 2, 3", SC'11), run here on uint64 arrays
(`Stream`).  Its draws equal those of
`numpy.random.Generator(numpy.random.Philox(key=[k0, k1]))` bit for bit:

- key: k0 = (seed mod 2^64) XOR the tag's key, k1 = the block index.  The
  tag's key is the 8-byte BLAKE2s digest of the UTF-8 tag, read as a
  little-endian integer (`_tag_key`).
- counter: four 64-bit words (v0, v1, v2, v3), all 0 at the start; v0 is
  incremented before each Philox block, so the first block encrypts
  (1, 0, 0, 0).  v0 does not wrap: that takes 2^64 blocks.
- rounds: ten, the r-th (from 0) with the key (k0 + r W0, k1 + r W1) mod
  2^64, W0 = 0x9E3779B97F4A7C15, W1 = 0xBB67AE8584CAA73B.  A round maps
  (v0, v1, v2, v3) to (hi(M1 v2) ^ v1 ^ k0, lo(M1 v2), hi(M0 v0) ^ v3 ^ k1,
  lo(M0 v0)), where hi and lo are the high and low words of the 128-bit
  product, M0 = 0xD2E7470EE14C6C93, M1 = 0xCA5A826395121157.
- output: each block gives its four words in the order v0, v1, v2, v3.
  Words a call leaves unused are the first words of the next call.
- doubles: a word u gives (u >> 11) * 2^-53, in [0, 1) with 53 random bits.
- `uniform(low, high, n)` is low + (high - low) * u per double u, two
  roundings.  As in numpy, a range high - low that is not finite raises
  OverflowError and a negative one ValueError.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np
from _blake2 import blake2s  # hashlib's own blake2s, without loading OpenSSL

from .errors import EmptySample

BLOCK_SIZE = 4096
BATCH_SIZE = 2 * BLOCK_SIZE  # starts a batched sampler or scan steps at once

_U64 = 1 << 64
_ROUNDS = 10
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# the multipliers of v0 and v2, one row per multiplied lane, and their
# 32-bit halves; every operand is uint64, so no promotion rule moves a bit
_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MUL_LO = _MUL & _MASK32
_MUL_HI = _MUL >> _SHIFT32
_SHIFT11 = np.uint64(11)


def _tag_key(tag: str) -> int:
    return int.from_bytes(blake2s(tag.encode("utf-8"), digest_size=8).digest(), "little")


def _philox(first: int, blocks: int, keys: np.ndarray) -> np.ndarray:
    """Philox4x64 of the counters (first + j, 0, 0, 0), j < blocks, under
    the round keys `keys` (rounds, 2): the words as one array, block by
    block in the order v0, v1, v2, v3."""
    # mul holds the multiplied words (v0, v2), one row each, so both lanes
    # go through one multiply-high; xor holds the others as (v3, v1), the
    # order the round's low words come in.  Numpy runs full-size operands
    # faster than a broadcast column, so the multipliers are spread out.
    mul = np.zeros((2, blocks), dtype=np.uint64)
    mul[0] = np.arange(first, first + blocks, dtype=np.uint64)
    xor = np.zeros_like(mul)
    lo, hi, t, a_lo, a_hi = (np.empty_like(mul) for _ in range(5))
    m, m_lo, m_hi = (np.repeat(c, blocks, axis=1) for c in (_MUL, _MUL_LO, _MUL_HI))
    for k0, k1 in keys:
        np.multiply(mul, m, out=lo)  # the low words wrap around
        # high words from 32-bit halves: t and w never pass 2^64 - 2^32
        np.bitwise_and(mul, _MASK32, out=a_lo)
        np.right_shift(mul, _SHIFT32, out=a_hi)
        np.multiply(a_lo, m_lo, out=t)
        np.right_shift(t, _SHIFT32, out=t)
        np.multiply(a_hi, m_lo, out=hi)
        t += hi  # t = a_hi b_lo + (a_lo b_lo >> 32)
        np.multiply(a_lo, m_hi, out=a_lo)
        np.bitwise_and(t, _MASK32, out=hi)
        a_lo += hi  # w = a_lo b_hi + (t & mask)
        np.right_shift(t, _SHIFT32, out=t)
        np.multiply(a_hi, m_hi, out=hi)
        hi += t
        np.right_shift(a_lo, _SHIFT32, out=a_lo)
        hi += a_lo  # hi = a_hi b_hi + (t >> 32) + (w >> 32)
        # v0 <- hi(M1 v2) ^ v1 ^ k0, v2 <- hi(M0 v0) ^ v3 ^ k1, v1 <- lo1, v3 <- lo0
        hi ^= xor
        np.bitwise_xor(hi[1], k0, out=mul[0])
        np.bitwise_xor(hi[0], k1, out=mul[1])
        xor, lo = lo, xor
    out = np.empty((blocks, 4), dtype=np.uint64)
    out[:, 0::2] = mul.T
    out[:, 1::2] = xor[::-1].T
    return out.reshape(-1)


class Stream:
    """The Philox4x64-10 stream of one key (k0, k1): `random` and `uniform`
    draw what numpy's `Generator(Philox(key=[k0, k1]))` draws, in the same
    call sequence (see the module docstring)."""

    __slots__ = ("_keys", "_counter", "_spare")

    def __init__(self, k0: int, k1: int):
        self._keys = np.array(
            [[(k0 + r * _WEYL[0]) % _U64, (k1 + r * _WEYL[1]) % _U64]
             for r in range(_ROUNDS)], dtype=np.uint64)
        self._counter = 0  # the last v0 encrypted
        self._spare = np.empty(0, dtype=np.uint64)  # its words not yet drawn

    def _words(self, n: int) -> np.ndarray:
        """The next n 64-bit words of the stream."""
        spare = self._spare
        if n <= len(spare):
            self._spare = spare[n:]
            return spare[:n]
        blocks = -(-(n - len(spare)) // 4)
        words = _philox(self._counter + 1, blocks, self._keys)
        self._counter += blocks
        self._spare = words[n - len(spare):].copy()
        if len(spare):
            words = np.concatenate([spare, words])
        return words[:n]

    def random(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        u = (self._words(n) >> _SHIFT11).astype(np.float64)
        u *= 2.0**-53
        return u

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """n doubles uniform on [low, high)."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        u = self.random(n)
        u *= span
        u += low
        return u


def block_generator(seed: int, tag: str, block_index: int) -> Stream:
    """Stream for one block, independent of every other block."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return Stream((seed % _U64) ^ _tag_key(tag), block_index)


def block_counts(total: int, block_size: int = BLOCK_SIZE) -> list[int]:
    if total < 0:
        raise EmptySample(f"sample count must be nonnegative, got {total}")
    full, rem = divmod(total, block_size)
    counts = [block_size] * full
    if rem:
        counts.append(rem)
    return counts


def draw_blocks(
    seed: int,
    tag: str,
    total: int,
    draw: Callable[[Stream, int], np.ndarray],
    threads: int = 1,
    first_block: int = 0,
) -> np.ndarray:
    """Run `draw(gen, count)` over fixed blocks; concatenate in block order.

    The draws fill blocks first_block, first_block + 1, ..., so a batch of
    whole blocks drawn on its own equals its slice of one full draw.
    `threads` is ignored: everything runs in one thread.  The keyword stays
    only because perfbench's `threads_speedup` probe passes it.
    """
    counts = block_counts(total)
    if not counts:
        raise EmptySample(f"sample count must be positive, got {total}")
    return np.concatenate(
        [np.asarray(draw(block_generator(seed, tag, first_block + idx), count))
         for idx, count in enumerate(counts)], axis=0)


def draw_batches(
    seed: int,
    tag: str,
    total: int,
    draw: Callable[[Stream, int], np.ndarray],
    size: int = BATCH_SIZE,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first, pts) over batches of `size` starts, a multiple of
    BLOCK_SIZE: pts is the slice first:first + len(pts) of
    draw_blocks(seed, tag, total, draw), drawn a batch at a time."""
    if size <= 0 or size % BLOCK_SIZE:
        raise ValueError(f"batch size must be a positive multiple of {BLOCK_SIZE}, got {size}")
    for first in range(0, total, size):
        yield first, draw_blocks(seed, tag, min(size, total - first), draw,
                                 first_block=first // BLOCK_SIZE)


def map_blocks(items: Sequence, work: Callable, threads: int = 1) -> list:
    """Apply `work` to each item, preserving input order in the result.

    `threads` is ignored; this function and its keyword stay only because
    perfbench's `threads_speedup` probe calls them.
    """
    return [work(it) for it in items]


def uniform_disk(gen: Stream, count: int, radius: float) -> np.ndarray:
    """Uniform (area) samples from the open disk of given radius."""
    u = gen.random(2 * count)  # the radial draws, then the angular ones
    r = radius * np.sqrt(u[:count])
    theta = 2.0 * np.pi * u[count:]
    return r * np.exp(1j * theta)


def uniform_annulus(
    gen: Stream, count: int, r_inner: float, r_outer: float
) -> np.ndarray:
    """Uniform (area) samples from the annulus r_inner <= |z| < r_outer."""
    if not 0 <= r_inner < r_outer:
        raise ValueError("need 0 <= r_inner < r_outer")
    u = gen.random(2 * count)  # the radial draws, then the angular ones
    r = np.sqrt(r_inner**2 + u[:count] * (r_outer**2 - r_inner**2))
    theta = 2.0 * np.pi * u[count:]
    return r * np.exp(1j * theta)
