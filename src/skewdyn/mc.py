"""Block-keyed Monte Carlo draws.

Sampling is organised in fixed-size blocks keyed by (seed, tag, block index)
through a counter-based generator, so the stream consumed by block i
depends only on (seed, tag, i).  Blocks run in order in one thread and are
concatenated in block order; `draw_batches` hands them out a batch of whole
blocks at a time, so a sampler's working arrays stay one batch long.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import EmptySample

BLOCK_SIZE = 4096
BATCH_SIZE = 2 * BLOCK_SIZE  # starts a batched sampler or scan steps at once


def _tag_key(tag: str) -> np.uint64:
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return np.uint64(int.from_bytes(digest, "little"))


def block_generator(seed: int, tag: str, block_index: int) -> np.random.Generator:
    """Generator for one block, independent of every other block."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _tag_key(tag), np.uint64(block_index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


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
    draw: Callable[[np.random.Generator, int], np.ndarray],
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
    draw: Callable[[np.random.Generator, int], np.ndarray],
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


def uniform_disk(gen: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Uniform (area) samples from the open disk of given radius."""
    r = radius * np.sqrt(gen.random(count))
    theta = 2.0 * np.pi * gen.random(count)
    return r * np.exp(1j * theta)


def uniform_annulus(
    gen: np.random.Generator, count: int, r_inner: float, r_outer: float
) -> np.ndarray:
    """Uniform (area) samples from the annulus r_inner <= |z| < r_outer."""
    if not 0 <= r_inner < r_outer:
        raise ValueError("need 0 <= r_inner < r_outer")
    u = gen.random(count)
    r = np.sqrt(r_inner**2 + u * (r_outer**2 - r_inner**2))
    theta = 2.0 * np.pi * gen.random(count)
    return r * np.exp(1j * theta)
