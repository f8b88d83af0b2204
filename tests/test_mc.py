"""Block-keyed draws: typed errors on empty counts, the `threads`
keyword that perfbench's threads_speedup probe still passes, batches
drawn from a first block, and the batch driver over whole blocks."""

import numpy as np
import pytest
from conftest import assert_bitwise

from skewdyn import mc
from skewdyn.errors import EmptySample


def draw(gen, count):
    return np.column_stack([mc.uniform_disk(gen, count, 1.5), gen.random(count)])


def test_empty_counts_raise_empty_sample():
    with pytest.raises(EmptySample):
        mc.block_counts(-1)
    with pytest.raises(EmptySample):
        mc.draw_blocks(3, "probe", 0, draw)


@pytest.mark.parametrize("threads", [1, 4])
def test_draw_blocks_is_single_thread_result(threads):
    total = 2 * mc.BLOCK_SIZE + 17  # a partial last block
    expected = np.concatenate([
        draw(mc.block_generator(3, "probe", i), count)
        for i, count in enumerate(mc.block_counts(total))])
    assert_bitwise(mc.draw_blocks(3, "probe", total, draw), expected)
    assert_bitwise(mc.draw_blocks(3, "probe", total, draw, threads=threads),
                   expected)


def test_map_blocks_is_single_thread_result():
    items = [np.linspace(0.0, x, 7) for x in (0.5, -1.0, 3.0, 0.0, 40.0)]

    def work(a):
        return np.exp(1j * a) * a**2

    assert_bitwise(mc.map_blocks(items, work, threads=4),
                   [work(a) for a in items])


def test_batches_of_whole_blocks_equal_one_draw():
    total = 5 * mc.BLOCK_SIZE + 17
    whole = mc.draw_blocks(3, "probe", total, draw)
    step = 2 * mc.BLOCK_SIZE
    batches = [mc.draw_blocks(3, "probe", min(step, total - first), draw,
                              first_block=first // mc.BLOCK_SIZE)
               for first in range(0, total, step)]
    assert_bitwise(np.concatenate(batches), whole)


@pytest.mark.parametrize("total", [1, mc.BATCH_SIZE - 1, mc.BATCH_SIZE,
                                   mc.BATCH_SIZE + 1, 2 * mc.BATCH_SIZE + 37])
@pytest.mark.parametrize("size", [mc.BLOCK_SIZE, mc.BATCH_SIZE])
def test_draw_batches_slice_one_draw(total, size):
    whole = mc.draw_blocks(3, "probe", total, draw)
    batches = list(mc.draw_batches(3, "probe", total, draw, size))
    assert [first for first, _ in batches] == list(range(0, total, size))
    for first, pts in batches:
        assert_bitwise(pts, whole[first:first + size])


def test_batch_sizes_are_whole_blocks():
    from skewdyn.measure import _SLOW_BATCH

    for size in (mc.BATCH_SIZE, _SLOW_BATCH):
        assert size > 0 and size % mc.BLOCK_SIZE == 0
    for size in (0, -mc.BLOCK_SIZE, mc.BLOCK_SIZE + 1):
        with pytest.raises(ValueError):
            next(mc.draw_batches(3, "probe", 10, draw, size))
