"""Block-keyed draws: typed errors on empty counts, the `threads`
keyword that perfbench's threads_speedup probe still passes, and batches
drawn from a first block."""

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
