"""Block-keyed draws: the Philox stream against numpy's, the tag keys,
typed errors on empty counts, the `threads` keyword that perfbench's
threads_speedup probe still passes, batches drawn from a first block, and
the batch iterator over whole blocks."""

import hashlib
import re
from pathlib import Path

import _blake2
import numpy as np
import pytest
from conftest import assert_bitwise
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdyn import mc
from skewdyn.errors import EmptySample

SRC = Path(__file__).resolve().parent.parent / "src" / "skewdyn"
TAGS = ["slow", "eset", "exclusion", "binding_pairs", "bounds_onedim",
        "bounds_real_traces", "trace_starts", "bounds_departure", "cocycle"]


def numpy_philox(k0: int, k1: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([k0, k1], dtype=np.uint64)))


CALLS = st.lists(st.one_of(
    st.tuples(st.just("random"), st.integers(0, 9000)),
    st.tuples(st.just("uniform"), st.integers(0, 9000),
              st.floats(-1e6, 1e6), st.floats(0.0, 1e6))), min_size=1, max_size=6)


@settings(max_examples=60)
@given(k0=st.integers(0, 2**63 - 1).map(lambda k: k | 1 << 63),
       k1=st.integers(0, 2**64 - 1), calls=CALLS)
def test_stream_is_numpys_philox(k0, k1, calls):
    # keys with the high bit set, call lengths that leave 0-3 words over
    ours, theirs = mc.Stream(k0, k1), numpy_philox(k0, k1)
    for i, call in enumerate(calls):
        if call[0] == "random":
            got, want = ours.random(call[1]), theirs.random(call[1])
        else:
            _, n, low, width = call
            got, want = ours.uniform(low, low + width, n), theirs.uniform(low, low + width, n)
        assert_bitwise(got, want, f"call {i} {call}")


def test_stream_across_block_and_word_boundaries():
    # one word at a time, then lengths 1..9 from a fresh stream: every
    # offset of a call within a four-word block
    ours, theirs = mc.Stream(2**64 - 1, 2**64 - 1), numpy_philox(2**64 - 1, 2**64 - 1)
    for n in [1] * 9 + list(range(10)):
        assert_bitwise(ours.random(n), theirs.random(n))


def test_block_generator_is_keyed_by_seed_tag_and_block():
    key = (7 ^ mc._tag_key("slow"), 3)
    assert_bitwise(mc.block_generator(7, "slow", 3).random(10),
                   numpy_philox(*key).random(10))
    assert_bitwise(mc.block_generator(2**64 + 7, "slow", 3).random(10),
                   numpy_philox(*key).random(10))
    with pytest.raises(ValueError):
        mc.block_generator(-1, "slow", 0)


@pytest.mark.parametrize("low, high, error", [
    (-1.5e308, 1.5e308, OverflowError), (0.0, float("inf"), OverflowError),
    (float("nan"), 1.0, OverflowError), (1.0, 0.5, ValueError)])
def test_uniform_range_errors_are_numpys(low, high, error):
    with pytest.raises(error):
        numpy_philox(1, 2).uniform(low, high, 3)
    with pytest.raises(error):
        mc.Stream(1, 2).uniform(low, high, 3)


@pytest.mark.parametrize("tag", TAGS)
def test_tag_key_is_blake2s(tag):
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    assert mc._tag_key(tag) == int.from_bytes(digest, "little")


def test_every_tag_in_the_package_is_pinned():
    text = "".join(p.read_text() for p in SRC.glob("*.py"))
    found = set(re.findall(r'(?:draw_blocks|draw_batches)\([^,]+, "(\w+)"', text))
    found |= set(re.findall(r'tag = "(\w+)" if real else "(\w+)"', text)[0])
    assert found == set(TAGS)


def test_blake2s_is_hashlibs():
    # hashlib serves blake2 from _blake2, never from OpenSSL
    assert _blake2.blake2s is hashlib.blake2s


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
    assert mc.BATCH_SIZE > 0 and mc.BATCH_SIZE % mc.BLOCK_SIZE == 0
    for size in (0, -mc.BLOCK_SIZE, mc.BLOCK_SIZE + 1):
        with pytest.raises(ValueError):
            next(mc.draw_batches(3, "probe", 10, draw, size))
