"""Bit-packed broadcast kernel: packing, statistics, and the one-step law."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecast import BudgetError, ChannelParams, SeedSpec
from treecast.broadcast import (
    GenerationSignals,
    flip_mask,
    majority_statistic,
    packed_width,
    popcount_rows,
    repeat_packed,
    sample_next_generation,
)
from treecast.rng import REPLICATE_BLOCK
from treecast.trees import RegularTreeSpec

from oracles import bits, from_signs, pinned_root, step_by_blocks, to_signs

SEED = SeedSpec(master_seed=20240901)


def test_packed_width():
    assert [packed_width(s) for s in (1, 8, 9, 16, 17)] == [1, 1, 2, 2, 3]


@given(
    signs=st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=40),
    n_rows=st.integers(min_value=1, max_value=4),
)
def test_pack_round_trip(signs, n_rows):
    arr = np.tile(np.array(signs, dtype=np.int8), (n_rows, 1))
    g = from_signs(arr, level=2)
    assert g.size == len(signs)
    assert g.n_replicates == n_rows
    np.testing.assert_array_equal(to_signs(g), arr)
    # Padding bits beyond `size` stay zero.
    assert not np.unpackbits(g.packed, axis=1)[:, g.size :].any()


def test_from_signs_rejects_non_signs():
    with pytest.raises(ValueError):
        from_signs(np.array([1, 0, -1]), level=0)


def test_packed_shape_validation():
    with pytest.raises(ValueError):
        GenerationSignals(
            level=0, size=9, n_replicates=2, packed=np.zeros((2, 1), dtype=np.uint8)
        )


def test_popcount_rows():
    packed = np.array([[0b10110000], [0b11111111], [0]], dtype=np.uint8)
    np.testing.assert_array_equal(popcount_rows(packed), [3, 8, 0])


def test_majority_statistic_counts_signs():
    g = from_signs(
        np.array([[1, 1, -1, -1, -1], [1, 1, 1, 1, 1]]), level=1
    )
    np.testing.assert_array_equal(majority_statistic(g), [-1, 5])


def test_majority_statistic_with_alive_mask():
    g = from_signs(np.array([[1, 1, -1, -1]]), level=1)
    alive = np.packbits(np.array([[1, 0, 1, 0]], dtype=np.uint8), axis=1)
    # Alive vertices are the first and third: signs +1 and -1, sum 0.
    np.testing.assert_array_equal(majority_statistic(g, alive), [0])
    with pytest.raises(ValueError):
        majority_statistic(g, alive[:, :0])


def test_repeat_packed_repeats_each_bit():
    packed = np.packbits(np.array([[1, 0, 1]], dtype=np.uint8), axis=1)
    out = repeat_packed(packed, size=3, r=3)
    bits = np.unpackbits(out, axis=1, count=9)
    np.testing.assert_array_equal(bits[0], [1, 1, 1, 0, 0, 0, 1, 1, 1])


@pytest.mark.parametrize(
    "layout",
    [np.asfortranarray, lambda a: np.asfortranarray(np.repeat(a, 2, axis=0))[::2]],
    ids=["fortran", "strided"],
)
def test_repeat_packed_accepts_any_layout(layout):
    rng = np.random.default_rng(5)
    packed = rng.integers(0, 256, size=(6, 5), dtype=np.uint8)
    packed[:, -1] &= 0xF0  # 36 bits: the last four are padding
    odd = layout(packed)
    assert not odd.flags.c_contiguous
    np.testing.assert_array_equal(
        repeat_packed(odd, size=36, r=3), repeat_packed(packed, size=36, r=3)
    )


def test_noiseless_step_copies_parent():
    parents = from_signs(np.array([[1, -1], [-1, -1]]), level=1)
    flips = flip_mask(ChannelParams(epsilon=0.0), SEED, 2, 6)
    kids = sample_next_generation(parents, 3, flips)
    assert kids.level == 2
    assert kids.size == 6
    np.testing.assert_array_equal(
        to_signs(kids), [[1, 1, 1, -1, -1, -1], [-1, -1, -1, -1, -1, -1]]
    )


@pytest.mark.parametrize("rows", [REPLICATE_BLOCK, 37])
def test_step_writes_children_into_its_flip_mask(monkeypatch, rows):
    # Children are each parent's sign repeated r times XOR the mask, written
    # into the mask a few rows at a time.
    from treecast import rng

    monkeypatch.setattr(rng, "SLICE_ELEMENTS", 5 * 11)
    parents = from_signs(
        np.random.default_rng(rows).choice([-1, 1], size=(rows, 27)), level=3
    )
    flips = flip_mask(ChannelParams(epsilon=0.2), SEED, 4, 81, block=5)
    expected = np.packbits(
        np.repeat(bits(parents), 3, axis=1)
        ^ np.unpackbits(flips[:rows], axis=1, count=81),
        axis=1,
    )
    kids = sample_next_generation(parents, 3, flips)
    assert (kids.level, kids.size, kids.n_replicates) == (4, 81, rows)
    np.testing.assert_array_equal(kids.packed, expected)
    assert np.shares_memory(kids.packed, flips)
    with pytest.raises(ValueError, match="flip mask shape"):
        sample_next_generation(parents, 2, flips)


def test_popcounts_are_row_slice_independent(monkeypatch):
    from treecast import rng

    bits = np.random.default_rng(3).integers(0, 256, size=(50, 40), dtype=np.uint8)
    mask = np.random.default_rng(4).integers(0, 256, size=(50, 40), dtype=np.uint8)
    whole = popcount_rows(bits), popcount_rows(bits, mask)
    monkeypatch.setattr(rng, "SLICE_ELEMENTS", 3 * 40)
    np.testing.assert_array_equal(popcount_rows(bits), whole[0])
    np.testing.assert_array_equal(popcount_rows(bits, mask), whole[1])
    np.testing.assert_array_equal(
        whole[1], np.unpackbits(bits & mask, axis=1).sum(axis=1)
    )


def test_step_is_deterministic():
    parents = pinned_root(500)
    a = step_by_blocks(parents, ChannelParams(epsilon=0.2), SEED, r=2)
    b = step_by_blocks(parents, ChannelParams(epsilon=0.2), SEED, r=2)
    np.testing.assert_array_equal(a.packed, b.packed)


def test_spin_flip_symmetry_is_exact():
    # Flip errors are drawn independently of the parent values, so running the
    # same streams from the opposite root complements every signal bit.
    ch = ChannelParams(epsilon=0.3)
    g_plus = pinned_root(300)
    g_minus = pinned_root(300, pin=-1)
    for _ in range(4):
        g_plus = step_by_blocks(g_plus, ch, SEED, r=2)
        g_minus = step_by_blocks(g_minus, ch, SEED, r=2)
    np.testing.assert_array_equal(to_signs(g_plus), -to_signs(g_minus))


def test_one_step_child_pair_law():
    # From a +1 root with eps=0.1, both children are +1 with probability 0.81.
    n = 10_000
    root = pinned_root(n)
    kids = step_by_blocks(root, ChannelParams(epsilon=0.1), SEED, r=2)
    freq = (majority_statistic(kids) == 2).mean()
    sigma = np.sqrt(0.81 * 0.19 / n)
    assert abs(freq - 0.81) < 4 * sigma


@settings(max_examples=20)
@given(eps=st.floats(min_value=0.01, max_value=0.49), r=st.integers(2, 4))
def test_flip_frequency_matches_channel(eps, r):
    root = pinned_root(2_000)
    kids = step_by_blocks(root, ChannelParams(epsilon=eps), SEED, r=r)
    flips = (to_signs(kids) == -1).mean()
    sigma = np.sqrt(eps * (1 - eps) / (2_000 * r))
    assert abs(flips - eps) < 5 * sigma


def test_vertex_budget_enforced():
    # The one vertex-budget check: a tree whose deepest level (3 vertices)
    # exceeds the budget is refused before any kernel runs.
    with pytest.raises(BudgetError):
        RegularTreeSpec(r=3, depth=1, vertex_budget=2)
