"""Determinism and addressing of the replicate random streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from treecast import SeedSpec
from treecast import rng
from treecast.rng import REPLICATE_BLOCK, bernoulli_bits, replicate_blocks

from oracles import seed_sequence_generator

SEED = SeedSpec(master_seed=424242)


def test_master_seed_domain():
    with pytest.raises(ValueError):
        SeedSpec(master_seed=-1)
    with pytest.raises(ValueError):
        SeedSpec(master_seed=2**64)
    SeedSpec(master_seed=2**64 - 1)


# Every purpose tag the package has used, including ones no sampler uses now.
PURPOSES = (
    "root", "flips", "tie", "pick", "fk-sizes", "fk-edges", "fk-edges-batch",
    "fk-root", "cluster-signs", "cluster-signs-batch",
)


@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_keys_match_seed_sequence_oracle(master_seed):
    # Levels and blocks at and above 2**32 take two 32-bit words each.
    spec = SeedSpec(master_seed)
    for purpose in PURPOSES:
        for level in (0, 1, 10, 2**32):
            for block in (0, 1, 255, 2**32 - 1, 2**32, 2**40):
                ours = spec.generator(purpose, level=level, block=block)
                oracle = seed_sequence_generator(master_seed, purpose, level, block)
                address = (master_seed, purpose, level, block)
                np.testing.assert_equal(
                    ours.bit_generator.state, oracle.bit_generator.state, err_msg=str(address)
                )
                np.testing.assert_array_equal(
                    ours.random(64, dtype=np.float32),
                    oracle.random(64, dtype=np.float32),
                    err_msg=str(address),
                )


def test_same_address_same_stream():
    a = SEED.generator("flips", level=3, block=7).integers(0, 2**32, size=32)
    b = SEED.generator("flips", level=3, block=7).integers(0, 2**32, size=32)
    np.testing.assert_array_equal(a, b)


def test_distinct_addresses_give_distinct_streams():
    base = SEED.generator("flips", level=3, block=7).integers(0, 2**32, size=32)
    for purpose, level, block in (
        ("flips", 3, 8),
        ("flips", 4, 7),
        ("tie", 3, 7),
        ("root", 3, 7),
    ):
        other = SEED.generator(purpose, level=level, block=block).integers(
            0, 2**32, size=32
        )
        assert not np.array_equal(base, other)


def test_distinct_master_seeds_give_distinct_streams():
    a = SeedSpec(1).generator("flips").integers(0, 2**32, size=32)
    b = SeedSpec(2).generator("flips").integers(0, 2**32, size=32)
    assert not np.array_equal(a, b)


def test_negative_stream_coordinates_rejected():
    with pytest.raises(ValueError):
        SEED.generator("flips", level=-1)
    with pytest.raises(ValueError):
        SEED.generator("flips", block=-1)


@given(n=st.integers(min_value=1, max_value=1000))
def test_replicate_blocks_cover_replicates_once(n):
    rows_seen = []
    for block, rows_slice, rows in replicate_blocks(n):
        assert rows == min(REPLICATE_BLOCK, n - block * REPLICATE_BLOCK)
        assert rows_slice == slice(block * REPLICATE_BLOCK, block * REPLICATE_BLOCK + rows)
        rows_seen.append(rows)
    assert sum(rows_seen) == n
    assert all(rows == REPLICATE_BLOCK for rows in rows_seen[:-1])


def test_bernoulli_bits_shape_and_padding():
    gen = SEED.generator("flips")
    packed = bernoulli_bits(gen, 0.5, rows=5, cols=13)
    assert packed.shape == (5, 2)
    assert packed.dtype == np.uint8
    bits = np.unpackbits(packed, axis=1)
    assert not bits[:, 13:].any()  # padding bits are zero


def test_bernoulli_bits_edge_probabilities():
    ones = bernoulli_bits(SEED.generator("flips"), 1.0, rows=3, cols=16)
    zeros = bernoulli_bits(SEED.generator("flips"), 0.0, rows=3, cols=16)
    assert (np.unpackbits(ones, axis=1) == 1).all()
    assert not zeros.any()
    with pytest.raises(ValueError):
        bernoulli_bits(SEED.generator("flips"), 1.5, rows=1, cols=1)


def test_bernoulli_bits_frequency():
    packed = bernoulli_bits(SEED.generator("flips"), 0.3, rows=200, cols=400)
    bits = np.unpackbits(packed, axis=1, count=400)
    n = bits.size
    sigma = np.sqrt(0.3 * 0.7 / n)
    assert abs(bits.mean() - 0.3) < 4 * sigma


def test_replicate_prefix_is_count_independent():
    # Drawing blockwise means the first rows of a wide run match a narrow run.
    def draw(n):
        out = np.empty((n, 4), dtype=np.uint8)
        for block, rows_slice, rows in replicate_blocks(n):
            gen = SEED.generator("flips", level=1, block=block)
            out[rows_slice] = bernoulli_bits(gen, 0.4, REPLICATE_BLOCK, 32)[:rows]
        return out

    narrow = draw(300)
    wide = draw(900)
    np.testing.assert_array_equal(wide[:300], narrow)


@pytest.mark.parametrize("cols", [1000, 1001])
@pytest.mark.parametrize("slice_rows", [1, 3, 64])
def test_row_sliced_draws_keep_stream_order(monkeypatch, cols, slice_rows):
    # One whole draw of the chunk, compared with the same stream drawn in
    # row slices: the uniforms come out in the same row-major order.
    gen = SEED.generator("flips", level=2, block=5)
    whole = gen.random((37, cols), dtype=np.float32) < np.float32(0.3)
    monkeypatch.setattr(rng, "SLICE_ELEMENTS", slice_rows * cols)
    sliced = bernoulli_bits(SEED.generator("flips", level=2, block=5), 0.3, 37, cols)
    np.testing.assert_array_equal(sliced, np.packbits(whole, axis=1))
