"""Determinism and addressing of the replicate random streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from treecast import SeedSpec
from treecast import rng
from treecast.rng import REPLICATE_BLOCK, bernoulli_bits

from oracles import float32_bernoulli_bits, replicate_blocks, seed_sequence_generator

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


def seed_sequence_key(master_seed, purpose, level, block):
    return np.random.SeedSequence(
        entropy=master_seed, spawn_key=(rng._purpose_code(purpose), level, block)
    ).generate_state(2, np.uint64)


@pytest.mark.parametrize("master_seed", [0, 2**32, 2**64 - 1])
def test_batched_keys_match_seed_sequence_oracle(master_seed):
    # One array of one- and two-word blocks, out of order, and an empty one.
    blocks = np.array([2**32, 0, 2**40, 255, 2**32 - 1, 7], dtype=np.uint64)
    for purpose in PURPOSES:
        for level in (0, 3, 2**32):
            keys = rng._philox_keys(master_seed, purpose, level, blocks)
            assert keys.shape == (blocks.size, 2) and keys.dtype == np.uint64
            for key, block in zip(keys, blocks.tolist()):
                oracle = seed_sequence_key(master_seed, purpose, level, block)
                np.testing.assert_array_equal(key, oracle, err_msg=str(block))
            empty = rng._philox_keys(master_seed, purpose, level, blocks[:0])
            assert empty.shape == (0, 2) and empty.dtype == np.uint64


def test_keys_match_seed_sequence_oracle_at_word_boundaries(monkeypatch):
    # Purpose codes and levels of one, two and three 32-bit words, which no
    # real purpose reaches, with one- and two-word blocks up to 2**64 - 1.
    codes = {"code-0": 0, "code-1": 1, "code-max32": 2**32 - 1, "code-2**32": 2**32}
    real_code = rng._purpose_code
    monkeypatch.setattr(rng, "_purpose_code", lambda p: codes.get(p, real_code(p)))
    blocks = np.array([0, 2**32, 1, 2**64 - 1, 2**32 - 1, 2**48 + 5], dtype=np.uint64)
    rng._prefix.cache_clear()
    try:
        for master_seed in (0, 2**64 - 1):
            for purpose in (*codes, "flips"):
                for level in (0, 2**32 - 1, 2**32, 2**64, 2**64 + 3):
                    keys = rng._philox_keys(master_seed, purpose, level, blocks)
                    for key, block in zip(keys, blocks.tolist()):
                        oracle = seed_sequence_key(master_seed, purpose, level, block)
                        address = (master_seed, purpose, level, block)
                        np.testing.assert_array_equal(key, oracle, err_msg=str(address))
    finally:
        rng._prefix.cache_clear()


@pytest.mark.parametrize("first", [0, 250, 2**32 - 2])
def test_one_stream_draws_what_its_batch_draws(first):
    batch = list(SEED.generators("fk-sizes", 6, range(first, first + 5)))
    for b, gen in enumerate(batch, start=first):
        alone = SEED.generator("fk-sizes", level=6, block=b)
        np.testing.assert_array_equal(alone.bit_generator.random_raw(16),
                                      gen.bit_generator.random_raw(16))
    assert list(SEED.generators("fk-sizes", 6, range(first, first))) == []


def test_batched_stream_addresses_are_checked():
    for blocks in (range(-1, 2), range(0, 4, 2), range(2**64 - 1, 2**64 + 1)):
        with pytest.raises(ValueError):
            SEED.generators("flips", 0, blocks)
    with pytest.raises(ValueError):
        SEED.generators("flips", -1, range(2))
    with pytest.raises(ValueError):
        SEED.generator("flips", block=2**64)
    SEED.generator("flips", block=2**64 - 1)


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


# 0, a tiny p, three ordinary ones, the largest double below 1 (float32 rounds
# it to 1.0) and 1.
ORACLE_PROBS = [0.0, 1e-10, 0.1, 0.3, 0.5, float(np.nextafter(1.0, 0.0)), 1.0]
# An odd element count (5 x 13, 37 x 6561, 3 x 13 in the last chunk), a
# sweep-sized block and a draw of two DRAW_CHUNK_COLS chunks.
ORACLE_SHAPES = [(5, 13), (37, 6561), (REPLICATE_BLOCK, 3**9), (3, 2**17 + 13)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: "{}x{}".format(*s))
@pytest.mark.parametrize("prob", ORACLE_PROBS)
def test_bernoulli_bits_match_float32_oracle(prob, shape):
    assert float(np.float32(ORACLE_PROBS[-2])) == 1.0
    ours = SEED.generator("flips", level=4, block=9)
    oracle = SEED.generator("flips", level=4, block=9)
    np.testing.assert_array_equal(
        bernoulli_bits(ours, prob, *shape), float32_bernoulli_bits(oracle, prob, *shape)
    )
    # The stream goes on where the float32 draw leaves it.
    np.testing.assert_array_equal(
        ours.random(4, dtype=np.float32), oracle.random(4, dtype=np.float32)
    )


def test_bernoulli_bits_refuse_a_buffered_half_word():
    gen = SEED.generator("flips")
    gen.random(dtype=np.float32)  # one 32-bit draw buffers the word's high half
    with pytest.raises(ValueError, match="buffered"):
        bernoulli_bits(gen, 0.3, rows=2, cols=8)
    # A second 32-bit draw uses it up, and the stream lines up again.
    gen.random(dtype=np.float32)
    oracle = SEED.generator("flips")
    oracle.random(2, dtype=np.float32)
    np.testing.assert_array_equal(
        bernoulli_bits(gen, 0.3, rows=2, cols=8),
        float32_bernoulli_bits(oracle, 0.3, rows=2, cols=8),
    )


def test_bernoulli_bits_refuse_other_bit_generators():
    with pytest.raises(ValueError, match="Philox"):
        bernoulli_bits(np.random.default_rng(0), 0.3, rows=2, cols=8)


def test_bernoulli_bits_at_the_threshold():
    # A uniform equal to float32(p) gives 0 and one just below it gives 1.
    # p is set from a half-word the stream really draws, so the integer
    # threshold's rounding is checked where it matters.
    words = SEED.generator("flips").bit_generator.random_raw(8)
    tops = words.astype("<u8").view("<u4") >> 8
    i = int(np.flatnonzero(tops < 2**23)[0])  # (m + 0.5) * 2**-24 is a float32
    m = int(tops[i])
    for prob, bit in ((m * 2.0**-24, 0), ((m + 0.5) * 2.0**-24, 1)):
        assert float(np.float32(prob)) == prob
        bits = np.unpackbits(bernoulli_bits(SEED.generator("flips"), prob, 1, 16))
        assert bits[i] == bit
        np.testing.assert_array_equal(
            bits, np.unpackbits(float32_bernoulli_bits(SEED.generator("flips"), prob, 1, 16))
        )
