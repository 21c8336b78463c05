"""Deterministic, splittable random streams for parallel replicates.

Every random draw in the package comes from a stream addressed by
``(master_seed, purpose, level, block)``:

* ``purpose`` is a short string naming what the bytes are for
  ("flips", "tie", "pick", "fk-edges", ...);
* ``level`` is the tree level the draw belongs to;
* ``block`` indexes a fixed-size batch of replicates (or a single heavy
  sample).

Streams are derived by value — a counter-based Philox generator whose key is
a pure function of the address — never by splitting a shared sequential
generator, so the bytes a replicate sees depend only on its address and not
on scheduling, worker count, or how many other replicates run.  The key is
exactly the one numpy's ``SeedSequence(entropy=master_seed,
spawn_key=(purpose_code, level, block)).generate_state(2, np.uint64)`` gives
(O'Neill's ``seed_seq`` mixing).  The mixer pool before the block is
numpy's own, ``SeedSequence(master_seed, spawn_key=(purpose_code,
level)).pool``, cached per ``(master_seed, purpose, level)``; only the
block's words and the output hash are mixed by hand.  :func:`_philox_keys`
is the one derivation: it mixes a whole array of blocks into that cached
pool in one pass of array arithmetic, and
:meth:`SeedSpec.generators` builds a fresh Philox generator from each key,
so a run of streams costs one derivation, and :meth:`SeedSpec.generator` is
its one-block case.  A key is a pure function of its address, so deriving
it alone or in any batch gives the same bits (Salmon et al., SC'11, on
counter-based keyed generators).  ``tests/`` checks the keys against
numpy's own ``SeedSequence``.

Replicate blocks have the fixed width :data:`REPLICATE_BLOCK`; every draw
covers full blocks and is sliced to the rows that run, which keeps
replicate ``i`` bit-identical whether the run asks for 300 or 300 000
replicates.  A draw for a run of consecutive blocks stacks each block's own
draw (:func:`block_bits`), so how many blocks share one call is not part of
the contract either.  The trajectory loop of :mod:`treecast.correction`
makes every draw of a corrected-broadcast run; the broadcast step and the
correction kernels are handed their draws and draw nothing.

Bernoulli bits (:func:`bernoulli_bits`) are defined by float32 uniforms:
bit = ``u < float32(p)``.  Column draws wider than :data:`DRAW_CHUNK_COLS`
are made in fixed-width chunks; the chunk width is part of the determinism
contract and must not be changed casually.  A float32 uniform is
``(w >> 8) * 2**-24`` of one 32-bit half-word ``w`` of the Philox output,
low half of each 64-bit word first, so ``u < float32(p)`` is exactly
``w < ceil(float32(p) * 2**24) << 8``: the bits are computed by comparing
the raw words with that integer threshold, never by forming the floats.
Within a chunk the words are drawn a few rows at a time
(:data:`SLICE_ELEMENTS` half-words at most) to bound memory.  That slicing
is not part of the contract: a stream yields its values in row-major order,
so a chunk drawn in row slices consumes the stream exactly as one draw of
the whole chunk would.

Because a stream depends on nothing but its address, a draw may be shared
by every consumer of that address: the trajectory loop of
:mod:`treecast.correction` draws each ``("flips", level, block)`` mask once
for a whole group of schemes run on common random numbers, and each
``("tie", level, block)`` coin array once for every scheme of the group that
draws it with the same width, and every scheme sees the bits a run of it
alone would draw.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

REPLICATE_BLOCK = 256
DRAW_CHUNK_COLS = 1 << 17
#: Most elements a row slice holds at once: half-words of a draw, packed
#: bytes of a broadcast step or a popcount, per-block counts or packed bytes
#: of a correction kernel.  It bounds the scratch memory of every kernel, on
#: top of the whole levels a replicate block holds (each scheme's level and
#: the shared flip mask), to a fraction of one wide level.  Not part of the
#: contract: any value gives the same bits.
SLICE_ELEMENTS = 1 << 16


def _purpose_code(purpose: str) -> int:
    """Stable 64-bit code for a purpose tag (platform- and run-independent)."""
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, after
# M. O'Neill, "Developing a seed_seq alternative", 2015).  All arithmetic is
# on 32-bit words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED

# The mixer's operands as 0-d ``uint32`` arrays, the quickest form for
# numpy to apply to a small array.
_U32_16, _U32_MIX_L, _U32_MIX_R = (
    np.array(c, dtype=np.uint32) for c in (16, 0xCA01F9DD, 0x4973F715)
)


def _hash_steps(init: int, mult: int, first: int, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash steps ``first..first + n_steps - 1`` of the hash constants
    ``init * mult**t`` (mod 2**32) as two ``uint32`` columns of shape
    ``(n_steps, 1)``: step ``t`` xors with constant ``t`` and multiplies by
    constant ``t + 1``."""
    consts = [init * pow(mult, t, 1 << 32) % (1 << 32) for t in range(first, first + n_steps + 1)]
    xor = np.array(consts[:-1], dtype=np.uint32)[:, None]
    times = np.array(consts[1:], dtype=np.uint32)[:, None]
    xor.flags.writeable = times.flags.writeable = False
    return xor, times


def _hashmix_words(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``hashmix`` (and output hash) on ``uint32`` arrays,
    whose products wrap modulo 2**32 by themselves; one hash step per row of
    ``xor``/``mult`` (:func:`_hash_steps`)."""
    values = (values ^ xor) * mult
    return values ^ (values >> _U32_16)


def _mix_words(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` on ``uint32`` arrays."""
    result = x * _U32_MIX_L - y * _U32_MIX_R
    return result ^ (result >> _U32_16)


#: ``generate_state``'s output hash of the four pool words, one step each;
#: a two-word ``uint64`` key is exactly that long, so the pool is read once.
_OUT_STEPS = _hash_steps(_INIT_B, _MULT_B, 0, _POOL_SIZE)


@functools.lru_cache(maxsize=1024)
def _prefix(master_seed: int, purpose: str, level: int) -> tuple[np.ndarray, ...]:
    """Mixer pool of ``SeedSequence(master_seed, spawn_key=(purpose code,
    level))`` as a ``(_POOL_SIZE, 1)`` column, then the hash steps
    (:func:`_hash_steps`) that mix a block's first word into it and those
    that mix its second.

    A stream's entropy is the master seed's words zero-padded to the pool
    size, then the words of the purpose code, the level and the block, mixed
    in that order, so its pool before the block is numpy's own for the
    shorter spawn key.  The block's words take the hash steps after the
    ``16 + 4 * (words(code) + words(level))`` that came before, whether or
    not a second word follows.
    """
    code = _purpose_code(purpose)
    column = np.random.SeedSequence(master_seed, spawn_key=(code, level)).pool[:, None]
    column.flags.writeable = False
    n_words = sum((n.bit_length() + 31) // 32 or 1 for n in (code, level))
    first = _POOL_SIZE**2 + _POOL_SIZE * n_words
    return (
        column,
        _hash_steps(_INIT_A, _MULT_A, first, _POOL_SIZE),
        _hash_steps(_INIT_A, _MULT_A, first + _POOL_SIZE, _POOL_SIZE),
    )


def _philox_keys(
    master_seed: int, purpose: str, level: int, blocks: np.ndarray
) -> np.ndarray:
    """Philox keys of the streams ``(purpose, level, b)`` for every ``b`` of
    the ``uint64`` array ``blocks``, shape ``(len(blocks), 2)``: row ``i`` is
    ``SeedSequence(master_seed, spawn_key=(purpose code, level, blocks[i]))
    .generate_state(2, np.uint64)``.

    Every block's first 32-bit word is mixed into the cached :func:`_prefix`
    pool, and the second word of a block at or above 2**32 into its rows
    alone, all four pool words at once, for the whole array.
    """
    # Little-endian words viewed as little-endian halves: low word first on
    # any host, as ``SeedSequence`` splits a block.
    words = blocks.astype("<u8", copy=False).view("<u4").reshape(-1, 2)
    pool, low_steps, high_steps = _prefix(master_seed, purpose, level)
    pool = _mix_words(pool, _hashmix_words(words[:, 0], *low_steps))
    wide = np.flatnonzero(words[:, 1])
    if wide.size:
        pool[:, wide] = _mix_words(pool[:, wide], _hashmix_words(words[wide, 1], *high_steps))
    # Output words 0, 1 and 2, 3 make the two key words, low half first.
    out = _hashmix_words(pool, *_OUT_STEPS).T.astype("<u4", order="C")
    return out.view("<u8").astype(np.uint64, copy=False)


class _PhiloxKey(ISeedSequence):
    """Seed source that hands ``Philox`` a precomputed key.

    Handing the key to ``Philox`` through its ``key`` argument would first
    seed it from OS entropy, which costs more than the whole derivation;
    ``Philox`` asks its seed source only for ``generate_state(2, np.uint64)``.
    """

    __slots__ = ("_key",)

    def __init__(self, key: np.ndarray) -> None:
        self._key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._key


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the derivation rule for independent substreams."""

    master_seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"master seed must be a 64-bit unsigned integer, got {self.master_seed}"
            )

    def generator(self, purpose: str, level: int = 0, block: int = 0) -> np.random.Generator:
        """Counter-based generator for the stream ``(purpose, level, block)``:
        the one-block case of :meth:`generators`."""
        return next(self.generators(purpose, level, range(block, block + 1)))

    def generators(
        self, purpose: str, level: int, blocks: range
    ) -> Iterator[np.random.Generator]:
        """Counter-based generators for the streams ``(purpose, level, b)``,
        one per block ``b`` of the run ``blocks`` in order, their keys
        derived in one :func:`_philox_keys` call.

        Each is a fresh Philox generator at counter 0 whose key is numpy's
        ``SeedSequence(entropy=master_seed, spawn_key=(purpose code, level,
        b)).generate_state(2, np.uint64)``; numpy's mixer pool up to the
        block is cached per ``(master_seed, purpose, level)``.
        ``tests/`` checks the keys and draws against numpy's ``SeedSequence``.
        """
        if level < 0 or blocks.start < 0:
            raise ValueError("stream level and block must be >= 0")
        if blocks.step != 1 or blocks.stop > 2**64:
            raise ValueError(f"blocks must be consecutive and below 2**64, got {blocks}")
        numbers = np.arange(blocks.start, max(blocks.start, blocks.stop), dtype=np.uint64)
        keys = _philox_keys(self.master_seed, purpose, level, numbers)
        return (np.random.Generator(np.random.Philox(_PhiloxKey(key))) for key in keys)


def check_block_rows(rows: int, blocks: int = 1) -> int:
    """Raise ``ValueError`` unless ``rows`` replicates fill ``blocks``
    consecutive replicate blocks: every block but the last full, the last
    holding at least one row."""
    low, high = REPLICATE_BLOCK * (blocks - 1) + 1, REPLICATE_BLOCK * blocks
    if blocks < 1 or not low <= rows <= high:
        what = "a replicate block holds" if blocks == 1 else (
            f"a run of {blocks} replicate blocks holds"
        )
        raise ValueError(f"{what} {low}..{high} rows, got {rows}")
    return rows


def row_slices(rows: int, cols: int) -> Iterator[slice]:
    """Consecutive slices over ``rows`` rows of ``cols`` unpacked elements,
    each at most :data:`SLICE_ELEMENTS` elements (and at least one row)."""
    step = max(1, SLICE_ELEMENTS // max(cols, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def bernoulli_bits(gen: np.random.Generator, prob: float, rows: int, cols: int) -> np.ndarray:
    """Packed Bernoulli(prob) indicator bits of shape ``(rows, ceil(cols/8))``.

    Bit ``j`` of row ``i`` (most-significant-bit first within each byte) is 1
    with probability ``prob`` independently; padding bits beyond ``cols`` are
    zero.  The bits are defined as ``u < float32(prob)`` for float32 uniforms
    ``u = gen.random(..., dtype=np.float32)`` drawn in fixed column chunks of
    :data:`DRAW_CHUNK_COLS`, row-major within a chunk.

    They are computed from the Philox words themselves.  Each float32 uniform
    is ``(w >> 8) * 2**-24`` of one 32-bit half-word ``w``, low half first, so
    ``u < float32(prob)`` holds exactly when
    ``w < ceil(float32(prob) * 2**24) << 8`` (``2**32`` when ``float32(prob)``
    is 1.0).  Pairs of half-words come from ``random_raw``; an odd last one is
    drawn as a float32 uniform, which leaves its high half buffered in the
    generator as the float32 draw would.  So the bits and the generator's
    state afterwards are those of the float32 draw.

    ``gen`` must be a Philox generator with no buffered half-word (one that has
    drawn an even number of 32-bit values, a fresh stream for one); anything
    else is refused, since its raw words would not line up with its uniforms.
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {prob}")
    bit_gen = gen.bit_generator
    if not isinstance(bit_gen, np.random.Philox):
        raise ValueError(f"need a Philox generator, got {type(bit_gen).__name__}")
    if bit_gen.state["has_uint32"]:
        raise ValueError(
            "generator holds a buffered 32-bit half-word; draw from a fresh stream"
        )
    threshold = np.float32(prob)
    limit = math.ceil(float(threshold) * 2**24) << 8
    out = np.zeros((rows, (cols + 7) // 8), dtype=np.uint8)
    chunk = min(cols, DRAW_CHUNK_COLS)
    # An even row step leaves an odd count of half-words only in the call's
    # last slice.  The first chunk is the widest, so the buffer fits them all.
    step = 2 * max(1, SLICE_ELEMENTS // (2 * max(chunk, 1)))
    hits = np.empty(min(rows, step) * chunk, dtype=bool)
    for start in range(0, cols, DRAW_CHUNK_COLS):
        stop = min(start + DRAW_CHUNK_COLS, cols)
        width = stop - start
        # Chunk widths are multiples of 8 except possibly the last, so each
        # chunk packs into a byte-aligned slice of the output.
        byte_cols = slice(start // 8, (stop + 7) // 8)
        for first in range(0, rows, step):
            last = min(first + step, rows)
            n = (last - first) * width
            # Little-endian words viewed as little-endian halves: low half
            # first on any host.
            words = bit_gen.random_raw(n // 2).astype("<u8", copy=False)
            np.less(words.view("<u4"), limit, out=hits[: n - n % 2])
            if n % 2:
                hits[n - 1] = gen.random(dtype=np.float32) < threshold
            out[first:last, byte_cols] = np.packbits(
                hits[:n].reshape(-1, width), axis=1
            )
    return out


def block_bits(
    seed: SeedSpec,
    purpose: str,
    level: int,
    prob: float,
    cols: int,
    *,
    block: int = 0,
    blocks: int = 1,
) -> np.ndarray:
    """Packed Bernoulli(prob) bits of ``blocks`` consecutive replicate blocks
    from ``block`` on, shape ``(blocks * REPLICATE_BLOCK, ceil(cols/8))``:
    all :data:`REPLICATE_BLOCK` rows of each block's stream ``(purpose,
    level, block)`` (:func:`bernoulli_bits`), stacked in block order."""
    draws = [
        bernoulli_bits(gen, prob, REPLICATE_BLOCK, cols)
        for gen in seed.generators(purpose, level, range(block, block + blocks))
    ]
    return draws[0] if blocks == 1 else np.concatenate(draws)
