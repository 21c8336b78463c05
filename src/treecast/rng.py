"""Deterministic, splittable random streams for parallel replicates.

Every random draw in the package comes from a stream addressed by
``(master_seed, purpose, level, block)``:

* ``purpose`` is a short string naming what the bytes are for
  ("flips", "tie", "pick", "root", "fk-edges", ...);
* ``level`` is the tree level the draw belongs to;
* ``block`` indexes a fixed-size batch of replicates (or a single heavy
  sample).

Streams are derived by value — a counter-based generator keyed through
``numpy``'s ``SeedSequence`` — never by splitting a shared sequential
generator, so the bytes a replicate sees depend only on its address and not
on scheduling, worker count, or how many other replicates run.  Replicate
batches have the fixed width :data:`REPLICATE_BLOCK`; kernels always draw
full batches and slice, which keeps replicate ``i`` bit-identical whether the
run asks for 300 or 300 000 replicates.

Column draws wider than :data:`DRAW_CHUNK_COLS` are made in fixed-width
chunks; the chunk width is part of the determinism contract and must not be
changed casually.  Within a chunk the uniforms are drawn a few rows at a
time (:func:`row_slices`) to bound memory.  That slicing is not part of the
contract: a stream yields its values in row-major order, so a chunk drawn in
row slices consumes the stream exactly as one draw of the whole chunk would.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

REPLICATE_BLOCK = 256
DRAW_CHUNK_COLS = 1 << 17
#: Most unpacked elements (float32 uniforms of a draw, bytes of a kernel) a
#: row slice holds at once; bounds per-block memory, not part of the contract.
SLICE_ELEMENTS = 1 << 18


def _purpose_code(purpose: str) -> int:
    """Stable 64-bit code for a purpose tag (platform- and run-independent)."""
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


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
        """Counter-based generator for the stream ``(purpose, level, block)``."""
        if level < 0 or block < 0:
            raise ValueError("stream level and block must be >= 0")
        seq = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(_purpose_code(purpose), level, block),
        )
        return np.random.Generator(np.random.Philox(seq))


def replicate_blocks(n_replicates: int) -> Iterator[tuple[int, slice, int]]:
    """Yield ``(block_index, output_slice, rows_in_block)`` batches.

    Every batch has the fixed stream width :data:`REPLICATE_BLOCK`; the final
    slice may cover fewer output rows, but callers must still draw the full
    batch width so replicate addressing stays count-independent.
    """
    if n_replicates < 1:
        raise ValueError(f"need at least one replicate, got {n_replicates}")
    for block in range((n_replicates + REPLICATE_BLOCK - 1) // REPLICATE_BLOCK):
        start = block * REPLICATE_BLOCK
        stop = min(start + REPLICATE_BLOCK, n_replicates)
        yield block, slice(start, stop), stop - start


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
    zero.  Draws are float32 uniforms in fixed column chunks of
    :data:`DRAW_CHUNK_COLS`, each drawn in row slices (same stream order).
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {prob}")
    out = np.zeros((rows, (cols + 7) // 8), dtype=np.uint8)
    threshold = np.float32(prob)
    for start in range(0, cols, DRAW_CHUNK_COLS):
        stop = min(start + DRAW_CHUNK_COLS, cols)
        # Chunk widths are multiples of 8 except possibly the last, so each
        # chunk packs into a byte-aligned slice of the output.
        byte_cols = slice(start // 8, (stop + 7) // 8)
        for rs in row_slices(rows, stop - start):
            u = gen.random((rs.stop - rs.start, stop - start), dtype=np.float32)
            out[rs, byte_cols] = np.packbits(u < threshold, axis=1)
    return out
