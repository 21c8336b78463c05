"""Bit-packed Monte Carlo kernel for the noisy broadcast process.

Signals live as packed bits: one uint8 row per replicate, most significant
bit first, bit 1 for +1 and bit 0 for -1, padding bits zero.  A generation
step repeats each parent bit ``r`` times (one table lookup per byte) and
XORs it into a Bernoulli flip mask, so the global spin-flip symmetry is
exact by construction.  The mask (:func:`flip_mask`) depends only on its
stream address, so schemes run on common random numbers draw it once and
each build their children from their own parents and a copy of it
(:func:`sample_next_generation` writes the children into the mask it is
given).  Majority statistics reduce rows with ``np.bitwise_count``.

All randomness flows through :class:`~treecast.rng.SeedSpec` streams keyed by
(purpose, level, replicate block).  The one draw made here,
:func:`flip_mask`, covers a run of ``blocks`` consecutive replicate blocks
of :data:`~treecast.rng.REPLICATE_BLOCK` rows (one block by default) from
the global index ``block`` on, each block's full width from its own stream,
stacked in block order, so a replicate's trajectory depends neither on how
many other replicates run beside it nor on how many blocks share one call.
The root is drawn from nothing: every run starts from all-+1 signals.
:func:`sample_next_generation` draws nothing either: row ``i`` of the
children is row ``i`` of the parents and of the mask, and the trajectory
loop of :mod:`treecast.correction` picks which blocks' mask it gets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rng
from .channel import ChannelParams
from .rng import SeedSpec, block_bits, row_slices


def packed_width(size: int) -> int:
    """Bytes per replicate row for ``size`` packed signal bits."""
    return (size + 7) // 8


def popcount_rows(packed: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Number of set bits per row of a packed array, or of ``packed & mask``.

    Rows are counted a slice at a time, so the per-byte counts never take a
    whole level's memory."""
    out = np.empty(packed.shape[0], dtype=np.int64)
    for rows in row_slices(packed.shape[0], packed.shape[1]):
        bits = packed[rows] if mask is None else packed[rows] & mask[rows]
        out[rows] = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    return out


@dataclass(frozen=True)
class GenerationSignals:
    """One level of signals for a batch of replicates, bit-packed.

    ``packed[i]`` holds replicate ``i``'s ``size`` signs as bits (MSB first,
    1 for +1); trailing padding bits within the last byte are zero.
    """

    level: int
    size: int
    n_replicates: int
    packed: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.n_replicates, packed_width(self.size))
        if self.packed.shape != expected or self.packed.dtype != np.uint8:
            raise ValueError(
                f"packed array must be uint8 with shape {expected}, got "
                f"{self.packed.dtype} {self.packed.shape}"
            )


def majority_statistic(
    g: GenerationSignals, alive: np.ndarray | None = None
) -> np.ndarray:
    """Signed level sums, one per replicate: (#+1) - (#-1).

    With an ``alive`` packed mask of the same shape, the sum runs over alive
    vertices only.
    """
    if alive is not None and alive.shape != g.packed.shape:
        raise ValueError(
            f"alive mask shape {alive.shape} does not match signals {g.packed.shape}"
        )
    # In place: on a narrow level of a many-block batch these per-replicate
    # columns outweigh the level itself.
    stat = popcount_rows(g.packed, alive)
    stat *= 2
    stat -= g.size if alive is None else popcount_rows(alive)
    return stat


@functools.lru_cache(maxsize=None)
def _repeat_table(r: int) -> np.ndarray:
    """Entry ``b`` holds, as one ``r``-byte item, the bytes that byte ``b``
    becomes when each of its bits is repeated ``r`` times (read-only)."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    table = np.packbits(np.repeat(bits, r, axis=1), axis=1).view(f"V{r}")[:, 0]
    table.flags.writeable = False
    return table


def repeat_packed(packed: np.ndarray, size: int, r: int) -> np.ndarray:
    """Repeat each of ``size`` bits ``r`` times within every row, repacked.

    Used to seed children with their parent's sign, to propagate alive
    masks (children of a dead vertex are dead) and to spread each block's
    corrected bit over its members.  While its ``256*r`` bytes fit
    :data:`~treecast.rng.SLICE_ELEMENTS`, a table maps each byte to its
    ``r`` repeated bytes; a larger ``r`` repeats unpacked bits a row slice
    at a time.  Zero padding bits repeat into zero bits, so the bytes past
    the result's width are dropped.  ``packed`` may have any memory layout.
    """
    width = packed_width(size * r)
    if 256 * r <= rng.SLICE_ELEMENTS:
        packed = np.ascontiguousarray(packed)
        out = _repeat_table(r)[packed].view(np.uint8).reshape(packed.shape[0], -1)
        return np.ascontiguousarray(out[:, :width])
    out = np.empty((packed.shape[0], width), dtype=np.uint8)
    for rows in row_slices(packed.shape[0], size * r):
        bits = np.unpackbits(packed[rows], axis=1, count=size)
        out[rows] = np.packbits(np.repeat(bits, r, axis=1), axis=1)
    return out


def flip_mask(
    ch: ChannelParams,
    seed: SeedSpec,
    level: int,
    size: int,
    *,
    block: int = 0,
    blocks: int = 1,
) -> np.ndarray:
    """Packed flip bits of the ``size`` vertices at ``level`` of ``blocks``
    consecutive replicate blocks from ``block`` on (one block by default):
    all :data:`~treecast.rng.REPLICATE_BLOCK` rows of each block's stream
    ``("flips", level, block)``, stacked, each bit 1 with probability
    ``epsilon``."""
    return block_bits(
        seed, "flips", level, ch.epsilon, size, block=block, blocks=blocks
    )


def sample_next_generation(
    parents: GenerationSignals, r: int, flips: np.ndarray
) -> GenerationSignals:
    """One broadcast step: each parent spawns ``r`` children, each child
    keeping the parent's sign unless its bit of the packed flip mask is set
    (child = parent XOR flip).

    ``flips`` holds the child level's flip bits in at least one row per
    parent row; row ``i`` of the children is built from row ``i`` of both.
    The children are written into it, a row slice at a time, so the step
    allocates no level of its own: the mask is consumed, and runs that share
    one draw on common random numbers pass a copy to all but the last of
    them.
    """
    if r < 1:
        raise ValueError(f"branching rate must be >= 1, got {r}")
    child_size = parents.size * r
    rows = parents.n_replicates
    if flips.shape[0] < rows or flips.shape[1:] != (packed_width(child_size),):
        raise ValueError(
            f"flip mask shape {flips.shape} does not cover {rows} rows of "
            f"{child_size}-vertex levels"
        )
    out = flips[:rows]
    for part in row_slices(rows, out.shape[1]):
        out[part] ^= repeat_packed(parents.packed[part], parents.size, r)
    return GenerationSignals(
        level=parents.level + 1, size=child_size, n_replicates=rows, packed=out
    )
