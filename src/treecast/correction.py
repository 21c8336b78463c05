"""In-flight correction transforms applied to broadcast generations.

Six scheme variants act on a generation's blocks:

* ``Identity`` — no correction, the plain broadcast;
* ``BlockMajorityEveryStep{M}`` — from the first level holding at least one
  full block onward, every level is cut into consecutive ``M``-blocks and
  each block is overwritten by its majority sign (the first corrected level
  forms a single whole-level block 0);
* ``WithinDescentMajority{k}`` — every ``k`` levels, each block of the
  ``r**k`` descendants of one ancestor is overwritten by its majority sign;
* ``FractionIdentification{k}`` — same blocks, overwritten by the value of
  one uniformly chosen member;
* ``MinorityRemovalEveryStep{M}`` / ``WithinDescentMinorityRemoval{k}`` —
  instead of overwriting, the members not matching the block's majority are
  removed: they keep no descendants and leave all statistics.  Survivors of
  a block all share one sign and number at least half the block's members.

Exact ties are resolved by an independent fair coin per block ("fair-coin"
tie rule); the coins are drawn for every block on every application, tied or
not, from a dedicated stream purpose, so trajectories with and without ties
consume identical stream positions and stay comparable across schemes.  The
coins depend only on the level, the replicate block and the partition's
block count, so schemes run together share one draw.

Minority removal is represented on the full regular tree with a packed
alive-mask per level: removed vertices keep broadcasting bits, but they are
masked out of every statistic and their descendants are born dead.  The law
of the alive portion is exactly the random-tree process the removal schemes
define, and the representation keeps every kernel rectangular.

:func:`run_corrected_trajectory` is the one trajectory loop, for a group
of schemes that share the tree, channel, seed, replicate count and root
(a group of one is a single run).  It reads one thing per scheme: the
decision statistic at the tree's depth, whose sign is each replicate's
guess at the +1 root (:func:`_plan` holds the rule for which statistic
decides).  Every run starts from constant +1 signals, at level 0 or at the
renormalized block-0 level, so no root is drawn.  It cuts the replicate
blocks into one run of consecutive blocks per worker thread, one per usable
CPU (Philox fills and numpy bulk operations release the GIL; a single run
needs no pool), and carries each run down the tree in batches of consecutive
blocks.  A batch steps through a level as one while that level fits
:data:`BATCH_BYTES`; when its next level would not fit, it splits into
batches that do, and each runs to the depth before the next starts.  So the
narrow top of the tree takes few large kernel calls and a wide level one
call per block.  The batches are a pure function of the replicate count,
the level widths, the bound and the worker count.  Each batch writes its
rows of every scheme's statistic into an array allocated up front.

Only the loop names stream addresses.  At each level a batch's flip mask
is drawn once (:func:`~treecast.broadcast.flip_mask`) and every scheme
builds its children from its own parents and that mask; likewise each
tie-coin array is drawn once for every scheme that corrects the level on a
partition of the same block count, and each fraction-identification
application gets fresh ``("pick", level, block)`` generators of the batch's
blocks from one :meth:`~treecast.rng.SeedSpec.generators` call.  The
kernels (:func:`~treecast.broadcast.sample_next_generation` and the three
``apply_*`` functions here) are functions of the arrays they are given:
they draw nothing, and they refuse arrays that do not fit each other (a
partition of another level, an alive mask, flip mask or coin array of the
wrong shape).  Row ``i`` of a batch reads row ``i`` of every draw, and a
draw depends only on its global ``(purpose, level, block)`` address, so
each scheme sees exactly the bits a run of it alone would, and neither the
order of blocks, the number of workers, the batches nor the other schemes
of a group change a single output bit.

Memory is bounded per batch, not per run.  A batch holds each scheme's
current level (and alive mask) plus one flip mask, each within
:data:`BATCH_BYTES` or one block, and at every level where a batch above it
split, the parts not yet started hold copies of their rows.  The kernels
consume their level arrays instead of allocating new ones: a broadcast step
writes the children into the flip mask it is given (every scheme but the
last gets a copy), block majority and fraction identification overwrite the
child they are given, and minority removal writes the new alive mask into
the one it is given; tie coins they are handed are only read.  A scheme's
deepest level is dropped as soon as its statistic is read, and the kernels
and statistics work a bounded row slice at a time
(:func:`~treecast.rng.row_slices`).  The vertex budget is checked once, when
the :class:`~treecast.trees.RegularTreeSpec` is built.

The correction kernels never hold one byte per bit.  Each counts the members
of every block from byte popcounts (:func:`_block_counts`), picks the
majority as ``plus > minus``, or the coin when they are equal, and spreads
the chosen bits back over the blocks' members on packed bytes
(:func:`_spread`).  Block majority writes the spread bits, minority removal
keeps ``alive & ~(bits ^ spread)``, and leftover members pass through under
a mask.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .broadcast import (
    GenerationSignals,
    flip_mask,
    majority_statistic,
    packed_width,
    repeat_packed,
    sample_next_generation,
)
from .channel import ChannelParams
from .rng import (
    REPLICATE_BLOCK,
    SeedSpec,
    block_bits,
    check_block_rows,
    row_slices,
)
from .trees import BlockPartition, RegularTreeSpec

__all__ = ["CorrectionScheme"]

_M_VARIANTS = frozenset({"BlockMajorityEveryStep", "MinorityRemovalEveryStep"})
_K_VARIANTS = frozenset(
    {"WithinDescentMajority", "FractionIdentification", "WithinDescentMinorityRemoval"}
)
_REMOVAL_VARIANTS = frozenset(
    {"MinorityRemovalEveryStep", "WithinDescentMinorityRemoval"}
)
_VARIANTS = frozenset({"Identity"}) | _M_VARIANTS | _K_VARIANTS

#: Most bytes of one level that a batch of consecutive replicate blocks steps
#: through as one: a batch whose next level would hold more splits into
#: batches that fit, down to single blocks.  Larger batches make fewer,
#: larger kernel calls and hold more scratch memory.  Not part of the
#: contract: any value gives the same statistics.
BATCH_BYTES = 1 << 14


@dataclass(frozen=True)
class CorrectionScheme:
    """A correction variant plus its block size ``M`` or period ``k``."""

    variant: str
    M: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(
                f"unknown scheme variant {self.variant!r}; expected one of "
                f"{sorted(_VARIANTS)}"
            )
        if self.variant in _M_VARIANTS:
            if self.M is None or self.M < 1:
                raise ValueError(f"{self.variant} needs a block size M >= 1, got {self.M}")
            if self.k is not None:
                raise ValueError(f"{self.variant} takes M, not k")
        elif self.variant in _K_VARIANTS:
            if self.k is None or self.k < 1:
                raise ValueError(f"{self.variant} needs a period k >= 1, got {self.k}")
            if self.M is not None:
                raise ValueError(f"{self.variant} takes k, not M")
        elif self.M is not None or self.k is not None:
            raise ValueError("Identity takes neither M nor k")

    @classmethod
    def identity(cls) -> "CorrectionScheme":
        return cls("Identity")

    @classmethod
    def block_majority_every_step(cls, M: int) -> "CorrectionScheme":
        return cls("BlockMajorityEveryStep", M=M)

    @classmethod
    def within_descent_minority_removal(cls, k: int) -> "CorrectionScheme":
        return cls("WithinDescentMinorityRemoval", k=k)

    @classmethod
    def parse(cls, text: str) -> "CorrectionScheme":
        """Parse a descriptor like ``"WithinDescentMajority{k=2}"``."""
        text = text.strip()
        if "{" not in text:
            return cls(text)
        if not text.endswith("}"):
            raise ValueError(f"malformed scheme descriptor {text!r}")
        variant, _, arg = text[:-1].partition("{")
        name, _, value = arg.partition("=")
        name = name.strip()
        if name not in ("M", "k"):
            raise ValueError(f"scheme parameter must be M or k, got {name!r}")
        return cls(variant.strip(), **{name: int(value)})

    @property
    def removes_minority(self) -> bool:
        return self.variant in _REMOVAL_VARIANTS

    @property
    def block_based(self) -> bool:
        return self.variant in _M_VARIANTS

    @property
    def descent_based(self) -> bool:
        return self.variant in _K_VARIANTS

    def descriptor(self) -> str:
        if self.variant in _M_VARIANTS:
            return f"{self.variant}{{M={self.M}}}"
        if self.variant in _K_VARIANTS:
            return f"{self.variant}{{k={self.k}}}"
        return self.variant

    def start_level(self, r: int) -> int:
        """First level the scheme touches: for block schemes the largest
        level whose whole generation fits in one block (block 0); for
        descent schemes the first correction level ``k``; 0 for Identity.

        A block scheme needs ``r >= 2``: at ``r = 1`` every level holds one
        vertex and no level ever outgrows a block, so it raises ``ValueError``.
        """
        if self.variant in _M_VARIANTS:
            if r < 2:
                raise ValueError(f"{self.variant} needs r >= 2, got r={r}")
            level = 0
            while r ** (level + 1) <= self.M:
                level += 1
            return level
        if self.variant in _K_VARIANTS:
            return self.k
        return 0

    def check_depth(
        self, r: int, depth: int, *, pin_renormalized_root: bool = False
    ) -> None:
        """Refuse a level the scheme's advantage cannot be read at, in
        either engine.

        A descent scheme is read at a positive multiple of its period, a
        block scheme no shallower than block 0 (its start level), and a
        renormalized root — block schemes only — strictly below block 0.
        Raises ``ValueError``.
        """
        if pin_renormalized_root and not self.block_based:
            raise ValueError(
                f"a renormalized-root advantage needs a block scheme, got {self.descriptor()}"
            )
        if self.descent_based and (depth < self.k or depth % self.k != 0):
            raise ValueError(
                f"depth {depth} must be a positive multiple of the period {self.k}"
            )
        if self.block_based:
            start = self.start_level(r)
            if depth < start:
                raise ValueError(
                    f"depth {depth} is above the first corrected level {start} "
                    f"of block size {self.M}"
                )
            if pin_renormalized_root and depth == start:
                raise ValueError(
                    f"depth {depth} must exceed the start level {start} to measure "
                    f"a renormalized-root advantage"
                )

    def correction_levels(self, r: int, depth: int) -> tuple[int, ...]:
        """All levels at which the scheme corrects, within ``0..depth``."""
        if self.variant == "Identity":
            return ()
        if self.variant in _M_VARIANTS:
            return tuple(range(self.start_level(r), depth + 1))
        return tuple(range(self.k, depth + 1, self.k))

    def partition_for(self, level: int, r: int) -> BlockPartition:
        """The block partition this scheme uses at a correction level.

        A descent block is the ``r**k`` descendants of one vertex ``k``
        levels up, so a descent partition cuts the level into blocks of
        ``r**k`` with no leftover.
        """
        if self.variant == "Identity":
            raise ValueError("Identity has no partitions")
        if self.variant in _M_VARIANTS:
            size = r**level
            start = self.start_level(r)
            if level < start:
                raise ValueError(f"level {level} is below the first block level {start}")
            block = size if level == start else self.M
            return BlockPartition(level=level, level_size=size, block_size=block)
        if level % self.k != 0 or level == 0:
            raise ValueError(f"level {level} is not a correction level for period {self.k}")
        return BlockPartition(level=level, level_size=r**level, block_size=r**self.k)


@dataclass(frozen=True)
class CorrectedGeneration:
    """What the trajectory loop reads of one correction: one value per
    block, and (for removal schemes) the survivor masks."""

    block_signals: GenerationSignals
    alive: np.ndarray | None = None
    block_alive: np.ndarray | None = None


def _check_partition(g: GenerationSignals, part: BlockPartition) -> None:
    """``part`` partitions ``g``'s level."""
    if part.level != g.level or part.level_size != g.size:
        raise ValueError(
            f"partition (level {part.level}, size {part.level_size}) does not "
            f"match generation (level {g.level}, size {g.size})"
        )


def _check_coins(g: GenerationSignals, part: BlockPartition, coins: np.ndarray) -> None:
    """``part`` partitions ``g``'s level and ``coins`` hold a packed tie coin
    for each of its blocks in at least every row of ``g``."""
    _check_partition(g, part)
    width = packed_width(part.n_blocks)
    if coins.shape[0] < g.n_replicates or coins.shape[1:] != (width,):
        raise ValueError(
            f"tie coins shape {coins.shape} does not cover {g.n_replicates} rows "
            f"of {part.n_blocks} blocks"
        )


def _block_rows(g: GenerationSignals, part: BlockPartition) -> Iterator[slice]:
    """Row slices that bound the per-block and per-byte working arrays."""
    return row_slices(g.n_replicates, max(part.n_blocks, g.packed.shape[1]))


@functools.lru_cache(maxsize=None)
def _field_counts_table(B: int) -> np.ndarray:
    """Entry ``b`` holds, as one ``8 // B``-byte item, the set bits of each
    ``B``-bit field of byte ``b``, first field first (read-only)."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    counts = bits.reshape(256, 8 // B, B).sum(axis=2, dtype=np.uint8)
    table = counts.view(f"V{8 // B}")[:, 0]
    table.flags.writeable = False
    return table


def _block_counts(packed: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Set bits in each full block of every packed row, shape (rows, n_blocks).

    Blocks inside a byte (B of 1, 2 or 4) look each byte's field counts up in
    a table.  Blocks of whole bytes take the popcount of a 1-, 2-, 4- or
    8-byte word and sum the words of a block.  Any other B takes differences
    of a prefix popcount at the block boundaries, counting the bits of the
    byte a boundary falls in through a mask.  The counts' dtype holds B.
    """
    B, nb = part.block_size, part.n_blocks
    rows = packed.shape[0]
    if B in (1, 2, 4):
        counts = _field_counts_table(B)[packed].view(np.uint8)
        return counts.reshape(rows, -1)[:, :nb]
    if B % 8 == 0:
        block_bytes = B // 8
        word = math.gcd(block_bytes, 8)
        counts = np.bitwise_count(packed[:, : nb * block_bytes].view(f"u{word}"))
        if word == block_bytes:
            return counts
        return counts.reshape(rows, nb, block_bytes // word).sum(
            axis=2, dtype=np.min_scalar_type(B)
        )
    dtype = np.min_scalar_type(part.level_size)
    prefix = np.zeros((rows, packed.shape[1] + 1), dtype=dtype)
    np.cumsum(np.bitwise_count(packed), axis=1, dtype=dtype, out=prefix[:, 1:])
    bounds = np.arange(nb + 1) * B
    byte, offset = bounds // 8, bounds % 8
    # Bits of the boundary byte that lie before the boundary (none at offset 0).
    head = ((0xFF00 >> offset) & 0xFF).astype(np.uint8)
    inside = np.minimum(byte, packed.shape[1] - 1)
    at_bounds = prefix[:, byte] + np.bitwise_count(packed[:, inside] & head)
    return np.diff(at_bounds, axis=1)


def _majority(plus: np.ndarray, total: np.ndarray | int, coins: np.ndarray) -> np.ndarray:
    """Majority bit per block from plus counts out of ``total``; coin on ties."""
    minus = total - plus
    return (plus > minus) | ((plus == minus) & coins)


def _spread_masks(B: int, covered: int) -> tuple[np.ndarray, np.ndarray]:
    """For each byte of the first ``covered`` bits, the blocks it overlaps and
    the mask of its bits in each: arrays ``(T, bytes)`` of block indices and
    uint8 masks, ``T`` the most blocks one byte can overlap."""
    n_blocks = covered // B
    first = np.arange(packed_width(covered)) * 8
    blocks = first // B + np.arange((B + 6) // B + 1)[:, None]
    # Bit offsets, within each byte, of the part of each block it holds.
    start = np.clip(blocks * B - first, 0, 8)
    stop = np.clip(np.minimum(blocks + 1, n_blocks) * B - first, start, 8)
    masks = ((0xFF >> start) & ~(0xFF >> stop)).astype(np.uint8)
    return np.minimum(blocks, n_blocks - 1), masks


def _spread(
    chosen: np.ndarray, block_packed: np.ndarray, part: BlockPartition
) -> np.ndarray:
    """Each block's chosen bit over all its members, packed to the level's
    width; bits past the full blocks are zero."""
    B, nb = part.block_size, part.n_blocks
    if B in (1, 2, 4):
        spread = repeat_packed(block_packed, nb, B)
    elif B % 8 == 0:
        spread = np.repeat(chosen.view(np.uint8) * np.uint8(0xFF), B // 8, axis=1)
    else:
        blocks, masks = _spread_masks(B, part.covered)
        ones = chosen.view(np.uint8) * np.uint8(0xFF)
        spread = np.bitwise_and(ones[:, blocks[0]], masks[0])
        for idx, mask in zip(blocks[1:], masks[1:]):
            spread |= ones[:, idx] & mask
    width = packed_width(part.level_size)
    if spread.shape[1] < width:
        spread = np.pad(spread, ((0, 0), (0, width - spread.shape[1])))
    return spread


def _leftover_mask(part: BlockPartition) -> np.ndarray | None:
    """Per-byte mask of the bits past the last full block, or None if the
    blocks cover the level."""
    if part.covered == part.level_size:
        return None
    keep = np.zeros(packed_width(part.level_size), dtype=np.uint8)
    keep[part.covered // 8] = 0xFF >> (part.covered % 8)
    keep[part.covered // 8 + 1 :] = 0xFF
    return keep


def _overwrite_blocks(
    g: GenerationSignals,
    part: BlockPartition,
    choose: Callable[[slice, np.ndarray], np.ndarray],
) -> CorrectedGeneration:
    """Overwrite every full block with the bit ``choose(rows, bits)`` picks
    for it from a row slice's packed bits; leftover bits pass through.

    The blocks are written into ``g.packed`` itself, a row slice at a time:
    ``g`` is consumed and becomes the corrected signals."""
    nb = part.n_blocks
    keep = _leftover_mask(part)
    block_packed = np.empty((g.n_replicates, packed_width(nb)), dtype=np.uint8)
    for rows in _block_rows(g, part):
        bits = g.packed[rows]
        chosen = choose(rows, bits)
        block_packed[rows] = np.packbits(chosen, axis=1)
        spread = _spread(chosen, block_packed[rows], part)
        if keep is not None:
            spread |= bits & keep
        bits[...] = spread
    return CorrectedGeneration(
        GenerationSignals(g.level, nb, g.n_replicates, block_packed)
    )


def apply_block_majority(
    g: GenerationSignals, part: BlockPartition, coins: np.ndarray
) -> CorrectedGeneration:
    """Overwrite every block with its majority sign, or on a tie with its
    coin: bit ``b`` of row ``i`` of the packed ``coins``, which are only read.

    Leftover indices past the last full block pass through unchanged.  The
    corrected bits are written into ``g.packed``: ``g`` is consumed.
    """
    _check_coins(g, part, coins)
    nb = part.n_blocks

    def majority(rows: slice, bits: np.ndarray) -> np.ndarray:
        coin = np.unpackbits(coins[rows], axis=1, count=nb).view(bool)
        return _majority(_block_counts(bits, part), part.block_size, coin)

    return _overwrite_blocks(g, part, majority)


def _rows_by_block(rows: slice) -> Iterator[tuple[int, int]]:
    """``(b, n)``: the ``n`` rows of the slice that fall in replicate block
    ``b`` of a run, for each block the slice meets, in order."""
    start = rows.start
    while start < rows.stop:
        b = start // REPLICATE_BLOCK
        stop = min(rows.stop, (b + 1) * REPLICATE_BLOCK)
        yield b, stop - start
        start = stop


def apply_fraction_identification(
    g: GenerationSignals, part: BlockPartition, picks: Sequence[np.random.Generator]
) -> CorrectedGeneration:
    """Overwrite every block with the value of one uniformly chosen member.

    ``picks`` holds one generator per replicate block of ``g``'s rows, in
    order (every block but the last full), and each block's rows draw their
    members from its generator as one ``(REPLICATE_BLOCK, n_blocks)`` integer
    draw would.  The corrected bits are written into ``g.packed``: ``g`` is
    consumed."""
    check_block_rows(g.n_replicates, len(picks))
    _check_partition(g, part)
    B, nb = part.block_size, part.n_blocks
    first = np.arange(nb) * B

    def pick(rows: slice, bits: np.ndarray) -> np.ndarray:
        # Row slices come in order, so the picks each replicate block draws
        # slice by slice are the rows of one (REPLICATE_BLOCK, nb) draw.
        position = np.concatenate([
            picks[b].integers(0, B, size=(n, nb)) for b, n in _rows_by_block(rows)
        ])
        position += first
        byte = np.take_along_axis(bits, position >> 3, axis=1)
        # Shift the member's bit to the top of its byte.
        return (byte << (position & 7).astype(np.uint8)) >= 0x80

    return _overwrite_blocks(g, part, pick)


def apply_minority_removal(
    g: GenerationSignals,
    part: BlockPartition,
    coins: np.ndarray,
    alive: np.ndarray | None = None,
) -> CorrectedGeneration:
    """Remove each block's minority members: survivors keep their signals,
    minority members die (no descendants, no further statistics).

    The majority is taken over the block's *alive* members; on an exact tie
    the block's coin (bit ``b`` of row ``i`` of the packed ``coins``, which
    are only read) picks which sign survives, so at least half the alive
    members always survive.  Blocks with no alive member stay dead.  Leftover
    indices keep their incoming alive state untouched.  The new mask is
    written into the ``alive`` given (a fresh all-alive mask when None),
    which is consumed and returned as the result's ``alive``; the signals are
    left as they are.
    """
    _check_coins(g, part, coins)
    nb = part.n_blocks
    if alive is None:
        alive = _constant_signals(g.level, g.size, g.n_replicates).packed
    elif alive.shape != g.packed.shape:
        raise ValueError(
            f"alive mask shape {alive.shape} does not match signals {g.packed.shape}"
        )
    keep = _leftover_mask(part)
    block_packed = np.empty((g.n_replicates, packed_width(nb)), dtype=np.uint8)
    block_alive = np.empty_like(block_packed)
    for rows in _block_rows(g, part):
        bits, live = g.packed[rows], alive[rows]
        total = _block_counts(live, part)
        coin = np.unpackbits(coins[rows], axis=1, count=nb).view(bool)
        chosen = _majority(_block_counts(bits & live, part), total, coin)
        block_packed[rows] = np.packbits(chosen, axis=1)
        block_alive[rows] = np.packbits(total > 0, axis=1)
        # Survivors are the alive members whose bit is the chosen sign.
        dissent = bits ^ _spread(chosen, block_packed[rows], part)
        if keep is not None:
            dissent &= ~keep
        live &= ~dissent
    return CorrectedGeneration(
        GenerationSignals(g.level, nb, g.n_replicates, block_packed), alive, block_alive
    )


def _constant_signals(level: int, size: int, n_replicates: int) -> GenerationSignals:
    """All-(+1) signals: the root, or the renormalized block 0 of a run
    that starts there."""
    packed = np.full((n_replicates, packed_width(size)), 0xFF, dtype=np.uint8)
    tail = size % 8
    if tail:
        packed[:, -1] = (0xFF << (8 - tail)) & 0xFF
    return GenerationSignals(level=level, size=size, n_replicates=n_replicates, packed=packed)


def _apply_scheme(
    scheme: CorrectionScheme,
    g: GenerationSignals,
    part: BlockPartition,
    seed: SeedSpec,
    alive: np.ndarray | None,
    block: int,
    blocks: int,
    coins: dict[int, np.ndarray],
) -> CorrectedGeneration:
    """Correct one batch's level by the scheme's kernel, on the draws of the
    ``blocks`` replicate blocks from ``block`` on.

    A fraction identification gets fresh ``("pick", level, block)``
    generators.  ``coins`` holds the level's ``("tie", level, block)`` coins
    by partition block count: the first scheme of the group to need an array
    draws it, and every scheme with the same block count reads it."""
    if scheme.variant == "FractionIdentification":
        picks = list(seed.generators("pick", g.level, range(block, block + blocks)))
        return apply_fraction_identification(g, part, picks)
    if part.n_blocks not in coins:
        coins[part.n_blocks] = block_bits(
            seed, "tie", g.level, 0.5, part.n_blocks, block=block, blocks=blocks
        )
    if scheme.variant in ("BlockMajorityEveryStep", "WithinDescentMajority"):
        return apply_block_majority(g, part, coins[part.n_blocks])
    if scheme.removes_minority:
        return apply_minority_removal(g, part, coins[part.n_blocks], alive)
    raise ValueError(f"scheme {scheme.variant} applies no correction")


@dataclass(frozen=True)
class _Plan:
    """One scheme of a trajectory group: the partition of every level it
    corrects, and its decision statistic at the depth for all replicates."""

    scheme: CorrectionScheme
    partitions: dict[int, BlockPartition]
    statistic: np.ndarray
    renormalized: bool


def _plan(
    scheme: CorrectionScheme,
    r: int,
    depth: int,
    start: int,
    n_replicates: int,
    pin_renormalized_root: bool,
) -> _Plan:
    """The partitions of the levels past ``start`` that the scheme corrects
    (the start level itself is never corrected), and which statistic decides
    at ``depth``.

    When ``depth`` is a correction level of a removal scheme, or of a run
    from the renormalized root, the statistic is one vote per surviving
    block, taken after correction: the corrected process's vertices are the
    blocks.  Otherwise it is the signed sum over the level's alive vertices.
    """
    partitions = {
        level: scheme.partition_for(level, r)
        for level in scheme.correction_levels(r, depth)
        if level > start
    }
    renormalized = depth in partitions and (
        scheme.removes_minority or pin_renormalized_root
    )
    return _Plan(
        scheme, partitions, np.empty(n_replicates, dtype=np.int64), renormalized
    )


class _Lineage:
    """One scheme's current level, and alive mask, in one batch."""

    __slots__ = ("signals", "alive")

    def __init__(self, signals: GenerationSignals) -> None:
        self.signals = signals
        self.alive: np.ndarray | None = None

    def rows(self, part: slice) -> "_Lineage":
        """The lineage of the sub-batch of rows ``part``, copied."""
        g = self.signals
        packed = g.packed[part].copy()
        line = _Lineage(GenerationSignals(g.level, g.size, len(packed), packed))
        if self.alive is not None:
            line.alive = self.alive[part].copy()
        return line


@dataclass(frozen=True)
class _Run:
    """What every batch of one trajectory group shares."""

    plans: tuple[_Plan, ...]
    ch: ChannelParams
    seed: SeedSpec
    r: int
    depth: int
    start: int
    n_replicates: int


def _batches(block: int, blocks: int, size: int) -> list[tuple[int, int]]:
    """Cut the ``blocks`` replicate blocks from ``block`` on into consecutive
    batches ``(first, count)`` whose levels of ``size`` vertices fit
    :data:`BATCH_BYTES`, or of one block where none fits."""
    fit = max(1, BATCH_BYTES // (REPLICATE_BLOCK * packed_width(size)))
    stop = block + blocks
    return [(first, min(fit, stop - first)) for first in range(block, stop, fit)]


def _rows(run: _Run, block: int, blocks: int) -> slice:
    """The run's rows of ``blocks`` replicate blocks from ``block`` on (only
    the run's last block may be partial)."""
    stop = min(run.n_replicates, (block + blocks) * REPLICATE_BLOCK)
    return slice(block * REPLICATE_BLOCK, stop)


def _step(
    run: _Run,
    plan: _Plan,
    line: _Lineage,
    flips: np.ndarray,
    block: int,
    blocks: int,
    coins: dict[int, np.ndarray],
    out: slice,
) -> None:
    """Advance one scheme's lineage by a level: broadcast into ``flips``
    (consumed), correct in place at the scheme's levels, and at the depth
    write the batch's rows ``out`` of the decision statistic."""
    g = sample_next_generation(line.signals, run.r, flips)
    # The parent goes as soon as the child exists.
    line.signals = g
    if line.alive is not None:
        line.alive = repeat_packed(line.alive, g.size // run.r, run.r)
    cg = None
    part = plan.partitions.get(g.level)
    if part is not None:
        cg = _apply_scheme(
            plan.scheme, g, part, run.seed, line.alive, block, blocks, coins
        )
        line.alive = cg.alive
    if g.level == run.depth:
        if plan.renormalized:
            plan.statistic[out] = majority_statistic(cg.block_signals, cg.block_alive)
        else:
            plan.statistic[out] = majority_statistic(g, line.alive)


def _step_batch(
    run: _Run, lines: list[_Lineage | None], block: int, blocks: int, out: slice
) -> None:
    """Advance every scheme's lineage of one batch by a level.  The flip mask
    is drawn once and every scheme but the last broadcasts into a copy of
    it; each tie-coin array is drawn once for the schemes that share it."""
    level = lines[0].signals.level + 1
    flips = flip_mask(run.ch, run.seed, level, run.r**level, block=block, blocks=blocks)
    coins: dict[int, np.ndarray] = {}
    last = len(run.plans) - 1
    for i, plan in enumerate(run.plans):
        mask = flips if i == last else flips.copy()
        _step(run, plan, lines[i], mask, block, blocks, coins, out)
        del mask
        if level == run.depth:
            # Read: free the deepest level before the next scheme builds its
            # own.
            lines[i] = None


def _run_batch(
    run: _Run, block: int, blocks: int, lines: list[_Lineage | None]
) -> None:
    """Carry one batch, whose lineages all hold one level, to the run's depth.

    The batch steps as one while its next level fits :data:`BATCH_BYTES`;
    when it would not, it splits into batches that fit, and each runs to the
    depth before the next starts.  The parts take copies of their rows and
    ``lines`` is emptied, so the level is freed a part at a time."""
    out = _rows(run, block, blocks)
    level = lines[0].signals.level
    while level < run.depth:
        batches = _batches(block, blocks, run.r ** (level + 1))
        if len(batches) > 1:
            parts = []
            for first, count in reversed(batches):
                rows = _rows(run, first, count)
                part = slice(rows.start - out.start, rows.stop - out.start)
                parts.append((first, count, [line.rows(part) for line in lines]))
            lines.clear()
            while parts:
                _run_batch(run, *parts.pop())
            return
        _step_batch(run, lines, block, blocks, out)
        level += 1


def _run_task(run: _Run, block: int, blocks: int) -> None:
    """Root one worker's blocks at the start level, a batch at a time that
    fits the first level below it, and carry each batch down."""
    for first, count in _batches(block, blocks, run.r ** (run.start + 1)):
        out = _rows(run, first, count)
        root = _constant_signals(run.start, run.r**run.start, out.stop - out.start)
        if run.start == run.depth:
            for plan in run.plans:
                plan.statistic[out] = majority_statistic(root)
        _run_batch(run, first, count, [_Lineage(root) for _ in run.plans])


def _worker_count(n_blocks: int) -> int:
    """Threads for ``n_blocks`` replicate blocks: one per usable CPU, at most
    one per block."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, n_blocks)


def run_corrected_trajectory(
    tree: RegularTreeSpec,
    schemes: Sequence[CorrectionScheme],
    ch: ChannelParams,
    seed: SeedSpec,
    n_replicates: int,
    pin_renormalized_root: bool = False,
) -> tuple[tuple[np.ndarray, bool], ...]:
    """Run the broadcast with corrections interleaved at each scheme's
    levels, for a group of schemes on common random numbers, and read each
    scheme's decision statistic at ``tree.depth``.

    Returns one ``(statistic, renormalized)`` pair per scheme, in order: the
    statistic has one entry per replicate, and ``renormalized`` says whether
    it counts one vote per surviving block (:func:`_plan` holds the rule).
    The root is +1.  With ``pin_renormalized_root`` the run instead starts
    at the schemes' block-0 level with the whole generation set to +1,
    measuring advantages relative to the renormalized root rather than the
    true one.  The caller has checked the arguments
    (:func:`~treecast.estimators.check_mc_delta`).

    The replicate blocks are cut into one run of consecutive blocks per
    worker thread, and each run goes down the tree in batches of blocks
    (:data:`BATCH_BYTES`), writing its rows of every statistic.  At each
    level a batch's flip mask is drawn once and every scheme's children are
    its own parents XOR that mask, so a scheme's statistic is that of a run
    of it alone.  Streams keep their global block index, so the result
    depends neither on the worker count, nor on the batches, nor on the
    other schemes of the group.
    """
    r, depth = tree.r, tree.depth
    start = schemes[0].start_level(r) if pin_renormalized_root else 0
    plans = tuple(
        _plan(s, r, depth, start, n_replicates, pin_renormalized_root) for s in schemes
    )
    run = _Run(plans, ch, seed, r, depth, start, n_replicates)

    n_blocks = -(-n_replicates // REPLICATE_BLOCK)
    workers = _worker_count(n_blocks)
    if workers == 1:
        _run_task(run, 0, n_blocks)
    else:
        share, extra = divmod(n_blocks, workers)
        counts = [share + (i < extra) for i in range(workers)]
        firsts = [i * share + min(i, extra) for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_run_task, [run] * workers, firsts, counts))

    return tuple((plan.statistic, plan.renormalized) for plan in plans)
