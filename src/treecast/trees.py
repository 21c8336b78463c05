"""Index arithmetic and partition logic for regular trees.

Vertices are addressed by 1-based coordinates ``(level, index)`` with
``index`` running over ``1..r**level``; the parent of ``(n, s)`` is
``(n-1, ceil(s/r))``.  Internally the kernels use flat 0-based offsets, but
block ranges speak 1-based indices.  The coordinate helpers that check the
descent blocks against that parent map (``Vertex``, ``parent_of``,
``children_range``) live in ``tests/oracles.py``.

Two block structures drive the correction schemes:

* :class:`BlockPartition` cuts a level into consecutive fixed-size blocks,
  with an undersized trailing *leftover* that is excluded from downstream
  statistics;
* :class:`DescentBlockPartition` cuts a level that is a multiple of ``k``
  into blocks of ``r**k`` vertices, each block being exactly the set of
  ``k``-generation descendants of one vertex ``k`` levels up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .budget import check_vertices


@dataclass(frozen=True)
class RegularTreeSpec:
    """A regular tree with forward branching rate ``r`` truncated at ``depth``.

    ``r = 1`` is a path; it is the single-copy period of
    :func:`~treecast.estimators.mc_effective_error` with ``M = 1``.
    """

    r: int
    depth: int
    vertex_budget: int | None = None

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"branching rate must be >= 1, got {self.r}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        check_vertices(self.r**self.depth, self.vertex_budget)

    def level_size(self, level: int) -> int:
        """Number of vertices at ``level`` (``r**level``)."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside 0..{self.depth}")
        return self.r**level


@dataclass(frozen=True)
class BlockPartition:
    """Consecutive fixed-size blocks over one level, plus a discarded leftover.

    Block ``b`` (0-based) covers 1-based indices
    ``b*block_size + 1 .. (b+1)*block_size``; the leftover, if any, is the
    trailing ``level_size - n_blocks*block_size`` indices and is excluded
    from all downstream statistics.
    """

    level: int
    level_size: int
    block_size: int
    n_blocks: int = field(init=False)

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError(f"block size must be >= 1, got {self.block_size}")
        if self.level_size < 0:
            raise ValueError("level size must be >= 0")
        object.__setattr__(self, "n_blocks", self.level_size // self.block_size)

    @property
    def covered(self) -> int:
        """Number of indices inside full blocks."""
        return self.n_blocks * self.block_size

    def blocks(self) -> Iterator[range]:
        """Iterate 1-based index ranges of the full blocks."""
        m = self.block_size
        for b in range(self.n_blocks):
            yield range(b * m + 1, (b + 1) * m + 1)

    def leftover(self) -> range:
        """1-based indices of the discarded trailing block (possibly empty)."""
        return range(self.covered + 1, self.level_size + 1)


@dataclass(frozen=True)
class DescentBlockPartition:
    """Blocks of all ``r**k`` descendants, ``k`` generations down, per ancestor.

    Defined at levels that are positive multiples of ``k``; block ``b``
    (0-based) is exactly the descendant set of the level-``(level-k)`` vertex
    with index ``b+1``, covering 1-based indices
    ``b*r**k + 1 .. (b+1)*r**k``.
    """

    level: int
    k: int
    r: int
    block_size: int = field(init=False)
    n_blocks: int = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"correction period must be >= 1, got {self.k}")
        if self.level < 1 or self.level % self.k != 0:
            raise ValueError(
                f"level {self.level} is not a positive multiple of k={self.k}"
            )
        object.__setattr__(self, "block_size", self.r**self.k)
        object.__setattr__(self, "n_blocks", self.r ** (self.level - self.k))

    @property
    def level_size(self) -> int:
        return self.n_blocks * self.block_size

    @property
    def covered(self) -> int:
        return self.level_size

    def blocks(self) -> Iterator[range]:
        """Iterate 1-based index ranges; block ``b`` descends from vertex b+1."""
        m = self.block_size
        for b in range(self.n_blocks):
            yield range(b * m + 1, (b + 1) * m + 1)

    def leftover(self) -> range:
        """Descent partitions never have a leftover."""
        return range(self.level_size + 1, self.level_size + 1)


Partition = BlockPartition | DescentBlockPartition
