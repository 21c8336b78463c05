"""Index arithmetic and partition logic for regular trees.

Vertices are addressed by 1-based coordinates ``(level, index)`` with
``index`` running over ``1..r**level``; the parent of ``(n, s)`` is
``(n-1, ceil(s/r))``.  Internally the kernels use flat 0-based offsets, but
block ranges speak 1-based indices.  The coordinate helpers that check the
descent blocks against that parent map (``Vertex``, ``parent_of``,
``children_range``) and a partition's 1-based block and leftover ranges
live in ``tests/oracles.py``.

Every correction scheme cuts a level with one :class:`BlockPartition`:
consecutive fixed-size blocks, with an undersized trailing *leftover* that is
excluded from downstream statistics.  A descent scheme with period ``k``
uses blocks of ``r**k`` vertices at levels that are multiples of ``k``; each
block is then exactly the set of ``k``-generation descendants of one vertex
``k`` levels up, and the leftover is empty.

:class:`RegularTreeSpec` checks its deepest level against the vertex budget
(:func:`~treecast.budget.check_vertices`) when it is built; no sampling
kernel checks it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .budget import check_vertices


@dataclass(frozen=True)
class RegularTreeSpec:
    """A regular tree with forward branching rate ``r`` truncated at ``depth``.

    ``r = 1`` is a path.
    """

    r: int
    depth: int
    vertex_budget: int | None = None

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"branching rate must be >= 1, got {self.r}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        check_vertices(self.r, self.depth, self.vertex_budget)


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
