"""Index arithmetic and partition invariants on regular trees."""

import pytest
from hypothesis import given, strategies as st

from treecast import BudgetError, CorrectionScheme
from treecast.budget import DEFAULT_VERTEX_BUDGET, check_vertices
from treecast.trees import BlockPartition, RegularTreeSpec

from oracles import (
    Vertex,
    ancestor_of_block,
    children_range,
    contains,
    leftover,
    level_size,
    parent_of,
    partition_blocks,
)

SMALL_TREE = RegularTreeSpec(r=3, depth=4)


def test_level_sizes_are_powers_of_r():
    assert [level_size(SMALL_TREE, n) for n in range(5)] == [1, 3, 9, 27, 81]
    with pytest.raises(ValueError):
        level_size(SMALL_TREE, 5)


def test_vertex_validation():
    with pytest.raises(ValueError):
        Vertex(level=-1, index=1)
    with pytest.raises(ValueError):
        Vertex(level=2, index=0)  # indices are 1-based
    assert contains(SMALL_TREE, Vertex(4, 81))
    assert not contains(SMALL_TREE, Vertex(4, 82))
    assert not contains(SMALL_TREE, Vertex(5, 1))


def test_root_has_no_parent():
    with pytest.raises(ValueError):
        parent_of(Vertex(0, 1), SMALL_TREE)


@given(
    r=st.integers(min_value=2, max_value=5),
    level=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_parent_child_round_trip(r, level, data):
    spec = RegularTreeSpec(r=r, depth=level + 1)
    index = data.draw(st.integers(min_value=1, max_value=r**level))
    v = Vertex(level, index)
    kids = children_range(v, spec)
    assert len(kids) == r
    for s in kids:
        assert parent_of(Vertex(level + 1, s), spec) == v


def test_children_of_distinct_vertices_are_disjoint():
    seen = set()
    for index in range(1, level_size(SMALL_TREE, 2) + 1):
        kids = set(children_range(Vertex(2, index), SMALL_TREE))
        assert not kids & seen
        seen |= kids
    assert seen == set(range(1, level_size(SMALL_TREE, 3) + 1))


@given(
    level_size=st.integers(min_value=0, max_value=200),
    block_size=st.integers(min_value=1, max_value=50),
)
def test_consecutive_partition_covers_level_once(level_size, block_size):
    part = BlockPartition(level=0, level_size=level_size, block_size=block_size)
    covered = [s for block in partition_blocks(part) for s in block]
    assert len(covered) == part.covered == part.n_blocks * block_size
    assert covered + list(leftover(part)) == list(range(1, level_size + 1))
    for block in partition_blocks(part):
        assert len(block) == block_size
    assert len(leftover(part)) == level_size % block_size


def test_descent_partition_blocks_are_descendant_sets():
    spec = RegularTreeSpec(r=2, depth=6)
    part = CorrectionScheme.parse("WithinDescentMajority{k=2}").partition_for(4, spec.r)
    assert part.block_size == 4
    assert part.n_blocks == 4
    assert len(leftover(part)) == 0
    for b, block in enumerate(partition_blocks(part)):
        ancestor = ancestor_of_block(part, 2, b)
        assert ancestor.level == 2
        for s in block:
            v = Vertex(4, s)
            assert parent_of(parent_of(v, spec), spec) == ancestor


def test_descent_partition_rejects_misaligned_levels():
    with pytest.raises(ValueError):
        CorrectionScheme.parse("WithinDescentMajority{k=2}").partition_for(5, 2)


def test_vertex_budget_boundary_is_exact():
    # The default budget holds 2**26 vertices and not one more, also where
    # the check decides by bit length alone.
    assert DEFAULT_VERTEX_BUDGET == 2**26
    check_vertices(2, 26)
    check_vertices(4, 13)
    check_vertices(2**26, 1)
    for r, n in ((2, 27), (4, 14), (2**26 + 1, 1), (2, 28), (3, 10**7)):
        with pytest.raises(BudgetError, match=rf"level of {r}\*\*{n} vertices"):
            check_vertices(r, n)
    check_vertices(1, 10**12)
    assert RegularTreeSpec(r=2, depth=26).depth == 26
    with pytest.raises(BudgetError):
        RegularTreeSpec(r=2, depth=27)


def test_vertex_budget_guard():
    with pytest.raises(BudgetError):
        RegularTreeSpec(r=2, depth=30)  # 2**30 vertices at the last level
    assert RegularTreeSpec(r=2, depth=30, vertex_budget=2**31).depth == 30
