"""Exact root reconstruction on explicit finite trees.

The count-chain engine handles regular trees through level-sum statistics;
this module is its companion for *arbitrary* small trees and the optimal
decision rule.  A tree is stored as an explicit child-adjacency table, and
the advantage of a reconstruction rule is computed exactly by dynamic
programming over every sign pattern of the observed vertices: one bottom-up
pass yields, for each pattern, the pair of conditional probabilities given a
+1 and a -1 root.  The maximum-likelihood advantage is the total-variation
distance between those two pattern laws.  ``tests/oracles.py`` reads the
sign-majority advantage off the same tables, which checks the count-chain
engine on small regular trees.

Observation sets default to the leaves but may be any set of non-root
vertices, so the advantage of watching a pruned subtree is the same call
with the pruned branches simply left out of the observation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import check_epsilon

__all__ = ["ml_delta_exact", "random_observation_pair"]

# Hard cap on observed vertices for the pattern-table pass: 2^24 patterns is
# the largest table that is still a desk-scale array.
MAX_OBSERVED = 24

# Child counts a vertex of random_leafed_tree draws from, uniformly.
_CHILD_COUNTS = (1, 2, 3)


@dataclass(frozen=True)
class FiniteTree:
    """An explicit rooted tree on vertices ``0..n-1`` with root ``0``.

    ``children[v]`` lists the children of ``v``.  Every child id must exceed
    its parent's id, so index order is a valid top-down order and reversed
    index order a valid bottom-up order.
    """

    children: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.children)
        if n == 0:
            raise ValueError("tree needs at least a root vertex")
        seen = []
        for v, kids in enumerate(self.children):
            for c in kids:
                if not v < c < n:
                    raise ValueError(
                        f"child {c} of vertex {v} out of order or out of range"
                    )
                seen.append(c)
        if sorted(seen) != list(range(1, n)):
            raise ValueError("every non-root vertex must be exactly one child")

    @property
    def n_vertices(self) -> int:
        return len(self.children)

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v, kids in enumerate(self.children) if not kids)


def _resolve_observed(
    tree: FiniteTree, observed: tuple[int, ...] | None
) -> tuple[int, ...]:
    if observed is None:
        observed = tree.leaves
    observed = tuple(observed)
    if not observed:
        raise ValueError("need at least one observed vertex")
    if len(set(observed)) != len(observed):
        raise ValueError("observed vertices must be distinct")
    for v in observed:
        if not 0 < v < tree.n_vertices:
            raise ValueError(f"observed vertex {v} is the root or out of range")
    if len(observed) > MAX_OBSERVED:
        raise ValueError(
            f"tree too large: {len(observed)} observed vertices exceed the "
            f"exhaustive cap of {MAX_OBSERVED}"
        )
    return observed


def _pattern_likelihoods(
    tree: FiniteTree, eps: float, observed: tuple[int, ...]
) -> np.ndarray:
    """Joint law of the observed sign pattern given the root sign.

    Returns an array of shape ``(2, 2**len(observed))``: row 0 conditions on
    a +1 root, row 1 on a -1 root.  Pattern bits read 0 for +1 and 1 for -1;
    bit order is internal (root-side observations most significant) and only
    pattern-order-invariant quantities should be derived from it, except
    through a sign table built in the same bit order.
    """
    obs = frozenset(observed)
    tables: dict[int, np.ndarray] = {}
    for v in reversed(range(tree.n_vertices)):
        tab = np.ones((2, 1))
        for c in tree.children[v]:
            child = tables.pop(c)
            through_edge = (1.0 - eps) * child + eps * child[::-1]
            tab = (tab[:, :, None] * through_edge[:, None, :]).reshape(2, -1)
        if v in obs:
            width = tab.shape[1]
            own = np.zeros((2, 2 * width))
            own[0, :width] = tab[0]
            own[1, width:] = tab[1]
            tab = own
        tables[v] = tab
    return tables[0]


def ml_delta_exact(
    tree: FiniteTree, eps: float, observed: tuple[int, ...] | None = None
) -> float:
    """Advantage of the optimal likelihood-comparison rule for the root sign.

    The rule declares +1 when the observed pattern is strictly more likely
    under a +1 root, -1 in the opposite case, and flips a fair coin on
    likelihood ties, so tied patterns contribute zero net advantage and the
    result is the total-variation distance between the two pattern laws.

    ``observed`` defaults to all leaves; any set of non-root vertices is
    accepted, so pruning branches of the tree is expressed by dropping their
    vertices from the observation set (the pruned law is the marginal law).
    """
    check_epsilon(eps)
    observed = _resolve_observed(tree, observed)
    lik = _pattern_likelihoods(tree, eps, observed)
    return float(0.5 * np.abs(lik[0] - lik[1]).sum())


def random_leafed_tree(
    rng: np.random.Generator, depth: int, max_leaves: int
) -> FiniteTree:
    """A random tree in which every leaf sits at the same depth.

    Each vertex above the bottom level draws its child count uniformly from
    :data:`_CHILD_COUNTS`, clamped so the level (and hence the leaf set)
    never exceeds ``max_leaves``.
    """
    if depth < 1:
        raise ValueError(f"need depth >= 1, got {depth}")
    if max_leaves < 1:
        raise ValueError(f"need max_leaves >= 1, got {max_leaves}")
    children: list[list[int]] = [[]]
    frontier = [0]
    for _ in range(depth):
        next_frontier: list[int] = []
        for i, v in enumerate(frontier):
            still_waiting = len(frontier) - i - 1
            room = max_leaves - len(next_frontier) - still_waiting
            count = min(int(rng.choice(_CHILD_COUNTS)), room)
            for _ in range(max(count, 1)):
                child = len(children)
                children.append([])
                children[v].append(child)
                next_frontier.append(child)
        frontier = next_frontier
    return FiniteTree(children=tuple(tuple(kids) for kids in children))


def random_observation_pair(
    rng: np.random.Generator, depth: int, max_leaves: int = 12
) -> tuple[FiniteTree, tuple[int, ...]]:
    """A random tree plus a proper nonempty subset of its leaves.

    The subset is exactly the bottom level of a pruned-branch subtree that
    shares the root, so comparing the full and the subset observation tests
    that watching more of the tree never hurts the optimal rule.  Trees with
    a single leaf admit no proper subset, so the draw is retried (the
    child counts make that a rare event).
    """
    for _ in range(64):
        tree = random_leafed_tree(rng, depth, max_leaves)
        leaves = tree.leaves
        if len(leaves) >= 2:
            size = int(rng.integers(1, len(leaves)))
            kept = rng.choice(len(leaves), size=size, replace=False)
            subset = tuple(sorted(leaves[i] for i in kept))
            return tree, subset
    raise RuntimeError("could not draw a tree with at least two leaves")
