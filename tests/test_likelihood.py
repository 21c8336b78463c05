"""Exhaustive likelihood engine against a sum-over-all-assignments oracle."""

import itertools
import math
import re

import numpy as np
import pytest
from scipy.stats import binom

from treecast import delta_exact, ml_delta_exact
from treecast.likelihood import (
    MAX_OBSERVED,
    FiniteTree,
    random_leafed_tree,
    random_observation_pair,
)

from oracles import (
    loglikelihood_pair,
    majority_delta_enumerated,
    regular_tree,
    vertex_depths,
)

SINGLE_EDGE = FiniteTree(children=((1,), ()))
ORACLE_TREES_SEED = 7


def pattern_probs_by_assignment(tree, eps, observed, root_sign):
    """P(observed pattern | root sign) by brute force over every full sign
    assignment of the tree — no recursion shared with the implementation."""
    probs = {}
    for assignment in itertools.product((-1, 1), repeat=tree.n_vertices - 1):
        signs = (root_sign,) + assignment
        w = 1.0
        for v, kids in enumerate(tree.children):
            for c in kids:
                w *= eps if signs[c] != signs[v] else 1.0 - eps
        key = tuple(signs[v] for v in observed)
        probs[key] = probs.get(key, 0.0) + w
    return probs


def oracle_deltas(tree, eps, observed):
    plus = pattern_probs_by_assignment(tree, eps, observed, +1)
    minus = pattern_probs_by_assignment(tree, eps, observed, -1)
    ml = 0.5 * sum(
        abs(plus.get(y, 0.0) - minus.get(y, 0.0)) for y in plus.keys() | minus.keys()
    )
    majority = sum(
        p if sum(y) > 0 else -p if sum(y) < 0 else 0.0 for y, p in plus.items()
    )
    return ml, majority


def small_oracle_trees():
    rng = np.random.default_rng(ORACLE_TREES_SEED)
    trees = [
        SINGLE_EDGE,
        regular_tree(2, 2),
        FiniteTree(children=((1, 2), (3, 4, 5), (), (), (), ())),
    ]
    while len(trees) < 8:
        tree = random_leafed_tree(rng, depth=int(rng.integers(1, 4)), max_leaves=5)
        if tree.n_vertices <= 11:
            trees.append(tree)
    return trees


def test_tree_validation():
    with pytest.raises(ValueError):
        FiniteTree(children=())
    with pytest.raises(ValueError):
        FiniteTree(children=((1,), (0,), ()))  # child id below parent id
    with pytest.raises(ValueError):
        FiniteTree(children=((1, 1), ()))  # duplicate child
    with pytest.raises(ValueError):
        FiniteTree(children=((1,), (), ()))  # vertex 2 unattached


def test_regular_tree_shape():
    tree = regular_tree(2, 2)
    assert tree.n_vertices == 7
    assert tree.leaves == (3, 4, 5, 6)
    assert vertex_depths(tree) == (0, 1, 1, 2, 2, 2, 2)
    assert regular_tree(3, 0).n_vertices == 1


def test_single_edge_closed_form():
    for eps in (0.0, 0.1, 0.2, 0.45):
        assert math.isclose(ml_delta_exact(SINGLE_EDGE, eps), 1 - 2 * eps, abs_tol=1e-15)


def test_star_matches_binomial_tail_distance():
    # On a star the likelihood ratio is monotone in the leaf sum, so the
    # optimal rule is the majority and both advantages equal the
    # total-variation distance between two binomial count laws.
    star = regular_tree(8, 1)
    for eps in (0.1, 0.3):
        counts = np.arange(9)
        tv = 0.5 * np.abs(
            binom.pmf(counts, 8, 1 - eps) - binom.pmf(counts, 8, eps)
        ).sum()
        assert math.isclose(ml_delta_exact(star, eps), tv, rel_tol=1e-12)
        assert math.isclose(majority_delta_enumerated(star, eps), tv, rel_tol=1e-12)


def test_degenerate_channels():
    tree = regular_tree(2, 2)
    assert math.isclose(ml_delta_exact(tree, 0.0), 1.0)
    # At 1/2 the root is independent of the leaves: outside the domain.
    with pytest.raises(ValueError, match=re.escape("[0, 0.5)")):
        ml_delta_exact(tree, 0.5)


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_deltas_match_assignment_oracle(eps):
    for tree in small_oracle_trees():
        observed = tree.leaves
        ml_oracle, maj_oracle = oracle_deltas(tree, eps, observed)
        assert math.isclose(ml_delta_exact(tree, eps), ml_oracle, abs_tol=1e-12)
        assert math.isclose(
            majority_delta_enumerated(tree, eps), maj_oracle, abs_tol=1e-12
        )


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.45])
def test_optimal_rule_dominates_majority(eps):
    for tree in small_oracle_trees():
        assert ml_delta_exact(tree, eps) >= majority_delta_enumerated(tree, eps) - 1e-12


@pytest.mark.parametrize("r,depth", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_majority_enumeration_matches_count_chain(r, depth, eps):
    tree = regular_tree(r, depth)
    assert math.isclose(
        majority_delta_enumerated(tree, eps), delta_exact(depth, r, eps), abs_tol=1e-12
    )


def test_loglikelihood_pair_matches_assignment_oracle():
    rng = np.random.default_rng(ORACLE_TREES_SEED)
    for tree in small_oracle_trees():
        observed = tree.leaves
        pattern = tuple(int(s) for s in rng.choice((-1, 1), size=len(observed)))
        plus = pattern_probs_by_assignment(tree, 0.2, observed, +1)
        minus = pattern_probs_by_assignment(tree, 0.2, observed, -1)
        log_plus, log_minus = loglikelihood_pair(
            tree, 0.2, dict(zip(observed, pattern))
        )
        assert math.isclose(log_plus, math.log(plus[pattern]), rel_tol=1e-12)
        assert math.isclose(log_minus, math.log(minus[pattern]), rel_tol=1e-12)


def test_loglikelihood_pair_flip_symmetry():
    tree = regular_tree(2, 2)
    signs = {3: 1, 4: -1, 5: -1, 6: 1}
    flipped = {v: -s for v, s in signs.items()}
    a = loglikelihood_pair(tree, 0.3, signs)
    b = loglikelihood_pair(tree, 0.3, flipped)
    assert math.isclose(a[0], b[1], rel_tol=1e-12)
    assert math.isclose(a[1], b[0], rel_tol=1e-12)


def test_observing_more_never_hurts():
    rng = np.random.default_rng(11)
    for _ in range(8):
        tree, subset = random_observation_pair(rng, depth=int(rng.integers(2, 4)))
        for eps in (0.1, 0.3):
            full = ml_delta_exact(tree, eps)
            pruned = ml_delta_exact(tree, eps, observed=subset)
            assert full >= pruned - 1e-12


def test_observed_set_validation():
    tree = regular_tree(2, 2)
    with pytest.raises(ValueError):
        ml_delta_exact(tree, 0.1, observed=(0, 3))  # the root is never observed
    with pytest.raises(ValueError):
        ml_delta_exact(tree, 0.1, observed=(3, 3))
    with pytest.raises(ValueError):
        ml_delta_exact(tree, 0.1, observed=())
    with pytest.raises(ValueError):
        ml_delta_exact(regular_tree(2, 5), 0.1)  # 32 leaves > exhaustive cap
    assert MAX_OBSERVED == 24


def test_loglikelihood_pair_validation():
    tree = regular_tree(2, 1)
    with pytest.raises(ValueError):
        loglikelihood_pair(tree, 0.1, {})
    with pytest.raises(ValueError):
        loglikelihood_pair(tree, 0.1, {1: 0})
    with pytest.raises(ValueError):
        loglikelihood_pair(tree, 0.1, {0: 1})


def test_random_leafed_tree_is_leafed():
    rng = np.random.default_rng(3)
    for _ in range(20):
        depth = int(rng.integers(1, 5))
        tree = random_leafed_tree(rng, depth, max_leaves=12)
        depths = vertex_depths(tree)
        assert len(tree.leaves) <= 12
        assert all(depths[v] == depth for v in tree.leaves)


def test_random_observation_pair_is_proper_subset():
    rng = np.random.default_rng(5)
    for _ in range(20):
        tree, subset = random_observation_pair(rng, depth=3)
        leaves = set(tree.leaves)
        assert set(subset) < leaves
        assert subset
