"""The Cephes ``ndtri`` port against scipy, and the report columns it feeds.

The Monte Carlo ``lo``/``hi`` columns and the ``fk-stats`` median and mean
bounds come from this quantile, so a single differing bit would change
``--reproducible`` output.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri

from treecast.cli import main
from treecast.estimators import _ndtri

EXP_MINUS_2 = math.exp(-2.0)
EXP_MINUS_32 = math.exp(-32.0)

# Every probability ``src/`` hands the quantile, built the way ``src/``
# builds it: ``wilson_interval`` at ``ci_level`` and, through
# ``delta_confidence_interval``, at ``1 - (1 - ci_level) / 2``; then
# ``_median_interval`` and the ``W_mean`` spread of ``fk-stats``.  These are
# 0.975, 0.9875, 0.995 and 0.9975.
SRC_PROBABILITIES = sorted(
    {0.5 + 0.5 * ci for ci in (0.95, 0.99)}
    | {0.5 + 0.5 * (1.0 - 0.5 * (1.0 - ci)) for ci in (0.95, 0.99)}
    | {0.5 + 0.99 / 2.0, 0.995}
)


def _neighbours(x, steps=3):
    out = [x]
    lo = hi = x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
        out += [lo, hi]
    return out


def probability_grid():
    uniform = np.linspace(0.0, 1.0, 120_002)[1:-1]
    lower = np.logspace(-300.0, math.log10(EXP_MINUS_2), 50_000)
    upper = 1.0 - np.logspace(-16.0, math.log10(EXP_MINUS_2), 50_000)
    edges = [0.5, 5e-324, np.nextafter(1.0, 0.0)]
    for branch in (EXP_MINUS_2, 1.0 - EXP_MINUS_2, EXP_MINUS_32):
        edges += _neighbours(branch)
    return np.concatenate([uniform, lower, upper, edges, SRC_PROBABILITIES])


def test_port_matches_scipy_bit_for_bit():
    grid = probability_grid()
    assert grid.size >= 200_000
    assert np.all((grid > 0.0) & (grid < 1.0))
    ours = np.array([_ndtri(float(y)) for y in grid])
    theirs = scipy_ndtri(grid)
    differ = np.flatnonzero(ours.view(np.int64) != theirs.view(np.int64))
    assert differ.size == 0, f"{differ.size} points differ, first at {grid[differ[0]]!r}"


def test_port_end_points_and_domain():
    assert _ndtri(0.0) == -math.inf
    assert _ndtri(1.0) == math.inf
    assert _ndtri(0.5) == 0.0
    for y in (-0.5, 1.5, math.nan):
        assert math.isnan(_ndtri(y))


# SHA-256 of the ``--reproducible`` CSV stdout, computed while the quantile
# still came from ``scipy.stats.norm.ppf``: each run prints rows with
# confidence columns.
PINNED_CSV = {
    "delta-mc": (
        ("delta", "--r", "2", "--depth", "4", "--eps", "0.1",
         "--replicates", "400", "--seed", "11"),
        "bd549e3fe413901fdb6410e230960811b580b1ef5dd194f96aacd377b6c4e66c",
    ),
    "eps-k-mc-fallback": (
        ("eps-k", "--r", "2", "--k", "5", "--eps", "0.2", "--budget", "10",
         "--replicates", "400", "--seed", "3"),
        "6c8a5de5c19c9ab586411a198f112da8dc480ede0314007121decca359ab4ade",
    ),
    "fk-stats": (
        ("fk-stats", "--r", "4", "--p", "0.3", "--k", "2..3", "--samples", "50"),
        "cc7f4090ab3ca4984fa2382ec02234ebbd296c2ea9926f3636986ea1722ec05e",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_CSV))
def test_confidence_columns_match_pinned_digest(capsys, name):
    argv, digest = PINNED_CSV[name]
    assert main([*argv, "--reproducible", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert ",mc," in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
