"""The two normal quantiles against scipy, and the report columns they feed.

The Monte Carlo ``lo``/``hi`` columns and the ``fk-stats`` median and mean
bounds come from these constants, so a single differing bit would change
``--reproducible`` output.
"""

import hashlib

import pytest
from scipy.special import ndtri as scipy_ndtri

from treecast.cli import main
from treecast.estimators import (
    Z_99,
    Z_99_PER_SIGN,
    delta_confidence_interval,
    wilson_interval,
)


def test_port_matches_scipy_bit_for_bit():
    # The Cephes port is reduced to the two floats it returned for the
    # probabilities ``src/`` asks for, built from the 99% level as the Wilson,
    # advantage, median and W_mean intervals build it.
    ci = 0.99
    built = {
        Z_99: (0.5 + 0.5 * ci, 0.5 + ci / 2.0, 0.995),
        Z_99_PER_SIGN: (0.5 + 0.5 * (1.0 - 0.5 * (1.0 - ci)),),
    }
    for z, probabilities in built.items():
        for y in probabilities:
            assert float(scipy_ndtri(y)).hex() == z.hex()


def test_port_end_points_and_domain():
    # The intervals each constant feeds reach 0 and 1 exactly at the ends of
    # the count range (n = 1..100 holds counts where the score formula alone
    # lands one ulp inside, for both constants), are symmetric about 0 when
    # the two signs are equally frequent, and refuse counts outside the range.
    for n in range(1, 101):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0
        assert delta_confidence_interval(n, 0, n)[1] == 1.0
        assert delta_confidence_interval(0, n, n)[0] == -1.0
        lo, hi = delta_confidence_interval(n, n, 2 * n)
        assert lo == -hi
    for successes, trials in ((-1, 10), (11, 10), (0, 0)):
        with pytest.raises(ValueError):
            wilson_interval(successes, trials)
        with pytest.raises(ValueError):
            delta_confidence_interval(successes, 0, trials)


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
