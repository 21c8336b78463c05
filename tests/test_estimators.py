"""Monte Carlo estimators against the exact engine and interval invariants."""

import math
import re

import pytest

from treecast import (
    ChannelParams,
    CorrectionScheme,
    SeedSpec,
    delta_exact,
    mc_critical_bracket,
    mc_delta,
    mc_deltas,
    scheme_delta,
    wilson_interval,
)
from treecast import estimators
from treecast.estimators import (
    JUDGE_INCONCLUSIVE,
    DeltaEstimate,
    delta_confidence_interval,
)

from conftest import GATE_LABELS

SEED = SeedSpec(master_seed=314159)
Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


def test_wilson_interval_formula():
    lo, hi = wilson_interval(80, 100)
    n, p_hat = 100.0, 0.8
    denom = 1 + Z_99**2 / n
    center = (p_hat + Z_99**2 / (2 * n)) / denom
    half = Z_99 * math.sqrt(p_hat * 0.2 / n + Z_99**2 / (4 * n * n)) / denom
    assert math.isclose(lo, center - half, rel_tol=1e-9)
    assert math.isclose(hi, center + half, rel_tol=1e-9)


def test_wilson_interval_boundaries():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.2
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo > 0.8
    # Fractional success mass (tie weighting) is accepted.
    lo, hi = wilson_interval(10.5, 100)
    assert lo < 0.105 < hi
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    # The ends are exact at every trial count; the score formula alone lands
    # one ulp inside for about a third of them.
    for n in range(1, 20_001):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0
        assert delta_confidence_interval(n, 0, n)[1] == 1.0
        assert delta_confidence_interval(0, n, n)[0] == -1.0


def test_delta_interval_is_conservative():
    lo, hi = delta_confidence_interval(700, 100, 1000)
    assert lo <= 0.6 <= hi
    assert -1.0 <= lo < hi <= 1.0
    # Each sign's interval is at 99.5%, so the difference interval is wider
    # than the worst-case combination of two 99% intervals.
    lo_p, hi_p = wilson_interval(700, 1000)
    lo_m, hi_m = wilson_interval(100, 1000)
    assert lo < lo_p - hi_m and hi > hi_p - lo_m


def test_mc_delta_validation():
    ch = ChannelParams(epsilon=0.2)
    with pytest.raises(ValueError):
        mc_delta(CorrectionScheme.identity(), 2, 4, ch, SEED, 50)
    with pytest.raises(ValueError):
        mc_delta(CorrectionScheme.parse("WithinDescentMajority{k=2}"), 2, 5, ch, SEED, 500)
    with pytest.raises(ValueError):
        mc_delta(
            CorrectionScheme.identity(), 2, 4, ch, SEED, 500,
            pin_renormalized_root=True,
        )
    with pytest.raises(ValueError):
        # Depth must exceed the block scheme's start level to pin there.
        mc_delta(
            CorrectionScheme.block_majority_every_step(4), 2, 2, ch, SEED, 500,
            pin_renormalized_root=True,
        )


@pytest.mark.parametrize(
    ("descriptor", "depth", "pin"),
    [
        ("WithinDescentMajority{k=2}", 0, False),
        ("WithinDescentMajority{k=2}", 5, False),
        ("WithinDescentMinorityRemoval{k=2}", 0, False),
        ("BlockMajorityEveryStep{M=4}", 1, False),
        ("BlockMajorityEveryStep{M=4}", 2, True),
        ("Identity", 4, True),
    ],
    ids=["descent-depth-zero", "descent-not-a-multiple", "removal-depth-zero",
         "block-above-block-0", "pinned-at-block-0", "pinned-identity"],
)
def test_both_engines_share_one_depth_domain(monkeypatch, descriptor, depth, pin):
    def never(*args, **kwargs):
        raise AssertionError("the trajectory ran")

    scheme, ch = CorrectionScheme.parse(descriptor), ChannelParams(epsilon=0.1)
    monkeypatch.setattr(estimators, "run_corrected_trajectory", never)
    with pytest.raises(ValueError) as refused:
        mc_delta(scheme, 2, depth, ch, SEED, 200, pin_renormalized_root=pin)
    if not scheme.removes_minority:
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            scheme_delta(scheme, 2, depth, ch, pin_renormalized_root=pin)


def test_both_engines_answer_at_the_domain_edges():
    ch = ChannelParams(epsilon=0.1)
    for descriptor, depth, pin in (
        ("WithinDescentMajority{k=2}", 2, False),
        ("BlockMajorityEveryStep{M=4}", 2, False),
        ("BlockMajorityEveryStep{M=4}", 3, True),
    ):
        scheme = CorrectionScheme.parse(descriptor)
        exact = scheme_delta(scheme, 2, depth, ch, pin_renormalized_root=pin)
        est = mc_delta(scheme, 2, depth, ch, SEED, 4000, pin_renormalized_root=pin)
        assert abs(est.delta_hat - exact) < 5 * est.sigma


def test_block_scheme_at_r1_is_refused_before_drawing(monkeypatch):
    # At r = 1 every level holds one vertex, so no level ever outgrows a
    # block and a block scheme has no start level.
    def never(*args, **kwargs):
        raise AssertionError("the trajectory ran")

    monkeypatch.setattr(estimators, "run_corrected_trajectory", never)
    with pytest.raises(ValueError, match="r >= 2"):
        CorrectionScheme.block_majority_every_step(4).start_level(1)
    with pytest.raises(ValueError, match="r >= 2"):
        mc_delta(
            CorrectionScheme.block_majority_every_step(4), 1, 4,
            ChannelParams(epsilon=0.1), SEED, 200,
        )
    with pytest.raises(ValueError, match="r >= 2"):
        mc_deltas(
            (
                CorrectionScheme.identity(),
                CorrectionScheme.parse("MinorityRemovalEveryStep{M=4}"),
            ),
            1, 4, ChannelParams(epsilon=0.1), SEED, 200,
        )
    with pytest.raises(ValueError, match="at least one scheme"):
        mc_deltas((), 2, 4, ChannelParams(epsilon=0.1), SEED, 200)


def test_mc_deltas_match_one_scheme_runs():
    schemes = [
        CorrectionScheme.parse(text)
        for text in (
            "Identity",
            "WithinDescentMajority{k=2}",
            "BlockMajorityEveryStep{M=4}",
            "WithinDescentMinorityRemoval{k=2}",
        )
    ]
    ch = ChannelParams(epsilon=0.15)
    group = mc_deltas(schemes, 2, 6, ch, SEED, 300)
    assert group == tuple(mc_delta(s, 2, 6, ch, SEED, 300) for s in schemes)
    # Both start at level 2 on r = 2, so they can share a renormalized root.
    pinned = [
        CorrectionScheme.parse(text)
        for text in ("BlockMajorityEveryStep{M=4}", "MinorityRemovalEveryStep{M=5}")
    ]
    group = mc_deltas(pinned, 2, 6, ch, SEED, 300, pin_renormalized_root=True)
    assert group == tuple(
        mc_delta(s, 2, 6, ch, SEED, 300, pin_renormalized_root=True) for s in pinned
    )


def test_delta_estimate_validation():
    with pytest.raises(ValueError):
        DeltaEstimate(
            delta_hat=0.5, ci=(0.6, 0.7), replicates=100,
            plus_count=75, minus_count=25,
        )
    with pytest.raises(ValueError):
        DeltaEstimate(
            delta_hat=1.5, ci=(0.0, 2.0), replicates=100,
            plus_count=100, minus_count=0,
        )


@pytest.mark.parametrize("idx", range(len(GATE_LABELS)), ids=GATE_LABELS)
def test_mc_matches_exact_engine(idx, gate_points):
    point = gate_points[idx]
    assert point.sigma > 0
    assert point.z < 3.0, (
        f"{point.label}: estimate {point.delta_hat:.4f} vs exact "
        f"{point.exact:.4f} is {point.z:.2f} sigma away"
    )


def test_mc_delta_deterministic():
    ch = ChannelParams(epsilon=0.1)
    a = mc_delta(CorrectionScheme.identity(), 2, 4, ch, SEED, 500)
    b = mc_delta(CorrectionScheme.identity(), 2, 4, ch, SEED, 500)
    assert (a.delta_hat, a.plus_count, a.minus_count) == (
        b.delta_hat, b.plus_count, b.minus_count
    )
    other = mc_delta(
        CorrectionScheme.identity(), 2, 4, ch, SeedSpec(master_seed=271828), 500
    )
    assert (a.plus_count, a.minus_count) != (other.plus_count, other.minus_count)


def test_minority_removal_estimates_are_renormalized():
    est = mc_delta(
        CorrectionScheme.within_descent_minority_removal(1), 3, 2,
        ChannelParams(epsilon=0.3), SEED, 500,
    )
    assert est.renormalized
    assert -1.0 <= est.delta_hat <= 1.0


def test_minority_removal_matches_majority_at_one_period():
    # Over one period the surviving sign is the block majority, with a tie
    # resolved by the same coin stream, so the sign counts agree exactly
    # (r = 4 has ties).
    ch = ChannelParams(epsilon=0.25)
    majority = CorrectionScheme.parse("WithinDescentMajority{k=1}")
    removal = CorrectionScheme.within_descent_minority_removal(1)
    for r in (3, 4):
        kept = mc_delta(majority, r, 1, ch, SEED, 20_000)
        survived = mc_delta(removal, r, 1, ch, SEED, 20_000)
        assert survived.renormalized and not kept.renormalized
        assert (survived.plus_count, survived.minus_count) == (
            kept.plus_count, kept.minus_count
        )


def test_critical_bracket_localizes_identity_threshold():
    # The identity scheme's threshold on the binary tree is 1/sqrt(2); at
    # depth 12 the advantage at the grid edges is far enough from the middle
    # value to be called with four-sigma confidence.
    grid = (0.62, 0.66, 0.70, 0.74, 0.78)
    bracket = mc_critical_bracket(
        CorrectionScheme.identity(), 2, 12, grid, 10_000, SEED,
        floor=delta_exact(12, 2, (1 - 0.70) / 2),
    )
    assert bracket.p_lo < 1 / math.sqrt(2) < bracket.p_hi
    assert bracket.p_lo in grid and bracket.p_hi in grid
    assert bracket.tolerance == pytest.approx(0.04)
    assert len(bracket.points) == 5
    judged = [pt for pt in bracket.points if pt.judgement != JUDGE_INCONCLUSIVE]
    assert judged


def test_critical_bracket_fallback_edges():
    # Every point reconstructing: the lower edge falls back to zero.
    bracket = mc_critical_bracket(
        CorrectionScheme.identity(), 2, 6,
        (0.86, 0.88, 0.90, 0.92, 0.94), 1_000, SEED, floor=0.05,
    )
    assert bracket.p_lo == 0.0
    assert bracket.p_hi == 0.86
    # Every point non-reconstructing: the upper edge falls back to one.
    bracket = mc_critical_bracket(
        CorrectionScheme.identity(), 2, 12,
        (0.52, 0.54, 0.56, 0.58, 0.60), 1_000, SEED, floor=0.9,
    )
    assert bracket.p_hi == 1.0
    assert bracket.p_lo == 0.60


def test_critical_bracket_all_inconclusive_raises():
    # A narrow grid whose true advantages all sit within a fraction of a
    # standard error of the floor cannot be judged at 100 replicates.
    with pytest.raises(RuntimeError):
        mc_critical_bracket(
            CorrectionScheme.identity(), 2, 4,
            (0.68, 0.69, 0.70, 0.71, 0.72), 100, SEED,
            floor=delta_exact(4, 2, 0.15),
        )


def test_critical_bracket_grid_validation():
    with pytest.raises(ValueError):
        mc_critical_bracket(
            CorrectionScheme.identity(), 2, 4, (0.6, 0.7), 500, SEED, floor=0.3
        )
    with pytest.raises(ValueError):
        mc_critical_bracket(
            CorrectionScheme.identity(), 2, 4,
            (0.6, 0.6, 0.7, 0.8, 0.9), 500, SEED, floor=0.3,
        )
