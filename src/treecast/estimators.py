"""Monte Carlo estimation of reconstruction advantage.

The exact engine (:func:`~treecast.exact.scheme_delta`) covers schemes whose
corrected process reduces to a plain count chain, and takes the same
arguments as :func:`mc_delta`.  Everything else — minority removal in
particular, whose surviving structure is a random tree — is estimated here
from replicated trajectories with deterministic seeding.  The estimators
take explicit arguments, and a trajectory returns only the one statistic
per replicate they read:

* :func:`mc_deltas` — the advantage of each of a group of schemes at one
  depth, from one trajectory run that draws every flip mask once for the
  whole group, each with its sign counts and a conservative 99% interval
  built from Wilson score intervals on the two sign frequencies;
* :func:`mc_delta` — the same for one scheme (``eps-k`` reads a level-``k``
  error rate from the counts of an ``Identity`` run);
* :func:`mc_critical_bracket` — a bracket for a critical error-free rate
  from a grid of :func:`mc_delta` estimates.  It never claims a sharp
  threshold: grid points that cannot be called with a four-sigma margin
  widen the bracket instead of being guessed.

Every interval is at the one 99% level, :func:`wilson_interval` and
:func:`median_interval` included, so the module keeps the two normal
quantiles it needs as constants (:data:`Z_99`, :data:`Z_99_PER_SIGN`)
rather than a quantile function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelParams
from .correction import CorrectionScheme, run_corrected_trajectory
from .rng import SeedSpec
from .trees import RegularTreeSpec

__all__ = [
    "Z_99",
    "mc_critical_bracket",
    "mc_delta",
    "mc_deltas",
    "median_interval",
    "wilson_interval",
]

MIN_REPLICATES = 100

MIN_GRID_POINTS = 5

#: Number of standard errors a point estimate must clear the decision floor
#: by before a grid point is judged rather than reported inconclusive.
DECISION_SIGMAS = 4.0

#: Standard normal quantiles ``ndtri(0.995)`` and ``ndtri(0.9975)``: the
#: two-sided 99% quantile, and the one each sign frequency of a 99% advantage
#: interval gets (half the miss probability per sign).  The floats are those
#: ``scipy.special.ndtri`` returns, so bounds do not depend on loading scipy.
Z_99 = 2.5758293035489004
Z_99_PER_SIGN = 2.807033768343811


def _score_interval(successes: float, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval at normal quantile ``z``.  An end the counts
    reach (no successes, or all) is its exact bound, 0 or 1."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not 0.0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    n = float(trials)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def wilson_interval(successes: float, trials: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial frequency.

    ``successes`` may be fractional: tie outcomes enter several estimators
    with weight one half, and the score interval is well defined for any
    success mass in ``[0, trials]``.
    """
    return _score_interval(successes, trials, Z_99)


def median_interval(values: np.ndarray) -> tuple[float, float]:
    """Distribution-free 99% order-statistic interval for the median."""
    ordered = np.sort(values)
    n = ordered.size
    half = Z_99 * math.sqrt(n * 0.25)
    lo = max(int(math.floor(n / 2.0 - half)), 0)
    hi = min(int(math.ceil(n / 2.0 + half)), n - 1)
    return float(ordered[lo]), float(ordered[hi])


def delta_confidence_interval(plus: float, minus: float, trials: int) -> tuple[float, float]:
    """Conservative 99% interval for a frequency difference ``f(+) - f(-)``.

    Each frequency gets its own Wilson interval at level 99.5%, and the
    difference interval is the worst-case combination, so joint coverage is
    at least 99% without any independence assumption between the two sign
    counts.
    """
    lo_p, hi_p = _score_interval(plus, trials, Z_99_PER_SIGN)
    lo_m, hi_m = _score_interval(minus, trials, Z_99_PER_SIGN)
    return max(lo_p - hi_m, -1.0), min(hi_p - lo_m, 1.0)


@dataclass(frozen=True)
class DeltaEstimate:
    """Estimated reconstruction advantage at one level."""

    delta_hat: float
    ci: tuple[float, float]
    replicates: int
    plus_count: int
    minus_count: int
    renormalized: bool = False

    def __post_init__(self) -> None:
        if not -1.0 <= self.delta_hat <= 1.0:
            raise ValueError(f"advantage {self.delta_hat} outside [-1, 1]")
        if not self.ci[0] <= self.delta_hat <= self.ci[1]:
            raise ValueError(
                f"interval {self.ci} does not contain the estimate {self.delta_hat}"
            )

    @property
    def sigma(self) -> float:
        """Standard error of the frequency difference (for separation gates)."""
        f_plus = self.plus_count / self.replicates
        f_minus = self.minus_count / self.replicates
        var = max(f_plus + f_minus - self.delta_hat**2, 0.0) / self.replicates
        return math.sqrt(var)


def check_mc_delta(
    schemes: Sequence[CorrectionScheme],
    r: int,
    depth: int,
    replicates: int,
    *,
    pin_renormalized_root: bool = False,
) -> RegularTreeSpec:
    """Refuse a group :func:`mc_deltas` cannot run, before anything is drawn:
    the one check of a Monte Carlo run's arguments.  The group holds at least
    one scheme, there are at least :data:`MIN_REPLICATES` replicates, each
    scheme's depth is in its domain
    (:meth:`~treecast.correction.CorrectionScheme.check_depth`, shared with
    the exact engine; a renormalized root needs a block scheme), a
    renormalized-root group has one start level, and level ``depth`` fits
    the vertex budget.  Returns the tree the run uses.
    """
    if not schemes:
        raise ValueError("need at least one scheme")
    if replicates < MIN_REPLICATES:
        raise ValueError(
            f"need at least {MIN_REPLICATES} replicates, got {replicates}"
        )
    for scheme in schemes:
        scheme.check_depth(r, depth, pin_renormalized_root=pin_renormalized_root)
    if pin_renormalized_root:
        starts = sorted({scheme.start_level(r) for scheme in schemes})
        if len(starts) > 1:
            raise ValueError(
                f"a renormalized-root group needs one start level, got {starts}"
            )
    return RegularTreeSpec(r=r, depth=depth)


def mc_deltas(
    schemes: Sequence[CorrectionScheme],
    r: int,
    depth: int,
    ch: ChannelParams,
    seed: SeedSpec,
    replicates: int,
    *,
    pin_renormalized_root: bool = False,
) -> tuple[DeltaEstimate, ...]:
    """Estimate the advantage at level ``depth`` of each scheme of a group,
    one estimate per scheme in order.

    The root is pinned to +1 (or, with ``pin_renormalized_root``, the
    schemes' shared block-0 level) and each replicate contributes the sign
    of the scheme's decision statistic at the level, as
    :func:`~treecast.correction.run_corrected_trajectory` returns it (the
    rule for which statistic decides lives in ``correction._plan``); the
    estimate is the frequency difference ``freq(> 0) - freq(< 0)`` (ties
    contribute zero net, matching the fair-coin convention).

    The group runs as one trajectory that draws each flip mask once; every
    estimate is the one :func:`mc_delta` gives for its scheme alone.  The
    group is checked (:func:`check_mc_delta`) before anything is drawn.
    """
    schemes = tuple(schemes)
    tree = check_mc_delta(
        schemes, r, depth, replicates, pin_renormalized_root=pin_renormalized_root
    )
    estimates = []
    for stat, renormalized in run_corrected_trajectory(
        tree, schemes, ch, seed, replicates, pin_renormalized_root
    ):
        plus = int((stat > 0).sum())
        minus = int((stat < 0).sum())
        estimates.append(
            DeltaEstimate(
                delta_hat=(plus - minus) / replicates,
                ci=delta_confidence_interval(plus, minus, replicates),
                replicates=replicates,
                plus_count=plus,
                minus_count=minus,
                renormalized=renormalized,
            )
        )
    return tuple(estimates)


def mc_delta(
    scheme: CorrectionScheme,
    r: int,
    depth: int,
    ch: ChannelParams,
    seed: SeedSpec,
    replicates: int,
    *,
    pin_renormalized_root: bool = False,
) -> DeltaEstimate:
    """Estimate the advantage at level ``depth`` of one corrected run: the
    one-scheme group of :func:`mc_deltas`."""
    return mc_deltas(
        (scheme,), r, depth, ch, seed, replicates,
        pin_renormalized_root=pin_renormalized_root,
    )[0]


JUDGE_RECONSTRUCTING = "reconstructing"
JUDGE_NON_RECONSTRUCTING = "non-reconstructing"
JUDGE_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BracketPoint:
    """One grid point of a critical bracket run and its judgement."""

    p: float
    estimate: DeltaEstimate
    judgement: str


@dataclass(frozen=True)
class McCriticalBracket:
    """A Monte Carlo critical bracket ``[p_lo, p_hi]`` with its per-point
    evidence; ``tolerance`` records the largest grid spacing."""

    p_lo: float
    p_hi: float
    tolerance: float
    points: tuple[BracketPoint, ...]


def _judge(est: DeltaEstimate, floor: float) -> str:
    margin = DECISION_SIGMAS * est.sigma
    if est.delta_hat > floor and est.delta_hat - floor >= margin:
        return JUDGE_RECONSTRUCTING
    if est.delta_hat < floor and floor - est.delta_hat >= margin:
        return JUDGE_NON_RECONSTRUCTING
    return JUDGE_INCONCLUSIVE


def mc_critical_bracket(
    scheme: CorrectionScheme,
    r: int,
    depth: int,
    p_grid: tuple[float, ...] | list[float],
    replicates: int,
    seed: SeedSpec,
    *,
    floor: float,
) -> McCriticalBracket:
    """Bracket a scheme's critical error-free rate from a grid of p values.

    Each grid point is one :func:`mc_delta` estimate at level ``depth``.  It
    is judged reconstructing or non-reconstructing only when its advantage
    clears ``floor`` by four standard errors; anything closer is
    inconclusive and widens the bracket rather than being guessed.  The
    bracket is [largest non-reconstructing p below the reconstruction
    region, smallest reconstructing p]; with no non-reconstructing point the
    lower edge falls back to 0 and with no reconstructing point the upper
    edge falls back to 1 (both trivially correct).  All grid points share
    the seed, so the comparison across p uses common random numbers.

    Raises ``RuntimeError`` when every grid point is inconclusive: the grid
    carries no bracketing information at this depth and replicate count.
    """
    grid = tuple(sorted(float(p) for p in p_grid))
    if len(grid) < MIN_GRID_POINTS:
        raise ValueError(
            f"need at least {MIN_GRID_POINTS} grid points, got {len(grid)}"
        )
    if len(set(grid)) != len(grid):
        raise ValueError("grid points must be distinct")

    points: list[BracketPoint] = []
    for p in grid:
        est = mc_delta(scheme, r, depth, ChannelParams.from_p(p), seed, replicates)
        points.append(BracketPoint(p=p, estimate=est, judgement=_judge(est, floor)))

    if all(pt.judgement == JUDGE_INCONCLUSIVE for pt in points):
        raise RuntimeError(
            "every grid point is inconclusive at this depth/replicate budget"
        )

    recon = [pt.p for pt in points if pt.judgement == JUDGE_RECONSTRUCTING]
    non_recon = [pt.p for pt in points if pt.judgement == JUDGE_NON_RECONSTRUCTING]
    p_hi = min(recon) if recon else 1.0
    below = [p for p in non_recon if p < p_hi]
    return McCriticalBracket(
        p_lo=max(below) if below else 0.0,
        p_hi=p_hi,
        tolerance=max(b - a for a, b in zip(grid, grid[1:])),
        points=tuple(points),
    )
