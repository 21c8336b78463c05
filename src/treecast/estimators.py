"""Monte Carlo estimation of reconstruction advantage.

The exact engine (:func:`~treecast.exact.scheme_delta`) covers schemes whose
corrected process reduces to a plain count chain, and takes the same
arguments as :func:`mc_delta`.  Everything else — minority removal in
particular, whose surviving structure is a random tree — is estimated here
from replicated trajectories with deterministic seeding.  The estimators
take explicit arguments and record only the level they read:

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .channel import ChannelParams
from .correction import CorrectionScheme, run_corrected_trajectory
from .rng import SeedSpec
from .trees import RegularTreeSpec

__all__ = [
    "mc_critical_bracket",
    "mc_delta",
    "mc_deltas",
    "wilson_interval",
]

DEFAULT_CI_LEVEL = 0.99

MIN_REPLICATES = 100

MIN_GRID_POINTS = 5

#: Number of standard errors a point estimate must clear the decision floor
#: by before a grid point is judged rather than reported inconclusive.
DECISION_SIGMAS = 4.0


#: Cephes ``ndtri`` coefficients: ``P0/Q0`` for the centre ``|y - 0.5| <= 3/8``,
#: ``P1/Q1`` and ``P2/Q2`` for tails with ``z = sqrt(-2 log y)`` in ``[2, 8)`` and
#: ``[8, 64]``.  The ``Q`` polynomials have an implicit leading coefficient 1.
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0


def _polevl(x: float, coef: tuple[float, ...], monic: bool = False) -> float:
    """Horner evaluation; ``monic`` prepends an implicit leading 1 (``p1evl``)."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Standard normal quantile, a line-for-line port of Cephes ``ndtri``.

    Moshier, *Methods and Programs for Mathematical Functions* (1989).  This
    is the routine behind ``scipy.special.ndtri`` and ``scipy.stats.norm.ppf``,
    and the port returns the same bits, so confidence bounds do not depend on
    whether scipy is loaded.  ``statistics.NormalDist().inv_cdf`` is Wichura's
    AS 241 instead; it differs from this by up to 6 ulp, which would change
    the ``lo``/``hi`` columns of reproducible output.  ``0`` and ``1`` map to
    ``-inf`` and ``+inf``; anything outside ``[0, 1]`` gives ``nan``.
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_MINUS_2
    if upper:
        y = 1.0 - y
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0, monic=True))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q, monic=True)
    return x if upper else -x


def wilson_interval(
    successes: float, trials: int, ci_level: float = DEFAULT_CI_LEVEL
) -> tuple[float, float]:
    """Wilson score interval for a binomial frequency.

    ``successes`` may be fractional: tie outcomes enter several estimators
    with weight one half, and the score interval is well defined for any
    success mass in ``[0, trials]``.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not 0.0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level must lie in (0, 1), got {ci_level}")
    z = _ndtri(0.5 + 0.5 * ci_level)
    n = float(trials)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def delta_confidence_interval(
    plus: float, minus: float, trials: int, ci_level: float = DEFAULT_CI_LEVEL
) -> tuple[float, float]:
    """Conservative interval for a frequency difference ``f(+) - f(-)``.

    Each frequency gets its own Wilson interval at level ``1 - (1-ci)/2``,
    and the difference interval is the worst-case combination, so joint
    coverage is at least ``ci_level`` without any independence assumption
    between the two sign counts.
    """
    each = 1.0 - 0.5 * (1.0 - ci_level)
    lo_p, hi_p = wilson_interval(plus, trials, each)
    lo_m, hi_m = wilson_interval(minus, trials, each)
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
    scheme: CorrectionScheme,
    r: int,
    depth: int,
    replicates: int,
    *,
    pin_renormalized_root: bool = False,
) -> RegularTreeSpec:
    """Refuse arguments :func:`mc_delta` cannot run, before anything is drawn.

    Checks the replicate floor, that a block scheme has ``r >= 2``, that a
    descent scheme's depth is a multiple of its period, that a
    renormalized-root depth lies past the scheme's start level, and the
    vertex budget of level ``depth``.  Returns the tree the run uses.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(
            f"need at least {MIN_REPLICATES} replicates, got {replicates}"
        )
    start = scheme.start_level(r)
    if scheme.descent_based and depth % scheme.k != 0:
        raise ValueError(
            f"depth {depth} must be a multiple of the descent period {scheme.k}"
        )
    if pin_renormalized_root and depth <= start:
        raise ValueError(
            "depth must exceed the scheme's start level to measure a "
            "renormalized-root advantage"
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

    The root is pinned to +1 and each replicate contributes the sign of the
    level's decision statistic; the estimate is the frequency difference
    ``freq(> 0) - freq(< 0)`` (ties contribute zero net, matching the
    fair-coin convention).  The statistic is the signed sum over the level's
    vertices, with two exceptions: minority-removal schemes count one vote
    per surviving block at correction levels (the corrected process's
    vertices are the blocks), and renormalized-root runs (block schemes
    only, sharing one start level) read the one-vote statistic relative to
    the pinned block level.

    The group runs as one trajectory that draws each flip mask once; every
    estimate is the one :func:`mc_delta` gives for its scheme alone.  Every
    scheme is checked before anything is drawn.
    """
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("need at least one scheme")
    trees = [
        check_mc_delta(
            scheme, r, depth, replicates, pin_renormalized_root=pin_renormalized_root
        )
        for scheme in schemes
    ]
    trajectories = run_corrected_trajectory(
        trees[0],
        schemes,
        ch,
        seed,
        replicates,
        pin_root=+1,
        pin_renormalized_root=pin_renormalized_root,
        record_levels=(depth,),
    )
    estimates = []
    for scheme, traj in zip(schemes, trajectories):
        rec = traj.records[0]
        renormalized = rec.renormalized_statistic is not None and (
            pin_renormalized_root or scheme.removes_minority
        )
        stat = rec.renormalized_statistic if renormalized else rec.statistic
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
