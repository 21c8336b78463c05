"""Machine-precision scalar quantities of the broadcast process.

Everything here is driven by the *count chain*: the Markov chain
``X_n = #{+1 vertices at level n}`` conditioned on a +1 root.  Given
``X_n = m`` on a level of ``N`` vertices with branching ``r`` and distortion
``eps``, the next count is ``Binomial(r*m, 1-eps) + Binomial(r*(N-m), eps)``
(plus-children of plus-parents plus plus-children of minus-parents).  From
the chain follow, exactly at desk scale:

* the majority advantage ``delta_exact`` (probability the level majority
  agrees with the root minus the probability it disagrees);
* the effective error rate of a k-step descent majority;
* the noise of the fraction-pick transform (closed form);
* the separation statistic between the two (``t_statistic``);
* the advantage of a corrected run, :func:`scheme_delta`: the question
  Monte Carlo's ``mc_delta`` answers, asked with the same arguments, for
  every scheme whose corrected process reduces to a plain count chain
  (``Identity``, ``WithinDescentMajority``, ``FractionIdentification`` and
  ``BlockMajorityEveryStep`` with a power-of-``r`` block);
* critical error-free rates ``critical_point_k``: roots of the
  renormalized Kesten-Stigum condition, bracketed by a grid scan and an ITP
  search;
* the level-sum agreement conditionals (``level_sum_agreement``).

Every count law comes from one routine: the two-type generating-function
recursion, evaluated pointwise on roots of unity and inverted with one FFT
per law (see :func:`count_distribution`); a level of ``N`` vertices costs
``O(level*N + N log N)``.  The same routine gives the laws ``lag`` levels
below a level with a given plus count, which is all that
:func:`level_sum_agreement` needs.  The accuracy contract is absolute: every
probability is within about 1e-14 of its exact value (measured up to the
default 65,537-point support budget).  Probabilities smaller than that carry
no relative accuracy; they are round-off, and those that came out below zero
are returned as 0.  Every quantity exposed here sums probabilities at the
scale of the mode and inherits the absolute error.

Every distortion rate given here lies in [0, 1/2), the package's one channel
domain (:func:`~treecast.channel.check_epsilon`).  A rate the engine
derives, a corrected block's edge, is not checked: it may round to 1/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .budget import check_support
from .channel import ChannelParams, check_epsilon
from .correction import CorrectionScheme

# Largest block exponent j (M = r**j) that minimal_rescuing_block_size tries.
_MAX_BLOCK_EXPONENT = 40
# critical_point_k: search steps at most (a guard; critical_point_k refuses a
# tol below the float spacing), and grid points of the monotonicity scan.
_MAX_STEPS = 200
_SCAN_POINTS = 9

__all__ = [
    "block_error_rate",
    "critical_point_k",
    "delta_exact",
    "effective_error_rate",
    "fraction_error_rate",
    "level_sum_agreement",
    "minimal_rescuing_block_size",
    "scheme_delta",
    "t_statistic",
]


def _validate_channel(r: int, eps: float) -> None:
    if r < 2:
        raise ValueError(f"branching rate must be >= 2, got {r}")
    check_epsilon(eps)


def _count_laws(
    level: int, lag: int, r: int, eps: float, plus_counts: np.ndarray | list[int],
    budget: int | None,
) -> np.ndarray:
    """``P(X_{level+lag} = j | X_level = m)``, one row per ``m`` in
    ``plus_counts`` and one column per ``j = 0..r**(level+lag)``.

    ``F`` and ``G``, the generating functions of one vertex's plus-descendants
    ``lag`` levels down when it is +1 and when it is -1, start as ``z`` and
    ``1`` and compose once per level as
    ``F, G <- ((1-eps)*F + eps*G)**r, (eps*F + (1-eps)*G)**r``.  A level of
    ``N`` vertices with ``m`` plus vertices has the law ``F**m * G**(N-m)``.
    All are evaluated at ``z = exp(-2*pi*i*k/M)`` with ``M > r**(level+lag)``
    a power of two (``k <= M/2`` only: the rest are complex conjugates), and
    one inverse real FFT per row recovers the probabilities.
    """
    check_support(r, level + lag, budget)
    parents, size = r**level, r ** (level + lag)
    m = np.asarray(plus_counts)[:, None]
    if lag == 0 or eps == 0.0:
        # Every vertex copies its ancestor: point masses.
        laws = np.zeros((len(m), size + 1))
        np.put_along_axis(laws, m * r**lag, 1.0, axis=1)
        return laws
    grid = 1 << size.bit_length()
    f = np.exp(-2j * np.pi * np.arange(grid // 2 + 1) / grid)
    g = np.ones_like(f)
    for _ in range(lag):
        f, g = ((1.0 - eps) * f + eps * g) ** r, (eps * f + (1.0 - eps) * g) ** r
    if parents == 1:
        # A lone vertex: each row is F or G itself, without complex powers.
        values = np.where(m == 1, f, g)
    else:
        values = f**m
        values *= g ** (parents - m)
    laws = np.fft.irfft(values, grid)[:, : size + 1]
    np.maximum(laws, 0.0, out=laws)
    return laws


def count_distribution(
    level: int, r: int, eps: float, budget: int | None = None
) -> np.ndarray:
    """Count law ``probs[j] = P(X_level = j | root = +1)``, ``j = 0..r**level``,
    on a branching-``r`` tree.

    It is :func:`_count_laws` with the root as the only parent: ``F``
    composed ``level`` times and inverted with one inverse real FFT.  Each
    entry is within about 1e-14 of its exact value, absolute, not relative;
    round-off below zero is returned as 0.  ``eps == 0`` and ``level == 0``
    give the exact point mass at ``r**level``.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    _validate_channel(r, eps)
    return _count_laws(0, level, r, eps, [1], budget)[0]


def _majority_split(laws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P(X > size/2)`` and ``P(X < size/2)`` of count laws on the last axis."""
    size = laws.shape[-1] - 1
    return laws[..., size // 2 + 1 :].sum(axis=-1), laws[..., : (size + 1) // 2].sum(axis=-1)


def delta_from_distribution(probs: np.ndarray) -> float:
    """Majority advantage of a count law; exact ties net to zero."""
    above, below = _majority_split(probs)
    return float(above - below)


def delta_exact(n: int, r: int, eps: float, budget: int | None = None) -> float:
    """Majority advantage at level ``n``: P(majority agrees with the root)
    minus P(majority disagrees), ties netting to zero."""
    return delta_from_distribution(count_distribution(n, r, eps, budget))


def _derived_delta(n: int, r: int, eps: float, budget: int | None) -> float:
    """:func:`delta_exact` on a derived rate, unchecked: it may round to 1/2."""
    return delta_from_distribution(_count_laws(0, n, r, eps, [1], budget)[0])


def effective_error_rate(k: int, r: int, eps: float, budget: int | None = None) -> float:
    """Error rate of the k-step descent majority.

    The probability that the majority over the ``r**k`` descendants ``k``
    generations down disagrees with the ancestor, counting exact ties with
    weight one half.
    """
    if k < 0:
        raise ValueError(f"distance must be >= 0, got {k}")
    probs = count_distribution(k, r, eps, budget)
    size = len(probs) - 1
    below = float(probs[: (size + 1) // 2].sum())
    tie = 0.5 * float(probs[size // 2]) if size % 2 == 0 else 0.0
    return below + tie


def fraction_error_rate(k: int, eps: float) -> float:
    """Noise of the fraction-pick transform over ``k`` generations.

    A uniformly chosen single descendant ``k`` steps down sees the root
    through a length-``k`` chain of independent distortions, so the
    error-free rate compounds: ``1 - 2*rate = (1 - 2*eps)**k``.
    """
    if k < 1:
        raise ValueError(f"distance must be >= 1, got {k}")
    check_epsilon(eps)
    return (1.0 - (1.0 - 2.0 * eps) ** k) / 2.0


def t_statistic(k: int, r: int, eps: float, budget: int | None = None) -> float:
    """Gap between fraction-pick noise and descent-majority noise.

    Positive values mean the descent majority is strictly cleaner than a
    single sampled descendant at the same distance.
    """
    return fraction_error_rate(k, eps) - effective_error_rate(k, r, eps, budget)


def block_error_rate(M: int, eps: float) -> float:
    """Renormalized error rate of a majority over ``M`` independent copies.

    ``P(Binomial(M, 1-eps) < M/2) + 0.5 * P(Binomial(M, 1-eps) = M/2)``,
    evaluated from exact binomial tails.
    """
    if M < 1:
        raise ValueError(f"block size must be >= 1, got {M}")
    check_epsilon(eps)
    # Local: scipy.special takes ~0.3 s to load.  M reaches r**40, past any
    # FFT support; these are the Boost kernels behind scipy.stats.binom's cdf
    # and pmf, given the same floats and clipped to [0, 1] as binom clips them.
    from scipy.special._ufuncs import _binom_cdf, _binom_pmf

    def law(kernel: Callable, wins: int) -> float:
        return float(np.clip(kernel(float(wins), float(M), 1.0 - eps), 0.0, 1.0))

    below = law(_binom_cdf, (M - 1) // 2)
    tie = 0.5 * law(_binom_pmf, M // 2) if M % 2 == 0 else 0.0
    return below + tie


def scheme_delta(
    scheme: CorrectionScheme,
    r: int,
    depth: int,
    ch: ChannelParams,
    budget: int | None = None,
    *,
    pin_renormalized_root: bool = False,
) -> float:
    """Majority advantage at level ``depth`` of one corrected run, exactly.

    This is the question :func:`~treecast.estimators.mc_delta` answers by
    sampling, with the same ``scheme``, ``r``, ``depth``, ``ch`` and
    ``pin_renormalized_root``.  Four schemes reduce to a plain count chain:

    * ``Identity``: the majority advantage of level ``depth``.
    * ``WithinDescentMajority{k}`` and ``FractionIdentification{k}``: after
      each correction the block values form a broadcast on a tree that
      branches once (root to the first block) and ``r**k`` ways thereafter,
      with error rate ``effective_error_rate(k)`` or ``fraction_error_rate(k)``
      per edge.  ``depth`` must be a positive multiple of ``k``; the
      advantage is the single-edge factor ``1 - 2*eps_k`` times the majority
      advantage ``depth/k - 1`` levels down the branching-``r**k`` tree.
    * ``BlockMajorityEveryStep{M}`` with ``M = r**j``, ``j`` the scheme's
      start level: blocks nest inside descents, so the block values form a
      plain branching-``r`` broadcast with error rate
      ``block_error_rate(M, eps)``, started from block 0 (the whole level
      ``j``) and read ``depth - j`` levels below it.  With
      ``pin_renormalized_root`` the advantage is measured from block 0;
      otherwise from the true root, through the majority-of-level-``j``
      channel.

    A depth outside the scheme's domain
    (:meth:`~treecast.correction.CorrectionScheme.check_depth`, shared with
    Monte Carlo) raises ``ValueError``, and so do the two cases only this
    engine refuses: minority-removal schemes, and a block size that is not
    a power of ``r``.
    """
    eps = ch.epsilon
    _validate_channel(r, eps)
    if scheme.removes_minority:
        raise ValueError("minority-removal schemes have no exact engine; drop --exact")
    scheme.check_depth(r, depth, pin_renormalized_root=pin_renormalized_root)
    if scheme.variant == "Identity":
        return delta_exact(depth, r, eps, budget)
    if scheme.descent_based:
        k = scheme.k
        if scheme.variant == "WithinDescentMajority":
            eps_k = effective_error_rate(k, r, eps, budget)
        else:
            eps_k = fraction_error_rate(k, eps)
        return (1.0 - 2.0 * eps_k) * _derived_delta(depth // k - 1, r**k, eps_k, budget)
    j = scheme.start_level(r)
    if scheme.M != r**j:
        raise ValueError(
            f"exact block-majority analysis needs a block size that is a power "
            f"of the branching rate; got M={scheme.M}, r={r}"
        )
    head = 1.0 if pin_renormalized_root else 1.0 - 2.0 * effective_error_rate(j, r, eps, budget)
    return head * _derived_delta(depth - j, r, block_error_rate(scheme.M, eps), budget)


def minimal_rescuing_block_size(r: int, eps: float) -> int:
    """Smallest block size ``M = r**j`` whose renormalized channel clears the
    Kesten-Stigum condition ``(1 - 2*block_error_rate)**2 * r > 1``."""
    _validate_channel(r, eps)
    for j in range(_MAX_BLOCK_EXPONENT + 1):
        M = r**j
        if (1.0 - 2.0 * block_error_rate(M, eps)) ** 2 * r > 1.0:
            return M
    raise RuntimeError(
        f"no rescuing block size up to r**{_MAX_BLOCK_EXPONENT} at eps={eps}"
    )


def ks_condition_value(k: int, r: int, p: float, budget: int | None = None) -> float:
    """Renormalized Kesten-Stigum objective ``(1 - 2*eps_k)**2 * r**k - 1``.

    Positive values mean the k-step corrected channel reconstructs on the
    branching-``r**k`` renormalized tree.
    """
    eps = ChannelParams.from_p(p).epsilon
    p_k = 1.0 - 2.0 * effective_error_rate(k, r, eps, budget)
    return p_k * p_k * r**k - 1.0


@dataclass(frozen=True)
class CriticalEstimate:
    """A bracket ``f(p_lo) <= 0 < f(p_hi)`` of width at most ``tolerance`` for
    a critical error-free rate, where ``f`` is the renormalized Kesten-Stigum
    objective; ``evaluations`` counts the objective evaluations that found it
    (bracket ends, nudges, scan and search)."""

    p_lo: float
    p_hi: float
    tolerance: float
    evaluations: int
    objective_monotone: bool = True

    def __post_init__(self) -> None:
        if not self.p_lo < self.p_hi:
            raise ValueError(
                f"bracket must satisfy p_lo < p_hi, got [{self.p_lo}, {self.p_hi}]"
            )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.p_lo + self.p_hi)


def _itp_search(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float,
    tol: float,
) -> tuple[float, float]:
    """Narrow a sign change ``f(lo) <= 0 < f(hi)`` to width at most ``tol``.

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS 2020)
    with ``kappa1 = 0.2 / (hi - lo)``, ``kappa2 = 2`` and ``n0 = 1``.  Each
    step moves the regula falsi point towards the midpoint by
    ``kappa1 * width**2``, then projects it into the interval around the
    midpoint that still reaches width ``tol`` within ``n_max =
    ceil(log2((hi - lo) / tol)) + 1`` steps, one more than bisection.  So
    it converges superlinearly on a smooth ``f`` and never needs more than
    ``n_max`` evaluations, whatever ``f`` is.  Returns the final bracket,
    which keeps the sign change; raises ``RuntimeError`` if ``_MAX_STEPS``
    steps leave it wider than ``tol`` (a ``tol`` below the float spacing).
    """
    kappa1 = 0.2 / (hi - lo)
    n_max = math.ceil(math.log2((hi - lo) / tol)) + 1
    # The projection can hold the width exactly on its bound at every step;
    # aim it a few float spacings under tol, so that rounding cannot leave
    # the last bracket wider than tol.
    aim = max(tol - 4.0 * math.ulp(max(abs(lo), abs(hi))), 0.5 * tol)
    for step in range(_MAX_STEPS):
        width = hi - lo
        if width <= tol:
            break
        mid = lo + 0.5 * width
        radius = max(0.5 * aim * 2.0 ** (n_max - step) - 0.5 * width, 0.0)
        falsi = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
        toward = math.copysign(1.0, mid - falsi)
        truncation = kappa1 * width * width
        probe = falsi + toward * truncation if truncation <= abs(mid - falsi) else mid
        if abs(probe - mid) > radius:
            probe = mid - toward * radius
        value = f(probe)
        if value > 0.0:
            hi, f_hi = probe, value
        else:
            lo, f_lo = probe, value
    if hi - lo > tol:
        raise RuntimeError(
            f"no bracket of width {tol} after {_MAX_STEPS} steps: [{lo!r}, {hi!r}]"
        )
    return lo, hi


def critical_point_k(
    k: int, r: int, tol: float = 1e-9, budget: int | None = None
) -> CriticalEstimate:
    """Bracket the critical error-free rate of the k-step descent-majority
    scheme: the root of the renormalized Kesten-Stigum condition
    :func:`ks_condition_value`, to width ``tol``.

    The initial bracket is ``(0.75/r, 1/sqrt(r)]``; the upper end is nudged
    up by parts in 1e9 if the objective is still nonpositive there (the k=1
    root can sit exactly on ``1/sqrt(r)``).  A 9-point grid scan checks that
    the objective increases across the bracket; a violation is flagged on the
    estimate and warned about, since the search then narrows only the first
    sign change the scan sees.  That scan cell, an eighth of the bracket, is
    narrowed by ITP (:func:`_itp_search`) to width ``tol``: typically 13-18
    objective evaluations in all, and never more than one step past what
    bisection of the cell would take.

    ``tol`` must be at least ``math.ulp(1/sqrt(r))``, the float spacing at
    the top of the bracket and so the widest spacing in it; a smaller
    ``tol`` may be unreachable and raises ``ValueError`` before any count
    law is built.
    """
    if k < 1:
        raise ValueError(f"correction period must be >= 1, got {k}")
    if r < 2:
        raise ValueError(f"branching rate must be >= 2, got {r}")
    spacing = math.ulp(1.0 / math.sqrt(r))
    if not tol >= spacing:
        raise ValueError(
            f"tolerance must be at least {spacing!r}, the float spacing at "
            f"1/sqrt({r}), got {tol}"
        )
    check_support(r, k, budget)
    evaluations = 0

    def objective(p: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return ks_condition_value(k, r, p, budget)

    lo = 0.75 / r
    hi = 1.0 / math.sqrt(r)
    f_lo = objective(lo)
    f_hi = objective(hi)
    expansions = 0
    while f_hi <= 0.0 and expansions < 64:
        hi *= 1.0 + 1e-9
        f_hi = objective(hi)
        expansions += 1
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise RuntimeError(
            f"no sign change for k={k}, r={r}: objective is {f_lo:.3e} at "
            f"p={lo:.6f} and {f_hi:.3e} at p={hi:.6f}"
        )

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    values = [f_lo, *(objective(p) for p in grid[1:-1]), f_hi]
    monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    if not monotone:
        warnings.warn(
            f"renormalized Kesten-Stigum objective is not monotone on the "
            f"initial bracket for k={k}, r={r}; the search brackets only the "
            "first sign change of the scan and may be unreliable",
            stacklevel=2,
        )

    cell = next(i for i in range(_SCAN_POINTS - 1) if values[i + 1] > 0.0)
    lo, hi = _itp_search(
        objective, float(grid[cell]), float(grid[cell + 1]), values[cell],
        values[cell + 1], tol,
    )
    return CriticalEstimate(
        p_lo=lo, p_hi=hi, tolerance=tol, evaluations=evaluations,
        objective_monotone=monotone,
    )


@dataclass(frozen=True)
class LevelAgreementReport:
    """Agreement conditionals between level sums of the plain broadcast.

    All quantities are under the unconditioned process (fair root):

    * ``previous_given_final_positive`` — advantage of the previous level's
      sum sign given a positive final sum;
    * ``final_given_previous_positive`` — advantage of the final sum sign
      given a positive previous sum;
    * ``fixed_sum_advantage[l]`` — advantage of the final sum sign given any
      fixed previous-level configuration summing to ``l > 0`` (depends on the
      configuration only through ``l``);
    * ``lagged_given_final_positive[lag]`` — advantage of the level-
      ``(n-lag)`` sum sign given a positive final sum, for each lag.
    """

    n: int
    r: int
    eps: float
    previous_given_final_positive: float
    final_given_previous_positive: float
    fixed_sum_advantage: dict[int, float]
    lagged_given_final_positive: dict[int, float]

    def all_values(self) -> list[float]:
        return [
            self.previous_given_final_positive,
            self.final_given_previous_positive,
            *self.fixed_sum_advantage.values(),
            *self.lagged_given_final_positive.values(),
        ]


def level_sum_agreement(
    n: int, r: int, eps: float, budget: int | None = None
) -> LevelAgreementReport:
    """Exact agreement conditionals between level sums at depth ``n``."""
    if n < 1:
        raise ValueError(f"need depth >= 1, got {n}")
    _validate_channel(r, eps)
    lagged: dict[int, float] = {}
    for lag in range(1, n + 1):
        level = n - lag
        parents = r**level
        m = np.arange(parents + 1)
        # Per plus count m at this level: P(final sum > 0) and P(final sum < 0).
        q_pos, q_neg = _majority_split(_count_laws(level, lag, r, eps, m, budget))
        # The level's count law under a fair root.
        plus = count_distribution(level, r, eps, budget)
        u = 0.5 * (plus + plus[::-1])

        # Advantage of the level sum sign given a positive final sum.
        joint_pos = u * q_pos
        above, below = _majority_split(joint_pos)
        lagged[lag] = float((above - below) / joint_pos.sum())
        if lag == 1:
            # One-step conditionals given the previous level's plus count.
            prev_pos = m > parents / 2
            advantage = (q_pos - q_neg)[prev_pos]
            final_given_prev = float((u[prev_pos] * advantage).sum() / u[prev_pos].sum())
            fixed = {int(2 * a - parents): float(v) for a, v in zip(m[prev_pos], advantage)}

    return LevelAgreementReport(
        n=n,
        r=r,
        eps=eps,
        previous_given_final_positive=lagged[1],
        final_given_previous_positive=final_given_prev,
        fixed_sum_advantage=fixed,
        lagged_given_final_positive=lagged,
    )


# ``perfbench/make_reference.py`` computes its sweep truths with these two
# older spellings; each is :func:`scheme_delta` with the level written out.
def renormalized_delta(
    k: int, m_levels: int, r: int, eps: float, budget: int | None = None
) -> float:
    """``WithinDescentMajority{k}`` read at level ``(m_levels + 1) * k``."""
    scheme = CorrectionScheme("WithinDescentMajority", k=k)
    return scheme_delta(scheme, r, (m_levels + 1) * k, ChannelParams(eps), budget)


def block_scheme_delta(
    M: int,
    depth: int,
    r: int,
    eps: float,
    pin_renormalized_root: bool = False,
    budget: int | None = None,
) -> float:
    """``BlockMajorityEveryStep{M}`` read ``depth`` levels below block 0."""
    scheme = CorrectionScheme.block_majority_every_step(M)
    return scheme_delta(
        scheme, r, scheme.start_level(r) + depth, ChannelParams(eps), budget,
        pin_renormalized_root=pin_renormalized_root,
    )
