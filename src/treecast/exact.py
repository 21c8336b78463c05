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
* renormalized advantages of the correction schemes that admit an exact
  counterpart;
* critical error-free rates ``critical_point_k`` via bisection of the
  renormalized Kesten-Stigum condition;
* the level-sum agreement conditionals (``level_sum_agreement``).

Count laws come from the two-type generating-function recursion, evaluated
pointwise on roots of unity and inverted with one FFT (see
:func:`count_distribution`); a level of ``N`` vertices costs
``O(level*N + N log N)``.  The accuracy contract is absolute: every
probability is within about 1e-14 of its exact value (measured up to the
default 65,537-point support budget).  Probabilities smaller than that carry
no relative accuracy.  They are round-off, and those that came out at or
below zero are stored as 0, so their ``log_probs`` entries are ``-inf``.
Every quantity exposed here sums probabilities at the scale of the mode and
inherits the absolute error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .budget import check_support

__all__ = [
    "block_error_rate",
    "block_scheme_delta",
    "critical_point_k",
    "delta_exact",
    "effective_error_rate",
    "fraction_error_rate",
    "fraction_scheme_delta",
    "level_sum_agreement",
    "minimal_rescuing_block_size",
    "renormalized_delta",
    "t_statistic",
]


@dataclass(frozen=True)
class CountDistribution:
    """Distribution of the number of +1 vertices on one level, given a +1 root.

    ``log_probs[j] = log P(X_level = j | root = +1)`` over the full support
    ``0..size``.  Each probability is accurate to about 1e-14 absolute, not
    relative: entries below that level are round-off, and those at or below
    zero are stored as probability 0 (``-inf`` here).
    """

    level: int
    size: int
    log_probs: np.ndarray

    def __post_init__(self) -> None:
        if self.log_probs.shape != (self.size + 1,):
            raise ValueError(
                f"support must have {self.size + 1} points, got {self.log_probs.shape}"
            )

    def probs(self) -> np.ndarray:
        """Linear-space probabilities (exponentiated once, on demand)."""
        return np.exp(self.log_probs)


def _validate_channel(r: int, eps: float) -> None:
    if r < 2:
        raise ValueError(f"branching rate must be >= 2, got {r}")
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"distortion rate must lie in [0, 0.5], got {eps}")


def count_distribution(
    level: int, r: int, eps: float, budget: int | None = None
) -> CountDistribution:
    """Count distribution at ``level`` on a branching-``r`` tree with a +1 root.

    ``F`` and ``G``, the generating functions of the plus-count under a +1 and
    a -1 root, start as ``z`` and ``1`` and compose once per level as
    ``F, G <- ((1-eps)*F + eps*G)**r, (eps*F + (1-eps)*G)**r``.  They are
    evaluated pointwise at ``z = exp(-2*pi*i*k/M)`` with ``M > size`` a power
    of two (``k <= M/2`` only: the rest are complex conjugates), and one
    inverse real FFT of ``F`` recovers the probabilities.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    _validate_channel(r, eps)
    size = r**level
    check_support(size + 1, budget)
    if level == 0 or eps == 0.0:
        # Every vertex copies the root: a point mass at the full level.
        probs = np.zeros(size + 1)
        probs[size] = 1.0
    else:
        m = 1 << size.bit_length()
        f = np.exp(-2j * np.pi * np.arange(m // 2 + 1) / m)
        g = np.ones_like(f)
        for _ in range(level):
            f, g = ((1.0 - eps) * f + eps * g) ** r, (eps * f + (1.0 - eps) * g) ** r
        probs = np.fft.irfft(f, m)[: size + 1]
        np.maximum(probs, 0.0, out=probs)
    with np.errstate(divide="ignore"):
        return CountDistribution(level=level, size=size, log_probs=np.log(probs))


def delta_from_distribution(d: CountDistribution) -> float:
    """Majority advantage of a count distribution; exact ties net to zero."""
    probs = d.probs()
    half = d.size / 2.0
    j = np.arange(d.size + 1)
    return float(probs[j > half].sum() - probs[j < half].sum())


def delta_exact(n: int, r: int, eps: float, budget: int | None = None) -> float:
    """Majority advantage at level ``n``: P(majority agrees with the root)
    minus P(majority disagrees), ties netting to zero."""
    return delta_from_distribution(count_distribution(n, r, eps, budget))


def effective_error_rate(k: int, r: int, eps: float, budget: int | None = None) -> float:
    """Error rate of the k-step descent majority.

    The probability that the majority over the ``r**k`` descendants ``k``
    generations down disagrees with the ancestor, counting exact ties with
    weight one half.
    """
    if k < 0:
        raise ValueError(f"distance must be >= 0, got {k}")
    d = count_distribution(k, r, eps, budget)
    probs = d.probs()
    size = d.size
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
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"distortion rate must lie in [0, 0.5], got {eps}")
    return (1.0 - (1.0 - 2.0 * eps) ** k) / 2.0


def t_statistic(k: int, r: int, eps: float, budget: int | None = None) -> float:
    """Gap between fraction-pick noise and descent-majority noise.

    Positive values mean the descent majority is strictly cleaner than a
    single sampled descendant at the same distance.
    """
    return fraction_error_rate(k, eps) - effective_error_rate(k, r, eps, budget)


def renormalized_delta(
    k: int, m_levels: int, r: int, eps: float, budget: int | None = None
) -> float:
    """Majority advantage of the k-step descent-majority scheme.

    After each correction the block values form a broadcast with error rate
    ``effective_error_rate(k)`` on a tree that branches once (root to the
    first block) and ``r**k`` ways thereafter.  The value returned is the
    advantage at original level ``(m_levels + 1) * k``: the single-edge
    factor ``1 - 2*eps_k`` times the depth-``m_levels`` majority advantage on
    the branching-``r**k`` tree.
    """
    if m_levels < 0:
        raise ValueError(f"renormalized depth must be >= 0, got {m_levels}")
    eps_k = effective_error_rate(k, r, eps, budget)
    return (1.0 - 2.0 * eps_k) * delta_exact(m_levels, r**k, eps_k, budget)


def fraction_scheme_delta(
    k: int, m_levels: int, r: int, eps: float, budget: int | None = None
) -> float:
    """Majority advantage of the fraction-pick scheme, same tree geometry as
    :func:`renormalized_delta` but with the fraction-pick noise per edge."""
    if m_levels < 0:
        raise ValueError(f"renormalized depth must be >= 0, got {m_levels}")
    eps_t = fraction_error_rate(k, eps)
    return (1.0 - 2.0 * eps_t) * delta_exact(m_levels, r**k, eps_t, budget)


def block_error_rate(M: int, eps: float) -> float:
    """Renormalized error rate of a majority over ``M`` independent copies.

    ``P(Binomial(M, 1-eps) < M/2) + 0.5 * P(Binomial(M, 1-eps) = M/2)``,
    evaluated from exact binomial tails.
    """
    if M < 1:
        raise ValueError(f"block size must be >= 1, got {M}")
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"distortion rate must lie in [0, 0.5], got {eps}")
    # Local: M reaches r**40, past any FFT support, and scipy.stats takes ~1 s to load.
    from scipy.stats import binom

    wins = binom(M, 1.0 - eps)
    below = float(wins.cdf((M - 1) // 2))
    tie = 0.5 * float(wins.pmf(M // 2)) if M % 2 == 0 else 0.0
    return below + tie


def _power_exponent(M: int, r: int) -> int:
    """Return ``j`` with ``M == r**j`` or raise."""
    j = 0
    value = 1
    while value < M:
        value *= r
        j += 1
    if value != M:
        raise ValueError(
            f"exact block-majority analysis needs a block size that is a power "
            f"of the branching rate; got M={M}, r={r}"
        )
    return j


def block_scheme_delta(
    M: int,
    depth: int,
    r: int,
    eps: float,
    pin_renormalized_root: bool = False,
    budget: int | None = None,
) -> float:
    """Majority advantage of the every-step block-majority scheme, exact mode.

    Requires ``M = r**j`` so blocks nest inside descents and the block values
    form a plain branching-``r`` broadcast with error rate
    ``block_error_rate(M, eps)`` started from block 0 (the whole level ``j``).
    ``depth`` counts renormalized levels below block 0.  With
    ``pin_renormalized_root`` the advantage is measured from block 0 itself;
    otherwise from the true root, through the majority-of-level-``j`` channel.
    """
    if depth < 0:
        raise ValueError(f"renormalized depth must be >= 0, got {depth}")
    j = _power_exponent(M, r)
    head = 1.0 if pin_renormalized_root else 1.0 - 2.0 * effective_error_rate(j, r, eps, budget)
    return head * delta_exact(depth, r, block_error_rate(M, eps), budget)


def minimal_rescuing_block_size(
    r: int, eps: float, max_exponent: int = 40
) -> int:
    """Smallest block size ``M = r**j`` whose renormalized channel clears the
    Kesten-Stigum condition ``(1 - 2*block_error_rate)**2 * r > 1``."""
    _validate_channel(r, eps)
    for j in range(0, max_exponent + 1):
        M = r**j
        if (1.0 - 2.0 * block_error_rate(M, eps)) ** 2 * r > 1.0:
            return M
    raise RuntimeError(
        f"no rescuing block size up to r**{max_exponent} at eps={eps}"
    )


def ks_condition_value(k: int, r: int, p: float, budget: int | None = None) -> float:
    """Renormalized Kesten-Stigum objective ``(1 - 2*eps_k)**2 * r**k - 1``.

    Positive values mean the k-step corrected channel reconstructs on the
    branching-``r**k`` renormalized tree.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"error-free rate must lie in (0, 1], got {p}")
    eps = (1.0 - p) / 2.0
    p_k = 1.0 - 2.0 * effective_error_rate(k, r, eps, budget)
    return p_k * p_k * r**k - 1.0


@dataclass(frozen=True)
class CriticalEstimate:
    """A bracket for a critical error-free rate, bisected to ``tolerance``."""

    p_lo: float
    p_hi: float
    tolerance: float
    objective_monotone: bool = True

    def __post_init__(self) -> None:
        if not self.p_lo < self.p_hi:
            raise ValueError(
                f"bracket must satisfy p_lo < p_hi, got [{self.p_lo}, {self.p_hi}]"
            )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.p_lo + self.p_hi)


def critical_point_k(
    k: int,
    r: int,
    tol: float = 1e-9,
    budget: int | None = None,
    max_iter: int = 200,
    scan_points: int = 9,
) -> CriticalEstimate:
    """Bisect the renormalized Kesten-Stigum condition for the critical
    error-free rate of the k-step descent-majority scheme.

    The initial bracket is ``(0.75/r, 1/sqrt(r)]``; the upper end is nudged
    up by parts in 1e9 if the objective is still nonpositive there (the k=1
    root can sit exactly on ``1/sqrt(r)``).  A coarse grid scan checks that
    the objective increases across the bracket; a violation is flagged on the
    estimate and warned about, since bisection assumes monotonicity.
    """
    if k < 1:
        raise ValueError(f"correction period must be >= 1, got {k}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    check_support(r**k + 1, budget)

    lo = 0.75 / r
    hi = 1.0 / math.sqrt(r)
    f_lo = ks_condition_value(k, r, lo, budget)
    f_hi = ks_condition_value(k, r, hi, budget)
    expansions = 0
    while f_hi <= 0.0 and expansions < 64:
        hi *= 1.0 + 1e-9
        f_hi = ks_condition_value(k, r, hi, budget)
        expansions += 1
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise RuntimeError(
            f"no sign change for k={k}, r={r}: objective is {f_lo:.3e} at "
            f"p={lo:.6f} and {f_hi:.3e} at p={hi:.6f}"
        )

    grid = np.linspace(lo, hi, scan_points)
    values = [ks_condition_value(k, r, p, budget) for p in grid]
    monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    if not monotone:
        warnings.warn(
            f"renormalized Kesten-Stigum objective is not monotone on the "
            f"initial bracket for k={k}, r={r}; the bisection bracket may be "
            "unreliable",
            stacklevel=2,
        )

    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if ks_condition_value(k, r, mid, budget) > 0.0:
            hi = mid
        else:
            lo = mid

    return CriticalEstimate(
        p_lo=lo, p_hi=hi, tolerance=tol, objective_monotone=monotone
    )


def _transition_kernel(n_parents: int, r: int, eps: float) -> np.ndarray:
    """Linear-space kernel ``K[m, j] = P(X_next = j | X = m)`` for one step.

    Intended for the small levels of the agreement conditionals; sizes are
    a few hundred points at most.
    """
    # Local: only level_sum_agreement needs it, and scipy.stats takes ~1 s to load.
    from scipy.stats import binom

    n_children = r * n_parents
    kernel = np.zeros((n_parents + 1, n_children + 1))
    for m in range(n_parents + 1):
        a = binom.pmf(np.arange(r * m + 1), r * m, 1.0 - eps)
        b = binom.pmf(np.arange(r * (n_parents - m) + 1), r * (n_parents - m), eps)
        kernel[m] = np.convolve(a, b)
    return kernel


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
    check_support(r**n + 1, budget)

    # Plus-root count distributions for levels 0..n, one-step kernels below them.
    dists = [count_distribution(level, r, eps, budget).probs() for level in range(n + 1)]
    kernels = [_transition_kernel(r**level, r, eps) for level in range(n)]

    def unconditioned(level: int) -> np.ndarray:
        plus = dists[level]
        return 0.5 * (plus + plus[::-1])

    def split_pos_neg(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per parent count: P(final sum > 0) and P(final sum < 0)."""
        size = kernel.shape[1] - 1
        j = np.arange(size + 1)
        return kernel[:, j > size / 2].sum(axis=1), kernel[:, j < size / 2].sum(axis=1)

    # Advantage of the level-(n-lag) sum sign given a positive final sum.
    lagged: dict[int, float] = {}
    kernel_to_final = np.eye(kernels[-1].shape[1])
    for lag in range(1, n + 1):
        level = n - lag
        kernel_to_final = kernels[level] @ kernel_to_final
        q_pos, _ = split_pos_neg(kernel_to_final)
        u = unconditioned(level)
        size = len(u) - 1
        m = np.arange(size + 1)
        joint_pos = u * q_pos
        p_final_pos = float(joint_pos.sum())
        numerator = float(joint_pos[m > size / 2].sum() - joint_pos[m < size / 2].sum())
        lagged[lag] = numerator / p_final_pos

    # One-step conditionals from level n-1.
    one_step = kernels[n - 1]
    q_pos, q_neg = split_pos_neg(one_step)
    u_prev = unconditioned(n - 1)
    size_prev = len(u_prev) - 1
    m = np.arange(size_prev + 1)
    prev_pos = m > size_prev / 2
    p_prev_pos = float(u_prev[prev_pos].sum())
    final_given_prev = float((u_prev[prev_pos] * (q_pos - q_neg)[prev_pos]).sum()) / p_prev_pos

    fixed: dict[int, float] = {}
    for a in np.flatnonzero(prev_pos):
        fixed[int(2 * a - size_prev)] = float(q_pos[a] - q_neg[a])

    return LevelAgreementReport(
        n=n,
        r=r,
        eps=eps,
        previous_given_final_positive=lagged[1],
        final_given_previous_positive=final_given_prev,
        fixed_sum_advantage=fixed,
        lagged_given_final_positive=lagged,
    )
