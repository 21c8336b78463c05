"""Open-edge cluster representation of the broadcast and its moment probes.

Each parent-child edge of the regular tree is *open* independently with
probability ``p``.  Clusters are the connected components of open edges; on a
tree they form independent branching families.  The root's cluster alone is
a branching process with ``Binomial(r, p)`` offspring.

For ensemble statistics the level's cluster-size histogram is advanced as a
Markov chain — each cluster keeps a ``Binomial(r*s, p)`` slice of its
potential children — so moment summaries reach deep levels without
materializing ``r**k`` vertices.  Each sample's chain draws level ``l`` from
its own ``("fk-sizes", level=l, block=sample)`` stream, so the ensemble at
level ``k`` is the level-``k`` prefix of every sample's chain: a row does
not depend on which other levels were requested, and one run of the chain
to the deepest level gives every shallower one.  The explicit per-vertex
labelling sampler that checks this chain in law lives in
``tests/fk_labels.py``.

The module also hosts the desk-scale probes used by the verification suites:
cluster-size moment summaries (second-moment floor, third-moment decay), the
root-cluster tail probe, and the exhaustive anti-concentration check for
sums of independent symmetric two-point variables.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .rng import SeedSpec

__all__ = [
    "anti_concentration_check",
    "moment_summary",
    "sample_size_ensembles",
    "tail_probe_Rk",
]


def _validate_fk_args(p: float, r: int, k: int) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if r < 2:
        raise ValueError(f"branching rate must be >= 2, got {r}")
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")


@dataclass(frozen=True)
class FkEnsembleStats:
    """Per-sample cluster statistics across an ensemble (arrays over samples)."""

    p: float
    r: int
    k: int
    n_samples: int
    R_k: np.ndarray
    m_k: np.ndarray
    sum_z2: np.ndarray
    sum_z3: np.ndarray

    @property
    def W_k(self) -> np.ndarray:
        """Normalized root-cluster sizes ``R_k / (p*r)**k`` (mean one)."""
        if self.p == 0:
            return np.full(self.n_samples, 1.0 if self.k == 0 else 0.0)
        return self.R_k / (self.p * self.r) ** self.k

    @property
    def z2_ratio(self) -> np.ndarray:
        """``sum(z_i**2) / r**k`` per sample."""
        return self.sum_z2 / float(self.r) ** self.k

    @property
    def z3_ratio(self) -> np.ndarray:
        """``sum(z_i**3) / (p*r**2)**k`` per sample."""
        return self.sum_z3 / (self.p * self.r**2) ** self.k


def _spawn_pmf(trials: int, p: float, cache: dict[int, np.ndarray]) -> np.ndarray:
    """Binomial(trials, p) pmf, normalized for multinomial draws."""
    pv = cache.get(trials)
    if pv is None:
        # Local: scipy.special takes ~0.3 s to load.  The pmf bits decide the
        # draws: this is the Boost kernel behind scipy.stats.binom.pmf,
        # clipped to [0, 1] as binom.pmf clips it.
        from scipy.special._ufuncs import _binom_pmf

        pv = np.clip(_binom_pmf(np.arange(trials + 1), trials, p), 0.0, 1.0)
        pv /= pv.sum()
        cache[trials] = pv
    return pv


def _size_histogram_chain(
    p: float,
    r: int,
    depth: int,
    seed: SeedSpec,
    sample_index: int,
    cache: dict[int, np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Run the size-histogram chain; yields (sizes, counts, root size) at
    each level ``0..depth``.

    Distinct clusters grow over disjoint edge sets, so the multiset of their
    level sizes is a Markov chain of its own: a cluster holding ``s`` of the
    level's vertices keeps ``Binomial(r*s, p)`` of its ``r*s`` potential
    children, the root cluster does the same, and every child cut off by a
    closed edge founds a new singleton.  ``sizes``/``counts`` exclude the
    root cluster, whose level size is yielded on its own.
    """
    sizes = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    root = 1
    yield sizes, counts, root
    for level in range(1, depth + 1):
        gen = seed.generator("fk-sizes", level=level, block=sample_index)
        high = r * int(sizes[-1]) if sizes.size else 0
        acc = np.zeros(high + 2, dtype=np.int64)
        for s, c in zip(sizes.tolist(), counts.tolist()):
            acc[: r * s + 1] += gen.multinomial(c, _spawn_pmf(r * s, p, cache))
        root = int(gen.binomial(r * root, p))
        inherited = int((np.arange(acc.shape[0]) * acc).sum()) + root
        acc[1] += r**level - inherited
        acc[0] = 0
        keep = np.nonzero(acc)[0]
        sizes, counts = keep, acc[keep]
        yield sizes, counts, root


def sample_size_ensembles(
    p: float, r: int, levels: Sequence[int], seed: SeedSpec, n_samples: int
) -> list[FkEnsembleStats]:
    """Moment statistics of ensembles drawn from the size-histogram chain,
    one per entry of ``levels`` (in the order given; duplicates are kept and
    share one set of arrays).

    Each sample's chain runs once, to ``max(levels)``, and its statistics are
    taken at every requested level on the way.  The ensemble at ``k`` is the
    level-``k`` prefix of each sample's chain, so it does not depend on which
    other levels were requested.  Deterministic in (seed, sample index) on
    the "fk-sizes" streams; it matches the explicit labelling sampler in law,
    not draw for draw.
    """
    levels = tuple(levels)
    _validate_fk_args(p, r, min(levels, default=0))
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if not levels:
        return []
    depth = max(levels)
    if r**depth >= 2**63:
        raise ValueError(
            f"level {depth} holds {r}**{depth} vertices, past the int64 counts "
            f"of the size histogram"
        )
    # level -> (R_k, m_k, sum_z2, sum_z3), each an array over samples
    stats = {
        k: (
            np.empty(n_samples, dtype=np.int64),
            np.empty(n_samples, dtype=np.int64),
            np.empty(n_samples, dtype=np.float64),
            np.empty(n_samples, dtype=np.float64),
        )
        for k in levels
    }
    cache: dict[int, np.ndarray] = {}
    for i in range(n_samples):
        chain = _size_histogram_chain(p, r, depth, seed, i, cache)
        for level, (sizes, counts, root) in enumerate(chain):
            if level not in stats:
                continue
            R_k, m_k, sum_z2, sum_z3 = stats[level]
            as_float = sizes.astype(np.float64)
            R_k[i] = root
            m_k[i] = counts.sum() + (1 if root > 0 else 0)
            sum_z2[i] = float((counts * as_float**2).sum()) + float(root) ** 2
            sum_z3[i] = float((counts * as_float**3).sum()) + float(root) ** 3
    return [FkEnsembleStats(p, r, k, n_samples, *stats[k]) for k in levels]


def sample_size_ensemble(
    p: float, r: int, k: int, seed: SeedSpec, n_samples: int
) -> FkEnsembleStats:
    """Moment statistics of one ensemble at level ``k``: the level-``k``
    prefix of each sample's size-histogram chain, as in
    :func:`sample_size_ensembles`."""
    return sample_size_ensembles(p, r, (k,), seed, n_samples)[0]


def sample_root_cluster_chain(
    p: float, r: int, k: int, seed: SeedSpec, n_samples: int
) -> np.ndarray:
    """Root-cluster level sizes for an ensemble, as one vectorized chain.

    The root cluster alone is a branching process — each member keeps
    ``Binomial(r, p)`` children — so all samples advance one level per draw
    call.  Deterministic in (seed, n_samples) on its own stream.
    """
    _validate_fk_args(p, r, k)
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    gen = seed.generator("fk-root", level=0, block=0)
    root = np.ones(n_samples, dtype=np.int64)
    for _ in range(k):
        root = gen.binomial(root * r, p)
    return root


@dataclass(frozen=True)
class MomentSummary:
    """Ensemble summary of cluster-size moments at one level."""

    k: int
    n_samples: int
    z2_floor: float
    min_z2_ratio: float
    median_z2_ratio: float
    median_z3_ratio: float
    mean_W: float
    regime_ok: bool


def moment_summary(stats: FkEnsembleStats) -> MomentSummary:
    """Moment summary of one ensemble; ``regime_ok`` records whether
    ``p**2 * r < 1 < p * r``."""
    p, r = stats.p, stats.r
    return MomentSummary(
        k=stats.k,
        n_samples=stats.n_samples,
        z2_floor=(1.0 - p) / 2.0,
        min_z2_ratio=float(stats.z2_ratio.min()),
        median_z2_ratio=float(np.median(stats.z2_ratio)),
        median_z3_ratio=float(np.median(stats.z3_ratio)),
        mean_W=float(stats.W_k.mean()),
        regime_ok=p * p * r < 1.0 < p * r,
    )


@dataclass(frozen=True)
class TailProbe:
    """Empirical tail frequency of the root-cluster size at one level."""

    k: int
    threshold: float
    frequency: float
    n_samples: int
    slow_decay_expected: bool


def tail_probe_Rk(
    p: float,
    r: int,
    k: int,
    threshold_factor: float,
    samples: int,
    seed: SeedSpec,
) -> TailProbe:
    """Frequency of ``R_k >= (threshold_factor * p * r)**k``.

    Requires supercritical root growth ``p*r > 1``.  Near the boundary the
    decay in ``k`` is expected to be slow; the probe flags that and still
    runs.  Only the qualitative decay is probed — no constants are claimed.
    """
    _validate_fk_args(p, r, k)
    if p * r <= 1.0:
        raise ValueError(f"tail probe needs p*r > 1, got p*r={p * r:.4f}")
    if threshold_factor <= 0:
        raise ValueError(f"threshold factor must be positive, got {threshold_factor}")
    root_sizes = sample_root_cluster_chain(p, r, k, seed, samples)
    threshold = (threshold_factor * p * r) ** k
    frequency = float((root_sizes >= threshold).mean())
    return TailProbe(
        k=k,
        threshold=threshold,
        frequency=frequency,
        n_samples=samples,
        slow_decay_expected=p * r < 1.1,
    )


@dataclass(frozen=True)
class AntiConcentrationCase:
    """One failing case of the anti-concentration check."""

    sizes: tuple[int, ...]
    n_unit: int
    alpha: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AntiConcentrationReport:
    """Outcome of the exhaustive anti-concentration enumeration."""

    cases_checked: int
    worst_margin: float
    failures: tuple[AntiConcentrationCase, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _symmetric_sum_pmf(sizes: tuple[int, ...]) -> np.ndarray:
    """Exact pmf of a sum of independent fair ``+-l_i`` variables on the
    integer lattice ``-L..L`` (dyadic probabilities, exact in float64)."""
    total = sum(sizes)
    pmf = np.zeros(2 * total + 1)
    pmf[total] = 1.0
    for l in sizes:
        nxt = np.zeros_like(pmf)
        nxt[l:] += 0.5 * pmf[:-l]
        nxt[:-l] += 0.5 * pmf[l:]
        pmf = nxt
    return pmf


def _window_mass(pmf: np.ndarray, alpha: float) -> float:
    """``P(|S| <= alpha)`` for a pmf on the centered lattice ``-L..L``."""
    total = (len(pmf) - 1) // 2
    values = np.arange(-total, total + 1)
    return float(pmf[np.abs(values) <= alpha].sum())


def _max_window_mass(pmf: np.ndarray, alpha: float) -> float:
    """Concentration function: the largest mass any closed window of length
    ``2*alpha`` captures, anywhere on the lattice."""
    span = int(math.floor(2 * alpha)) + 1
    return float(np.convolve(pmf, np.ones(span)).max())


def anti_concentration_check(
    max_m: int, max_size: int, alphas: list[float] | tuple[float, ...]
) -> AntiConcentrationReport:
    """Exhaustively verify that adding larger symmetric two-point variables
    never concentrates the sum more than its unit-size prefix.

    For every count ``m <= max_m``, prefix length ``n_unit <= m`` of
    unit-size variables, tail sizes in ``1..max_size``, and every ``alpha``,
    the centered-window mass of the whole sum is bounded by the prefix sum's
    concentration function at the same width:
    ``P(|sum over all m| <= alpha) <= max_x P(sum over prefix in
    [x, x + 2*alpha])``.  Comparing against the prefix's best window rather
    than its centered one is what makes the bound parity-proof: a centered
    window can fall between the prefix sum's lattice points (an odd prefix
    never hits 0) without saying anything about concentration.  Both sides
    are dyadic and computed by exact enumeration.
    """
    if max_m < 1:
        raise ValueError(f"need max_m >= 1, got {max_m}")
    if max_m > 10:
        raise ValueError(
            f"exhaustive enumeration is capped at max_m = 10, got {max_m}"
        )
    if max_size < 1:
        raise ValueError(f"need max_size >= 1, got {max_size}")

    failures: list[AntiConcentrationCase] = []
    cases = 0
    worst = math.inf
    for m in range(1, max_m + 1):
        for n_unit in range(1, m + 1):
            prefix_pmf = _symmetric_sum_pmf((1,) * n_unit)
            for tail in itertools.product(range(1, max_size + 1), repeat=m - n_unit):
                sizes = (1,) * n_unit + tail
                pmf = _symmetric_sum_pmf(sizes)
                for alpha in alphas:
                    lhs = _window_mass(pmf, alpha)
                    rhs = _max_window_mass(prefix_pmf, alpha)
                    cases += 1
                    margin = rhs - lhs
                    worst = min(worst, margin)
                    if lhs > rhs + 1e-15:
                        failures.append(
                            AntiConcentrationCase(
                                sizes=sizes,
                                n_unit=n_unit,
                                alpha=alpha,
                                lhs=lhs,
                                rhs=rhs,
                            )
                        )
    return AntiConcentrationReport(
        cases_checked=cases, worst_margin=worst, failures=tuple(failures)
    )
