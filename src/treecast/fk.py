"""Open-edge cluster representation of the broadcast and its moment probes.

Each parent-child edge of the regular tree is *open* independently with
probability ``p``.  Clusters are the connected components of open edges; on a
tree they form independent branching families, so a single top-down pass
labels every level-``k`` vertex with the id of its cluster's base vertex (the
highest vertex reachable through open edges), keeping only the current
level's labels in memory.  The root's cluster carries the reserved label 0.

Assigning the root's sign to the root cluster and independent fair signs to
every other cluster reproduces the broadcast law at ``p = 1 - 2*epsilon``,
which gives an independent oracle for the sampling kernels.

For ensemble statistics the size histogram itself is advanced as a Markov
chain — each cluster keeps a ``Binomial(r*s, p)`` slice of its potential
children — so moment summaries reach deep levels without materializing
``r**k`` vertices.

The module also hosts the desk-scale probes used by the verification suites:
cluster-size moment summaries (second-moment floor, third-moment decay), the
root-cluster tail probe, and the exhaustive anti-concentration check for
sums of independent symmetric two-point variables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .budget import check_vertices
from .broadcast import GenerationSignals
from .rng import REPLICATE_BLOCK, SeedSpec, bernoulli_bits, replicate_blocks

__all__ = [
    "AntiConcentrationCase",
    "AntiConcentrationReport",
    "ClusterSizeHistogram",
    "ClusterStats",
    "FkEnsembleStats",
    "FkLevelState",
    "MomentSummary",
    "TailProbe",
    "anti_concentration_check",
    "moment_bound_report",
    "moment_summary",
    "sample_cluster_ensemble",
    "sample_fk_level_state",
    "sample_fk_level_stats",
    "sample_root_cluster_chain",
    "sample_size_ensemble",
    "sample_size_histogram",
    "sample_spin_ensemble",
    "tail_probe_Rk",
]


def _vertex_id_base(level: int, r: int) -> int:
    """Global id of the first vertex at ``level`` (root has id 0)."""
    return (r**level - 1) // (r - 1)


def _validate_fk_args(p: float, r: int, k: int) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if r < 2:
        raise ValueError(f"branching rate must be >= 2, got {r}")
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")


@dataclass(frozen=True)
class FkLevelState:
    """Cluster labels of one level: ``labels[s-1]`` is the base-vertex id of
    the cluster containing vertex ``(level, s)``; label 0 is the root's."""

    level: int
    r: int
    p: float
    sample_index: int
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class ClusterStats:
    """Level-``k`` cluster statistics of one edge-configuration sample."""

    k: int
    m_k: int
    z: np.ndarray
    R_k: int
    sum_z2: float
    sum_z3: float
    W_k: float

    def __post_init__(self) -> None:
        if self.m_k != len(self.z):
            raise ValueError("cluster count does not match the size list")


def _open_edge_bits(
    gen: np.random.Generator, p: float, rows: int, cols: int
) -> np.ndarray:
    """Unpacked open-edge indicators of shape (rows, cols)."""
    packed = bernoulli_bits(gen, p, rows, cols)
    return np.unpackbits(packed, axis=1, count=cols)


def sample_fk_level_state(
    p: float,
    r: int,
    k: int,
    seed: SeedSpec,
    sample_index: int = 0,
    vertex_budget: int | None = None,
) -> FkLevelState:
    """One top-down cluster labeling down to level ``k`` (a single sample).

    Children connected through an open edge inherit the parent's label;
    a closed edge starts a new cluster based at the child itself.
    """
    _validate_fk_args(p, r, k)
    check_vertices(r**k, vertex_budget)
    labels = np.zeros(1, dtype=np.int32)
    for level in range(1, k + 1):
        size = r**level
        gen = seed.generator("fk-edges", level=level, block=sample_index)
        open_edge = _open_edge_bits(gen, p, 1, size)[0].astype(bool)
        own_ids = np.arange(
            _vertex_id_base(level, r),
            _vertex_id_base(level, r) + size,
            dtype=np.int32,
        )
        labels = np.where(open_edge, np.repeat(labels, r), own_ids)
    return FkLevelState(level=k, r=r, p=p, sample_index=sample_index, labels=labels)


def _stats_from_counts(
    counts: np.ndarray, k: int, r: int, p: float, keep_sizes: bool
) -> tuple[int, np.ndarray | None, int, float, float, float]:
    sizes = counts[counts > 0]
    root_size = int(counts[0]) if counts.shape[0] > 0 else 0
    as_float = sizes.astype(np.float64)
    sum_z2 = float((as_float**2).sum())
    sum_z3 = float((as_float**3).sum())
    w = root_size / (p * r) ** k if p > 0 else (1.0 if k == 0 else 0.0)
    z = np.sort(sizes) if keep_sizes else None
    return len(sizes), z, root_size, sum_z2, sum_z3, w


def sample_fk_level_stats(
    p: float,
    r: int,
    k: int,
    seed: SeedSpec,
    sample_index: int = 0,
    vertex_budget: int | None = None,
) -> ClusterStats:
    """Cluster statistics of one sample: sizes, count, root-cluster size,
    moment sums, and the normalized root-cluster weight ``R_k/(pr)**k``."""
    state = sample_fk_level_state(p, r, k, seed, sample_index, vertex_budget)
    counts = np.bincount(state.labels, minlength=_vertex_id_base(k + 1, r))
    m_k, z, root, s2, s3, w = _stats_from_counts(counts, k, r, p, keep_sizes=True)
    return ClusterStats(k=k, m_k=m_k, z=z, R_k=root, sum_z2=s2, sum_z3=s3, W_k=w)


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


_BATCH_ID_LIMIT = 1 << 16


def _batched_labels(
    p: float, r: int, k: int, seed: SeedSpec, block: int
) -> np.ndarray:
    """Labels for one replicate block, shape (REPLICATE_BLOCK, r**k)."""
    rows = REPLICATE_BLOCK
    labels = np.zeros((rows, 1), dtype=np.int32)
    for level in range(1, k + 1):
        size = r**level
        gen = seed.generator("fk-edges-batch", level=level, block=block)
        open_edge = _open_edge_bits(gen, p, rows, size).astype(bool)
        base = _vertex_id_base(level, r)
        own_ids = np.arange(base, base + size, dtype=np.int32)
        labels = np.where(open_edge, np.repeat(labels, r, axis=1), own_ids)
    return labels


def sample_cluster_ensemble(
    p: float,
    r: int,
    k: int,
    seed: SeedSpec,
    n_samples: int,
    vertex_budget: int | None = None,
) -> FkEnsembleStats:
    """Cluster statistics for an ensemble of independent edge configurations.

    Levels small enough to batch (id space up to 2**16) run replicate blocks
    of vectorized samples on the "fk-edges-batch" streams; larger levels fall
    back to one heavy "fk-edges" sample per index.  Both paths are
    deterministic in (seed, sample index), but they are distinct ensembles.
    """
    _validate_fk_args(p, r, k)
    check_vertices(r**k, vertex_budget)
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    id_end = _vertex_id_base(k + 1, r)

    R_k = np.empty(n_samples, dtype=np.int64)
    m_k = np.empty(n_samples, dtype=np.int64)
    sum_z2 = np.empty(n_samples, dtype=np.float64)
    sum_z3 = np.empty(n_samples, dtype=np.float64)

    if id_end <= _BATCH_ID_LIMIT:
        for block, rows_slice, rows in replicate_blocks(n_samples):
            labels = _batched_labels(p, r, k, seed, block)[:rows]
            flat = labels + (np.arange(rows, dtype=np.int64) * id_end)[:, None]
            counts = np.bincount(flat.ravel(), minlength=rows * id_end).reshape(
                rows, id_end
            )
            R_k[rows_slice] = counts[:, 0]
            m_k[rows_slice] = (counts > 0).sum(axis=1)
            as_float = counts.astype(np.float64)
            sum_z2[rows_slice] = (as_float**2).sum(axis=1)
            sum_z3[rows_slice] = (as_float**3).sum(axis=1)
    else:
        for i in range(n_samples):
            state = sample_fk_level_state(p, r, k, seed, i, vertex_budget)
            counts = np.bincount(state.labels, minlength=id_end)
            m, _, root, s2, s3, _ = _stats_from_counts(
                counts, k, r, p, keep_sizes=False
            )
            R_k[i] = root
            m_k[i] = m
            sum_z2[i] = s2
            sum_z3[i] = s3

    return FkEnsembleStats(
        p=p, r=r, k=k, n_samples=n_samples, R_k=R_k, m_k=m_k, sum_z2=sum_z2, sum_z3=sum_z3
    )


@dataclass(frozen=True)
class ClusterSizeHistogram:
    """Level-``k`` cluster sizes of one sample, kept as a histogram.

    Distinct clusters grow over disjoint edge sets, so the multiset of their
    level sizes is a Markov chain of its own: a cluster holding ``s`` of the
    level's vertices keeps ``Binomial(r*s, p)`` of its ``r*s`` potential
    children, the root cluster does the same, and every child cut off by a
    closed edge founds a new singleton.  Advancing the histogram costs time
    polynomial in the sizes present rather than ``r**k``, which keeps
    deep-level moment ensembles affordable.
    """

    k: int
    r: int
    p: float
    sample_index: int
    R_k: int
    sizes: np.ndarray
    counts: np.ndarray

    @property
    def m_k(self) -> int:
        """Number of clusters meeting the level."""
        return int(self.counts.sum()) + (1 if self.R_k > 0 else 0)

    @property
    def level_total(self) -> int:
        """Total vertices covered — always ``r**k``."""
        return int((self.sizes * self.counts).sum()) + self.R_k

    @property
    def sum_z2(self) -> float:
        as_float = self.sizes.astype(np.float64)
        return float((self.counts * as_float**2).sum()) + float(self.R_k) ** 2

    @property
    def sum_z3(self) -> float:
        as_float = self.sizes.astype(np.float64)
        return float((self.counts * as_float**3).sum()) + float(self.R_k) ** 3

    @property
    def W_k(self) -> float:
        if self.p == 0:
            return 1.0 if self.k == 0 else 0.0
        return self.R_k / (self.p * self.r) ** self.k


def _spawn_pmf(trials: int, p: float, cache: dict[int, np.ndarray]) -> np.ndarray:
    """Binomial(trials, p) pmf, normalized for multinomial draws."""
    pv = cache.get(trials)
    if pv is None:
        # Local: its pmf bits decide the draws; scipy.stats takes ~1 s to load.
        from scipy.stats import binom

        pv = np.clip(binom.pmf(np.arange(trials + 1), trials, p), 0.0, None)
        pv /= pv.sum()
        cache[trials] = pv
    return pv


def _size_histogram_chain(
    p: float,
    r: int,
    k: int,
    seed: SeedSpec,
    sample_index: int,
    cache: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the size-histogram chain; returns (sizes, counts, root size)."""
    sizes = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    root = 1
    for level in range(1, k + 1):
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
    return sizes, counts, root


def sample_size_histogram(
    p: float, r: int, k: int, seed: SeedSpec, sample_index: int = 0
) -> ClusterSizeHistogram:
    """One sample of the level-``k`` cluster-size histogram.

    Same law as the size statistics of ``sample_fk_level_stats`` but drawn
    from its own deterministic streams without labeling vertices, so deep
    levels stay cheap.  The explicit labeling path remains the reference
    sampler wherever per-vertex output is needed.
    """
    _validate_fk_args(p, r, k)
    sizes, counts, root = _size_histogram_chain(p, r, k, seed, sample_index, {})
    return ClusterSizeHistogram(
        k=k, r=r, p=p, sample_index=sample_index, R_k=root, sizes=sizes, counts=counts
    )


def sample_size_ensemble(
    p: float, r: int, k: int, seed: SeedSpec, n_samples: int
) -> FkEnsembleStats:
    """Moment statistics of an ensemble drawn from the size-histogram chain.

    Deterministic in (seed, sample index) on the histogram streams — a
    distinct ensemble from ``sample_cluster_ensemble``, matching it in law.
    """
    _validate_fk_args(p, r, k)
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    R_k = np.empty(n_samples, dtype=np.int64)
    m_k = np.empty(n_samples, dtype=np.int64)
    sum_z2 = np.empty(n_samples, dtype=np.float64)
    sum_z3 = np.empty(n_samples, dtype=np.float64)
    cache: dict[int, np.ndarray] = {}
    for i in range(n_samples):
        sizes, counts, root = _size_histogram_chain(p, r, k, seed, i, cache)
        as_float = sizes.astype(np.float64)
        R_k[i] = root
        m_k[i] = counts.sum() + (1 if root > 0 else 0)
        sum_z2[i] = float((counts * as_float**2).sum()) + float(root) ** 2
        sum_z3[i] = float((counts * as_float**3).sum()) + float(root) ** 3
    return FkEnsembleStats(
        p=p, r=r, k=k, n_samples=n_samples, R_k=R_k, m_k=m_k, sum_z2=sum_z2, sum_z3=sum_z3
    )


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


def sample_spin_ensemble(
    p: float,
    r: int,
    k: int,
    sigma0: int,
    seed: SeedSpec,
    n_samples: int,
    vertex_budget: int | None = None,
) -> GenerationSignals:
    """Level-``k`` signals for an ensemble of independent cluster samples,
    one replicate row each — the cluster-based sampler of the broadcast law."""
    _validate_fk_args(p, r, k)
    if sigma0 not in (-1, 1):
        raise ValueError(f"root sign must be +1 or -1, got {sigma0}")
    check_vertices(r**k, vertex_budget)
    id_end = _vertex_id_base(k + 1, r)
    if id_end > _BATCH_ID_LIMIT:
        raise ValueError(
            f"spin ensembles need an id space of at most {_BATCH_ID_LIMIT}, "
            f"got {id_end}; sample states individually instead"
        )
    size = r**k
    out = np.empty((n_samples, (size + 7) // 8), dtype=np.uint8)
    for block, rows_slice, rows in replicate_blocks(n_samples):
        labels = _batched_labels(p, r, k, seed, block)[:rows]
        gen = seed.generator("cluster-signs-batch", level=k, block=block)
        id_bits = np.unpackbits(
            bernoulli_bits(gen, 0.5, REPLICATE_BLOCK, id_end), axis=1, count=id_end
        )[:rows]
        id_bits[:, 0] = 1 if sigma0 == 1 else 0
        vertex_bits = np.take_along_axis(id_bits, labels, axis=1)
        out[rows_slice] = np.packbits(vertex_bits, axis=1)
    return GenerationSignals(level=k, size=size, n_replicates=n_samples, packed=out)


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


def moment_bound_report(
    p: float,
    r: int,
    k_range: list[int] | tuple[int, ...] | range,
    samples: int,
    seed: SeedSpec,
    require_regime: bool = True,
) -> list[MomentSummary]:
    """Per-level moment summaries across an ensemble.

    The second-moment ratio ``sum(z**2)/r**k`` is expected to stay above the
    ``(1-p)/2`` floor; the third-moment ratio ``sum(z**3)/(p*r**2)**k`` to
    decay geometrically in ``k``.  Both statements live in the regime
    ``p**2 * r < 1 < p * r``, which is enforced unless ``require_regime`` is
    switched off (the summaries then carry ``regime_ok=False``).

    Ensembles come from the size-histogram chain, so deep levels cost time
    polynomial in the cluster sizes present, not ``r**k``.
    """
    _validate_fk_args(p, r, 0)
    if require_regime and not p * p * r < 1.0 < p * r:
        raise ValueError(
            f"moment bounds need p**2*r < 1 < p*r; got p**2*r={p * p * r:.4f}, "
            f"p*r={p * r:.4f}"
        )
    return [moment_summary(sample_size_ensemble(p, r, k, seed, samples)) for k in k_range]


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
