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
to the deepest level gives every shallower one.

The samples advance a level at a time in chunks of consecutive samples
(:func:`_descend`): a chunk derives its streams' keys in one call
(:meth:`SeedSpec.generators`), stages its multinomial draws flat and reads
every sample's new histogram off their nonzero slots (:func:`_step_chunk`),
and reduces its requested levels' moments in one pass (:func:`_moments`).
A chunk holds at most :data:`CHUNK_BYTES` of arrays, beyond what one sample
too heavy for it needs alone; one that would hold more splits into chunks
that fit, and each goes on down on its own.  Since every draw comes from
its (level, sample) stream, how the samples are chunked is not part of the
output.  The per-sample chain this replaces is kept in
``tests/oracles.py``, which checks it array for array; the explicit
per-vertex labelling sampler that checks the chain in law lives in
``tests/fk_labels.py``.

The module also hosts the desk-scale probes: the cluster-size moment
summaries (second-moment floor, third-moment decay) behind ``fk-stats`` and
the ``fk-moments`` suite, the exhaustive anti-concentration check for sums of
independent symmetric two-point variables behind the ``lemma48`` suite, and
the root-cluster tail probe, which only ``scripts/fk_moment_summary.py``
runs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
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


def _check_level(p: float, r: int, k: int) -> int:
    """``k``, refused unless level ``k`` exists (:func:`_validate_fk_args`)
    and its vertex count fits the int64 counts of the size histogram."""
    _validate_fk_args(p, r, k)
    # r >= 2, so a level of 63 or more holds at least 2**63 vertices.
    if k >= 63 or r**k >= 2**63:
        raise ValueError(
            f"level {k} holds {r}**{k} vertices, past the int64 counts "
            f"of the size histogram"
        )
    return k


#: Most bytes the arrays of one chunk of samples may hold while it steps one
#: level.  Not part of the output contract: any value gives the same arrays.
CHUNK_BYTES = 1 << 18
#: Arrays of one int64 per slot that a chunk may hold at once, per slot of
#: the budget (:func:`_budget_slots`).
_SLOT_ARRAYS = 8
#: Slots charged for each sample and each cluster size on top of a sample's
#: accumulator, and for each draw on top of its own: the array headers, keys,
#: offsets and list entries they bring.
_FIXED_SLOTS = 2


def _budget_slots() -> int:
    """Slots of one chunk's accumulator, or of its staged draws
    (:data:`CHUNK_BYTES`)."""
    return CHUNK_BYTES // (8 * _SLOT_ARRAYS)


@dataclass
class _Histograms:
    """Every sample's size histogram at one level, root cluster apart:
    sample ``i`` holds ``counts[bounds[i]:bounds[i+1]]`` clusters of the
    ascending ``sizes`` in the same slots, and its root cluster holds
    ``roots[i]`` of the level's vertices."""

    sizes: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray
    roots: np.ndarray

    def rooms(self, r: int) -> np.ndarray:
        """Accumulator slots of each sample's next level: one per new size
        ``0..r*s+1`` of its largest size ``s`` (0 when it has none)."""
        ends = self.bounds[1:]
        nonempty = np.minimum(np.diff(self.bounds), 1)
        largest = np.concatenate([[0], self.sizes])[ends] * nonempty
        return r * largest + 2

    def samples(self, start: int, stop: int) -> _Histograms:
        """Samples ``start..stop-1`` alone (views)."""
        lo, hi = int(self.bounds[start]), int(self.bounds[stop])
        return _Histograms(
            self.sizes[lo:hi], self.counts[lo:hi],
            self.bounds[start : stop + 1] - lo, self.roots[start:stop],
        )


def _chunk_stops(r: int, hist: _Histograms) -> list[int]:
    """Ends of consecutive chunks of samples, in order, each as long as fits
    :func:`_budget_slots` (and at least one sample).  A sample weighs its
    accumulator (:meth:`_Histograms.rooms`) and its fixed slots, all known
    before any draw is made; its draws are staged apart (:func:`_step_chunk`)."""
    weight = np.zeros(hist.roots.size + 1, dtype=np.int64)
    np.cumsum(hist.rooms(r) + _FIXED_SLOTS * (np.diff(hist.bounds) + 1), out=weight[1:])
    budget, n = _budget_slots(), hist.roots.size
    if weight[-1] <= budget:
        return [n]
    stops = [0]
    while stops[-1] < n:
        start = stops[-1]
        stop = int(np.searchsorted(weight, weight[start] + budget, side="right")) - 1
        stops.append(min(max(stop, start + 1), n))
    return stops[1:]


def _segment_sums(values: np.ndarray, owner: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[bounds[i]:bounds[i+1]].sum()`` for every segment ``i``, the
    segments' owners in ``owner``.

    One sequential ``bincount`` pass gives each sum.  Where a segment's
    values are nonnegative whole numbers and its total is below 2**53, every
    partial sum in any order is exact, so that total is what numpy's
    pairwise ``.sum()`` returns too; every other segment is summed by
    ``.sum()``."""
    n = bounds.size - 1
    totals = np.bincount(owner, weights=values, minlength=n).astype(np.float64)
    inexact = set(np.flatnonzero(totals >= 2.0**53).tolist())
    inexact.update(owner[np.flatnonzero(values != np.floor(values))].tolist())
    for i in inexact:
        totals[i] = values[bounds[i] : bounds[i + 1]].sum()
    return totals


def _read_draws(
    acc: np.ndarray,
    draws: list[np.ndarray],
    first_slot: int,
    starts: np.ndarray,
    origin: np.ndarray,
) -> None:
    """Add consecutive draws, the first one at slot ``first_slot`` of the
    chunk's run of draws, into the accumulator ``acc``: slot ``j`` of the
    draw of an entry goes to ``acc[j + origin of the entry]``.  Only the
    nonzero slots are read."""
    buf = draws[0] if len(draws) == 1 else np.concatenate(draws)
    slot = np.flatnonzero(buf)
    counts = buf[slot]
    del buf
    slot += first_slot
    slot += origin[np.searchsorted(starts, slot, side="right") - 1]
    np.add.at(acc, slot, counts)


def _step_chunk(
    p: float,
    r: int,
    level: int,
    seed: SeedSpec,
    first: int,
    hist: _Histograms,
    cache: dict[int, np.ndarray],
) -> _Histograms:
    """The chunk of samples ``first, first+1, ...`` (as many as ``hist``
    holds) one level down the size-histogram chain, to ``level``.

    Distinct clusters grow over disjoint edge sets, so the multiset of their
    level sizes is a Markov chain of its own: a cluster holding ``s`` of the
    level's vertices keeps ``Binomial(r*s, p)`` of its ``r*s`` potential
    children, the root cluster does the same, and every child cut off by a
    closed edge founds a new singleton.  Sample ``i`` draws from its stream
    ``("fk-sizes", level, i)``: one multinomial over the child counts of its
    clusters of each size, in ascending size order, then the root's
    binomial.

    Slot ``j`` of a draw counts the clusters that kept ``j`` children, which
    are clusters of size ``j`` now.  Sample ``i`` collects them in its own
    run of the accumulator, ``acc[base[i] + j]`` for ``j`` up to ``r`` times
    its largest size, as one accumulator per sample would.  The draws are
    staged in order and added in (:func:`_read_draws`) whenever the next
    would overfill :func:`_budget_slots`, so a heavy sample stages no more
    than a chunk does.
    """
    n = hist.roots.size
    widths = r * hist.sizes + 1
    starts = np.cumsum(widths) - widths
    room = hist.rooms(r)
    base = np.cumsum(room) - room
    origin = np.repeat(base, np.diff(hist.bounds)) - starts
    acc = np.zeros(int(room.sum()), dtype=np.int64)
    del room
    roots = np.empty(n, dtype=np.int64)
    sizes, counts = hist.sizes.tolist(), hist.counts.tolist()
    bounds, old_roots = hist.bounds.tolist(), hist.roots.tolist()
    pmfs = {s: _spawn_pmf(r * s, p, cache) for s in set(sizes)}
    budget = _budget_slots()
    staged, staged_slots, read = [], 0, 0
    gens = seed.generators("fk-sizes", level, range(first, first + n))
    for i, gen in enumerate(gens):
        for s, c in zip(sizes[bounds[i] : bounds[i + 1]], counts[bounds[i] : bounds[i + 1]]):
            draw = gen.multinomial(c, pmfs[s])
            if staged and staged_slots + draw.size + _FIXED_SLOTS > budget:
                _read_draws(acc, staged, int(starts[read]), starts, origin)
                read += len(staged)
                staged, staged_slots = [], 0
            staged.append(draw)
            staged_slots += draw.size + _FIXED_SLOTS
        roots[i] = gen.binomial(r * old_roots[i], p)
    if staged:
        _read_draws(acc, staged, int(starts[read]), starts, origin)
    del staged
    acc[base] = 0  # clusters that kept no children are gone
    # Every vertex of the level not inherited by a cluster is a singleton.
    # Segment sums of a wrapping int64 cumsum are exact: each is < 2**63.
    at = np.flatnonzero(acc)
    owner = np.searchsorted(base, at, side="right") - 1
    inherited = np.zeros(at.size + 1, dtype=np.int64)
    np.cumsum((at - base[owner]) * acc[at], out=inherited[1:])
    ends = inherited[np.searchsorted(owner, np.arange(n + 1))]
    acc[base + 1] += r**level - (ends[1:] - ends[:-1]) - roots
    at = np.flatnonzero(acc)
    owner = np.searchsorted(base, at, side="right") - 1
    return _Histograms(
        at - base[owner], acc[at], np.searchsorted(owner, np.arange(n + 1)), roots
    )


def _moments(hist: _Histograms) -> tuple[np.ndarray, ...]:
    """``(R_k, m_k, sum_z2, sum_z3)`` of every sample of ``hist``, each sum
    as numpy's ``.sum()`` of the sample's own terms gives it, plus the root
    cluster's term."""
    n = hist.roots.size
    owner = np.repeat(np.arange(n), np.diff(hist.bounds))
    clusters = np.zeros(hist.counts.size + 1, dtype=np.int64)
    np.cumsum(hist.counts, out=clusters[1:])
    # Plus one for the root cluster while it lives.
    m_k = clusters[hist.bounds[1:]] - clusters[hist.bounds[:-1]] + np.minimum(hist.roots, 1)
    as_float = hist.sizes.astype(np.float64)
    roots = [float(root) for root in hist.roots.tolist()]
    sum_z2 = _segment_sums(hist.counts * as_float**2, owner, hist.bounds)
    sum_z2 += np.array([root**2 for root in roots])
    sum_z3 = _segment_sums(hist.counts * as_float**3, owner, hist.bounds)
    sum_z3 += np.array([root**3 for root in roots])
    return hist.roots, m_k, sum_z2, sum_z3


def _record(out: tuple[np.ndarray, ...] | None, first: int, hist: _Histograms) -> None:
    """Write the moments of the samples of ``hist``, ``first`` on, to their
    slots of ``out`` (nothing when ``out`` is None)."""
    if out is not None:
        for column, values in zip(out, _moments(hist)):
            column[first : first + values.size] = values


def _descend(
    p: float,
    r: int,
    level: int,
    depth: int,
    seed: SeedSpec,
    first: int,
    hist: _Histograms,
    cache: dict[int, np.ndarray],
    stats: dict[int, tuple[np.ndarray, ...]],
) -> None:
    """Carry the chunk of samples ``first, first+1, ...`` from ``level`` down
    to ``depth``, recording the moments of every level below ``level`` that
    ``stats`` asks for.  The chunk steps as one while its next step fits
    :data:`CHUNK_BYTES`; otherwise it splits into chunks that fit
    (:func:`_chunk_stops`), and each goes down on its own, depth first, so
    only one chunk's histograms per split are held at a time."""
    while level < depth:
        stops = _chunk_stops(r, hist)
        if len(stops) > 1:
            for start, stop in itertools.pairwise([0, *stops]):
                part = hist.samples(start, stop)
                _descend(p, r, level, depth, seed, first + start, part, cache, stats)
            return
        level += 1
        hist = _step_chunk(p, r, level, seed, first, hist, cache)
        _record(stats.get(level), first, hist)


def sample_size_ensembles(
    p: float, r: int, levels: Iterable[int], seed: SeedSpec, n_samples: int
) -> list[FkEnsembleStats]:
    """Moment statistics of ensembles drawn from the size-histogram chain,
    one per entry of ``levels`` (in the order given; duplicates are kept and
    share one set of arrays).

    The samples go down to ``max(levels)`` in chunks of consecutive samples
    that step a level at a time (:func:`_descend`), and the statistics are
    taken at every requested level on the way.  The ensemble at ``k`` is
    the level-``k`` prefix of each sample's chain, so it does not depend on
    which other levels were requested, nor on how the samples were
    chunked.  Deterministic in (seed, sample index) on the "fk-sizes"
    streams; it matches the explicit labelling sampler in law, not draw for
    draw.  ``levels`` is read once, each level checked as it comes, so a
    level past the int64 counts is refused before the rest are listed.
    """
    _validate_fk_args(p, r, 0)
    levels = tuple(_check_level(p, r, k) for k in levels)
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if not levels:
        return []
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
    empty = np.empty(0, dtype=np.int64)
    hist = _Histograms(
        empty, empty, np.zeros(n_samples + 1, dtype=np.int64), np.ones(n_samples, dtype=np.int64)
    )
    _record(stats.get(0), 0, hist)
    _descend(p, r, 0, max(levels), seed, 0, hist, {}, stats)
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
