"""Independent reference computations that exist only to check the library.

``log_space_count_laws`` is the direct count chain: given ``X = m`` plus
vertices on a level of ``N``, the next count is
``Binomial(r*m, 1-eps) + Binomial(r*(N-m), eps)``.  Each parent count's
convolution is accumulated in log space under a running global rescale (a
vectorized log-sum-exp); each binomial factor enters it only over its
entries within ``TRIM_NATS`` of its peak.  One step costs O(r**2 * N**3) in
the worst case, so it is only usable on supports of a few thousand points.

``level_sum_agreement_enumerated`` reads every agreement conditional of
``exact.level_sum_agreement`` off all edge-flip patterns of a small tree.

``seed_sequence_generator`` builds a stream the way numpy documents it:
a Philox generator seeded by a ``SeedSequence`` object whose spawn key is
the stream's address.  ``SeedSpec.generator`` computes the same key directly.

``size_histogram_chain`` runs one sample's FK size-histogram chain on its
own, level after level, one stream and one dense accumulator per level;
``size_ensembles_by_sample`` runs it for every sample in turn and reduces
each sample's moments with its own ``.sum()`` calls.  ``fk`` advances all
samples a level at a time in chunks and must give the same arrays.

``root_cluster_law`` is the exact law of the root cluster's size at level
``k``, a Galton-Watson process with ``Binomial(r, p)`` offspring: its
generating function, ``(1 - p + p*s)**r`` composed ``k`` times, evaluated
on roots of unity and inverted with one ``irfft``.  It checks the root
column of the size-histogram chain and ``fk.sample_root_cluster_chain``.

``float32_bernoulli_bits`` draws Bernoulli bits the way their contract
defines them: float32 uniforms from ``gen.random``, compared with
``float32(prob)``.  ``rng.bernoulli_bits`` compares the raw Philox words with
an integer threshold instead, and must give the same bits and leave the
generator in the same state.

``mean_level_sum`` and ``t_statistic_direct`` read a count law by its
definition; they check the count-law engine against the first moment
``((1 - 2*eps) * r)**n`` and check ``exact.t_statistic``, which takes the gap
between two error rates, against its minority-count sum.

``bisect_critical_point`` brackets a critical error-free rate by plain
bisection of the whole initial bracket; ``exact.critical_point_k`` narrows
one scan cell by ITP instead and must find a bracket within ``tol`` of it.
``gaussian_critical_point`` bisects the same objective with the corrected
channel's error-free rate ``1 - 2*eps_k`` replaced by its central-limit
value, which is exact only as ``k`` grows; it checks how the critical rates
approach the Ising point ``p*r = 1``.

``Vertex``, ``parent_of`` and ``children_range`` are 1-based tree
coordinates; they check that each block of a descent scheme's partition is
the descendant set of one ancestor, whose 1-based index ranges
``partition_blocks`` and ``leftover`` list.  ``level_size`` is a level's
vertex count, ``regular_tree`` the complete tree as an explicit
``FiniteTree`` and ``vertex_depths`` the depth of each of its vertices;
``channel_p`` and ``channel_beta`` are a channel's error-free rate and its
inverse temperature ``tanh(beta) = p``.

``replicate_blocks`` cuts a replicate count into blocks of the fixed
stream width.  ``split_blocks``, ``join_blocks`` and ``step_by_blocks``
drive the one-block sampling kernels over any number of replicates, block by
block with each block's global index; tests use them, from the constant
root rows of ``pinned_root``, to reach sample sizes beyond one replicate
block, and to check that a kernel called on a run of blocks equals its
one-block calls.

``renormalize`` projects a corrected generation to its block values after
checking that every (surviving) block member carries that value, which
checks the correction kernels.

``from_signs`` packs an array of +-1 signs into a generation, and ``bits``
and ``to_signs`` unpack one.  Tests write and read signals with them.

``decision_statistic`` is the per-replicate statistic whose signs
``estimators.mc_deltas`` counts for one scheme at the tree's depth, with
whether it is the renormalized one-vote-per-block statistic.

``unpacked_block_majority``, ``unpacked_fraction_identification`` and
``unpacked_minority_removal`` are the correction kernels written the direct
way: unpack every bit into a byte, sum each block, pick with ``np.where`` and
pack again.  They draw the same tie coins and picks from the same streams, so
the packed kernels of ``treecast.correction`` must match them bit for bit.

``majority_delta_enumerated`` reads the sign-majority advantage off the
exhaustive pattern tables of ``treecast.likelihood``, an independent check of
``exact.delta_exact`` on small trees; ``loglikelihood_pair`` is the
likelihood of one observed pattern by a log-space recursion over the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.stats import binom

from treecast.broadcast import GenerationSignals, flip_mask, sample_next_generation
from treecast.channel import ChannelParams, check_epsilon
from treecast.correction import (
    CorrectedGeneration,
    CorrectionScheme,
    run_corrected_trajectory,
)
from treecast.exact import count_distribution, ks_condition_value
from treecast.fk import FkEnsembleStats, _spawn_pmf
from treecast.likelihood import (
    FiniteTree,
    _pattern_likelihoods,
    _resolve_observed,
)
from treecast.rng import (
    DRAW_CHUNK_COLS,
    REPLICATE_BLOCK,
    SeedSpec,
    _purpose_code,
    bernoulli_bits,
    row_slices,
)
from treecast.trees import BlockPartition, RegularTreeSpec


# Binomial factors are convolved only over their entries within this many
# nats of their peak; what is dropped is below exp(-80) of the largest term.
TRIM_NATS = 80.0


def _peak_window(log_p: np.ndarray) -> tuple[float, int, int]:
    """Peak of a unimodal log-law and the slice of entries within
    ``TRIM_NATS`` of it."""
    peak = log_p.max()
    kept = np.flatnonzero(log_p >= peak - TRIM_NATS)
    return peak, kept[0], kept[-1] + 1


def log_space_chain_step(log_w: np.ndarray, r: int, eps: float) -> np.ndarray:
    """Log-probabilities of the next level's count from this level's."""
    n_parents = len(log_w) - 1
    acc = np.zeros(r * n_parents + 1)
    acc_scale = -np.inf
    for m in range(n_parents + 1):
        if log_w[m] == -np.inf:
            continue
        n_plus, n_minus = r * m, r * (n_parents - m)
        la = binom.logpmf(np.arange(n_plus + 1), n_plus, 1.0 - eps)
        lb = binom.logpmf(np.arange(n_minus + 1), n_minus, eps)
        sa, a0, a1 = _peak_window(la)
        sb, b0, b1 = _peak_window(lb)
        term = np.convolve(np.exp(la[a0:a1] - sa), np.exp(lb[b0:b1] - sb))
        at = slice(a0 + b0, a0 + b0 + len(term))
        scale = log_w[m] + sa + sb
        if scale > acc_scale:
            if acc_scale > -np.inf:
                acc *= math.exp(acc_scale - scale)
            acc_scale = scale
            acc[at] += term
        else:
            acc[at] += term * math.exp(scale - acc_scale)

    with np.errstate(divide="ignore"):
        return np.log(acc) + acc_scale


def log_space_count_laws(level: int, r: int, eps: float) -> list[np.ndarray]:
    """Linear-space count laws of levels ``0..level`` under a +1 root."""
    log_w = np.array([-np.inf, 0.0])
    laws = [np.exp(log_w)]
    for _ in range(level):
        log_w = log_space_chain_step(log_w, r, eps)
        laws.append(np.exp(log_w))
    return laws


def level_sum_agreement_enumerated(n: int, r: int, eps: float) -> dict:
    """Every field of ``exact.LevelAgreementReport`` by its definition.

    Enumerates every edge-flip pattern of the depth-``n`` tree under either
    root sign (fair root), so it is only usable for about 16 edges.  Returns
    the report's fields by name, except that ``fixed_sum_advantage[l]`` is the
    list of advantages over every previous-level configuration summing to
    ``l > 0``, one per configuration, so a caller can check that they agree.
    """
    n_edges = sum(r**level for level in range(1, n + 1))
    flips = (np.arange(1 << n_edges)[:, None] >> np.arange(n_edges)) & 1 == 1
    weight = np.where(flips, eps, 1.0 - eps).prod(axis=1)
    signs = [np.ones((len(weight), 1), dtype=np.int64)]
    start = 0
    for level in range(1, n + 1):
        parents = np.repeat(signs[-1], r, axis=1)
        edges = flips[:, start : start + r**level]
        signs.append(np.where(edges, -parents, parents))
        start += r**level
    # A -1 root negates every sign of a pattern and keeps its weight.
    signs = [np.concatenate([s, -s]) for s in signs]
    weight = np.concatenate([weight, weight]) / 2.0
    sums = [s.sum(axis=1) for s in signs]

    def advantage(given: np.ndarray, level_sum: np.ndarray) -> float:
        w = weight[given]
        return float((w[level_sum[given] > 0].sum() - w[level_sum[given] < 0].sum()) / w.sum())

    final, previous = sums[n], sums[n - 1]
    fixed: dict[int, list[float]] = {}
    configs = signs[n - 1]
    for config in np.unique(configs[previous > 0], axis=0):
        same = (configs == config).all(axis=1)
        fixed.setdefault(int(config.sum()), []).append(advantage(same, final))
    return {
        "previous_given_final_positive": advantage(final > 0, previous),
        "final_given_previous_positive": advantage(previous > 0, final),
        "fixed_sum_advantage": dict(sorted(fixed.items())),
        "lagged_given_final_positive": {
            lag: advantage(final > 0, sums[n - lag]) for lag in range(1, n + 1)
        },
    }


def seed_sequence_generator(
    master_seed: int, purpose: str, level: int, block: int
) -> np.random.Generator:
    """The stream ``(purpose, level, block)`` keyed through numpy's own
    ``SeedSequence``."""
    seq = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(_purpose_code(purpose), level, block)
    )
    return np.random.Generator(np.random.Philox(seq))


def size_histogram_chain(
    p: float,
    r: int,
    depth: int,
    seed: SeedSpec,
    sample_index: int,
    cache: dict[int, np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Run the size-histogram chain; yields (sizes, counts, root size) at
    each level ``0..depth``.

    A cluster holding ``s`` of the level's vertices keeps ``Binomial(r*s,
    p)`` of its ``r*s`` potential children, the root cluster does the same,
    and every child cut off by a closed edge founds a new singleton.
    ``sizes``/``counts`` exclude the root cluster, whose level size is
    yielded on its own.
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


def size_ensembles_by_sample(
    p: float, r: int, levels: Sequence[int], seed: SeedSpec, n_samples: int
) -> list[FkEnsembleStats]:
    """``fk.sample_size_ensembles`` one sample after another: each sample's
    chain runs to ``max(levels)`` and its moments are summed at every
    requested level on the way."""
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
        chain = size_histogram_chain(p, r, max(levels), seed, i, cache)
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


def root_cluster_law(p: float, r: int, k: int) -> np.ndarray:
    """``P(R_k = n)`` for ``n = 0..r**k``.  The generating function is
    evaluated at the ``M``-th roots of unity ``exp(-2*pi*i*j/M)``, ``M`` the
    least power of two above ``r**k``, so its values are the DFT of the law
    and one ``irfft`` of the ``j <= M/2`` half returns it."""
    size = r**k
    m = 1 << size.bit_length()
    g = np.exp(-2j * np.pi * np.arange(m // 2 + 1) / m)
    for _ in range(k):
        g = (1.0 - p + p * g) ** r
    return np.fft.irfft(g, n=m)[: size + 1]


def float32_bernoulli_bits(
    gen: np.random.Generator, prob: float, rows: int, cols: int
) -> np.ndarray:
    """Packed ``u < float32(prob)`` bits of float32 uniforms ``u``, drawn in
    column chunks of ``DRAW_CHUNK_COLS`` and row slices (same stream order)."""
    out = np.zeros((rows, (cols + 7) // 8), dtype=np.uint8)
    threshold = np.float32(prob)
    for start in range(0, cols, DRAW_CHUNK_COLS):
        stop = min(start + DRAW_CHUNK_COLS, cols)
        byte_cols = slice(start // 8, (stop + 7) // 8)
        for rs in row_slices(rows, stop - start):
            u = gen.random((rs.stop - rs.start, stop - start), dtype=np.float32)
            out[rs, byte_cols] = np.packbits(u < threshold, axis=1)
    return out


def mean_level_sum(probs: np.ndarray) -> float:
    """Expected signed level sum ``E[2*X - size]`` of a count law
    ``probs[j] = P(X = j)``, ``j = 0..size``."""
    size = len(probs) - 1
    j = np.arange(size + 1, dtype=float)
    return float(np.sum((2.0 * j - size) * probs))


def t_statistic_direct(k: int, r: int, eps: float, budget: int | None = None) -> float:
    """The fraction-pick/descent-majority gap from its defining minority-count
    sum.

    Computed as ``(1/N) * sum_l l * (P(X=l | root -1) - P(X=l | root +1))``
    with ``l`` running over strict-minority counts; by spin-flip symmetry
    ``P(X=l | -1) = P(X=N-l | +1)``.
    """
    probs = count_distribution(k, r, eps, budget)
    size = len(probs) - 1
    top = (size - 1) // 2 if size % 2 == 1 else size // 2 - 1
    l = np.arange(top + 1)
    return float(np.sum(l * (probs[size - l] - probs[l])) / size)


def bisect_critical_point(k: int, r: int, tol: float) -> tuple[float, float]:
    """Bracket ``f(lo) <= 0 < f(hi)`` of width at most ``tol`` around the root
    of ``f = ks_condition_value(k, r, .)``, by plain bisection of the whole
    bracket ``(0.75/r, 1/sqrt(r)]``, its upper end nudged up by parts in 1e9
    while ``f`` is nonpositive there."""
    lo, hi = 0.75 / r, 1.0 / math.sqrt(r)
    while ks_condition_value(k, r, hi) <= 0.0:
        hi *= 1.0 + 1e-9
    return _bisect(lambda p: ks_condition_value(k, r, p), lo, hi, tol)


def gaussian_critical_point(k: int, r: int, tol: float) -> float:
    """Midpoint of a bracket of width at most ``tol`` around the root of the
    Kesten-Stigum objective ``(1 - 2*eps_k)**2 * r**k - 1`` with
    ``1 - 2*eps_k`` taken as ``2*Phi(mu/sigma) - 1 = erf(mu/(sigma*sqrt(2)))``.

    With a +1 root the level-``k`` sum has mean ``mu = (r*p)**k`` and second
    moment ``r**k * (1 + sum_{j=1..k} (r-1) * r**(j-1) * p**(2j))``: two
    leaves whose paths meet ``j`` levels up agree in mean by ``p**(2j)``.
    """

    def objective(p: float) -> float:
        mu = (r * p) ** k
        pairs = sum((r - 1) * r ** (j - 1) * p ** (2 * j) for j in range(1, k + 1))
        second = r**k * (1.0 + pairs)
        advantage = math.erf(mu / math.sqrt(2.0 * (second - mu * mu)))
        return advantage * advantage * r**k - 1.0

    lo, hi = _bisect(objective, 0.75 / r, 1.0 / math.sqrt(r), tol)
    return 0.5 * (lo + hi)


def _bisect(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve a sign change ``f(lo) <= 0 < f(hi)`` to width at most ``tol``."""
    assert f(lo) <= 0.0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


@dataclass(frozen=True)
class Vertex:
    """A tree vertex in 1-based ``(level, index)`` coordinates."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"vertex level must be >= 0, got {self.level}")
        if self.index < 1:
            raise ValueError(f"vertex index is 1-based, got {self.index}")


def contains(spec: RegularTreeSpec, v: Vertex) -> bool:
    """Whether ``v`` is a vertex of the tree ``spec``."""
    return 0 <= v.level <= spec.depth and 1 <= v.index <= spec.r**v.level


def parent_of(v: Vertex, spec: RegularTreeSpec) -> Vertex:
    """Parent coordinate of ``v``: ``(level-1, ceil(index/r))``."""
    if v.level == 0:
        raise ValueError("the root has no parent")
    if not contains(spec, v):
        raise ValueError(f"{v} is not a vertex of the tree")
    return Vertex(v.level - 1, (v.index + spec.r - 1) // spec.r)


def children_range(v: Vertex, spec: RegularTreeSpec) -> range:
    """The ``r`` consecutive child indices of ``v`` at level ``v.level + 1``.

    The returned ``range`` contains 1-based indices ``s`` such that
    ``parent_of((v.level+1, s)) == v``.
    """
    if v.level >= spec.depth:
        raise ValueError(
            f"level {v.level} has no children within depth {spec.depth}"
        )
    if not contains(spec, v):
        raise ValueError(f"{v} is not a vertex of the tree")
    first = spec.r * (v.index - 1) + 1
    return range(first, first + spec.r)


def ancestor_of_block(part: BlockPartition, k: int, block: int) -> Vertex:
    """The level-``(level-k)`` vertex whose descent is block ``block`` of a
    period-``k`` descent partition."""
    if not 0 <= block < part.n_blocks:
        raise ValueError(f"block {block} outside 0..{part.n_blocks - 1}")
    return Vertex(part.level - k, block + 1)


def partition_blocks(part: BlockPartition) -> Iterator[range]:
    """The 1-based index ranges of a partition's full blocks."""
    m = part.block_size
    for b in range(part.n_blocks):
        yield range(b * m + 1, (b + 1) * m + 1)


def leftover(part: BlockPartition) -> range:
    """1-based indices of a partition's trailing leftover (possibly empty)."""
    return range(part.covered + 1, part.level_size + 1)


def level_size(spec: RegularTreeSpec, level: int) -> int:
    """Number of vertices at ``level`` of the tree ``spec`` (``r**level``)."""
    if not 0 <= level <= spec.depth:
        raise ValueError(f"level {level} outside 0..{spec.depth}")
    return spec.r**level


def regular_tree(r: int, depth: int) -> FiniteTree:
    """The complete ``r``-ary tree of the given depth (``r >= 1``), with
    vertices numbered level by level."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if depth < 0:
        raise ValueError(f"need depth >= 0, got {depth}")
    children: list[tuple[int, ...]] = []
    level_start, size = 0, 1
    for _ in range(depth):
        next_start = level_start + size
        for i in range(size):
            base = next_start + r * i
            children.append(tuple(range(base, base + r)))
        level_start, size = next_start, size * r
    children.extend(() for _ in range(size))
    return FiniteTree(children=tuple(children))


def vertex_depths(tree: FiniteTree) -> tuple[int, ...]:
    """Depth of every vertex of ``tree`` (the root has depth 0)."""
    depth = [0] * tree.n_vertices
    for v, kids in enumerate(tree.children):
        for c in kids:
            depth[c] = depth[v] + 1
    return tuple(depth)


def channel_p(ch: ChannelParams) -> float:
    """Error-free rate ``1 - 2*epsilon`` of a channel."""
    return 1.0 - 2.0 * ch.epsilon


def channel_beta(ch: ChannelParams) -> float:
    """Inverse temperature with ``tanh(beta) = p`` (inf when epsilon = 0)."""
    if ch.epsilon == 0.0:
        return math.inf
    return math.atanh(channel_p(ch))


def replicate_blocks(n_replicates: int) -> Iterator[tuple[int, slice, int]]:
    """Yield ``(block_index, output_slice, rows_in_block)`` batches.

    Every batch has the fixed stream width :data:`REPLICATE_BLOCK`; the final
    slice may cover fewer output rows, but callers must still draw the full
    batch width so replicate addressing stays count-independent.
    """
    if n_replicates < 1:
        raise ValueError(f"need at least one replicate, got {n_replicates}")
    for block in range((n_replicates + REPLICATE_BLOCK - 1) // REPLICATE_BLOCK):
        start = block * REPLICATE_BLOCK
        stop = min(start + REPLICATE_BLOCK, n_replicates)
        yield block, slice(start, stop), stop - start


def split_blocks(g: GenerationSignals) -> list[tuple[int, GenerationSignals]]:
    """``g``'s rows cut into replicate blocks, each with its block index."""
    return [
        (block, GenerationSignals(g.level, g.size, rows, g.packed[rows_slice]))
        for block, rows_slice, rows in replicate_blocks(g.n_replicates)
    ]


def join_blocks(parts: Sequence[GenerationSignals]) -> GenerationSignals:
    """Consecutive replicate blocks of one level, joined in order."""
    first = parts[0]
    return GenerationSignals(
        first.level,
        first.size,
        sum(part.n_replicates for part in parts),
        np.concatenate([part.packed for part in parts]),
    )


def pinned_root(n_replicates: int, pin: int = +1) -> GenerationSignals:
    """Level-0 signals of ``n_replicates`` rows, every root set to ``pin``."""
    return from_signs(np.full((n_replicates, 1), pin, dtype=np.int8), level=0)


def step_by_blocks(
    g: GenerationSignals, ch: ChannelParams, seed: SeedSpec, r: int
) -> GenerationSignals:
    """``sample_next_generation`` over all of ``g``'s rows, one call per
    block, each on its block's own flip mask."""
    return join_blocks([
        sample_next_generation(
            part, r, flip_mask(ch, seed, g.level + 1, g.size * r, block=block)
        )
        for block, part in split_blocks(g)
    ])


def renormalize(
    g: GenerationSignals, part: BlockPartition, cg: CorrectedGeneration
) -> GenerationSignals:
    """Project a generation ``g``, corrected on the partition ``part`` with
    the result ``cg``, to one value per block.

    Verifies the defining invariant first — every block's (surviving)
    members share the block value — and raises if it fails, since a
    violation signals a scheme-ordering bug.
    """
    B, nb, covered = part.block_size, part.n_blocks, part.covered
    grouped = _grouped(bits(g), part)
    values = np.unpackbits(cg.block_signals.packed, axis=1, count=nb)
    same = grouped == values[:, :, None]
    if cg.alive is not None:
        alive_bits = np.unpackbits(cg.alive, axis=1, count=g.size)
        same |= alive_bits[:, :covered].reshape(-1, nb, B) == 0
    if not same.all():
        raise ValueError(
            f"generation at level {g.level} is not constant on blocks; "
            "was a correction skipped?"
        )
    return cg.block_signals


def from_signs(signs: np.ndarray, level: int) -> GenerationSignals:
    """Pack an array of +-1 signs; a 1-d array means a single replicate."""
    signs = np.asarray(signs)
    if signs.ndim == 1:
        signs = signs[None, :]
    if not np.isin(signs, (-1, 1)).all():
        raise ValueError("signals must be +1 or -1")
    packed = np.packbits((signs > 0).astype(np.uint8), axis=1)
    return GenerationSignals(level, signs.shape[1], signs.shape[0], packed)


def bits(g: GenerationSignals) -> np.ndarray:
    """Unpacked 0/1 bits of ``g``, shape (n_replicates, size)."""
    return np.unpackbits(g.packed, axis=1, count=g.size)


def to_signs(g: GenerationSignals) -> np.ndarray:
    """Unpacked +-1 signs of ``g``, shape (n_replicates, size), int8."""
    return (2 * bits(g).astype(np.int8) - 1).astype(np.int8)


def decision_statistic(
    tree: RegularTreeSpec,
    scheme: CorrectionScheme,
    ch: ChannelParams,
    seed: SeedSpec,
    n_replicates: int,
    pin_renormalized_root: bool = False,
) -> tuple[np.ndarray, bool]:
    """The statistic ``mc_deltas`` reads of one scheme at ``tree.depth``,
    one entry per replicate, and whether it is the renormalized one."""
    (pair,) = run_corrected_trajectory(
        tree, (scheme,), ch, seed, n_replicates, pin_renormalized_root
    )
    return pair


def _unpacked_coins(
    seed: SeedSpec, level: int, block: int, n_blocks: int
) -> np.ndarray:
    """The kernels' fair tie coins, one per (replicate, block), unpacked 0/1."""
    gen = seed.generator("tie", level=level, block=block)
    packed = bernoulli_bits(gen, 0.5, REPLICATE_BLOCK, n_blocks)
    return np.unpackbits(packed, axis=1, count=n_blocks)


def _unpacked_majority(plus: np.ndarray, total, coins: np.ndarray) -> np.ndarray:
    majority = np.where(2 * plus > total, 1, np.where(2 * plus < total, 0, coins))
    return majority.astype(np.uint8)


def _grouped(bits: np.ndarray, part: BlockPartition) -> np.ndarray:
    """View of the full blocks of unpacked rows, shape (rows, n_blocks, B)."""
    return bits[:, : part.covered].reshape(-1, part.n_blocks, part.block_size)


def unpacked_block_majority(
    g: GenerationSignals, part: BlockPartition, seed: SeedSpec, block: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Packed ``(signals, block_signals)`` of block majority, on unpacked bits."""
    unpacked = bits(g)
    grouped = _grouped(unpacked, part)
    coins = _unpacked_coins(seed, g.level, block, part.n_blocks)[: g.n_replicates]
    majority = _unpacked_majority(
        grouped.sum(axis=2, dtype=np.int64), part.block_size, coins
    )
    grouped[...] = majority[:, :, None]
    return np.packbits(unpacked, axis=1), np.packbits(majority, axis=1)


def unpacked_fraction_identification(
    g: GenerationSignals, part: BlockPartition, seed: SeedSpec, block: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Packed ``(signals, block_signals)`` of fraction identification, on
    unpacked bits."""
    unpacked = bits(g)
    grouped = _grouped(unpacked, part)
    gen = seed.generator("pick", level=g.level, block=block)
    member = gen.integers(0, part.block_size, size=(REPLICATE_BLOCK, part.n_blocks))
    picked = np.take_along_axis(grouped, member[: g.n_replicates, :, None], axis=2)
    grouped[...] = picked
    return np.packbits(unpacked, axis=1), np.packbits(picked[:, :, 0], axis=1)


def unpacked_minority_removal(
    g: GenerationSignals,
    part: BlockPartition,
    seed: SeedSpec,
    alive: np.ndarray | None = None,
    block: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed ``(alive, block_signals, block_alive)`` of minority removal, on
    unpacked bits."""
    unpacked = bits(g)
    if alive is None:
        alive_bits = np.ones_like(unpacked)
    else:
        alive_bits = np.unpackbits(alive, axis=1, count=g.size)
    grouped_bits = _grouped(unpacked, part)
    grouped_alive = _grouped(alive_bits, part)
    coins = _unpacked_coins(seed, g.level, block, part.n_blocks)[: g.n_replicates]
    total = grouped_alive.sum(axis=2, dtype=np.int64)
    # Alive members keep their bit and dead ones read 0: plus-indicators.
    grouped_bits &= grouped_alive
    plus = grouped_bits.sum(axis=2, dtype=np.int64)
    chosen = _unpacked_majority(plus, total, coins)
    # Survivors are the alive members whose bit is the chosen sign.
    grouped_alive &= grouped_bits == chosen[:, :, None]
    return (
        np.packbits(alive_bits, axis=1),
        np.packbits(chosen, axis=1),
        np.packbits(total > 0, axis=1),
    )


def _pattern_signs(n_observed: int) -> np.ndarray:
    """Sign sum of every pattern, in the bit order of the likelihood table."""
    idx = np.arange(1 << n_observed, dtype=np.int64)
    minus = np.zeros(1 << n_observed, dtype=np.int64)
    for b in range(n_observed):
        minus += (idx >> b) & 1
    return n_observed - 2 * minus


def majority_delta_enumerated(
    tree: FiniteTree, eps: float, observed: tuple[int, ...] | None = None
) -> float:
    """Advantage of the plain sign-majority rule over the observed vertices.

    Computed from the same exact pattern law as ``ml_delta_exact``:
    ``P(sum > 0 | +1 root) - P(sum < 0 | +1 root)``, ties contributing zero
    net.  On a complete regular tree with all leaves observed this equals the
    count-chain value, which makes it an independent cross-check of that
    engine on small instances.
    """
    check_epsilon(eps)
    observed = _resolve_observed(tree, observed)
    lik = _pattern_likelihoods(tree, eps, observed)
    signs = _pattern_signs(len(observed))
    positive = signs > 0
    negative = signs < 0
    return float(lik[0][positive].sum() - lik[0][negative].sum())


def loglikelihood_pair(
    tree: FiniteTree, eps: float, signs: dict[int, int]
) -> tuple[float, float]:
    """Log-likelihood of one observed sign pattern under a +1 and a -1 root.

    ``signs`` maps observed vertex ids (non-root) to +-1.  The recursion
    carries per-vertex likelihood pairs in log space, so it scales to far
    deeper trees than the pattern-table pass.
    """
    check_epsilon(eps)
    if not signs:
        raise ValueError("need at least one observed vertex")
    for v, s in signs.items():
        if not 0 < v < tree.n_vertices:
            raise ValueError(f"observed vertex {v} is the root or out of range")
        if s not in (-1, 1):
            raise ValueError(f"sign for vertex {v} must be +-1, got {s}")
    with np.errstate(divide="ignore"):
        log_keep = np.log(1.0 - eps)
        log_flip = np.log(eps)
        log_pair = np.zeros((tree.n_vertices, 2))
        for v in reversed(range(tree.n_vertices)):
            for c in tree.children[v]:
                plus, minus = log_pair[c]
                log_pair[v, 0] += np.logaddexp(log_keep + plus, log_flip + minus)
                log_pair[v, 1] += np.logaddexp(log_flip + plus, log_keep + minus)
            s = signs.get(v)
            if s is not None:
                blocked = 0 if s == -1 else 1
                log_pair[v, blocked] = -np.inf
    return float(log_pair[0, 0]), float(log_pair[0, 1])
