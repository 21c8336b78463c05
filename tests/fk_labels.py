"""Explicit FK cluster labelling: the reference sampler for ``treecast.fk``.

Each parent-child edge of the regular tree is *open* independently with
probability ``p``.  One top-down pass labels every level-``k`` vertex with the
id of its cluster's base vertex (the highest vertex reachable through open
edges), keeping only the current level's labels in memory.  The root's
cluster carries the reserved label 0.

This is an independent check of the library's size-histogram chain
(:func:`treecast.fk.sample_size_ensemble`), which reaches the same cluster
statistics without labelling vertices.  Assigning the root's sign to the
root cluster and independent fair signs to every other cluster reproduces
the broadcast law at ``p = 1 - 2*epsilon``, which checks the count chain too.

Streams: ``"fk-edges"`` for one heavy sample per index, ``"fk-edges-batch"``
and ``"cluster-signs-batch"`` for replicate blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from treecast.broadcast import GenerationSignals
from treecast.budget import check_vertices
from treecast.fk import FkEnsembleStats, _validate_fk_args
from treecast.rng import REPLICATE_BLOCK, SeedSpec, bernoulli_bits

from oracles import replicate_blocks


def _vertex_id_base(level: int, r: int) -> int:
    """Global id of the first vertex at ``level`` (root has id 0)."""
    return (r**level - 1) // (r - 1)


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
    check_vertices(r, k, vertex_budget)
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
    check_vertices(r, k, vertex_budget)
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
    check_vertices(r, k, vertex_budget)
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
