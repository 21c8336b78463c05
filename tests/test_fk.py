"""Cluster representation: samplers, moment summaries, anti-concentration."""

import collections
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from treecast import (
    SeedSpec,
    anti_concentration_check,
    fk,
    moment_summary,
    rng,
    sample_size_ensembles,
    tail_probe_Rk,
)
from treecast.broadcast import majority_statistic
from treecast.cli import main
from treecast.exact import count_distribution
from treecast.fk import _spawn_pmf, sample_root_cluster_chain, sample_size_ensemble

from fk_labels import sample_cluster_ensemble, sample_fk_level_stats, sample_spin_ensemble
from oracles import root_cluster_law, size_ensembles_by_sample, size_histogram_chain

SEED = SeedSpec(master_seed=77001)


def size_histogram(p, r, k, sample_index=0):
    """One sample of the size-histogram chain at level ``k``: (sizes, counts,
    root size), the root cluster kept out of ``sizes``/``counts``."""
    *_, last = size_histogram_chain(p, r, k, SEED, sample_index, {})
    return last


def cluster_count(counts, root):
    return int(counts.sum()) + (1 if root > 0 else 0)


def survival_probabilities(p, r, k):
    """P(a single-vertex cluster still has members j levels down), j=0..k."""
    dead = 0.0
    out = [1.0]
    for _ in range(k):
        dead = (1.0 - p + p * dead) ** r
        out.append(1.0 - dead)
    return out


def expected_cluster_count(p, r, k):
    """Exact E[m_k]: every closed edge roots a new cluster, which contributes
    iff its branching process survives to level k."""
    alive = survival_probabilities(p, r, k)
    total = alive[k]  # the root's own cluster
    for j in range(1, k + 1):
        total += r**j * (1.0 - p) * alive[k - j]
    return total


def test_degenerate_edge_probabilities():
    full = sample_fk_level_stats(1.0, 2, 3, SEED)
    assert full.m_k == 1 and full.R_k == 8
    np.testing.assert_array_equal(full.z, [8])
    empty = sample_fk_level_stats(0.0, 2, 3, SEED)
    assert empty.m_k == 8 and empty.R_k == 0
    np.testing.assert_array_equal(empty.z, np.ones(8))
    _, counts, root = size_histogram(1.0, 2, 3)
    assert root == 8 and cluster_count(counts, root) == 1
    _, counts, root = size_histogram(0.0, 2, 3)
    assert root == 0 and cluster_count(counts, root) == 8


def test_cluster_sizes_cover_the_level():
    for i in range(10):
        stats = sample_fk_level_stats(0.55, 3, 4, SEED, sample_index=i)
        assert stats.z.sum() == 3**4
        assert (stats.z >= 1).all()
        sizes, counts, root = size_histogram(0.55, 3, 4, sample_index=i)
        assert (sizes * counts).sum() + root == 3**4
        assert (sizes >= 1).all()
        assert (counts >= 1).all()


def test_samplers_are_deterministic():
    a = sample_fk_level_stats(0.5, 2, 5, SEED, sample_index=3)
    b = sample_fk_level_stats(0.5, 2, 5, SEED, sample_index=3)
    assert a.R_k == b.R_k and a.m_k == b.m_k and a.sum_z2 == b.sum_z2
    sizes_a, counts_a, _ = size_histogram(0.5, 2, 5, sample_index=3)
    sizes_b, counts_b, _ = size_histogram(0.5, 2, 5, sample_index=3)
    np.testing.assert_array_equal(sizes_a, sizes_b)
    np.testing.assert_array_equal(counts_a, counts_b)


def test_size_ensemble_matches_per_index_histograms():
    ens = sample_size_ensemble(0.5, 3, 4, SEED, n_samples=16)
    for i in (0, 7, 15):
        sizes, counts, root = size_histogram(0.5, 3, 4, sample_index=i)
        as_float = sizes.astype(np.float64)
        assert ens.R_k[i] == root
        assert ens.m_k[i] == cluster_count(counts, root)
        assert math.isclose(ens.sum_z2[i], (counts * as_float**2).sum() + root**2)
        assert math.isclose(ens.sum_z3[i], (counts * as_float**3).sum() + root**3)


def test_chain_yields_every_level_of_one_run():
    levels = list(size_histogram_chain(0.5, 3, 4, SEED, 2, {}))
    assert len(levels) == 5
    sizes, counts, root = levels[0]
    assert sizes.size == counts.size == 0 and root == 1
    for k, (sizes, counts, root) in enumerate(levels):
        assert (sizes * counts).sum() + root == 3**k
        # A shorter run of the same sample is a prefix of this one.
        sizes_k, counts_k, root_k = size_histogram(0.5, 3, k, sample_index=2)
        np.testing.assert_array_equal(sizes, sizes_k)
        np.testing.assert_array_equal(counts, counts_k)
        assert root == root_k


def test_ensembles_equal_level_by_level_ensembles():
    levels = (5, 0, 2, 5)
    ensembles = sample_size_ensembles(0.3, 4, levels, SEED, 300)
    assert [e.k for e in ensembles] == list(levels)
    for k, ens in zip(levels, ensembles):
        one = sample_size_ensemble(0.3, 4, k, SEED, 300)
        assert ens.n_samples == one.n_samples == 300
        for a, b in (
            (ens.R_k, one.R_k),
            (ens.m_k, one.m_k),
            (ens.sum_z2, one.sum_z2),
            (ens.sum_z3, one.sum_z3),
        ):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def no_streams(*args, **kwargs):
    raise AssertionError("a stream was keyed")


def test_no_levels_draw_nothing(monkeypatch):
    monkeypatch.setattr(rng, "_philox_keys", no_streams)
    assert sample_size_ensembles(0.3, 4, (), SEED, 300) == []


# (p, r, levels, samples, seed): edge probabilities 0 and 1, one sample, a
# prime sample count, unsorted and duplicate levels, a deep binary chain,
# and p = 0.95, where some samples' sums of z**3 pass 2**53 and summing
# them in another order than numpy's .sum() moves them by an ulp.
ORACLE_CASES = {
    "p-0": (0.0, 2, (3, 1), 5, SEED),
    "p-1": (1.0, 3, (4,), 5, SEED),
    "one-sample": (0.5, 3, (6,), 1, SEED),
    "37-samples": (0.4, 3, (7, 2), 37, SEED),
    "unsorted-duplicate-levels": (0.3, 4, (5, 0, 2, 5), 300, SEED),
    "r2-depth30": (0.5, 2, (30,), 3, SEED),
    "p-0.95": (0.95, 4, tuple(range(1, 12)), 20, SeedSpec(5)),
}


def assert_ensembles_equal(got, want):
    assert [e.k for e in got] == [e.k for e in want]
    for a, b in zip(got, want):
        assert a.n_samples == b.n_samples
        for name in ("R_k", "m_k", "sum_z2", "sum_z3"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, name
            assert np.array_equal(x, y), (a.k, name)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_ensembles_match_the_per_sample_chain(case):
    p, r, levels, n, seed = ORACLE_CASES[case]
    assert_ensembles_equal(
        sample_size_ensembles(p, r, levels, seed, n),
        size_ensembles_by_sample(p, r, levels, seed, n),
    )


@pytest.mark.parametrize("chunk_bytes", [1, 4096, 1 << 15])
def test_chunking_is_not_part_of_the_output(monkeypatch, chunk_bytes):
    # One sample per chunk and every draw read on its own, then chunks that
    # do not divide the sample count, and draws read in part-way batches.
    p, r, levels, n, seed = ORACLE_CASES["37-samples"]
    want = size_ensembles_by_sample(p, r, levels, seed, n)
    monkeypatch.setattr(fk, "CHUNK_BYTES", chunk_bytes)
    assert_ensembles_equal(sample_size_ensembles(p, r, levels, seed, n), want)


def test_keys_are_derived_once_per_level_and_chunk(monkeypatch):
    calls = []
    steps = []
    derive, step = rng._philox_keys, fk._step_chunk

    def counting_derive(master_seed, purpose, level, blocks):
        calls.append((level, blocks.tolist()))
        return derive(master_seed, purpose, level, blocks)

    def counting_step(p, r, level, seed, first, hist, cache):
        steps.append((level, first, hist.roots.size))
        return step(p, r, level, seed, first, hist, cache)

    monkeypatch.setattr(rng, "_philox_keys", counting_derive)
    monkeypatch.setattr(fk, "_step_chunk", counting_step)
    monkeypatch.setattr(SeedSpec, "generator", no_streams)
    n, depth = 300, 8
    sample_size_ensembles(0.3, 4, [depth], SEED, n)
    # One derivation per chunk step, for that chunk's consecutive samples.
    assert [(level, list(range(first, first + size))) for level, first, size in steps] == calls
    for level in range(1, depth + 1):
        # Every sample once per level.
        covered = sorted(b for lv, blocks in calls if lv == level for b in blocks)
        assert covered == list(range(n))
    # Shallow levels fit one chunk; no level comes near one chunk per sample.
    per_level = collections.Counter(level for level, _ in calls)
    assert per_level[1] == 1
    assert max(per_level.values()) < n / 10


def chunk_temporaries(monkeypatch, p, r, k, n):
    """Bytes each chunk step allocated beyond its inputs and outputs, with
    ``(samples, accumulator slots)`` of the chunk; the binomial tables of
    its sizes are built before the step is measured."""
    seen = []
    step = fk._step_chunk

    def measured(p, r, level, seed, first, hist, cache):
        for s in set(hist.sizes.tolist()):
            _spawn_pmf(r * s, p, cache)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = step(p, r, level, seed, first, hist, cache)
        peak = tracemalloc.get_traced_memory()[1]
        kept = sum(a.nbytes for a in (out.sizes, out.counts, out.bounds, out.roots))
        seen.append((peak - before - kept, hist.roots.size, int(hist.rooms(r).sum())))
        return out

    monkeypatch.setattr(fk, "_step_chunk", measured)
    tracemalloc.start()
    try:
        sample_size_ensembles(p, r, [k], SEED, n)
    finally:
        tracemalloc.stop()
    return seen


def test_chunk_temporaries_stay_under_the_byte_constant(monkeypatch):
    seen = chunk_temporaries(monkeypatch, 0.3, 4, 10, 200)
    assert max(size for size, _, _ in seen) < fk.CHUNK_BYTES
    assert max(samples for _, samples, _ in seen) > 1


def test_heavy_samples_hold_their_own_accumulator_only(monkeypatch):
    # At p = 0.95 a sample's histogram outgrows the budget by level 8: such
    # a sample steps alone, and beyond CHUNK_BYTES it holds only its own
    # accumulator and its largest draw (each r * (largest size) + 1 slots
    # or so), as its chain would on its own.
    budget = fk.CHUNK_BYTES // (8 * fk._SLOT_ARRAYS)
    heavy = 0
    for size, samples, room in chunk_temporaries(monkeypatch, 0.95, 4, 10, 5):
        if room <= budget:
            assert size < fk.CHUNK_BYTES
        else:
            heavy += 1
            assert samples == 1
            assert size < fk.CHUNK_BYTES + 2 * 8 * room
    assert heavy > 0


# SHA-256 of the stdout of ``fk-stats --r 4 --p 0.3 --k 5,2,5 --samples 200
# --seed 11 --reproducible``, computed when every level ran its own chain.
PINNED_FK_STATS = "cbbc7980096468cd7b7b768878b63815ebee156b9271c4bbc00d2d242f7566fb"


def test_fk_stats_output_matches_pinned_digest(capsys):
    argv = ["fk-stats", "--r", "4", "--p", "0.3", "--k", "5,2,5",
            "--samples", "200", "--seed", "11", "--reproducible"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FK_STATS


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_spawn_pmf_is_scipy_stats_binom_bit_for_bit(p):
    # These bits decide every multinomial draw of the size-histogram chain.
    for trials in (1, 4, 40, 400, 4000):
        expected = np.clip(binom.pmf(np.arange(trials + 1), trials, p), 0.0, None)
        expected /= expected.sum()
        got = _spawn_pmf(trials, p, {})
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_root_cluster_is_binomial_at_level_one():
    n = 20_000
    sizes = sample_root_cluster_chain(0.6, 4, 1, SEED, n)
    pmf = binom.pmf(np.arange(5), 4, 0.6)
    for j in range(5):
        freq = (sizes == j).mean()
        sigma = math.sqrt(pmf[j] * (1 - pmf[j]) / n)
        assert abs(freq - pmf[j]) < 4 * sigma


def test_root_cluster_mean_growth():
    n = 20_000
    for p, r, k in ((0.5, 3, 6), (0.6, 2, 8)):
        sizes = sample_root_cluster_chain(p, r, k, SEED, n)
        expected = (p * r) ** k
        sigma = sizes.std(ddof=1) / math.sqrt(n)
        assert abs(sizes.mean() - expected) < 4 * sigma


def test_normalized_root_weight_mean_one():
    ens = sample_size_ensemble(0.5, 3, 8, SEED, n_samples=4_000)
    w = ens.W_k
    sigma = w.std(ddof=1) / math.sqrt(len(w))
    assert abs(w.mean() - 1.0) < 4 * sigma


@pytest.mark.parametrize(("r", "p"), [(4, 0.3), (2, 0.6), (3, 0.45)])
def test_second_moment_matches_its_exact_value(r, p):
    # Two level-k vertices whose common ancestor is j levels up lie in one
    # cluster with probability p**(2j), and each vertex has (r-1)*r**(j-1)
    # such partners: E[sum z**2] / r**k = 1 + sum_j (r-1) r**(j-1) p**(2j).
    n, levels = 4_000, range(1, 9)
    for ens in sample_size_ensembles(p, r, levels, SEED, n):
        exact = 1 + sum((r - 1) * r ** (j - 1) * p ** (2 * j) for j in range(1, ens.k + 1))
        ratio = ens.z2_ratio
        sigma = ratio.std(ddof=1) / math.sqrt(n)
        assert abs(ratio.mean() - exact) < 5 * sigma, (ens.k, ratio.mean(), exact)


@pytest.mark.parametrize(("p", "r", "k"), [(0.3, 4, 6), (0.6, 2, 8), (0.45, 3, 5), (0.95, 4, 4)])
def test_root_cluster_sizes_follow_their_exact_law(p, r, k):
    # Both samplers of the root cluster's level-k size, cell by cell, against
    # the Galton-Watson law: within 5 sigma of the expected count wherever
    # that count is at least 20.
    n = 4_000
    law = root_cluster_law(p, r, k)
    assert abs(law.sum() - 1.0) < 1e-14
    cells = np.flatnonzero(n * law >= 20)
    expected = n * law[cells]
    sigma = np.sqrt(expected * (1.0 - law[cells]))
    for sizes in (
        sample_size_ensemble(p, r, k, SEED, n).R_k,
        sample_root_cluster_chain(p, r, k, SEED, n),
    ):
        z = (np.bincount(sizes, minlength=law.size)[cells] - expected) / sigma
        assert np.abs(z).max() < 5, (cells[np.abs(z).argmax()], z)


def test_cluster_count_matches_survival_oracle():
    p, r, k, n = 0.5, 3, 4, 4_000
    expected = expected_cluster_count(p, r, k)
    ens = sample_size_ensemble(p, r, k, SEED, n)
    sigma = ens.m_k.std(ddof=1) / math.sqrt(n)
    assert abs(ens.m_k.mean() - expected) < 4 * sigma
    labeled = sample_cluster_ensemble(p, r, k, SEED, n)
    sigma_l = labeled.m_k.std(ddof=1) / math.sqrt(n)
    assert abs(labeled.m_k.mean() - expected) < 4 * sigma_l


def test_histogram_chain_agrees_with_labeling_in_law():
    # Two independent ensembles of the same law: all moment means must agree.
    p, r, k, n = 0.5, 3, 4, 2_000
    hist = sample_size_ensemble(p, r, k, SEED, n)
    labeled = sample_cluster_ensemble(p, r, k, SEED, n)
    for a, b in (
        (hist.R_k, labeled.R_k),
        (hist.m_k, labeled.m_k),
        (hist.sum_z2, labeled.sum_z2),
        (hist.sum_z3, labeled.sum_z3),
    ):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        pooled = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(a.mean() - b.mean()) < 4 * pooled


def test_spin_ensemble_matches_count_chain_law():
    # Root cluster pinned, other clusters fair: the level law must equal the
    # broadcast count chain with eps = (1 - p) / 2.
    p, r, k, n = 0.6, 2, 3, 8_000
    g = sample_spin_ensemble(p, r, k, +1, SEED, n)
    counts = (majority_statistic(g) + r**k) // 2
    probs = count_distribution(k, r, (1 - p) / 2)
    observed = np.array([(counts == j).sum() for j in range(r**k + 1)])
    expected = n * probs
    # Pool the thin tail cells so every chi-square cell expects >= 5 counts.
    big = expected >= 5
    chi2 = (((observed[big] - expected[big]) ** 2) / expected[big]).sum()
    if not big.all():
        rest_obs, rest_exp = observed[~big].sum(), expected[~big].sum()
        chi2 += (rest_obs - rest_exp) ** 2 / rest_exp
        dof = int(big.sum())
    else:
        dof = int(big.sum()) - 1
    assert chi2 < dof + 4 * math.sqrt(2 * dof)


def test_spin_ensemble_root_sign_symmetry():
    p, r, k, n = 0.6, 2, 3, 8_000
    plus = majority_statistic(sample_spin_ensemble(p, r, k, +1, SEED, n))
    minus = majority_statistic(sample_spin_ensemble(p, r, k, -1, SEED, n))
    pooled = math.sqrt(plus.var(ddof=1) / n + minus.var(ddof=1) / n)
    assert abs(plus.mean() + minus.mean()) < 4 * pooled
    with pytest.raises(ValueError):
        sample_spin_ensemble(p, r, k, 0, SEED, n)


def test_moment_report_regime_handling():
    # p**2 * r >= 1 and p * r <= 1 lie outside the moment bounds' regime.
    for p, r in ((0.8, 2), (0.2, 2)):
        (outside,) = sample_size_ensembles(p, r, [2], SEED, 50)
        assert moment_summary(outside).regime_ok is False
    good = [moment_summary(e) for e in sample_size_ensembles(0.3, 4, [2, 4], SEED, 100)]
    assert [s.k for s in good] == [2, 4]
    assert all(s.regime_ok for s in good)
    assert all(s.z2_floor == 0.35 for s in good)
    assert all(s.min_z2_ratio > 0 for s in good)


def test_ensembles_refuse_levels_past_int64_counts(monkeypatch):
    monkeypatch.setattr(rng, "_philox_keys", no_streams)
    with pytest.raises(ValueError, match="int64"):
        sample_size_ensembles(0.3, 4, [2, 32], SEED, 2)
    with pytest.raises(ValueError, match="int64"):
        sample_size_ensembles(0.5, 2, [63], SEED, 2)


def test_tail_probe_validation_and_decay():
    with pytest.raises(ValueError):
        tail_probe_Rk(0.3, 3, 4, 1.3, 100, SEED)  # p * r < 1
    with pytest.raises(ValueError):
        tail_probe_Rk(0.5, 3, 4, -1.0, 100, SEED)
    shallow = tail_probe_Rk(0.5, 3, 4, 1.3, 20_000, SEED)
    deep = tail_probe_Rk(0.5, 3, 8, 1.3, 20_000, SEED)
    assert shallow.threshold == (1.3 * 0.5 * 3) ** 4
    assert 0 <= deep.frequency <= shallow.frequency
    assert shallow.frequency > 0
    assert not shallow.slow_decay_expected
    assert tail_probe_Rk(0.52, 2, 2, 1.1, 100, SEED).slow_decay_expected


def test_anti_concentration_enumeration_passes():
    report = anti_concentration_check(4, 2, (0.0, 1.0, 2.0))
    assert report.passed
    assert report.failures == ()
    assert report.worst_margin >= 0.0
    assert report.cases_checked == sum(
        2 ** (m - n_unit) * 3 for m in range(1, 5) for n_unit in range(1, m + 1)
    )


def test_anti_concentration_equality_case():
    # With every variable of unit size the two sides coincide at alpha = 0,
    # so the worst margin over the enumeration is exactly zero.
    report = anti_concentration_check(3, 1, (0.0,))
    assert report.worst_margin == 0.0
    assert report.passed


def test_anti_concentration_cap():
    with pytest.raises(ValueError):
        anti_concentration_check(11, 2, (1.0,))
    with pytest.raises(ValueError):
        anti_concentration_check(0, 2, (1.0,))


def test_fk_argument_validation():
    with pytest.raises(ValueError):
        sample_fk_level_stats(1.2, 2, 3, SEED)
    with pytest.raises(ValueError):
        sample_fk_level_stats(0.5, 1, 3, SEED)
    with pytest.raises(ValueError):
        sample_size_ensemble(0.5, 2, -1, SEED, 1)
    with pytest.raises(ValueError):
        sample_size_ensemble(0.5, 2, 3, SEED, 0)
    with pytest.raises(ValueError):
        sample_size_ensembles(0.5, 2, (3, -1), SEED, 1)


# SHA-256 of each sampler's output arrays at seed 77001, computed when the
# streams were still keyed through numpy's SeedSequence object; every FK
# stream must stay bit-identical.
PINNED_FK = {
    "size-ensemble":
        "e57edb3c4a9434d76ce6b0f57b50d6d3d7df1e7f946ee2bba3623f6bc8832eed",
    "cluster-ensemble-batched":
        "5d2b5e72768ac2c8a75a408693807d9c1b814b2967cab72005518e519affdca7",
    "cluster-ensemble-heavy":
        "d3e7e6f289787a0552c39232316cf6e08e02b66a67de6ee98e6f20028b3943fc",
    "root-cluster-chain":
        "fcb96f8eb587041b4d3f4bb792bcc41ea8e2c9c9e8f3f1109fcaa37bd1d08b2c",
}


def arrays_digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.dtype.str.encode() + arr.tobytes())
    return h.hexdigest()


def ensemble_digest(stats):
    return arrays_digest(stats.R_k, stats.m_k, stats.sum_z2, stats.sum_z3)


FK_SAMPLERS = {
    "size-ensemble": lambda: ensemble_digest(sample_size_ensemble(0.3, 4, 6, SEED, 300)),
    # id space 5,461: replicate blocks on the "fk-edges-batch" streams.
    "cluster-ensemble-batched":
        lambda: ensemble_digest(sample_cluster_ensemble(0.3, 4, 6, SEED, 300)),
    # id space 87,381 > 2**16: one heavy "fk-edges" sample per index.
    "cluster-ensemble-heavy":
        lambda: ensemble_digest(sample_cluster_ensemble(0.3, 4, 8, SEED, 12)),
    "root-cluster-chain":
        lambda: arrays_digest(sample_root_cluster_chain(0.3, 4, 6, SEED, 300)),
}


@pytest.mark.parametrize("name", list(PINNED_FK))
def test_fk_streams_match_pinned_digest(name):
    assert FK_SAMPLERS[name]() == PINNED_FK[name]
