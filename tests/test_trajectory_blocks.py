"""Block-outer trajectory loop: bit-identical records for any worker count,
any batch bound and any group of schemes run together, tie coins drawn once
per group, and peak memory that does not grow with the replicate count."""

import collections
import gc
import hashlib
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from treecast import ChannelParams, CorrectionScheme, SeedSpec, mc_deltas
from treecast.trees import RegularTreeSpec
from treecast import correction
from treecast.correction import run_corrected_trajectory
from treecast.rng import REPLICATE_BLOCK

SEED = SeedSpec(master_seed=20110917)
REPLICATES = 600  # three replicate blocks, the last one partial

# (r, depth, scheme, pin_root, pin_renormalized_root)
CASES = [
    (2, 6, "Identity", +1, False),
    (2, 6, "BlockMajorityEveryStep{M=3}", +1, False),
    (2, 6, "WithinDescentMajority{k=2}", +1, False),
    (2, 6, "FractionIdentification{k=2}", +1, False),
    (2, 6, "MinorityRemovalEveryStep{M=3}", +1, False),
    (2, 6, "WithinDescentMinorityRemoval{k=2}", +1, False),
    (4, 4, "Identity", +1, False),
    (4, 4, "BlockMajorityEveryStep{M=4}", +1, False),
    (4, 4, "WithinDescentMajority{k=2}", +1, False),
    (4, 4, "FractionIdentification{k=2}", +1, False),
    (4, 4, "MinorityRemovalEveryStep{M=4}", +1, False),
    (4, 4, "WithinDescentMinorityRemoval{k=2}", +1, False),
    (2, 6, "BlockMajorityEveryStep{M=3}", +1, True),
    (2, 6, "MinorityRemovalEveryStep{M=3}", +1, True),
    (4, 4, "BlockMajorityEveryStep{M=4}", +1, True),
    (2, 6, "Identity", None, False),
    (2, 6, "WithinDescentMinorityRemoval{k=2}", None, False),
    (4, 4, "FractionIdentification{k=2}", None, False),
]

# SHA-256 of every case's records, computed with the earlier level-outer loop.
PINNED = {
    "r2-d6-Identity-root1":
        "c53c61f1aec9c90baef64aacc754ea3d92a1992539bc47b21ab409ec73ade673",
    "r2-d6-BlockMajorityEveryStep{M=3}-root1":
        "f6930f637300511a158d849fa60824774dbd6eec4594b30a99a8ba0f8114d181",
    "r2-d6-WithinDescentMajority{k=2}-root1":
        "216c269c97e3a8dd95aad95f940ebe5c38f10a6aab7a09fe3e8b69a7a3cf5e5b",
    "r2-d6-FractionIdentification{k=2}-root1":
        "936a4066b3c684f605bd907df589b176949341728f8ed2a047b0fe02efa40c0c",
    "r2-d6-MinorityRemovalEveryStep{M=3}-root1":
        "43f303ac98a0b32a2d7f89a03780363241a92f5c9d4bd5f898c99dd7c261a9ac",
    "r2-d6-WithinDescentMinorityRemoval{k=2}-root1":
        "8f325bf0b6d0630b3d17710b4e9667ad0d16457d6fa9dc768eea19b71f62ea0c",
    "r4-d4-Identity-root1":
        "cf53918b2f92d2fc9a12d75a2f06266893d2654928b170b2b1d3712f193f29a6",
    "r4-d4-BlockMajorityEveryStep{M=4}-root1":
        "c7ecc941136a59783f1086f0b5f736bb80cda353154d40209a761505b21a8c1c",
    "r4-d4-WithinDescentMajority{k=2}-root1":
        "95364d4e8498a1069677d1e789e7c520f935c7e8027b9e2012cf02afaf01275f",
    "r4-d4-FractionIdentification{k=2}-root1":
        "49608e1e7f89c7d4facee28a60466b949a941e34526fa4f57608f90120140b5e",
    "r4-d4-MinorityRemovalEveryStep{M=4}-root1":
        "5f3d7461cded63de2f5c5d851d7ca914863cdd4a250c99980ce077ac76355310",
    "r4-d4-WithinDescentMinorityRemoval{k=2}-root1":
        "6b33f509052d3c98a9eb1ffe64bca319f5ee3d79e29db7a4671914d2b651859f",
    "r2-d6-BlockMajorityEveryStep{M=3}-renorm":
        "3eff2d55a7921bb002d850c1a48c8b983515f48b9d18443abf6a800e2c0826fe",
    "r2-d6-MinorityRemovalEveryStep{M=3}-renorm":
        "fd2285e52726a6ae2c90ca3c86b00e00512a2ab9f16232cbc09d2c96fd5e4cba",
    "r4-d4-BlockMajorityEveryStep{M=4}-renorm":
        "a5f87a51af438edf77ae4cb8055e5339e6f3647507fe1ca7874418ac5ba7d704",
    "r2-d6-Identity-rootNone":
        "f70243f7bfc76cf23cc29c0f881012deff3a637f92595ee698d6650231e4c5f0",
    "r2-d6-WithinDescentMinorityRemoval{k=2}-rootNone":
        "ffdde489c12dbf543a53c292c3d00f702d4f974b33d0cd8766f05e1922b4cc76",
    "r4-d4-FractionIdentification{k=2}-rootNone":
        "11ca23ac0bc093e8750abd4982eefd491a1ea5bd3c08ad0b8aa7548afc161de0",
}


def case_id(case):
    r, depth, scheme, pin_root, renormalized = case
    pin = "renorm" if renormalized else f"root{pin_root}"
    return f"r{r}-d{depth}-{scheme}-{pin}"


def run_case(case):
    r, depth, scheme, pin_root, renormalized = case
    (traj,) = run_corrected_trajectory(
        RegularTreeSpec(r=r, depth=depth),
        (CorrectionScheme.parse(scheme),),
        ChannelParams(epsilon=0.2),
        SEED,
        REPLICATES,
        pin_root=pin_root,
        pin_renormalized_root=renormalized,
    )
    return traj


def records_digest(traj):
    h = hashlib.sha256()
    for rec in traj.records:
        h.update(repr((rec.level, rec.n_blocks, rec.excluded_count)).encode())
        for arr in (
            rec.statistic,
            rec.alive_count,
            rec.renormalized_statistic,
            rec.alive_block_count,
        ):
            h.update(b"-" if arr is None else arr.dtype.str.encode() + arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_records_match_pinned_digest(case):
    assert records_digest(run_case(case)) == PINNED[case_id(case)]


BOUNDS = {"one-block-batches": 1, "one-batch-per-task": 1 << 40}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_records_do_not_depend_on_the_batch_bound(monkeypatch, bound, workers):
    # Six variants at r = 2 and 4, a free and a renormalized root, and three
    # blocks whose last is partial: a batch straddles it unless batches are
    # single blocks.
    monkeypatch.setattr(correction, "BATCH_BYTES", BOUNDS[bound])
    monkeypatch.setattr(
        correction, "_worker_count", lambda n_blocks: min(workers, n_blocks)
    )
    for case in CASES:
        assert records_digest(run_case(case)) == PINNED[case_id(case)], case_id(case)


@pytest.mark.parametrize("workers", [1, 3])
def test_records_do_not_depend_on_worker_count(monkeypatch, workers):
    default = [records_digest(run_case(case)) for case in CASES]
    monkeypatch.setattr(
        correction, "_worker_count", lambda n_blocks: min(workers, n_blocks)
    )
    assert [records_digest(run_case(case)) for case in CASES] == default


def test_peak_memory_flat_in_replicate_count(monkeypatch):
    # Blocks in flight multiply the peak, and how many overlap depends on the
    # CPU count and on thread timing, so run one block at a time.  The records
    # a run returns grow with the replicate count by design; the working
    # memory on top of them must not.
    monkeypatch.setattr(correction, "_worker_count", lambda n_blocks: 1)
    scheme = CorrectionScheme.within_descent_minority_removal(2)
    tree = RegularTreeSpec(r=4, depth=6)
    ch = ChannelParams(epsilon=0.3)

    def working_peak(n_replicates):
        tracemalloc.start()
        try:
            (traj,) = run_corrected_trajectory(tree, (scheme,), ch, SEED, n_replicates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(
            arr.nbytes
            for rec in traj.records
            for arr in (
                rec.statistic,
                rec.alive_count,
                rec.renormalized_statistic,
                rec.alive_block_count,
            )
            if arr is not None
        )
        return peak - returned

    working_peak(512)  # warm caches outside the comparison
    small, large = working_peak(512), working_peak(2048)
    assert large <= 1.10 * small, (small, large)


# One group per branching factor: all six variants, block schemes with
# leftover members (M=3 at r=2, M=5 and M=4 at r=3), and depths holding
# several correction levels.
GROUPS = {
    2: (6, ("Identity", "BlockMajorityEveryStep{M=3}", "WithinDescentMajority{k=2}",
            "FractionIdentification{k=2}", "MinorityRemovalEveryStep{M=3}",
            "WithinDescentMinorityRemoval{k=2}")),
    3: (4, ("Identity", "BlockMajorityEveryStep{M=5}", "WithinDescentMajority{k=2}",
            "FractionIdentification{k=1}", "MinorityRemovalEveryStep{M=4}",
            "WithinDescentMinorityRemoval{k=2}")),
    4: (4, ("Identity", "BlockMajorityEveryStep{M=4}", "WithinDescentMajority{k=2}",
            "FractionIdentification{k=2}", "MinorityRemovalEveryStep{M=4}",
            "WithinDescentMinorityRemoval{k=2}")),
}
GROUP_REPLICATES = 300  # two replicate blocks, the last one partial


def assert_records_equal(got, want):
    assert [rec.level for rec in got.records] == [rec.level for rec in want.records]
    for a, b in zip(got.records, want.records):
        assert (a.n_blocks, a.excluded_count) == (b.n_blocks, b.excluded_count)
        for name in ("statistic", "alive_count", "renormalized_statistic",
                     "alive_block_count"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), (a.level, name)
            if x is not None:
                assert x.dtype == y.dtype and np.array_equal(x, y), (a.level, name)


def run_group(r, depth, schemes, **kwargs):
    return run_corrected_trajectory(
        RegularTreeSpec(r=r, depth=depth), schemes, ChannelParams(epsilon=0.2),
        SEED, GROUP_REPLICATES, **kwargs,
    )


def mc_group(r, depth, schemes, **kwargs):
    """The same group through its checked entry, :func:`mc_deltas`."""
    return mc_deltas(
        schemes, r, depth, ChannelParams(epsilon=0.2), SEED, GROUP_REPLICATES, **kwargs
    )


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("r", sorted(GROUPS))
def test_group_records_equal_one_scheme_runs(monkeypatch, r, workers, reverse):
    monkeypatch.setattr(
        correction, "_worker_count", lambda n_blocks: min(workers, n_blocks)
    )
    depth, names = GROUPS[r]
    schemes = [CorrectionScheme.parse(name) for name in names]
    if reverse:
        schemes.reverse()
    group = run_group(r, depth, schemes)
    assert len(group) == len(schemes)
    for scheme, traj in zip(schemes, group):
        (alone,) = run_group(r, depth, (scheme,))
        assert_records_equal(traj, alone)


def test_group_records_survive_thread_stress(monkeypatch):
    # Worker threads write their blocks' rows of the shared record arrays:
    # with more workers than cores and a short switch interval no row may be
    # lost or crossed.
    schemes = [CorrectionScheme.parse(name) for name in GROUPS[2][1]]
    tree = RegularTreeSpec(r=2, depth=6)
    ch = ChannelParams(epsilon=0.2)
    n = 8 * REPLICATE_BLOCK - 5
    monkeypatch.setattr(correction, "_worker_count", lambda n_blocks: 1)
    serial = run_corrected_trajectory(tree, schemes, ch, SEED, n)
    monkeypatch.setattr(correction, "_worker_count", lambda n_blocks: min(8, n_blocks))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_corrected_trajectory(tree, schemes, ch, SEED, n)
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(threaded, serial):
        assert_records_equal(got, want)


@pytest.mark.parametrize("pin", ["free-root", "renormalized-root"])
def test_group_with_root_options_equals_one_scheme_runs(pin):
    if pin == "free-root":
        names, kwargs = GROUPS[2][1], {"pin_root": None}
    else:
        # Both start at level 1 on r = 2.
        names = ("BlockMajorityEveryStep{M=3}", "MinorityRemovalEveryStep{M=2}")
        kwargs = {"pin_renormalized_root": True}
    schemes = [CorrectionScheme.parse(name) for name in names]
    group = run_group(2, 6, schemes, record_levels=(0, 3, 6), **kwargs)
    for scheme, traj in zip(schemes, group):
        (alone,) = run_group(2, 6, (scheme,), record_levels=(0, 3, 6), **kwargs)
        assert_records_equal(traj, alone)


def test_groups_that_cannot_share_a_run_are_refused(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(correction, "sample_root", never)
    monkeypatch.setattr(correction, "flip_mask", never)
    block = CorrectionScheme.parse("BlockMajorityEveryStep{M=3}")
    with pytest.raises(ValueError, match="at least one scheme"):
        mc_group(2, 6, ())
    # A renormalized root is a block scheme's option: a descent scheme has no
    # block level to pin.
    with pytest.raises(ValueError, match="needs a block scheme"):
        mc_group(
            2, 6, (block, CorrectionScheme.parse("WithinDescentMajority{k=2}")),
            pin_renormalized_root=True,
        )
    # M=3 starts at level 1 and M=4 at level 2 on r = 2.
    with pytest.raises(ValueError, match="one start level"):
        mc_group(
            2, 6, (block, CorrectionScheme.block_majority_every_step(4)),
            pin_renormalized_root=True,
        )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("r", sorted(GROUPS))
def test_group_records_do_not_depend_on_the_batch_bound(monkeypatch, r, bound, workers):
    depth, names = GROUPS[r]
    schemes = [CorrectionScheme.parse(name) for name in names]
    for kwargs in ({}, {"pin_root": None}):
        want = run_group(r, depth, schemes, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(correction, "BATCH_BYTES", BOUNDS[bound])
            patch.setattr(
                correction, "_worker_count", lambda n_blocks: min(workers, n_blocks)
            )
            got = run_group(r, depth, schemes, **kwargs)
        for a, b in zip(got, want):
            assert_records_equal(a, b)


MC_NARROW = ("Identity", "WithinDescentMajority{k=2}", "BlockMajorityEveryStep{M=4}",
             "WithinDescentMinorityRemoval{k=2}")


def test_group_draws_each_tie_coin_stream_once(monkeypatch):
    # The benchmark's narrow group: at every even level three schemes
    # correct on identical partitions, at odd levels block majority alone.
    schemes = [CorrectionScheme.parse(name) for name in MC_NARROW]
    r, depth, n = 2, 10, 600
    n_blocks = -(-n // REPLICATE_BLOCK)
    ties = collections.Counter()
    generators = SeedSpec.generators  # every stream is built through it

    def counting(self, purpose, level, blocks):
        if purpose == "tie":
            ties.update((level, block) for block in blocks)
        return generators(self, purpose, level, blocks)

    monkeypatch.setattr(SeedSpec, "generators", counting)
    run_corrected_trajectory(
        RegularTreeSpec(r=r, depth=depth), schemes, ChannelParams(epsilon=0.1), SEED, n
    )
    # One stream per (level, block, distinct partition block count) among
    # the schemes that break ties at that level.
    expected = collections.Counter()
    for level in range(1, depth + 1):
        counts = {
            scheme.partition_for(level, r).n_blocks
            for scheme in schemes
            if level in scheme.correction_levels(r, depth)
        }
        for block in range(n_blocks):
            if counts:
                expected[level, block] = len(counts)
    assert ties == expected
    assert sum(ties.values()) == 9 * n_blocks  # one scheme at a time would draw 19


def test_records_are_freed_without_the_cycle_collector(monkeypatch):
    # Nothing a run leaves behind may hold its records on a reference cycle,
    # so they go as soon as the caller drops them.
    monkeypatch.setattr(correction, "_worker_count", lambda n_blocks: min(2, n_blocks))
    monkeypatch.setattr(correction, "BATCH_BYTES", 1)
    schemes = [CorrectionScheme.parse(name) for name in GROUPS[2][1]]
    gc.collect()
    gc.disable()
    try:
        group = run_group(2, 6, schemes)
        refs = [weakref.ref(rec.statistic) for traj in group for rec in traj.records]
        del group
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
