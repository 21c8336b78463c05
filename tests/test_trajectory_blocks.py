"""Block-outer trajectory loop: bit-identical decision statistics for any
worker count, any batch bound and any group of schemes run together, tie
coins drawn once per group, and peak memory that does not grow with the
replicate count."""

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

# (r, depth, scheme, pin_renormalized_root)
CASES = [
    (2, 6, "Identity", False),
    (2, 6, "BlockMajorityEveryStep{M=3}", False),
    (2, 6, "WithinDescentMajority{k=2}", False),
    (2, 6, "FractionIdentification{k=2}", False),
    (2, 6, "MinorityRemovalEveryStep{M=3}", False),
    (2, 6, "WithinDescentMinorityRemoval{k=2}", False),
    (4, 4, "Identity", False),
    (4, 4, "BlockMajorityEveryStep{M=4}", False),
    (4, 4, "WithinDescentMajority{k=2}", False),
    (4, 4, "FractionIdentification{k=2}", False),
    (4, 4, "MinorityRemovalEveryStep{M=4}", False),
    (4, 4, "WithinDescentMinorityRemoval{k=2}", False),
    (2, 6, "BlockMajorityEveryStep{M=3}", True),
    (2, 6, "MinorityRemovalEveryStep{M=3}", True),
    (4, 4, "BlockMajorityEveryStep{M=4}", True),
]

# SHA-256 of every case's (statistic, renormalized) pair at its depth,
# computed from the last level records of the earlier all-level loop.
PINNED = {
    "r2-d6-Identity-root1":
        "0933b0aeb238033cfa8e641a30e0894042c4de89a5f98f68ed26b394b7d76db1",
    "r2-d6-BlockMajorityEveryStep{M=3}-root1":
        "e18a91933305f4efe277dc05f2639f7542188033ecea64f53166429ae4e8f226",
    "r2-d6-WithinDescentMajority{k=2}-root1":
        "8364b8e4a2407447d30b9b44984aa1734a564db79b392547ca59ef7485c2cd0b",
    "r2-d6-FractionIdentification{k=2}-root1":
        "2466efaa3ae8fa6d177305d843531387e5fdba44ffe7b4e216f0ad602b3912c6",
    "r2-d6-MinorityRemovalEveryStep{M=3}-root1":
        "9698e80b36db1122d0806fb8cea9dfb298ead07b09303a86f9ce469097321d22",
    "r2-d6-WithinDescentMinorityRemoval{k=2}-root1":
        "56e1304bc5bc3408dcacb113e826063bec3f77e6d0c064be56828df42593c03e",
    "r4-d4-Identity-root1":
        "b9703213bfde7250d9b0e93d45ee2f3c6af04e212cc0693b0a5f676c7abd0d37",
    "r4-d4-BlockMajorityEveryStep{M=4}-root1":
        "8b1b13ed6baf324e76a4c48694442553f2f46c94db10c6293a992c4e8bc46b98",
    "r4-d4-WithinDescentMajority{k=2}-root1":
        "1ccf2dab8b43b74614457167840c09b3205c6496a0066269ffa6cb12bd79a09b",
    "r4-d4-FractionIdentification{k=2}-root1":
        "a5eb5018304ceb06f4dafbdb62f664bb8668bc2f2e5ad0fee4eeed7a74cbf7dd",
    "r4-d4-MinorityRemovalEveryStep{M=4}-root1":
        "c71dc7cc1e90077bd8dd731ee1fd753b5735d750d5d950ff0f9744885e73fb45",
    "r4-d4-WithinDescentMinorityRemoval{k=2}-root1":
        "436ca5fe8469540cf33503012c8fac0bccff63faf47c72fe7ef0ba026021503f",
    "r2-d6-BlockMajorityEveryStep{M=3}-renorm":
        "6952c76604614c04279a744b03dfd00ed988f94c12e95ac28d16de64afe2eca4",
    "r2-d6-MinorityRemovalEveryStep{M=3}-renorm":
        "d10ab8848f847f82989bf5704fdd59baeb745085ed9fd82cf0574a81828d968d",
    "r4-d4-BlockMajorityEveryStep{M=4}-renorm":
        "ef227ddd9c7114c9f20e552f1c8660f200b90dec02dc8003d052d6e64a79e1eb",
}


def case_id(case):
    r, depth, scheme, renormalized = case
    return f"r{r}-d{depth}-{scheme}-{'renorm' if renormalized else 'root1'}"


def run_case(case):
    r, depth, scheme, renormalized = case
    (pair,) = run_corrected_trajectory(
        RegularTreeSpec(r=r, depth=depth),
        (CorrectionScheme.parse(scheme),),
        ChannelParams(epsilon=0.2),
        SEED,
        REPLICATES,
        pin_renormalized_root=renormalized,
    )
    return pair


def pair_digest(pair):
    stat, renormalized = pair
    h = hashlib.sha256(repr(renormalized).encode())
    h.update(stat.dtype.str.encode() + stat.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_records_match_pinned_digest(case):
    assert pair_digest(run_case(case)) == PINNED[case_id(case)]


BOUNDS = {"one-block-batches": 1, "one-batch-per-task": 1 << 40}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_records_do_not_depend_on_the_batch_bound(monkeypatch, bound, workers):
    # Six variants at r = 2 and 4, the +1 and the renormalized root, and
    # three blocks whose last is partial: a batch straddles it unless batches
    # are single blocks.
    monkeypatch.setattr(correction, "BATCH_BYTES", BOUNDS[bound])
    monkeypatch.setattr(
        correction, "_worker_count", lambda n_blocks: min(workers, n_blocks)
    )
    for case in CASES:
        assert pair_digest(run_case(case)) == PINNED[case_id(case)], case_id(case)


@pytest.mark.parametrize("workers", [1, 3])
def test_records_do_not_depend_on_worker_count(monkeypatch, workers):
    default = [pair_digest(run_case(case)) for case in CASES]
    monkeypatch.setattr(
        correction, "_worker_count", lambda n_blocks: min(workers, n_blocks)
    )
    assert [pair_digest(run_case(case)) for case in CASES] == default


def test_peak_memory_flat_in_replicate_count(monkeypatch):
    # Blocks in flight multiply the peak, and how many overlap depends on the
    # CPU count and on thread timing, so run one block at a time.  The
    # statistic a run returns grows with the replicate count by design; the
    # working memory on top of it must not.
    monkeypatch.setattr(correction, "_worker_count", lambda n_blocks: 1)
    scheme = CorrectionScheme.within_descent_minority_removal(2)
    tree = RegularTreeSpec(r=4, depth=6)
    ch = ChannelParams(epsilon=0.3)

    def working_peak(n_replicates):
        tracemalloc.start()
        try:
            ((stat, _),) = run_corrected_trajectory(
                tree, (scheme,), ch, SEED, n_replicates
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - stat.nbytes

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


def assert_pairs_equal(got, want):
    (x, got_renormalized), (y, want_renormalized) = got, want
    assert got_renormalized == want_renormalized
    assert x.dtype == y.dtype and np.array_equal(x, y)


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
    for scheme, pair in zip(schemes, group):
        (alone,) = run_group(r, depth, (scheme,))
        assert_pairs_equal(pair, alone)


def test_group_records_survive_thread_stress(monkeypatch):
    # Worker threads write their blocks' rows of the shared statistics:
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
        assert_pairs_equal(got, want)


@pytest.mark.parametrize("pin", ["plus-root", "renormalized-root"])
def test_group_with_root_options_equals_one_scheme_runs(pin):
    if pin == "plus-root":
        # Schemes whose domain holds both depths.
        names = ("Identity", "BlockMajorityEveryStep{M=3}", "MinorityRemovalEveryStep{M=3}")
        kwargs = {}
    else:
        # Both start at level 1 on r = 2.
        names = ("BlockMajorityEveryStep{M=3}", "MinorityRemovalEveryStep{M=2}")
        kwargs = {"pin_renormalized_root": True}
    schemes = [CorrectionScheme.parse(name) for name in names]
    # Level 3 corrects only the block schemes.
    for depth in (3, 6):
        group = run_group(2, depth, schemes, **kwargs)
        for scheme, pair in zip(schemes, group):
            (alone,) = run_group(2, depth, (scheme,), **kwargs)
            assert_pairs_equal(pair, alone)


def test_groups_that_cannot_share_a_run_are_refused(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a block was drawn")

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
    want = run_group(r, depth, schemes)
    monkeypatch.setattr(correction, "BATCH_BYTES", BOUNDS[bound])
    monkeypatch.setattr(
        correction, "_worker_count", lambda n_blocks: min(workers, n_blocks)
    )
    got = run_group(r, depth, schemes)
    for a, b in zip(got, want):
        assert_pairs_equal(a, b)


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
    # Nothing a run leaves behind may hold its statistics on a reference
    # cycle, so they go as soon as the caller drops them.
    monkeypatch.setattr(correction, "_worker_count", lambda n_blocks: min(2, n_blocks))
    monkeypatch.setattr(correction, "BATCH_BYTES", 1)
    schemes = [CorrectionScheme.parse(name) for name in GROUPS[2][1]]
    gc.collect()
    gc.disable()
    try:
        group = run_group(2, 6, schemes)
        refs = [weakref.ref(stat) for stat, _ in group]
        del group
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
