"""Correction kernels: block majority, fraction pick, minority removal."""

import ast
from pathlib import Path

import numpy as np
import pytest

from treecast import ChannelParams, CorrectionScheme, SeedSpec, mc_deltas
from treecast.broadcast import (
    GenerationSignals,
    flip_mask,
    majority_statistic,
    popcount_rows,
    repeat_packed,
    sample_next_generation,
)
from treecast import correction
from treecast.correction import (
    apply_block_majority,
    apply_fraction_identification,
    apply_minority_removal,
    run_corrected_trajectory,
)
from treecast import rng
from treecast.rng import REPLICATE_BLOCK, block_bits
from treecast.trees import BlockPartition, RegularTreeSpec

from oracles import (
    from_signs,
    join_blocks,
    leftover,
    pinned_root,
    renormalize,
    split_blocks,
    step_by_blocks,
    to_signs,
    unpacked_block_majority,
    unpacked_fraction_identification,
    unpacked_minority_removal,
)

SEED = SeedSpec(master_seed=555111)
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treecast"


def signals_from(rows, level):
    return from_signs(np.array(rows, dtype=np.int8), level=level)


def copied(g):
    """A copy of ``g`` for a kernel that consumes its level arrays."""
    return GenerationSignals(g.level, g.size, g.n_replicates, g.packed.copy())


def coins_for(g, part, block=0, blocks=1):
    """The tie coins of ``g``'s level on ``part`` for ``blocks`` replicate
    blocks from ``block`` on, as the trajectory loop draws them."""
    return block_bits(SEED, "tie", g.level, 0.5, part.n_blocks, block=block, blocks=blocks)


def picks_for(g, block=0, blocks=1):
    """The pick generators of ``g``'s level for ``blocks`` replicate blocks
    from ``block`` on, as the trajectory loop makes them."""
    return list(SEED.generators("pick", g.level, range(block, block + blocks)))


def test_block_majority_overwrites_blocks():
    g = signals_from([[1, 1, -1, -1, -1, 1, 1, 1, -1]], level=2)
    part = BlockPartition(level=2, level_size=9, block_size=3)
    cg = apply_block_majority(g, part, coins_for(g, part))
    np.testing.assert_array_equal(to_signs(g), [[1, 1, 1, -1, -1, -1, 1, 1, 1]])
    np.testing.assert_array_equal(to_signs(cg.block_signals), [[1, -1, 1]])
    assert len(leftover(part)) == 0


def test_block_majority_leaves_leftover_untouched():
    g = signals_from([[1, -1, -1, 1, 1]], level=1)
    part = BlockPartition(level=1, level_size=5, block_size=3)
    apply_block_majority(g, part, coins_for(g, part))
    corrected = to_signs(g)[0]
    assert list(corrected[:3]) == [-1, -1, -1]
    assert list(corrected[3:]) == [1, 1]  # leftover passes through
    assert list(leftover(part)) == [4, 5]


def test_block_majority_tie_coin_is_fair():
    n = 4_000
    g = from_signs(np.tile(np.array([1, -1], dtype=np.int8), (n, 1)), level=3)
    part = BlockPartition(level=3, level_size=2, block_size=2)
    votes = np.concatenate([
        to_signs(apply_block_majority(g_b, part, coins_for(g_b, part, b)).block_signals)[:, 0]
        for b, g_b in split_blocks(g)
    ])
    mean = votes.mean()
    assert abs(mean) < 4 / np.sqrt(n)


def test_block_majority_is_idempotent():
    root = pinned_root(300)
    g = step_by_blocks(root, ChannelParams(epsilon=0.3), SEED, r=4)
    part = BlockPartition(level=1, level_size=4, block_size=2)
    for b, g_b in split_blocks(g):
        coins = coins_for(g_b, part, b)
        apply_block_majority(g_b, part, coins)
        snapshot = g_b.packed.copy()
        apply_block_majority(g_b, part, coins)
        np.testing.assert_array_equal(snapshot, g_b.packed)


def test_kernels_write_into_the_arrays_they_are_given():
    g = signals_from([[1, 1, -1, -1, -1, 1, 1, 1, -1]], level=2)
    part = BlockPartition(level=2, level_size=9, block_size=3)
    # Tie coins a group shares are only read: a write would raise.
    coins = coins_for(g, part)
    drawn = coins.copy()
    coins.flags.writeable = False
    cg = apply_block_majority(g, part, coins)
    np.testing.assert_array_equal(renormalize(g, part, cg).packed, cg.block_signals.packed)
    np.testing.assert_array_equal(to_signs(g), [[1, 1, 1, -1, -1, -1, 1, 1, 1]])
    g = signals_from([[1, 1, -1, -1, -1, 1, 1, 1, -1]], level=2)
    cg = apply_fraction_identification(g, part, picks_for(g))
    renormalize(g, part, cg)  # the blocks of g itself are now constant
    alive = np.packbits(np.ones((1, 9), dtype=np.uint8), axis=1)
    assert apply_minority_removal(g, part, coins, alive).alive is alive
    np.testing.assert_array_equal(coins, drawn)


def test_fraction_identification_copies_a_member():
    g = signals_from([[1, 1, -1, -1]], level=2)
    part = BlockPartition(level=2, level_size=4, block_size=2)
    apply_fraction_identification(g, part, picks_for(g))
    out = to_signs(g)[0]
    # Each block is constant and equal to one of its original members.
    assert out[0] == out[1] == 1
    assert out[2] == out[3] == -1


def test_fraction_identification_pick_is_uniform():
    n = 4_000
    g = from_signs(np.tile(np.array([1, -1, -1, -1], dtype=np.int8), (n, 1)), level=1)
    part = BlockPartition(level=1, level_size=4, block_size=4)
    picks = np.concatenate([
        to_signs(apply_fraction_identification(g_b, part, picks_for(g_b, b)).block_signals)
        for b, g_b in split_blocks(g)
    ])
    freq_plus = (picks[:, 0] == 1).mean()
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(freq_plus - 0.25) < 4 * sigma


def test_minority_removal_survivors_agree():
    g = signals_from([[1, 1, -1, 1, -1, -1]], level=1)
    part = BlockPartition(level=1, level_size=6, block_size=3)
    before = g.packed.copy()
    cg = apply_minority_removal(g, part, coins_for(g, part))
    alive_bits = np.unpackbits(cg.alive, axis=1, count=6)[0]
    np.testing.assert_array_equal(alive_bits, [1, 1, 0, 0, 1, 1])
    np.testing.assert_array_equal(to_signs(cg.block_signals), [[1, -1]])
    # Signals themselves are untouched; only the alive mask shrinks.
    np.testing.assert_array_equal(g.packed, before)


def test_minority_removal_respects_prior_deaths():
    g = signals_from([[1, -1, -1, 1]], level=1)
    part = BlockPartition(level=1, level_size=4, block_size=4)
    # Kill the two -1 members beforehand: the alive majority is then +1.
    alive = np.packbits(np.array([[1, 0, 0, 1]], dtype=np.uint8), axis=1)
    cg = apply_minority_removal(g, part, coins_for(g, part), alive=alive)
    np.testing.assert_array_equal(to_signs(cg.block_signals), [[1]])
    np.testing.assert_array_equal(
        np.unpackbits(cg.alive, axis=1, count=4)[0], [1, 0, 0, 1]
    )


def test_minority_removal_keeps_at_least_half():
    root = pinned_root(500)
    g = step_by_blocks(root, ChannelParams(epsilon=0.4), SEED, r=4)
    part = BlockPartition(level=1, level_size=4, block_size=4)
    alive = np.concatenate([
        apply_minority_removal(g_b, part, coins_for(g_b, part, b)).alive
        for b, g_b in split_blocks(g)
    ])
    alive_counts = np.unpackbits(alive, axis=1, count=4).sum(axis=1)
    assert (alive_counts >= 2).all()


# (r, level, block size): descent blocks r**k, and M-blocks with a leftover
# (r=2 M=3, r=3 M=5, and B = 2, 4, 16 on r=3 levels).
PACKED_CASES = [
    (2, 4, 2), (2, 5, 4), (2, 6, 8), (2, 8, 16), (2, 5, 3),
    (3, 4, 3), (3, 4, 9), (3, 5, 27), (3, 4, 5), (3, 4, 2), (3, 3, 4), (3, 4, 16),
    (4, 3, 4), (4, 4, 16),
]


@pytest.mark.parametrize("rows", [REPLICATE_BLOCK, 100])
@pytest.mark.parametrize(
    "case", PACKED_CASES, ids=lambda c: "r{}-level{}-B{}".format(*c)
)
def test_packed_kernels_match_unpacked_oracle(case, rows):
    r, level, B = case
    size = r**level
    part = BlockPartition(level=level, level_size=size, block_size=B)
    rng = np.random.default_rng(size * B + rows)
    g = from_signs(rng.choice([-1, 1], size=(rows, size)), level)
    alive_bits = (rng.random((rows, size)) < 0.6).astype(np.uint8)
    # All-dead blocks: the first block of every row, and random others.
    alive_bits[:, :B] = 0
    dead = rng.random((rows, part.n_blocks)) < 0.2
    alive_bits[:, : part.covered].reshape(rows, -1, B)[dead] = 0
    alive = np.packbits(alive_bits, axis=1)
    block = 3
    coins = coins_for(g, part, block)
    before = g.packed.copy()

    h = copied(g)
    cg = apply_block_majority(h, part, coins)
    signals, block_signals = unpacked_block_majority(g, part, SEED, block)
    np.testing.assert_array_equal(h.packed, signals)
    np.testing.assert_array_equal(cg.block_signals.packed, block_signals)

    h = copied(g)
    cg = apply_fraction_identification(h, part, picks_for(g, block))
    signals, block_signals = unpacked_fraction_identification(g, part, SEED, block)
    np.testing.assert_array_equal(h.packed, signals)
    np.testing.assert_array_equal(cg.block_signals.packed, block_signals)

    for mask in (None, alive):
        given = None if mask is None else mask.copy()
        cg = apply_minority_removal(g, part, coins, given)
        survivors, block_signals, block_alive = unpacked_minority_removal(
            g, part, SEED, mask, block
        )
        np.testing.assert_array_equal(cg.alive, survivors)
        np.testing.assert_array_equal(cg.block_signals.packed, block_signals)
        np.testing.assert_array_equal(cg.block_alive, block_alive)
        np.testing.assert_array_equal(g.packed, before)


@pytest.mark.parametrize("case", [(2, 5, 4), (3, 4, 5), (3, 4, 9), (2, 8, 16), (3, 5, 27)],
                         ids=lambda c: "r{}-level{}-B{}".format(*c))
def test_fraction_identification_row_sliced_picks_match_oracle(monkeypatch, case):
    # Slices of a few rows each: the picks drawn slice by slice must be the
    # rows of the oracle's one whole-block draw.
    r, level, B = case
    size = r**level
    part = BlockPartition(level=level, level_size=size, block_size=B)
    g = from_signs(
        np.random.default_rng(B).choice([-1, 1], size=(REPLICATE_BLOCK - 3, size)), level
    )
    monkeypatch.setattr(rng, "SLICE_ELEMENTS", 3 * max(part.n_blocks, g.packed.shape[1]))
    h = copied(g)
    cg = apply_fraction_identification(h, part, picks_for(g, 2))
    signals, block_signals = unpacked_fraction_identification(g, part, SEED, 2)
    np.testing.assert_array_equal(h.packed, signals)
    np.testing.assert_array_equal(cg.block_signals.packed, block_signals)


KERNELS = (
    sample_next_generation,
    apply_block_majority,
    apply_fraction_identification,
    apply_minority_removal,
)
#: What each kernel names when it refuses rows beyond the draws it is given.
REFUSALS = {
    sample_next_generation: "flip mask shape",
    apply_block_majority: "tie coins shape",
    apply_fraction_identification: "replicate block",
    apply_minority_removal: "tie coins shape",
}


def run_kernel(kernel, n):
    """Call one of the four kernels on ``n`` replicate rows, with the draws
    of one replicate block."""
    g = from_signs(np.ones((n, 4), dtype=np.int8), level=2)
    if kernel is sample_next_generation:
        flips = flip_mask(ChannelParams(epsilon=0.1), SEED, 3, 8)
        return sample_next_generation(g, 2, flips)
    part = BlockPartition(level=2, level_size=4, block_size=2)
    if kernel is apply_fraction_identification:
        return kernel(g, part, picks_for(g))
    return kernel(g, part, coins_for(g, part))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda kernel: kernel.__name__)
def test_kernels_refuse_more_than_one_replicate_block(kernel):
    run_kernel(kernel, REPLICATE_BLOCK)
    with pytest.raises(ValueError, match=REFUSALS[kernel]):
        run_kernel(kernel, REPLICATE_BLOCK + 1)


def test_renormalize_round_trip_and_guard():
    g = signals_from([[1, 1, -1, -1]], level=2)
    part = BlockPartition(level=2, level_size=4, block_size=2)
    cg = apply_block_majority(g, part, coins_for(g, part))
    np.testing.assert_array_equal(to_signs(renormalize(g, part, cg)), [[1, -1]])
    # A corrupted generation that is not block-constant must be rejected.
    with pytest.raises(ValueError):
        renormalize(signals_from([[1, -1, -1, -1]], level=2), part, cg)


def test_scheme_parse_round_trip():
    for text in (
        "Identity",
        "BlockMajorityEveryStep{M=8}",
        "WithinDescentMajority{k=2}",
        "FractionIdentification{k=3}",
        "MinorityRemovalEveryStep{M=4}",
        "WithinDescentMinorityRemoval{k=2}",
    ):
        assert CorrectionScheme.parse(text).descriptor() == text
    with pytest.raises(ValueError):
        CorrectionScheme.parse("Nonsense{x=1}")
    with pytest.raises(ValueError):
        CorrectionScheme.parse("WithinDescentMajority{k=0}")


def test_scheme_levels():
    block = CorrectionScheme.block_majority_every_step(4)
    assert block.start_level(2) == 2
    assert block.correction_levels(2, 5) == (2, 3, 4, 5)
    descent = CorrectionScheme.parse("WithinDescentMajority{k=2}")
    assert descent.correction_levels(2, 7) == (2, 4, 6)
    assert CorrectionScheme.identity().correction_levels(2, 9) == ()


def test_identity_trajectory_matches_plain_broadcast():
    # With no corrections the trajectory is exactly the broadcast kernel run.
    ch = ChannelParams(epsilon=0.25)
    g = pinned_root(400)
    for level in range(5):
        ((stat, renormalized),) = run_corrected_trajectory(
            RegularTreeSpec(r=2, depth=level),
            (CorrectionScheme.identity(),),
            ch,
            SEED,
            n_replicates=400,
        )
        assert not renormalized
        np.testing.assert_array_equal(stat, majority_statistic(g))
        if level < 4:
            g = step_by_blocks(g, ch, SEED, r=2)


def test_trajectory_is_deterministic_and_prefix_stable():
    tree = RegularTreeSpec(r=2, depth=4)
    scheme = CorrectionScheme.block_majority_every_step(2)
    ch = ChannelParams(epsilon=0.2)

    def stat(n):
        ((statistic, _),) = run_corrected_trajectory(tree, (scheme,), ch, SEED, n)
        return statistic

    a, b, wide = stat(700), stat(700), stat(1500)
    np.testing.assert_array_equal(a, b)
    # Replicates are addressed by block, so a wider run extends, not reshuffles.
    np.testing.assert_array_equal(wide[:700], a)


def test_minority_trajectory_tracks_survivors():
    # WithinDescentMinorityRemoval{k=1} at r = 3, two levels through the
    # kernels: the second removal sees only the first one's survivors.
    scheme = CorrectionScheme.within_descent_minority_removal(1)
    ch = ChannelParams(epsilon=0.3)
    g, alive = pinned_root(500), None
    for level in (1, 2):
        g = step_by_blocks(g, ch, SEED, r=3)
        if alive is not None:
            parents = alive
            alive = repeat_packed(parents, g.size // 3, 3)
        part = scheme.partition_for(level, 3)
        cg = apply_minority_removal(g, part, coins_for(g, part, blocks=2), alive)
        alive = cg.alive
    assert part.n_blocks == cg.block_signals.size == 3
    # The dead keep no descendants, and survivors share their block's sign.
    assert not (alive & ~repeat_packed(parents, 3, 3)).any()
    renormalize(g, part, cg)
    # Statistics over alive vertices never exceed the alive count.
    assert (np.abs(majority_statistic(g, alive)) <= popcount_rows(alive)).all()
    # Each alive block contributes one renormalized vote.
    alive_blocks = popcount_rows(cg.block_alive)
    block_votes = majority_statistic(cg.block_signals, cg.block_alive)
    assert (np.abs(block_votes) <= alive_blocks).all()
    assert (alive_blocks >= 1).all()


def test_renormalized_root_pinning_requires_block_scheme(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(correction, "flip_mask", never)
    with pytest.raises(ValueError, match="needs a block scheme"):
        mc_deltas(
            (CorrectionScheme.parse("WithinDescentMajority{k=2}"),),
            2,
            4,
            ChannelParams(epsilon=0.2),
            SEED,
            300,
            pin_renormalized_root=True,
        )


def run_kernel_on_blocks(kernel, n, blocks):
    """Call the kernel that maps rows to replicate blocks on ``n`` rows of
    ``blocks`` replicate blocks from block 1 on."""
    g = from_signs(np.ones((n, 4), dtype=np.int8), level=2)
    part = BlockPartition(level=2, level_size=4, block_size=2)
    return kernel(g, part, picks_for(g, 1, blocks))


@pytest.mark.parametrize("kernel", (apply_fraction_identification,),
                         ids=lambda kernel: kernel.__name__)
def test_kernels_refuse_rows_that_do_not_fill_their_blocks(kernel):
    # Every block of a run but the last is full, and the last holds a row.
    for n in (REPLICATE_BLOCK + 1, 2 * REPLICATE_BLOCK):
        run_kernel_on_blocks(kernel, n, 2)
    for n in (REPLICATE_BLOCK, 2 * REPLICATE_BLOCK + 1):
        with pytest.raises(ValueError, match="run of 2 replicate blocks"):
            run_kernel_on_blocks(kernel, n, 2)


def test_kernels_refuse_tie_coins_of_other_blocks():
    g = from_signs(np.ones((REPLICATE_BLOCK + 1, 4), dtype=np.int8), level=2)
    part = BlockPartition(level=2, level_size=4, block_size=2)
    one_block = coins_for(g, part, 1)
    # Mis-shaped coins on a narrow level of five rows: one row, a row too
    # few, a byte too narrow or too wide, and a flat array.  numpy would
    # broadcast or slice some of these without a word.
    h = from_signs(np.ones((5, 32), dtype=np.int8), level=5)
    wide = BlockPartition(level=5, level_size=32, block_size=2)
    coins = coins_for(h, wide)
    for kernel in (apply_block_majority, apply_minority_removal):
        with pytest.raises(ValueError, match="tie coins shape"):
            kernel(g, part, one_block)
        kernel(copied(h), wide, coins[:5])
        for bad in (coins[:1], coins[:4], coins[:, :1], np.pad(coins, ((0, 0), (0, 1))),
                    coins[0]):
            with pytest.raises(ValueError, match="tie coins shape"):
                kernel(copied(h), wide, bad)
        with pytest.raises(ValueError, match="does not match generation"):
            kernel(copied(h), BlockPartition(level=4, level_size=32, block_size=2), coins)


def test_kernels_draw_nothing(monkeypatch):
    # Every draw comes in as an argument: with stream construction and bit
    # draws broken, the four kernels still run.
    ch = ChannelParams(epsilon=0.3)
    parents = pinned_root(300)
    g = step_by_blocks(parents, ch, SEED, r=3)
    part = BlockPartition(level=1, level_size=3, block_size=3)
    flips = flip_mask(ch, SEED, 2, 9, blocks=2)
    coins = coins_for(g, part, blocks=2)
    picks = picks_for(g, blocks=2)

    def never(*args, **kwargs):
        raise AssertionError("a kernel drew")

    monkeypatch.setattr(SeedSpec, "generators", never)
    monkeypatch.setattr(rng, "bernoulli_bits", never)
    sample_next_generation(g, 3, flips)
    apply_block_majority(copied(g), part, coins)
    apply_fraction_identification(copied(g), part, picks)
    apply_minority_removal(g, part, coins)
    with pytest.raises(AssertionError, match="a kernel drew"):
        coins_for(g, part)


#: Names that build or draw from a random stream.
DRAWS = frozenset({"generator", "generators", "block_bits", "bernoulli_bits", "flip_mask"})


def module_calls(path):
    """For each top-level function of ``path``, the names it calls (a call
    ``f(...)`` or ``x.f(...)`` names ``f``), nested functions included."""
    calls = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            calls[node.name] = {
                getattr(sub.func, "id", getattr(sub.func, "attr", None))
                for sub in ast.walk(node)
                if isinstance(sub, ast.Call)
            }
    return calls


def reachable(calls, name):
    """``name`` and every function of the same module it calls, transitively."""
    seen, todo = set(), [name]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            todo.extend(callee for callee in calls[current] if callee in calls)
    return seen


def test_no_kernel_names_a_stream():
    kernels = {
        "broadcast.py": ["sample_next_generation"],
        "correction.py": [
            "apply_block_majority", "apply_fraction_identification", "apply_minority_removal"
        ],
    }
    for module, names in kernels.items():
        calls = module_calls(PACKAGE / module)
        for name in names:
            drawn = {
                (function, callee)
                for function in reachable(calls, name)
                for callee in calls[function] & DRAWS
            }
            assert not drawn, f"{name} draws through {sorted(drawn)}"
    # The loop does draw, so the check sees draws where they are.
    loop = module_calls(PACKAGE / "correction.py")
    assert DRAWS & set().union(*(loop[f] for f in reachable(loop, "_run_task")))


def test_draws_of_a_run_of_blocks_stack_the_blocks_draws():
    ch = ChannelParams(epsilon=0.3)
    np.testing.assert_array_equal(
        flip_mask(ch, SEED, 4, 81, block=2, blocks=3),
        np.concatenate([flip_mask(ch, SEED, 4, 81, block=b) for b in (2, 3, 4)]),
    )
    np.testing.assert_array_equal(
        block_bits(SEED, "tie", 4, 0.5, 27, block=2, blocks=3),
        np.concatenate([block_bits(SEED, "tie", 4, 0.5, 27, block=b) for b in (2, 3, 4)]),
    )


@pytest.mark.parametrize("slice_rows", [None, 7], ids=["whole-rows", "7-row-slices"])
@pytest.mark.parametrize("case", [(2, 5, 4), (3, 4, 9), (3, 4, 5)],
                         ids=lambda c: "r{}-level{}-B{}".format(*c))
def test_a_run_of_blocks_equals_its_blocks_one_by_one(monkeypatch, case, slice_rows):
    # Three blocks from block 2 on, the last partial: the run's rows must be
    # its blocks' rows, each read from its own draws, also when a row slice
    # straddles a block boundary.
    r, level, B = case
    size = r**level
    part = BlockPartition(level=level, level_size=size, block_size=B)
    rows = 2 * REPLICATE_BLOCK + 44
    gen = np.random.default_rng(size * B)
    g = from_signs(gen.choice([-1, 1], size=(rows, size)), level)
    alive = np.packbits(gen.random((rows, size)) < 0.7, axis=1)
    if slice_rows is not None:
        monkeypatch.setattr(
            rng, "SLICE_ELEMENTS", slice_rows * max(part.n_blocks, g.packed.shape[1])
        )
    blocks = [slice(b * REPLICATE_BLOCK, (b + 1) * REPLICATE_BLOCK) for b in range(3)]
    for kernel in (apply_block_majority, apply_fraction_identification,
                   apply_minority_removal):

        def call(rows, block, count=1):
            packed = g.packed[rows].copy()
            given = GenerationSignals(level, size, len(packed), packed)
            if kernel is apply_fraction_identification:
                cg = kernel(given, part, picks_for(given, block, count))
            else:
                extra = (alive[rows].copy(),) if kernel is apply_minority_removal else ()
                cg = kernel(given, part, coins_for(given, part, block, count), *extra)
            return given, cg

        whole = call(slice(None), 2, 3)
        one_by_one = [call(rows, 2 + b) for b, rows in enumerate(blocks)]
        np.testing.assert_array_equal(
            whole[0].packed, join_blocks([given for given, _ in one_by_one]).packed
        )
        np.testing.assert_array_equal(
            whole[1].block_signals.packed,
            join_blocks([cg.block_signals for _, cg in one_by_one]).packed,
        )
        if kernel is apply_minority_removal:
            np.testing.assert_array_equal(
                whole[1].alive, np.concatenate([cg.alive for _, cg in one_by_one])
            )
