"""The statistic every Monte Carlo row is read from, pinned at every level.

For each case the run is repeated at every depth its scheme admits
(``CorrectionScheme.check_depth``), and the digest covers each depth's
decision statistic: the per-replicate array whose signs ``mc_deltas``
counts, with whether it is the renormalized one-vote-per-block statistic.
Streams are keyed by address, so a depth-``d`` run draws the prefix of a
deeper run's bits, and the runs together pin every level at which a
decision statistic exists.
"""

import hashlib

import pytest

from treecast import ChannelParams, CorrectionScheme, SeedSpec
from treecast.trees import RegularTreeSpec

from oracles import decision_statistic

SEED = SeedSpec(master_seed=20110917)
REPLICATES = 600  # three replicate blocks, the last one partial
CH = ChannelParams(epsilon=0.2)

# (r, depth, scheme, pin_renormalized_root): the six variants at r = 2 and
# 4 under the +1 root, and the block schemes under a renormalized root.
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

# SHA-256 of each case's depth sweep.
PINNED = {
    "r2-d6-Identity-root1":
        "ed161ac88f7720e45ce91a604376b1bf0fef5577829f6fd798c063b83c06b0c4",
    "r2-d6-BlockMajorityEveryStep{M=3}-root1":
        "e0d072018c020dbbba52ae4fdbfaf5c7af1803ed161c4d486c69b7ff33b8633e",
    "r2-d6-WithinDescentMajority{k=2}-root1":
        "0a659044f65fda3a3632447010b833b8fb445bb43129e58fe4c3ae438a1fe667",
    "r2-d6-FractionIdentification{k=2}-root1":
        "7834fda12a1dda642d9182945caf0a376fe4974b4fb5630516f0cb84ec2a5f67",
    "r2-d6-MinorityRemovalEveryStep{M=3}-root1":
        "a6fa77224eb32cb43a61407a81343603f32790d8b19c6dfe055b5a28a1629176",
    "r2-d6-WithinDescentMinorityRemoval{k=2}-root1":
        "34c27c8b10e82a8e19ed5572f6718c5f19c3a1f8afa9b46c64d05bb1c87b1450",
    "r4-d4-Identity-root1":
        "92d60f28f7bbebdc26054161c0a3c31ee613087328f0b8fecf5237bb240edfc3",
    "r4-d4-BlockMajorityEveryStep{M=4}-root1":
        "e0c024d2e97b59befcb4b5f2f1cc5e12b43972cc3b867f470c69d5546ee9d0a5",
    "r4-d4-WithinDescentMajority{k=2}-root1":
        "75c53532ce99b0a347c93708987312c88e3c966472acce9eecb81d07f472f199",
    "r4-d4-FractionIdentification{k=2}-root1":
        "5bca384fe27b5045940e6c0048be033dabfa21cdee1d2bcae969b4bd73198df1",
    "r4-d4-MinorityRemovalEveryStep{M=4}-root1":
        "7e0f28863d46d1f7b8557d3cbad4ff9beee009f7f1954c3dc74fe172ee5a4c10",
    "r4-d4-WithinDescentMinorityRemoval{k=2}-root1":
        "2ac15f3a423023f415367b66bf18dd56638c4b26a6d4bffbb7a52ff96309339e",
    "r2-d6-BlockMajorityEveryStep{M=3}-renorm":
        "c1555a04c2ab0935e2f05c8f1d4ae6d340d08821ce48362a4c06b24348780163",
    "r2-d6-MinorityRemovalEveryStep{M=3}-renorm":
        "97fca409f74958c005efbc64cb41fc275d1611d8d610a8c635b8ad1b6622ecf3",
    "r4-d4-BlockMajorityEveryStep{M=4}-renorm":
        "32efa971e0c8c3c3088322f4e6d5ebfa9b8f153a0640da62e3d14e2379e4e5d6",
}


def case_id(case):
    r, depth, scheme, renormalized = case
    return f"r{r}-d{depth}-{scheme}-{'renorm' if renormalized else 'root1'}"


def admitted_depths(scheme, r, depth, renormalized):
    """The depths ``0..depth`` at which the scheme's advantage can be read."""
    for d in range(depth + 1):
        try:
            scheme.check_depth(r, d, pin_renormalized_root=renormalized)
        except ValueError:
            continue
        yield d


def sweep_digest(case):
    r, depth, name, renormalized = case
    scheme = CorrectionScheme.parse(name)
    h = hashlib.sha256()
    for d in admitted_depths(scheme, r, depth, renormalized):
        stat, renorm = decision_statistic(
            RegularTreeSpec(r=r, depth=d), scheme, CH, SEED, REPLICATES, renormalized
        )
        h.update(repr((d, renorm)).encode())
        h.update(stat.dtype.str.encode() + stat.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_decision_statistics_match_pinned_digest(case):
    assert sweep_digest(case) == PINNED[case_id(case)]
