"""Shared fixtures: the Monte-Carlo-vs-exact cross-validation points used by
both the estimator tests and the acceptance gates."""

from dataclasses import dataclass

import pytest

from treecast import ChannelParams, CorrectionScheme, SeedSpec, mc_delta, scheme_delta

GATE_REPLICATES = 2_000
GATE_SEED = 90210

# label -> (scheme descriptor, r, eps, depth, pin_renormalized_root), asked of
# both engines.  The block cases read 4 levels below block 0, which sits at
# level 1 for M=2 and at level 2 for M=4.
GATE_CASES = {
    "identity-r2-eps10-n4": ("Identity", 2, 0.10, 4, False),
    "identity-r2-eps30-n6": ("Identity", 2, 0.30, 6, False),
    "identity-r3-eps20-n4": ("Identity", 3, 0.20, 4, False),
    "descent-k2-r2-eps15-n8": ("WithinDescentMajority{k=2}", 2, 0.15, 8, False),
    "descent-k2-r3-eps10-n6": ("WithinDescentMajority{k=2}", 3, 0.10, 6, False),
    "descent-k3-r2-eps10-n9": ("WithinDescentMajority{k=3}", 2, 0.10, 9, False),
    "descent-k1-r3-eps20-n5": ("WithinDescentMajority{k=1}", 3, 0.20, 5, False),
    "fraction-k2-r2-eps20-n8": ("FractionIdentification{k=2}", 2, 0.20, 8, False),
    "fraction-k3-r2-eps10-n6": ("FractionIdentification{k=3}", 2, 0.10, 6, False),
    "block-M2-r2-eps10-m4": ("BlockMajorityEveryStep{M=2}", 2, 0.10, 5, True),
    "block-M4-r2-eps20-m4": ("BlockMajorityEveryStep{M=4}", 2, 0.20, 6, True),
    "identity-r4-eps25-n4": ("Identity", 4, 0.25, 4, False),
}
GATE_LABELS = tuple(GATE_CASES)


@dataclass(frozen=True)
class GatePoint:
    """One cross-validation case: an MC estimate next to its exact value."""

    label: str
    exact: float
    delta_hat: float
    sigma: float

    @property
    def z(self) -> float:
        return abs(self.delta_hat - self.exact) / self.sigma


@pytest.fixture(scope="session")
def gate_points():
    points = []
    for label, (descriptor, r, eps, depth, pin) in GATE_CASES.items():
        scheme, ch = CorrectionScheme.parse(descriptor), ChannelParams(epsilon=eps)
        exact = scheme_delta(scheme, r, depth, ch, pin_renormalized_root=pin)
        est = mc_delta(
            scheme, r, depth, ch, SeedSpec(master_seed=GATE_SEED), GATE_REPLICATES,
            pin_renormalized_root=pin,
        )
        points.append(
            GatePoint(label=label, exact=exact, delta_hat=est.delta_hat, sigma=est.sigma)
        )
    return tuple(points)
