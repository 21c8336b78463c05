"""Shared fixtures: the Monte-Carlo-vs-exact cross-validation points used by
both the estimator tests and the acceptance gates."""

from dataclasses import dataclass

import pytest

from treecast import (
    ChannelParams,
    CorrectionScheme,
    SeedSpec,
    block_scheme_delta,
    delta_exact,
    fraction_scheme_delta,
    mc_delta,
    renormalized_delta,
)

GATE_REPLICATES = 2_000
GATE_SEED = 90210
BLOCK_RENORM_DEPTH = 4

GATE_LABELS = (
    "identity-r2-eps10-n4",
    "identity-r2-eps30-n6",
    "identity-r3-eps20-n4",
    "descent-k2-r2-eps15-n8",
    "descent-k2-r3-eps10-n6",
    "descent-k3-r2-eps10-n9",
    "descent-k1-r3-eps20-n5",
    "fraction-k2-r2-eps20-n8",
    "fraction-k3-r2-eps10-n6",
    "block-M2-r2-eps10-m4",
    "block-M4-r2-eps20-m4",
    "identity-r4-eps25-n4",
)


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


def _gate_cases():
    identity = CorrectionScheme.identity()
    descent = CorrectionScheme.within_descent_majority
    fraction = CorrectionScheme.fraction_identification
    block = CorrectionScheme.block_majority_every_step

    cases = [
        # (scheme, r, eps, depth, pin_renormalized_root, exact advantage)
        (identity, 2, 0.10, 4, False, delta_exact(4, 2, 0.10)),
        (identity, 2, 0.30, 6, False, delta_exact(6, 2, 0.30)),
        (identity, 3, 0.20, 4, False, delta_exact(4, 3, 0.20)),
        (descent(2), 2, 0.15, 8, False, renormalized_delta(2, 3, 2, 0.15)),
        (descent(2), 3, 0.10, 6, False, renormalized_delta(2, 2, 3, 0.10)),
        (descent(3), 2, 0.10, 9, False, renormalized_delta(3, 2, 2, 0.10)),
        (descent(1), 3, 0.20, 5, False, renormalized_delta(1, 4, 3, 0.20)),
        (fraction(2), 2, 0.20, 8, False, fraction_scheme_delta(2, 3, 2, 0.20)),
        (fraction(3), 2, 0.10, 6, False, fraction_scheme_delta(3, 1, 2, 0.10)),
    ]
    for M, eps in ((2, 0.10), (4, 0.20)):
        scheme = block(M)
        depth = scheme.start_level(2) + BLOCK_RENORM_DEPTH
        exact = block_scheme_delta(
            M, BLOCK_RENORM_DEPTH, 2, eps, pin_renormalized_root=True
        )
        cases.append((scheme, 2, eps, depth, True, exact))
    cases.append((identity, 4, 0.25, 4, False, delta_exact(4, 4, 0.25)))
    return cases


@pytest.fixture(scope="session")
def gate_points():
    points = []
    for label, (scheme, r, eps, depth, pin, exact) in zip(GATE_LABELS, _gate_cases()):
        est = mc_delta(
            scheme, r, depth, ChannelParams(epsilon=eps),
            SeedSpec(master_seed=GATE_SEED), GATE_REPLICATES,
            pin_renormalized_root=pin,
        )
        points.append(
            GatePoint(label=label, exact=exact, delta_hat=est.delta_hat, sigma=est.sigma)
        )
    return tuple(points)
