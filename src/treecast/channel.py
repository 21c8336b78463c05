"""Binary symmetric channel parameters.

The channel is described interchangeably by the distortion rate
``epsilon`` in [0, 1/2), the error-free rate ``p = 1 - 2*epsilon`` in (0, 1],
or the inverse temperature ``beta`` with ``tanh(beta) = p`` (reported for the
spin-model reading; ``beta`` is infinite for the noiseless channel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelParams:
    """Distortion rate of one parent-to-child transmission edge."""

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError(
                f"distortion rate must lie in [0, 0.5), got {self.epsilon}"
            )

    @classmethod
    def from_p(cls, p: float) -> "ChannelParams":
        """Build from the error-free rate ``p = 1 - 2*epsilon``."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"error-free rate must lie in (0, 1], got {p}")
        return cls(epsilon=(1.0 - p) / 2.0)

    @property
    def p(self) -> float:
        """Error-free rate ``1 - 2*epsilon``."""
        return 1.0 - 2.0 * self.epsilon

    @property
    def beta(self) -> float:
        """Inverse temperature with ``tanh(beta) = p`` (inf when epsilon = 0)."""
        if self.epsilon == 0.0:
            return math.inf
        return math.atanh(self.p)

