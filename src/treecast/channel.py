"""Binary symmetric channel parameters.

The channel is described interchangeably by the distortion rate
``epsilon`` in [0, 1/2), the error-free rate ``p = 1 - 2*epsilon`` in (0, 1],
or the inverse temperature ``beta`` with ``tanh(beta) = p`` (reported for the
spin-model reading; ``beta`` is infinite for the noiseless channel).

Every part of the package takes the one domain ``epsilon`` in [0, 1/2),
checked by :func:`check_epsilon` alone; an error-free rate is checked after
its conversion, so a ``p`` that rounds to ``epsilon = 1/2`` is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def check_epsilon(eps: float) -> None:
    """Refuse a distortion rate outside [0, 1/2) with ``ValueError``."""
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"distortion rate must lie in [0, 0.5), got {eps}")


@dataclass(frozen=True)
class ChannelParams:
    """Distortion rate of one parent-to-child transmission edge."""

    epsilon: float

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)

    @classmethod
    def from_p(cls, p: float) -> "ChannelParams":
        """Build from the error-free rate ``p = 1 - 2*epsilon``."""
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
