"""Binary symmetric channel parameters.

The channel is described by its distortion rate ``epsilon`` in [0, 1/2),
or built from the error-free rate ``p = 1 - 2*epsilon`` in (0, 1]
(:meth:`ChannelParams.from_p`).

Every part of the package takes the one domain ``epsilon`` in [0, 1/2),
checked by :func:`check_epsilon` alone; an error-free rate is checked after
its conversion, so a ``p`` that rounds to ``epsilon = 1/2`` is refused.
"""

from __future__ import annotations

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
