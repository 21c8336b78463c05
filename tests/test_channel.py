"""Channel parameterizations: distortion rate, error-free rate, temperature."""

import math

import pytest
from hypothesis import given, strategies as st

from treecast import ChannelParams


def test_epsilon_domain():
    ChannelParams(epsilon=0.0)
    ChannelParams(epsilon=0.49999)
    for bad in (-0.01, 0.5, 0.7):
        with pytest.raises(ValueError):
            ChannelParams(epsilon=bad)


def test_p_domain():
    for bad in (0.0, -0.2, 1.0001):
        with pytest.raises(ValueError):
            ChannelParams.from_p(bad)


@given(eps=st.floats(min_value=0.0, max_value=0.499, allow_nan=False))
def test_p_round_trip(eps):
    ch = ChannelParams(epsilon=eps)
    assert math.isclose(ChannelParams.from_p(ch.p).epsilon, eps, abs_tol=1e-15)


@given(p=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
def test_beta_matches_p(p):
    ch = ChannelParams.from_p(p)
    # Construction quantizes p through (1 - p) / 2, so compare the stored
    # rate to the input absolutely and the temperature to the stored rate.
    assert math.isclose(ch.p, p, abs_tol=1e-12)
    if ch.epsilon == 0.0:
        assert ch.beta == math.inf
    else:
        assert math.isclose(math.tanh(ch.beta), ch.p, rel_tol=1e-12)


def test_known_values():
    ch = ChannelParams(epsilon=0.25)
    assert ch.p == 0.5
    assert math.isclose(ch.beta, math.atanh(0.5))
    assert ChannelParams.from_p(1.0).epsilon == 0.0
