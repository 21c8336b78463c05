"""Channel parameterizations: distortion rate, error-free rate, temperature,
and the one domain, [0, 1/2), that every part of the package checks in
``channel.py`` alone."""

import ast
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import treecast
from treecast import (
    ChannelParams,
    block_error_rate,
    delta_exact,
    effective_error_rate,
    fraction_error_rate,
    ml_delta_exact,
)
from treecast import cli
from treecast.cli import main
from treecast.exact import ks_condition_value

from oracles import channel_beta, channel_p, regular_tree

PACKAGE = Path(treecast.__file__).resolve().parent


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
    assert math.isclose(ChannelParams.from_p(channel_p(ch)).epsilon, eps, abs_tol=1e-15)


@given(p=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
def test_beta_matches_p(p):
    ch = ChannelParams.from_p(p)
    # Construction quantizes p through (1 - p) / 2, so compare the stored
    # rate to the input absolutely and the temperature to the stored rate.
    assert math.isclose(channel_p(ch), p, abs_tol=1e-12)
    if ch.epsilon == 0.0:
        assert channel_beta(ch) == math.inf
    else:
        assert math.isclose(math.tanh(channel_beta(ch)), channel_p(ch), rel_tol=1e-12)


def test_known_values():
    ch = ChannelParams(epsilon=0.25)
    assert channel_p(ch) == 0.5
    assert math.isclose(channel_beta(ch), math.atanh(0.5))
    assert ChannelParams.from_p(1.0).epsilon == 0.0


# The largest distortion rate below 1/2, the edge of the channel domain.
NEXT_TO_HALF = math.nextafter(0.5, 0.0)

# Every public entry that takes a channel, called at one distortion rate
# (through p = 1 - 2*eps where the entry takes the error-free rate).
CHANNEL_ENTRIES = {
    "ChannelParams": lambda eps: ChannelParams(epsilon=eps),
    "from_p": lambda eps: ChannelParams.from_p(1.0 - 2.0 * eps),
    "delta_exact": lambda eps: delta_exact(3, 2, eps),
    "effective_error_rate": lambda eps: effective_error_rate(2, 2, eps),
    "fraction_error_rate": lambda eps: fraction_error_rate(2, eps),
    "block_error_rate": lambda eps: block_error_rate(4, eps),
    "ks_condition_value": lambda eps: ks_condition_value(1, 2, 1.0 - 2.0 * eps),
    "ml_delta_exact": lambda eps: ml_delta_exact(regular_tree(2, 2), eps),
}


@pytest.mark.parametrize("entry", sorted(CHANNEL_ENTRIES))
def test_every_channel_entry_has_one_domain(entry):
    call = CHANNEL_ENTRIES[entry]
    call(0.0)
    call(NEXT_TO_HALF)
    with pytest.raises(ValueError, match=re.escape("distortion rate must lie in [0, 0.5)")):
        call(0.5)


@pytest.mark.parametrize(
    "flag", [("--eps", "0.5"), ("--p", "0"), ("--p", "1e-300")],
    ids=["eps-half", "p-zero", "p-rounds-to-zero"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["eps-k", "--r", "2", "--k", "1..2"],
        ["delta", "--r", "2", "--depth", "3"],
        ["fk-stats", "--r", "4", "--k", "2", "--samples", "10"],
    ],
    ids=["eps-k", "delta", "fk-stats"],
)
def test_cli_refuses_the_domain_edge_before_any_work(capsys, monkeypatch, argv, flag):
    def never(*args, **kwargs):
        raise AssertionError("the command computed before refusing its channel")

    for name in ("effective_error_rate", "fraction_error_rate", "mc_delta",
                 "sample_size_ensembles"):
        monkeypatch.setattr(cli, name, never)
    assert main([*argv, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "distortion rate must lie in [0, 0.5)" in captured.err


def channel_refusals(path):
    """Lines of ``path`` that compare a distortion rate with 1/2, or raise a
    refusal of the distortion, error or error-free rate."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = {
                getattr(sub, "id", getattr(sub, "attr", ""))
                for operand in operands for sub in ast.walk(operand)
            }
            if any(isinstance(o, ast.Constant) and o.value == 0.5 for o in operands) and any(
                "eps" in name for name in names
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Raise):
            text = " ".join(
                sub.value for sub in ast.walk(node)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            )
            if re.search(r"(distortion|error-free|error) rate must", text):
                lines.append(node.lineno)
    return lines


def test_only_the_channel_module_refuses_a_channel():
    found = {
        path.name: channel_refusals(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "channel.py"
    }
    assert not {name: lines for name, lines in found.items() if lines}
    assert channel_refusals(PACKAGE / "channel.py")
