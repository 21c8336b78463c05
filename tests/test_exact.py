"""Exact count-chain engine against brute-force enumeration oracles."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from treecast import (
    BudgetError,
    ChannelParams,
    CorrectionScheme,
    block_error_rate,
    critical_point_k,
    delta_exact,
    effective_error_rate,
    fraction_error_rate,
    level_sum_agreement,
    minimal_rescuing_block_size,
    scheme_delta,
    t_statistic,
)
from treecast import exact
from treecast.budget import check_support
from treecast.exact import (
    _itp_search,
    block_scheme_delta,
    count_distribution,
    delta_from_distribution,
    ks_condition_value,
    renormalized_delta,
)

from oracles import (
    bisect_critical_point,
    level_sum_agreement_enumerated,
    log_space_count_laws,
    mean_level_sum,
    t_statistic_direct,
)

EPS_GRID = (0.05, 0.1, 0.2, 0.3, 0.45)
# The largest distortion rate below 1/2, the edge of the channel domain.
NEXT_TO_HALF = math.nextafter(0.5, 0.0)

small_eps = st.floats(min_value=0.0, max_value=0.49)


def brute_force_counts(n, r, eps):
    """Level-n count distribution from a +1 root, by summing the probability
    of every flip pattern of the full depth-n tree."""
    probs = np.zeros(r**n + 1)

    def recurse(level, signs, weight):
        if level == n:
            probs[sum(1 for s in signs if s > 0)] += weight
            return
        size = len(signs) * r
        for flips in itertools.product((0, 1), repeat=size):
            w = weight
            child = []
            for j, flip in enumerate(flips):
                parent = signs[j // r]
                child.append(-parent if flip else parent)
                w *= eps if flip else 1.0 - eps
            recurse(level + 1, child, w)

    recurse(0, [1], 1.0)
    return probs


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_count_chain_matches_enumeration(r, n, eps):
    oracle = brute_force_counts(n, r, eps)
    np.testing.assert_allclose(count_distribution(n, r, eps), oracle, atol=1e-12)


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.3, 0.49, NEXT_TO_HALF])
@pytest.mark.parametrize("r,n", [(2, 12), (3, 7), (4, 6)])
def test_count_laws_match_log_space_oracle(r, n, eps):
    # Every level up to the largest support of at most 4,097 points.
    for level, oracle in enumerate(log_space_count_laws(n, r, eps)):
        np.testing.assert_allclose(
            count_distribution(level, r, eps), oracle, rtol=0, atol=1e-13
        )


def test_count_distribution_at_default_budget():
    eps = 0.1
    probs = count_distribution(16, 2, eps)  # support 2**16 + 1, the default budget
    assert (probs >= 0).all()
    assert math.isclose(probs.sum(), 1.0, rel_tol=0, abs_tol=1e-10)
    assert math.isclose(mean_level_sum(probs), ((1 - 2 * eps) * 2) ** 16, rel_tol=1e-9)


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("r,n", [(2, 6), (3, 4), (4, 3)])
def test_mean_level_sum_identity(r, n, eps):
    mean = mean_level_sum(count_distribution(n, r, eps))
    assert math.isclose(mean, ((1 - 2 * eps) * r) ** n, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=30)
@given(eps=small_eps, r=st.integers(2, 4), n=st.integers(0, 4))
def test_count_distribution_is_a_distribution(eps, r, n):
    probs = count_distribution(n, r, eps)
    assert probs.shape == (r**n + 1,)
    assert (probs >= 0).all()
    assert math.isclose(probs.sum(), 1.0, rel_tol=1e-10)


def test_delta_boundaries():
    assert delta_exact(0, 2, 0.3) == 1.0
    assert delta_exact(5, 2, 0.0) == 1.0
    assert abs(delta_exact(4, 3, 0.4999) - 0.0) < 1e-2
    # At 1/2 the root is independent of every level: outside the domain.
    with pytest.raises(ValueError, match=re.escape("[0, 0.5)")):
        delta_exact(5, 2, 0.5)


@settings(max_examples=30)
@given(eps=small_eps, r=st.integers(2, 3), n=st.integers(0, 5))
def test_delta_in_unit_interval(eps, r, n):
    value = delta_exact(n, r, eps)
    assert -1e-12 <= value <= 1.0 + 1e-12


@pytest.mark.parametrize("r,n", [(2, 4), (3, 3)])
def test_delta_monotone_in_distortion(r, n):
    grid = [*np.linspace(0.0, 0.5, 21)[:-1], NEXT_TO_HALF]
    values = [delta_exact(n, r, eps) for eps in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_delta_from_distribution_nets_ties():
    # A two-vertex level, counts {0, 1, 2}: the tie at 1 nets to zero.
    assert delta_from_distribution(np.array([0.25, 0.5, 0.25])) == 0.0
    assert delta_from_distribution(np.array([0.1, 0.6, 0.3])) == pytest.approx(0.2)


def test_effective_error_rate_closed_forms():
    # r=2, one step: the tie coin makes the majority error equal eps itself.
    for eps in EPS_GRID:
        assert math.isclose(effective_error_rate(1, 2, eps), eps, rel_tol=1e-12)
    # r=3, one step: at least two of three children must flip.
    for eps in EPS_GRID:
        expected = 3 * eps**2 * (1 - eps) + eps**3
        assert math.isclose(effective_error_rate(1, 3, eps), expected, rel_tol=1e-11)


@pytest.mark.parametrize("r,k", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_effective_error_rate_matches_enumeration(r, k, eps):
    probs = brute_force_counts(k, r, eps)
    size = r**k
    counts = np.arange(size + 1)
    oracle = probs[counts < size / 2].sum() + 0.5 * probs[counts == size / 2].sum()
    assert math.isclose(effective_error_rate(k, r, eps), oracle, rel_tol=1e-11)


@settings(max_examples=50)
@given(eps=small_eps, k=st.integers(1, 10))
def test_fraction_error_rate_closed_form(eps, k):
    assert math.isclose(
        1.0 - 2.0 * fraction_error_rate(k, eps),
        (1.0 - 2.0 * eps) ** k,
        rel_tol=1e-12,
        abs_tol=1e-12,
    )


@pytest.mark.parametrize("r,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
@pytest.mark.parametrize("eps", [0.05, 0.2, 0.4])
def test_t_statistic_paths_agree(r, k, eps):
    assert math.isclose(
        t_statistic(k, r, eps), t_statistic_direct(k, r, eps), abs_tol=1e-12
    )


def test_t_statistic_sign():
    # The descent majority never loses to picking one member; it strictly
    # wins except in the single case k=1, r=2, where ties make them equal.
    assert abs(t_statistic(1, 2, 0.3)) < 1e-15
    for k, r in ((1, 3), (2, 2), (3, 2), (2, 3)):
        for eps in (0.1, 0.3, 0.45):
            assert t_statistic(k, r, eps) > 0.0


def test_block_error_rate_closed_forms():
    for eps in EPS_GRID:
        assert math.isclose(block_error_rate(1, eps), eps, rel_tol=1e-12)
        # M=2: one flip is a tie worth one half, two flips are an error.
        assert math.isclose(block_error_rate(2, eps), eps, rel_tol=1e-12)
    assert math.isclose(block_error_rate(3, 0.2), 0.104, rel_tol=1e-12)
    with pytest.raises(ValueError):
        block_error_rate(0, 0.2)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 7, 16, 255, 256, 3**12, 4**20, 2**63, 2**64 - 2])
def test_block_error_rate_is_scipy_stats_binom_bit_for_bit(M):
    for eps in (0.0, 1e-9, 0.1, 0.25, 1 / 3, 0.4999, NEXT_TO_HALF):
        wins = binom(M, 1.0 - eps)
        tie = 0.5 * float(wins.pmf(M // 2)) if M % 2 == 0 else 0.0
        assert block_error_rate(M, eps).hex() == (float(wins.cdf((M - 1) // 2)) + tie).hex()


def test_rescuing_block_scan_runs_past_64_bit_block_sizes():
    # From r**32 = 2**64 on, M fits no 64-bit integer; next to eps = 1/2 no
    # block rescues.
    with pytest.raises(RuntimeError, match="no rescuing block size up to r\\*\\*40"):
        minimal_rescuing_block_size(4, NEXT_TO_HALF)


def test_minimal_rescuing_block_size_scan():
    m_star = minimal_rescuing_block_size(2, 0.4)
    assert m_star == 32
    assert (1 - 2 * block_error_rate(32, 0.4)) ** 2 * 2 > 1.0
    assert (1 - 2 * block_error_rate(16, 0.4)) ** 2 * 2 <= 1.0


def test_ks_condition_value_k1_r2():
    # One-step correction at r=2 keeps the channel, so the condition is
    # p**2 * 2 - 1, vanishing exactly at 1/sqrt(2).
    p = 1 / math.sqrt(2)
    assert abs(ks_condition_value(1, 2, p)) < 1e-12
    assert ks_condition_value(1, 2, 0.9) > 0
    assert ks_condition_value(1, 2, 0.5) < 0


def test_critical_point_bracket_is_a_sign_change():
    est = critical_point_k(2, 2, tol=1e-6)
    assert est.p_hi - est.p_lo <= 1e-6
    assert ks_condition_value(2, 2, est.p_lo) <= 0 <= ks_condition_value(2, 2, est.p_hi)


def test_critical_point_sequence_r2():
    points = [critical_point_k(k, 2, tol=1e-9).midpoint for k in range(1, 5)]
    assert abs(points[0] - 1 / math.sqrt(2)) < 1e-8
    assert all(a > b for a, b in zip(points, points[1:]))
    assert all(p >= 0.5 for p in points)
    assert all(p < 1 / math.sqrt(2) for p in points[1:])


def test_scheme_delta_answers_where_a_derived_rate_rounds_to_half():
    # At p = 1e-10 a corrected block's edge rate rounds to 1/2 or just past
    # it; the caller's own rate is in the domain, so the engine answers.
    ch = ChannelParams.from_p(1e-10)
    for descriptor in ("WithinDescentMajority{k=2}", "FractionIdentification{k=2}",
                       "BlockMajorityEveryStep{M=4}"):
        assert abs(scheme_delta(CorrectionScheme.parse(descriptor), 2, 4, ch)) < 1e-12


def test_critical_point_k2_r2_is_the_golden_ratio_conjugate():
    # Two corrected steps on the binary tree: p_c(2) = (sqrt(5) - 1) / 2, where
    # the renormalized Kesten-Stigum objective vanishes to 50 digits.
    est = critical_point_k(2, 2)
    assert est.p_lo <= (math.sqrt(5) - 1) / 2 <= est.p_hi


CRITICAL_CASES = (
    [(k, 2) for k in range(1, 9)] + [(k, 3) for k in range(1, 6)]
    + [(k, 4) for k in range(1, 5)]
)


@pytest.mark.parametrize("k,r", CRITICAL_CASES)
def test_critical_point_matches_bisection_oracle(k, r, monkeypatch):
    calls = []
    objective = exact.ks_condition_value

    def counted(*args):
        calls.append(args)
        return objective(*args)

    monkeypatch.setattr(exact, "ks_condition_value", counted)
    est = critical_point_k(k, r, tol=1e-9)
    assert est.evaluations == len(calls) <= 20
    assert est.p_hi - est.p_lo <= 1e-9
    assert objective(k, r, est.p_lo) <= 0 < objective(k, r, est.p_hi)
    lo, hi = bisect_critical_point(k, r, 1e-9)
    assert abs(est.p_lo - lo) <= 1e-9
    assert abs(est.p_hi - hi) <= 1e-9


def _step(root):
    return lambda x: -1.0 if x <= root else 1.0


def _flat_then_steep(root):
    return lambda x: (x - root) * (1e-9 if x <= root else 1e9)


@pytest.mark.parametrize("shape", [_step, _flat_then_steep])
@pytest.mark.parametrize("root", [0.3 + 1e-12, 0.41, 0.5 + math.pi * 1e-3, 0.7 - 1e-12])
@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-12])
def test_itp_search_needs_at_most_one_step_past_bisection(shape, root, tol):
    f = shape(root)
    lo, hi = 0.3, 0.7
    steps = []
    lo, hi = _itp_search(lambda x: steps.append(x) or f(x), lo, hi, f(lo), f(hi), tol)
    assert hi - lo <= tol
    assert f(lo) <= 0 < f(hi)
    assert len(steps) <= math.ceil(math.log2(0.4 / tol)) + 1


def test_itp_search_raises_when_tol_is_out_of_reach():
    f = _step(0.41)
    steps = []
    with pytest.raises(RuntimeError, match="no bracket of width"):
        _itp_search(lambda x: steps.append(x) or f(x), 0.3, 0.7, f(0.3), f(0.7), 1e-20)
    assert len(steps) == exact._MAX_STEPS


@pytest.mark.parametrize("k,r,tol", [
    (3, 2, 1e-16), (3, 2, 1e-20), (1, 2, 0.0), (1, 2, -1e-9), (2, 3, math.nan),
    (1, 2, math.nextafter(math.ulp(1 / math.sqrt(2)), 0.0)),
    (2, 4, math.nextafter(math.ulp(0.5), 0.0)),
    (2, 5, math.nextafter(math.ulp(1 / math.sqrt(5)), 0.0)),
])
def test_critical_point_refuses_an_unreachable_tol(k, r, tol, monkeypatch):
    def refused(*args):
        raise AssertionError("an objective evaluation before the refusal")

    monkeypatch.setattr(exact, "ks_condition_value", refused)
    with pytest.raises(ValueError, match="tolerance must be at least"):
        critical_point_k(k, r, tol=tol)


@pytest.mark.parametrize("k,r", [(1, 2), (3, 2), (2, 3), (1, 4), (2, 4), (2, 5), (2, 16)])
def test_critical_point_reaches_the_smallest_admitted_tol(k, r):
    tol = math.ulp(1 / math.sqrt(r))
    est = critical_point_k(k, r, tol=tol)
    assert est.p_hi - est.p_lo <= tol
    assert ks_condition_value(k, r, est.p_lo) <= 0 < ks_condition_value(k, r, est.p_hi)


def test_renormalized_delta_boundary():
    # At the first correction level only the root-to-block channel is left.
    for k, r, eps in ((1, 2, 0.2), (2, 2, 0.1), (2, 3, 0.3)):
        scheme = CorrectionScheme.parse(f"WithinDescentMajority{{k={k}}}")
        expected = 1.0 - 2.0 * effective_error_rate(k, r, eps)
        assert math.isclose(
            scheme_delta(scheme, r, k, ChannelParams(eps)), expected, rel_tol=1e-12
        )
        with pytest.raises(ValueError, match="positive multiple of the period"):
            scheme_delta(scheme, r, 0, ChannelParams(eps))
    descent = CorrectionScheme.parse("WithinDescentMajority{k=2}")
    with pytest.raises(ValueError, match="positive multiple of the period 2"):
        scheme_delta(descent, 2, 5, ChannelParams(0.1))


@settings(max_examples=30)
@given(eps=small_eps, k=st.integers(1, 4))
def test_fraction_scheme_delta_closed_form_at_depth_zero(eps, k):
    scheme = CorrectionScheme.parse(f"FractionIdentification{{k={k}}}")
    assert math.isclose(
        scheme_delta(scheme, 2, k, ChannelParams(eps)),
        (1.0 - 2.0 * eps) ** k,
        rel_tol=1e-12,
        abs_tol=1e-12,
    )


def test_block_scheme_delta_requires_power_blocks():
    ch = ChannelParams(0.1)
    with pytest.raises(ValueError, match="power of the branching rate"):
        scheme_delta(CorrectionScheme.block_majority_every_step(3), 2, 3, ch)
    block = CorrectionScheme.block_majority_every_step(2)
    # M=r: block 0 is level 1, and the renormalized channel keeps eps.
    expected = (1 - 2 * effective_error_rate(1, 2, 0.1)) * delta_exact(3, 2, 0.1)
    assert math.isclose(scheme_delta(block, 2, 4, ch), expected, rel_tol=1e-12)
    pinned = scheme_delta(block, 2, 4, ch, pin_renormalized_root=True)
    assert math.isclose(pinned, delta_exact(3, 2, 0.1), rel_tol=1e-12)
    with pytest.raises(ValueError, match="above the first corrected level"):
        scheme_delta(CorrectionScheme.block_majority_every_step(4), 2, 1, ch)


@pytest.mark.parametrize(
    "descriptor", ["Identity", "WithinDescentMajority{k=1}", "FractionIdentification{k=1}"]
)
def test_scheme_delta_pins_only_block_schemes(descriptor):
    with pytest.raises(ValueError, match="needs a block scheme"):
        scheme_delta(
            CorrectionScheme.parse(descriptor), 2, 4, ChannelParams(0.1),
            pin_renormalized_root=True,
        )


def test_level_spellings_are_scheme_delta():
    # The level-counting spellings perfbench/make_reference.py calls.
    ch = ChannelParams(0.1)
    descent = CorrectionScheme.parse("WithinDescentMajority{k=2}")
    block = CorrectionScheme.block_majority_every_step(4)
    assert renormalized_delta(2, 4, 2, 0.1) == scheme_delta(descent, 2, 10, ch)
    assert block_scheme_delta(4, 8, 2, 0.1) == scheme_delta(block, 2, 10, ch)
    assert block_scheme_delta(4, 8, 2, 0.1, pin_renormalized_root=True) == scheme_delta(
        block, 2, 10, ch, pin_renormalized_root=True
    )


def test_level_sum_agreement_is_positive_and_complete():
    report = level_sum_agreement(4, 2, 0.3)
    values = report.all_values()
    # Two one-step conditionals, one entry per positive previous-level sum
    # (half of the 2**3 counts), and one entry per lag.
    assert len(values) == 2 + 2 ** 3 // 2 + 4
    assert all(v > 0 for v in values)
    assert all(-1 <= v <= 1 for v in values)


def test_level_sum_agreement_small_distortion_saturates():
    report = level_sum_agreement(2, 2, 0.01)
    assert report.previous_given_final_positive > 0.9
    assert report.final_given_previous_positive > 0.9


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
@pytest.mark.parametrize("eps", [0.1, 0.3, 0.45])
def test_level_sum_agreement_matches_enumeration(r, n, eps):
    report = level_sum_agreement(n, r, eps)
    oracle = level_sum_agreement_enumerated(n, r, eps)
    for field in ("previous_given_final_positive", "final_given_previous_positive"):
        assert math.isclose(getattr(report, field), oracle[field], rel_tol=0, abs_tol=1e-12)
    assert list(report.lagged_given_final_positive) == list(range(1, n + 1))
    np.testing.assert_allclose(
        list(report.lagged_given_final_positive.values()),
        list(oracle["lagged_given_final_positive"].values()),
        rtol=0,
        atol=1e-12,
    )
    # Every configuration with the same positive sum has the reported advantage.
    assert list(report.fixed_sum_advantage) == list(oracle["fixed_sum_advantage"])
    for total, values in oracle["fixed_sum_advantage"].items():
        np.testing.assert_allclose(
            values, report.fixed_sum_advantage[total], rtol=0, atol=1e-12
        )


def test_support_budget_guard():
    with pytest.raises(BudgetError):
        count_distribution(17, 2, 0.1)  # support 2**17 + 1 > 65537
    # An explicit budget overrides the default in both directions: a tight
    # one rejects a level the default would allow, a matching one is inclusive.
    with pytest.raises(BudgetError):
        count_distribution(10, 2, 0.1, budget=100)
    assert count_distribution(5, 2, 0.1, budget=33).shape == (33,)


@pytest.mark.parametrize("n", [1, 16, 62, 63, 64, 65, 300])
def test_support_budget_boundary_is_exact(n):
    # 2**n + 1 points fit a budget of exactly that many and not one less,
    # also where the check decides by bit length alone.
    check_support(2, n, 2**n + 1)
    with pytest.raises(BudgetError, match=rf"support of 2\*\*{n} \+ 1 points"):
        check_support(2, n, 2**n)
    with pytest.raises(BudgetError):
        check_support(2, n + 1, 2**n + 1)
    check_support(1, 10**12, 2)


def test_support_budget_env_override(monkeypatch):
    monkeypatch.setenv("TREECAST_BUDGET", "100")
    with pytest.raises(BudgetError):
        count_distribution(7, 2, 0.1)  # support 129 > 100
    # An explicit per-call budget wins over the environment.
    assert count_distribution(7, 2, 0.1, budget=200).shape == (129,)
    monkeypatch.setenv("TREECAST_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        count_distribution(7, 2, 0.1)


def test_channel_domain_validation():
    with pytest.raises(ValueError):
        delta_exact(3, 1, 0.1)
    with pytest.raises(ValueError):
        delta_exact(3, 2, 0.6)
    with pytest.raises(ValueError):
        delta_exact(-1, 2, 0.1)
