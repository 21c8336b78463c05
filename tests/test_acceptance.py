"""End-to-end acceptance gates.

Each criterion prints one pass/fail line (bypassing capture so the line shows
up in a plain ``pytest -v`` run) and then asserts its gate.  The heavy
computations run once per verification suite through module-scoped fixtures;
wall-clock budgets are asserted alongside the numeric gates.
"""

import math
import time

import pytest

from treecast import (
    ChannelParams,
    CorrectionScheme,
    SeedSpec,
    delta_exact,
    mc_delta,
    run_suite,
)

from conftest import GATE_LABELS, GATE_REPLICATES

CALIBRATION_SEEDS = 100
CALIBRATION_MIN_COVERED = 95


def _timed_suite(name):
    start = time.monotonic()
    results = run_suite(name)
    elapsed = time.monotonic() - start
    return {res.name: res for res in results}, elapsed


@pytest.fixture(scope="module")
def fraction_identity():
    return _timed_suite("lemma33")


@pytest.fixture(scope="module")
def critical_cases():
    return _timed_suite("thm32")


@pytest.fixture(scope="module")
def cluster_moments():
    return _timed_suite("fk-moments")


@pytest.fixture(scope="module")
def anti_concentration():
    return _timed_suite("lemma48")


@pytest.fixture(scope="module")
def level_agreement():
    return _timed_suite("lemma22")


@pytest.fixture(scope="module")
def observation_monotone():
    return _timed_suite("lemma51")


@pytest.fixture(scope="module")
def block_rescue():
    return _timed_suite("thm21")


@pytest.fixture(scope="module")
def minority_bracket():
    return _timed_suite("thm52")


@pytest.fixture
def report(capsys):
    def _report(num, name, passed, detail):
        line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d} {name}: {detail}"
        with capsys.disabled():
            print(line)
        assert passed, line

    return _report


def test_criterion_01_fraction_identity(fraction_identity, report):
    checks, elapsed = fraction_identity
    residuals = [checks[f"identity_residual_k{k}"] for k in range(1, 11)]
    worst = max(res.measured for res in residuals)
    passed = all(res.passed for res in residuals) and worst < 1e-12 and elapsed < 1.0
    report(
        1,
        "fraction-pick error identity",
        passed,
        f"max |1-2*eps_tilde(k) - (1-2*eps)**k| = {worst:.2e} < 1e-12 over a "
        f"99-point eps grid and k=1..10 ({elapsed:.2f} s)",
    )


def test_criterion_02_one_step_threshold_equality(critical_cases, report):
    checks, elapsed = critical_cases
    res = checks["equality_point_k1_r2"]
    deviation = abs(res.measured - 1.0 / math.sqrt(2.0))
    passed = res.passed and deviation < 1e-8 and elapsed < 1.0
    report(
        2,
        "k=1 critical point on the binary tree",
        passed,
        f"|p_c(1,2) - 1/sqrt(2)| = {deviation:.2e} < 1e-8 "
        f"(bracket tol 1e-9, suite {elapsed:.2f} s)",
    )


def test_criterion_03_corrected_threshold_strictly_below(critical_cases, report):
    checks, elapsed = critical_cases
    pairs = ((1, 3), (2, 2), (3, 2), (2, 3))
    strict = [checks[f"strict_gap_k{k}_r{r}"] for k, r in pairs]
    advantage = [checks[f"advantage_gap_k{k}_r{r}"] for k, r in pairs]
    passed = (
        all(res.passed for res in strict)
        and all(res.passed for res in advantage)
        and all(
            res.measured < 1 / math.sqrt(r) - 1e-4
            for res, (k, r) in zip(strict, pairs)
        )
        and all(res.measured > 1e-8 for res in advantage)
        and elapsed < 10.0
    )
    gaps = ", ".join(
        f"(k={k},r={r}) p_c={res.measured:.4f}" for res, (k, r) in zip(strict, pairs)
    )
    report(
        3,
        "corrected thresholds strictly below 1/sqrt(r)",
        passed,
        f"{gaps}; majority-vs-pick advantage > 1e-8 at the plain threshold "
        f"({elapsed:.2f} s)",
    )


def test_criterion_04_threshold_trend_toward_ising(cluster_moments, report):
    checks, elapsed = cluster_moments
    decreasing = checks["critical_trend_decreasing"]
    floor = checks["critical_trend_floor"]
    contraction = checks["critical_trend_contraction"]
    passed = (
        decreasing.passed
        and floor.passed
        and floor.measured >= 0.5
        and contraction.passed
        and contraction.measured >= 3.0
        and elapsed < 120.0
    )
    report(
        4,
        "p_c(k) decreasing toward 1/r for r=2, k=1..9",
        passed,
        f"strictly decreasing, min {floor.measured:.6f} >= 0.5, excess over "
        f"0.5 contracts by {contraction.measured:.2f}x >= 3x ({elapsed:.2f} s)",
    )


def test_criterion_05_effective_rate_growth(cluster_moments, report):
    checks, elapsed = cluster_moments
    res = checks["growth_rate_deviation"]
    passed = res.passed and res.measured <= 0.05 and elapsed < 120.0
    report(
        5,
        "k-th root of the corrected rate approaches p*sqrt(r)",
        passed,
        f"|p(6)**(1/6) - 0.6| = {res.measured:.4f} <= 0.05 at r=4, p=0.3 "
        f"({elapsed:.2f} s)",
    )


def test_criterion_06_second_moment_floor(cluster_moments, report):
    checks, elapsed = cluster_moments
    res = checks["z2_floor_min_ratio"]
    passed = res.passed and res.measured >= 0.35 and elapsed < 60.0
    report(
        6,
        "cluster second-moment floor at k=10",
        passed,
        f"min over 200 samples of sum(z**2)/4**10 = {res.measured:.4f} >= 0.35 "
        f"({elapsed:.2f} s)",
    )


def test_criterion_07_third_moment_decay(cluster_moments, report):
    checks, elapsed = cluster_moments
    res = checks["z3_decay_median"]
    passed = res.passed and elapsed < 120.0
    report(
        7,
        "cluster third-moment ratio decays with depth",
        passed,
        f"median sum(z**3)/(p*r**2)**k at k=12 is {res.measured:.4f} < "
        f"{res.hi:.4f} at k=6, 200 samples each ({elapsed:.2f} s)",
    )


def test_criterion_08_anti_concentration_enumeration(anti_concentration, report):
    checks, elapsed = anti_concentration
    violations = checks["enumeration_violations"]
    margin = checks["worst_margin"]
    passed = (
        violations.passed
        and violations.measured == 0
        and margin.passed
        and margin.measured >= 0.0
        and elapsed < 30.0
    )
    report(
        8,
        "mixed-size symmetric sums never out-concentrate their unit prefix",
        passed,
        f"0 violations over the exhaustive m<=8, sizes<=3, alpha<=3 "
        f"enumeration; worst margin {margin.measured:.1e} ({elapsed:.2f} s)",
    )


def test_criterion_09_level_sum_conditionals_positive(level_agreement, report):
    checks, elapsed = level_agreement
    res = checks["conditional_positivity"]
    passed = res.passed and res.measured > 0.0 and elapsed < 30.0
    report(
        9,
        "level-sum agreement conditionals strictly positive",
        passed,
        f"min conditional advantage {res.measured:.2e} > 0 for r=2 n<=6 and "
        f"r=3 n<=3, eps in {{0.1, 0.3, 0.45}} ({elapsed:.2f} s)",
    )


def test_criterion_10_observation_monotonicity(observation_monotone, report):
    checks, elapsed = observation_monotone
    res = checks["full_view_never_worse"]
    passed = res.passed and res.measured >= -1e-12 and elapsed < 60.0
    report(
        10,
        "optimal rule never loses by observing more",
        passed,
        f"worst full-minus-subset advantage {res.measured:.1e} >= -1e-12 over "
        f"20 random tree pairs x 2 rates ({elapsed:.2f} s)",
    )


def test_criterion_11_block_rescue_above_threshold(block_rescue, report):
    checks, elapsed = block_rescue
    size = checks["rescuing_block_size"]
    corrected = checks["corrected_advantage"]
    separation = checks["separation_from_identity"]
    passed = (
        size.passed
        and size.measured == 32.0
        and corrected.passed
        and corrected.measured > 0.2
        and separation.passed
        and elapsed < 300.0
    )
    report(
        11,
        "block majority rescues reconstruction at eps=0.4, r=2",
        passed,
        f"minimal rescuing block 32; corrected advantage "
        f"{corrected.measured:.4f} > 0.2 at renormalized depth 8; separation "
        f"from identity {separation.measured:.4f} > 4 sigma ({elapsed:.2f} s)",
    )


def test_criterion_12_minority_removal_lower_bound(minority_bracket, report):
    checks, elapsed = minority_bracket
    edge = checks["bracket_lower_edge"]
    supercritical = checks["comparison_point_supercritical"]
    advantage = checks["advantage_at_p045"]
    passed = (
        edge.passed
        and edge.measured >= 0.25
        and supercritical.passed
        and advantage.passed
        and elapsed < 600.0
    )
    report(
        12,
        "minority removal reconstructs below the majority threshold",
        passed,
        f"r=4 bracket lower edge {edge.measured:.2f} >= 1/r = 0.25; advantage "
        f"{advantage.measured:.4f} at p=0.45 (plain two-step majority p_c = "
        f"{supercritical.measured:.4f}) clears 4 sigma at level 8 "
        f"({elapsed:.2f} s)",
    )


def test_criterion_13_mc_exact_cross_validation(gate_points, report):
    start = time.monotonic()
    worst = max(gate_points, key=lambda point: point.z)
    all_within = all(point.z < 3.0 for point in gate_points)

    # Interval calibration: rerun the first fixture across fresh master seeds
    # and count how often the 99% interval covers the exact value.
    exact = delta_exact(4, 2, 0.10)
    covered = 0
    for master_seed in range(CALIBRATION_SEEDS):
        est = mc_delta(
            CorrectionScheme.identity(), 2, 4, ChannelParams(epsilon=0.10),
            SeedSpec(master_seed=master_seed), GATE_REPLICATES,
        )
        if est.ci[0] <= exact <= est.ci[1]:
            covered += 1
    elapsed = time.monotonic() - start

    passed = (
        all_within
        and len(gate_points) == len(GATE_LABELS) == 12
        and covered >= CALIBRATION_MIN_COVERED
        and elapsed < 600.0
    )
    report(
        13,
        "Monte Carlo agrees with the exact engine",
        passed,
        f"12/12 fixtures within 3 sigma (worst {worst.z:.2f} sigma at "
        f"{worst.label}); 99% interval covered the exact value "
        f"{covered}/{CALIBRATION_SEEDS} times ({elapsed:.2f} s)",
    )
