"""Self-test of the output checker: corrupted output must raise ``fail_ratio``.

Run from the root of a checkout with ``python3 -m pytest perfbench/test_checks.py``.
Each case feeds the checker a copy of a stored reference, intact or
corrupted, as if a command had printed it.
"""

from __future__ import annotations

import json

import pytest

import run
from checks import REFERENCE_SEED, Reference, Verdict, check_command
from layers import Tracer
from workloads import ROOT, WORKLOADS, import_cli

SEEDED = {c.experiment: c.seeded for commands in WORKLOADS.values() for c in commands}


def _outputs(ref: Reference) -> dict[str, list[str]]:
    """The reference rows as each command would print them: experiment -> lines."""
    out: dict[str, list[str]] = {}
    for row in ref.rows:
        out.setdefault(row.fields["experiment"], []).append(row.line)
    return out


def _check(ref: Reference, outputs: dict[str, list[str]], seed: int = REFERENCE_SEED,
           exit_code: int = 0) -> Verdict:
    verdict = Verdict()
    for experiment, lines in outputs.items():
        text = "\n".join([ref.header, *lines]) + "\n"
        verdict.add(check_command(ref, experiment, SEEDED[experiment], seed, exit_code, text))
    return verdict


def _change_digit(line: str, column: int) -> str:
    """Change the last digit of one CSV column (columns hold no quoted commas)."""
    fields = line.split(",")
    cell = fields[column]
    last = max(i for i, ch in enumerate(cell) if ch.isdigit())
    fields[column] = cell[:last] + str((int(cell[last]) + 1) % 10) + cell[last + 1:]
    return ",".join(fields)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_itself_passes(workload):
    ref = Reference.load(workload)
    verdict = _check(ref, _outputs(ref))
    assert verdict.attempted == len(ref.rows) > 0
    assert verdict.failed == 0, verdict.problems


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_dropped_row_fails(workload):
    ref = Reference.load(workload)
    outputs = _outputs(ref)
    first = next(iter(outputs))
    outputs[first] = outputs[first][1:]
    verdict = _check(ref, outputs)
    assert verdict.failed == 1
    assert verdict.fail_ratio > 0


@pytest.mark.parametrize("workload", ["mc-wide", "mc-narrow", "fk"])
def test_one_digit_in_an_mc_row_fails_at_the_reference_seed(workload):
    ref = Reference.load(workload)
    outputs = _outputs(ref)
    lines = next(iter(outputs.values()))
    index = next(i for i, line in enumerate(lines) if line.split(",")[-2] == "mc")
    lines[index] = _change_digit(lines[index], 3)
    verdict = _check(ref, outputs)
    assert verdict.failed == 1
    assert verdict.fail_ratio > 0


def test_exact_rows_compare_within_their_tolerance():
    ref = Reference.load("exact")
    outputs = _outputs(ref)
    line = outputs["delta"][0]
    fields = line.split(",")
    value, tol = float(fields[3]), float(fields[7])
    fields[3] = repr(value + tol / 100)
    outputs["delta"] = [",".join(fields)]
    assert _check(ref, outputs).failed == 0
    fields[3] = repr(value + tol * 100)
    outputs["delta"] = [",".join(fields)]
    assert _check(ref, outputs).failed == 1


def test_failed_command_fails_all_its_rows():
    ref = Reference.load("exact")
    verdict = _check(ref, _outputs(ref), exit_code=3)
    assert verdict.failed == verdict.attempted == len(ref.rows)


def test_mc_row_far_from_the_exact_value_fails_at_another_seed():
    ref = Reference.load("mc-narrow")
    seed = REFERENCE_SEED + 1
    outputs = {"sweep": [line.replace(f"seed={REFERENCE_SEED} ", f"seed={seed} ")
                         for line in _outputs(ref)["sweep"]]}
    assert _check(ref, outputs, seed=seed).failed == 0
    identity = next(i for i, line in enumerate(outputs["sweep"]) if "scheme=Identity" in line)
    fields = outputs["sweep"][identity].split(",")
    fields[3], fields[4], fields[5] = "0.5", "0.49", "0.51"
    outputs["sweep"][identity] = ",".join(fields)
    assert _check(ref, outputs, seed=seed).failed == 1


def test_benchmark_json_lists_the_metrics_a_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {**run.LAYER_METRICS, **run.PROCESS_METRICS})
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_probe_target_exists():
    import_cli()
    tracer = Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
