"""Report rows, serialization, and the command-line surface."""

import csv
import hashlib
import io
import json
import math
import time
import tracemalloc

import pytest

from treecast import ReportRow, delta_exact, rows_to_csv, rows_to_json
from treecast import cli
from treecast.cli import main, parse_k_values
from treecast.report import CSV_COLUMNS

MC_ROW = ReportRow(
    experiment="delta",
    params={"r": 2, "eps": 0.1, "depth": 4},
    quantity="delta_n",
    value=0.705,
    provenance="mc",
    lo=0.68,
    hi=0.73,
)
EXACT_ROW = ReportRow(
    experiment="eps-k",
    params={"r": 2, "k": 1, "note": 'needs, "quoting"'},
    quantity="eps_k",
    value=0.3,
    provenance="exact",
    tolerance=1e-12,
)


def test_report_row_validation():
    with pytest.raises(ValueError):
        ReportRow(
            experiment="x", params={}, quantity="delta_n", value=0.5,
            provenance="guess",
        )
    with pytest.raises(ValueError):
        ReportRow(
            experiment="x", params={}, quantity="delta_n", value=0.5,
            provenance="mc",  # interval missing
        )
    with pytest.raises(ValueError):
        ReportRow(
            experiment="x", params={}, quantity="delta_n", value=0.5,
            provenance="mc", lo=0.6, hi=0.4,
        )
    with pytest.raises(ValueError):
        ReportRow(
            experiment="x", params={}, quantity="delta_n", value=0.5,
            provenance="exact",  # tolerance missing
        )


@pytest.mark.parametrize("lo,hi", [(math.nan, 0.7), (0.3, math.nan), (math.nan, math.nan)])
def test_report_row_refuses_unordered_mc_bounds(lo, hi):
    with pytest.raises(ValueError):
        ReportRow(
            experiment="x", params={}, quantity="W_mean", value=0.5,
            provenance="mc", lo=lo, hi=hi,
        )


def test_csv_round_trips_through_standard_reader():
    text = rows_to_csv([MC_ROW, EXACT_ROW], reproducible=True)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3
    mc = dict(zip(CSV_COLUMNS, rows[1]))
    assert mc["experiment"] == "delta"
    assert float(mc["value"]) == 0.705
    assert float(mc["lo"]) == 0.68
    assert mc["tolerance"] == ""
    exact = dict(zip(CSV_COLUMNS, rows[2]))
    assert exact["params"] == 'r=2 k=1 note=needs, "quoting"'
    assert exact["lo"] == ""
    assert float(exact["tolerance"]) == 1e-12


def test_csv_timestamp_only_outside_reproducible_mode():
    assert rows_to_csv([EXACT_ROW]).startswith("# timestamp=")
    assert not rows_to_csv([EXACT_ROW], reproducible=True).startswith("#")
    # Reproducible output is byte-stable across calls.
    assert rows_to_csv([MC_ROW], reproducible=True) == rows_to_csv(
        [MC_ROW], reproducible=True
    )


def test_json_is_deterministic_and_native():
    text = rows_to_json([MC_ROW, EXACT_ROW])
    assert text == rows_to_json([MC_ROW, EXACT_ROW])
    data = json.loads(text)
    assert [d["experiment"] for d in data] == ["delta", "eps-k"]
    assert data[0]["lo"] == 0.68
    assert data[1]["tolerance"] == 1e-12
    assert data[1]["params"]["k"] == 1


def test_parse_k_values():
    assert parse_k_values("3") == (range(3, 4),)
    assert parse_k_values("1..4") == (range(1, 5),)
    assert parse_k_values("1,3,9") == (range(1, 2), range(3, 4), range(9, 10))
    for bad in ("", "0", "4..2", "a", "1,,2"):
        with pytest.raises(Exception):
            parse_k_values(bad)
    # A config file's int and list forms pass through the same rule.
    assert parse_k_values(3) == (range(3, 4),)
    assert parse_k_values([1, 3]) == (range(1, 2), range(3, 4))
    for bad, message in ((0, "periods must be >= 1"), ([2, 0], "periods must be >= 1"),
                         ([], "expected positive integers")):
        with pytest.raises(Exception, match=message):
            parse_k_values(bad)


def test_wide_period_ranges_are_refused_before_they_are_listed(capsys):
    # A period past the budget or the FK level limit is refused while the
    # range is read, before the periods after it are listed.
    assert parse_k_values("5..1000000000000,2") == (range(5, 1000000000001), range(2, 3))
    tracemalloc.start()
    try:
        assert main(["critical", "--r", "2", "--k", "17..2000000000017"]) == 3
        assert main(["fk-stats", "--r", "4", "--p", "0.3", "--k", "2..2000000000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert "budget error" in err and "level 32 holds 4**32 vertices" in err


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_eps_k_exact_value(capsys):
    code, out = run_cli(
        capsys, "eps-k", "--r", "2", "--k", "1", "--eps", "0.3", "--reproducible",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_quantity = {row["quantity"]: row for row in rows}
    assert math.isclose(float(by_quantity["eps_k"]["value"]), 0.3, abs_tol=1e-12)
    assert by_quantity["eps_k"]["provenance"] == "exact"
    assert math.isclose(float(by_quantity["eps_tilde_k"]["value"]), 0.3)
    assert float(by_quantity["t_stat"]["value"]) == pytest.approx(0.0, abs=1e-12)


def test_cli_eps_k_falls_back_to_mc_when_over_budget(capsys):
    code, out = run_cli(
        capsys, "eps-k", "--r", "2", "--k", "5", "--eps", "0.2",
        "--budget", "10", "--replicates", "400", "--reproducible",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    eps_rows = [row for row in rows if row["quantity"] == "eps_k"]
    assert eps_rows and all(row["provenance"] == "mc" for row in eps_rows)
    assert all(row["lo"] != "" and row["hi"] != "" for row in eps_rows)
    # The Monte Carlo rows, byte for byte: seed 0, 400 replicates at k=5.
    mc_rows = {row["quantity"]: (row["value"], row["lo"], row["hi"])
               for row in rows if row["provenance"] == "mc"}
    assert mc_rows == {
        "eps_k": ("0.365", "0.30566713517282834", "0.42873834526490556"),
        "t_stat": ("0.09612000000000004", "0.03238165473509447", "0.1554528648271717"),
        "p_k": ("0.27", "0.14252330947018887", "0.3886657296543433"),
    }


def test_cli_eps_k_mc_fallback_matches_exact_period(capsys):
    # A budget of 2 support points forces k=1 to Monte Carlo, whose error
    # rate is then the edge's own eps.
    code, out = run_cli(
        capsys, "eps-k", "--r", "2", "--k", "1", "--eps", "0.2", "--budget", "2",
        "--replicates", "20000", "--seed", "314159", "--reproducible",
    )
    assert code == 0
    row = next(row for row in csv.DictReader(io.StringIO(out)) if row["quantity"] == "eps_k")
    assert row["provenance"] == "mc"
    eps_hat, lo, hi = float(row["value"]), float(row["lo"]), float(row["hi"])
    sigma = math.sqrt(eps_hat * (1.0 - eps_hat) / 20_000)
    assert abs(eps_hat - 0.2) < 4 * sigma
    assert lo < eps_hat < hi


def test_cli_eps_k_mc_fallback_refusals(capsys, tmp_path):
    # Too few replicates for the forced Monte Carlo run, and a period of 0.
    config_path = tmp_path / "k0.json"
    config_path.write_text(json.dumps({"k": [0]}))
    for argv, message in (
        (["--k", "1", "--replicates", "50"], "need at least 100 replicates"),
        (["--config", str(config_path)], "periods must be >= 1"),
    ):
        assert main(["eps-k", "--r", "2", "--eps", "0.2", "--budget", "2", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_cli_output_is_byte_deterministic(capsys):
    args = (
        "delta", "--r", "2", "--depth", "4", "--eps", "0.1",
        "--replicates", "400", "--seed", "11", "--reproducible",
        "--format", "csv",
    )
    code_a, out_a = run_cli(capsys, *args)
    code_b, out_b = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_cli_exact_delta(capsys):
    code, out = run_cli(
        capsys, "delta", "--r", "2", "--depth", "4", "--eps", "0.1",
        "--exact", "--reproducible", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert math.isclose(float(rows[0]["value"]), delta_exact(4, 2, 0.1), abs_tol=1e-12)
    assert rows[0]["provenance"] == "exact"


@pytest.mark.parametrize(
    ("argv", "value"),
    [
        (["--depth", "8", "--scheme", "WithinDescentMajority{k=2}"], "0.6762908961130016"),
        (["--depth", "8", "--scheme", "FractionIdentification{k=2}"], "0.4789735038860728"),
        (["--depth", "6", "--M", "4"], "0.708489323669206"),
    ],
    ids=["descent", "fraction", "block"],
)
def test_cli_exact_delta_per_scheme(capsys, argv, value):
    code, out = run_cli(
        capsys, "delta", "--r", "2", "--eps", "0.1", *argv, "--exact", "--reproducible",
    )
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert (row["value"], row["provenance"]) == (value, "exact")


@pytest.mark.parametrize(
    ("argv", "monte_carlo_refuses"),
    [
        (["--depth", "8", "--scheme", "WithinDescentMinorityRemoval{k=2}"], False),
        (["--depth", "8", "--scheme", "MinorityRemovalEveryStep{M=4}"], False),
        (["--depth", "7", "--scheme", "WithinDescentMajority{k=2}"], True),
        (["--depth", "0", "--scheme", "WithinDescentMajority{k=2}"], True),
        (["--depth", "8", "--scheme", "BlockMajorityEveryStep{M=3}"], False),
        (["--depth", "1", "--M", "4"], True),
    ],
    ids=["descent-removal", "block-removal", "depth-not-a-multiple", "depth-zero",
         "block-not-a-power", "depth-above-block-0"],
)
def test_cli_exact_delta_refusals(capsys, argv, monte_carlo_refuses):
    # Depth refusals hold for both engines; the rest only for the exact one.
    assert main(["delta", "--r", "2", "--eps", "0.1", *argv, "--exact"]) == 2
    exact_err = capsys.readouterr().err
    assert exact_err.startswith("error: ")
    if monte_carlo_refuses:
        assert main(["delta", "--r", "2", "--eps", "0.1", *argv, "--replicates", "200"]) == 2
        assert capsys.readouterr().err == exact_err


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["delta", "--r", "2", "--depth", "3", "--eps", "0", "--replicates", "1000"], 0),
        (["sweep", "GRID"], 0),
        (["fk-stats", "--r", "4", "--p", "0.3", "--k", "32"], 2),
        (["fk-stats", "--r", "4", "--p", "0.3", "--k", "31", "--samples", "2"], 0),
        (["critical", "--r", "2", "--config", "EMPTY_K"], 2),
        (["fk-stats", "--r", "4", "--p", "0.3", "--config", "EMPTY_K"], 2),
        (["delta", "--r", "2", "--depth", "0", "--eps", "0.1",
          "--scheme", "WithinDescentMajority{k=2}"], 2),
        (["delta", "--r", "2", "--depth", "1", "--eps", "0.1", "--M", "4"], 2),
    ],
    ids=["noiseless-delta", "one-sign-sweep", "fk-level-past-int64", "fk-level-31",
         "critical-empty-k", "fk-stats-empty-k", "descent-depth-zero",
         "block-above-block-0"],
)
def test_cli_edge_cases_exit_cleanly(capsys, tmp_path, argv, code):
    grid_path, empty_k_path = tmp_path / "grid.json", tmp_path / "empty_k.json"
    grid_path.write_text(json.dumps({
        "r": 2, "schemes": ["Identity", "WithinDescentMajority{k=1}"],
        "eps": [0.0], "depths": [3], "replicates": 1000,
    }))
    empty_k_path.write_text(json.dumps({"k": []}))
    paths = {"GRID": str(grid_path), "EMPTY_K": str(empty_k_path)}
    argv = [paths.get(a, a) for a in argv]
    assert main([*argv, "--reproducible"]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 0:
        assert captured.out.count("\n") > 1
    else:
        assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_rejects_bad_channel(capsys):
    assert main(["delta", "--r", "2", "--depth", "4", "--eps", "0.6"]) == 2
    assert main(["delta", "--r", "2", "--depth", "4", "--p", "0.0"]) == 2


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        # --eps and --p are mutually exclusive at the parser level.
        main(["delta", "--r", "2", "--depth", "4", "--eps", "0.1", "--p", "0.8"])
    assert exc.value.code == 2


def test_cli_budget_exhaustion_exits_three(capsys):
    code = main(["critical", "--r", "2", "--k", "40"])
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["critical", "--r", "3", "--k", "10000"],
        ["eps-k", "--r", "3", "--k", "10000", "--eps", "0.1"],
        ["delta", "--r", "3", "--depth", "10000", "--eps", "0.1", "--replicates", "200"],
        ["critical", "--r", "3", "--k", "10000000"],
    ],
    ids=["critical", "eps-k", "delta", "critical-1e7"],
)
def test_cli_refuses_sizes_too_large_to_print_with_exit_three(capsys, argv):
    # 3**10000 has more digits than Python prints by default, and 3**10**7
    # takes seconds to build: the budget checks do neither.
    start = time.perf_counter()
    assert main(argv) == 3
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"3**{argv[4]}" in captured.err
    if argv[4] == "10000000":
        assert elapsed < 0.5


def test_cli_critical_refuses_an_over_budget_period_before_any_search(capsys, monkeypatch):
    # k = 17 needs 2**17 + 1 support points; k = 1..16 must not run first.
    def never(*args, **kwargs):
        raise AssertionError("a critical point was searched")

    monkeypatch.setattr(cli, "critical_point_k", never)
    assert main(["critical", "--r", "2", "--k", "1..17"]) == 3
    assert capsys.readouterr().out == ""


def test_cli_critical_matches_exact(capsys):
    code, out = run_cli(
        capsys, "critical", "--r", "2", "--k", "1", "--reproducible",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    p_c = [row for row in rows if row["quantity"] == "p_c_k"][0]
    assert abs(float(p_c["value"]) - 1 / math.sqrt(2)) < 1e-8
    assert float(p_c["lo"]) <= float(p_c["value"]) <= float(p_c["hi"])


def test_cli_verify_passing_suite(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    code = main(["verify", "lemma33", "--out", str(out_file), "--reproducible"])
    text = capsys.readouterr().err
    assert code == 0
    assert "[PASS]" in text
    assert "all gates passed" in text
    saved = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert saved and all(row["experiment"] == "verify:lemma33" for row in saved)


def test_cli_verify_gate_failure_exits_four(capsys, monkeypatch):
    def fake_run_suite(name, seed=None):
        return [
            ReportRow(
                experiment=f"verify:{name}", params={"requirement": "must be < 0", "passed": False},
                quantity="forced", value=1.0, provenance="exact", tolerance=0.0,
            )
        ]

    monkeypatch.setattr("treecast.cli.run_suite", fake_run_suite)
    code = main(["verify", "lemma33"])
    assert code == 4
    assert "GATE FAILURE" in capsys.readouterr().err


def test_cli_verify_csv_stdout_holds_only_rows(capsys):
    # Status lines go to stderr, so the CSV on stdout parses as it stands.
    code = main(["verify", "thm21", "--format", "csv", "--reproducible"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == ",".join(CSV_COLUMNS)
    reader = csv.DictReader(io.StringIO(captured.out))
    rows = list(reader)
    assert reader.fieldnames == list(CSV_COLUMNS)
    assert rows and all(row["experiment"] == "verify:thm21" for row in rows)
    assert all(None not in row and None not in row.values() for row in rows)
    assert "[PASS]" in captured.err and "all gates passed" in captured.err


def test_cli_verify_writes_rows_by_default(capsys, tmp_path):
    # Without --format the rows go to stdout as CSV, and a config file's
    # "format" is honoured like the flag.
    code, default = run_cli(capsys, "verify", "lemma33", "--reproducible")
    assert code == 0 and default.startswith(",".join(CSV_COLUMNS))
    code, csv_out = run_cli(
        capsys, "verify", "lemma33", "--format", "csv", "--reproducible"
    )
    assert code == 0 and csv_out == default
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"format": "json"}))
    code, json_out = run_cli(
        capsys, "verify", "lemma33", "--config", str(config_path), "--reproducible"
    )
    assert code == 0
    rows = json.loads(json_out)
    assert rows and all(row["experiment"] == "verify:lemma33" for row in rows)


def test_cli_sweep_grid(capsys, tmp_path):
    grid = {
        "r": 2,
        "schemes": ["Identity", "WithinDescentMajority{k=2}"],
        "eps": [0.1, 0.2],
        "depths": [2, 4],
        "replicates": 200,
        "seed": 5,
    }
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code_a, out_a = run_cli(
        capsys, "sweep", str(grid_path), "--reproducible", "--format", "csv"
    )
    code_b, out_b = run_cli(
        capsys, "sweep", str(grid_path), "--reproducible", "--format", "csv"
    )
    assert code_a == code_b == 0
    assert out_a == out_b
    rows = list(csv.DictReader(io.StringIO(out_a)))
    assert len(rows) == 8
    assert all(row["quantity"] == "delta_n" for row in rows)


# One cell per scheme at r=2, eps=0.15, depth 4, 400 replicates, seed 11.
PINNED_SWEEP_GRID = {
    "r": 2,
    "schemes": [
        "Identity",
        "WithinDescentMajority{k=2}",
        "FractionIdentification{k=2}",
        "WithinDescentMinorityRemoval{k=2}",
        "BlockMajorityEveryStep{M=4}",
        "MinorityRemovalEveryStep{M=4}",
    ],
    "eps": [0.15],
    "depths": [4],
    "replicates": 400,
    "seed": 11,
}
# SHA-256 of ``sweep --reproducible --format csv`` stdout for that grid.
PINNED_SWEEP = "6ddc5ca04b2bb360ce8973744136148b43625e3702048f0fc5adac8abc79832a"


def test_cli_sweep_output_matches_pinned_digest(capsys, tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(PINNED_SWEEP_GRID))
    code, out = run_cli(
        capsys, "sweep", str(grid_path), "--reproducible", "--format", "csv"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEP


@pytest.mark.parametrize(
    ("bad", "code", "prefix"),
    [
        ({"schemes": ["Identity", "Bogus"]}, 2, "error: "),
        ({"eps": [0.1, 0.7]}, 2, "error: "),
        (
            {"schemes": ["Identity", "WithinDescentMajority{k=2}"], "depths": [3]},
            2,
            "error: ",
        ),
        ({"depths": [2, 40]}, 3, "budget error: "),
    ],
    ids=[
        "unknown-scheme",
        "eps-out-of-range",
        "depth-not-a-descent-multiple",
        "depth-over-vertex-budget",
    ],
)
def test_cli_sweep_checks_whole_grid_before_first_cell(
    capsys, tmp_path, monkeypatch, bad, code, prefix
):
    import treecast.cli as cli

    calls = []
    real = cli.mc_deltas
    monkeypatch.setattr(cli, "mc_deltas", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    grid = {"r": 2, "schemes": ["Identity"], "eps": [0.1], "depths": [2],
            "replicates": 200, **bad}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["sweep", str(grid_path)]) == code
    assert capsys.readouterr().err.startswith(prefix)
    assert calls == []


def test_cli_fk_stats_refuses_one_sample(capsys):
    # One sample leaves the spread of W_mean undefined (std with ddof=1).
    argv = ["fk-stats", "--r", "4", "--p", "0.3", "--k", "2", "--samples", "1"]
    assert main(argv) == 2
    assert "samples must be >= 2" in capsys.readouterr().err


def test_cli_sweep_rejects_incomplete_grid(tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"r": 2, "schemes": ["Identity"]}))
    assert main(["sweep", str(grid_path)]) == 2
    grid_path.write_text("{not json")
    assert main(["sweep", str(grid_path)]) == 2
    assert main(["sweep", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "bad",
    [{"eps": 0.1}, {"schemes": "Identity"}],
    ids=["eps-number", "schemes-string"],
)
def test_cli_sweep_grid_of_wrong_type_exits_two(capsys, tmp_path, bad):
    grid = {"r": 2, "schemes": ["Identity"], "eps": [0.1], "depths": [2], **bad}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["sweep", str(grid_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{next(iter(bad))!r} has the wrong JSON type" in err


def test_cli_config_file_merging(capsys, tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"r": 2, "depth": 4, "eps": 0.3}))
    code, out = run_cli(
        capsys, "delta", "--config", str(config_path), "--exact",
        "--reproducible", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert math.isclose(float(rows[0]["value"]), delta_exact(4, 2, 0.3), abs_tol=1e-12)
    # A flag overrides the same key from the config file.
    code, out = run_cli(
        capsys, "delta", "--config", str(config_path), "--eps", "0.1", "--exact",
        "--reproducible", "--format", "csv",
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert math.isclose(float(rows[0]["value"]), delta_exact(4, 2, 0.1), abs_tol=1e-12)


@pytest.mark.parametrize(
    "command,config",
    [
        (["critical"], {"r": "2", "k": "1..2"}),
        (["critical"], {"r": 2, "k": "1..2", "budget": "100"}),
        (["critical"], {"r": 2, "k": "1..x"}),
        (["delta", "--exact"], {"r": 2, "depth": "4", "eps": 0.1}),
    ],
    ids=["r-string", "budget-string", "k-bad-range", "depth-string"],
)
def test_cli_config_of_wrong_type_exits_two(capsys, tmp_path, command, config):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    assert main([*command, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_json_output(capsys):
    code, out = run_cli(
        capsys, "delta", "--r", "2", "--depth", "3", "--eps", "0.2", "--exact",
        "--format", "json", "--reproducible",
    )
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list)
    assert data[0]["provenance"] == "exact"
    assert math.isclose(data[0]["value"], delta_exact(3, 2, 0.2), abs_tol=1e-12)


def never_work(monkeypatch):
    """Make every draw and every count law raise."""
    from treecast import exact, rng

    def never(*args, **kwargs):
        raise AssertionError("the command drew or built a count law before refusing")

    monkeypatch.setattr(rng, "_philox_keys", never)
    monkeypatch.setattr(exact, "_count_laws", never)


@pytest.mark.parametrize(
    ("argv", "name", "content", "key"),
    [
        (["delta", "--r", "2", "--depth", "4", "--eps", "0.1"], "run.json",
         {"replicate": 100}, "replicate"),
        (["critical", "--r", "2", "--k", "1"], "run.json", {"config": "other.json"}, "config"),
        (["sweep", "GRID"], "grid.json",
         {"r": 2, "schemes": ["Identity"], "eps": [0.1], "depths": [2], "depth": [4]}, "depth"),
    ],
    ids=["config-misspelt", "config-nested", "grid-depth"],
)
def test_cli_refuses_an_unknown_key_before_any_work(
    capsys, tmp_path, monkeypatch, argv, name, content, key
):
    path = tmp_path / name
    path.write_text(json.dumps(content))
    never_work(monkeypatch)
    argv = [str(path) if a == "GRID" else a for a in argv]
    if name == "run.json":
        argv += ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: unknown ") and f"key {key!r}" in line


def test_cli_config_key_of_another_command_is_left_out_of_the_echo(capsys, tmp_path):
    # One config file may serve several commands: critical takes no channel
    # and no depth, so it neither refuses them nor echoes them.
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"eps": 0.2, "depth": 5}))
    code, out = run_cli(
        capsys, "critical", "--r", "2", "--k", "1", "--config", str(config_path),
        "--reproducible",
    )
    assert code == 0
    code, plain = run_cli(capsys, "critical", "--r", "2", "--k", "1", "--reproducible")
    assert code == 0 and out == plain
    params = [row["params"].split() for row in csv.DictReader(io.StringIO(out))]
    assert params and all(not p.startswith(("eps=", "p=", "depth=")) for row in params
                          for p in row)


def test_cli_refuses_an_unwritable_out_before_any_work(capsys, tmp_path, monkeypatch):
    never_work(monkeypatch)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["critical", "--r", "2", "--k", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: cannot write ")


def test_cli_refuses_an_empty_out(capsys, tmp_path, monkeypatch):
    # An empty path names no file: from the flag or from a config, it is
    # refused, not taken as "write to stdout".
    never_work(monkeypatch)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"out": ""}))
    for argv in (["--out", ""], ["--config", str(config_path)]):
        assert main(["critical", "--r", "2", "--k", "1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: cannot write '': not a file in a writable directory"
        ]


def test_cli_write_that_fails_exits_two(capsys, tmp_path):
    # A name too long for the file system passes the directory check, then
    # fails to open.
    out = tmp_path / ("x" * 300)
    assert main(["critical", "--r", "2", "--k", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith("error: ")


def test_cli_verify_takes_its_seed_from_a_config_as_from_the_flag(capsys, tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"seed": 5}))
    code, from_config = run_cli(
        capsys, "verify", "lemma51", "--config", str(config_path), "--reproducible"
    )
    assert code == 0
    code, from_flag = run_cli(capsys, "verify", "lemma51", "--seed", "5", "--reproducible")
    assert code == 0 and from_config == from_flag
    code, pinned = run_cli(capsys, "verify", "lemma51", "--reproducible")
    assert code == 0 and "seed=" not in pinned
    rows = list(csv.DictReader(io.StringIO(from_config)))
    assert rows and all(row["params"].startswith("command=verify seed=5 ") for row in rows)


@pytest.mark.parametrize(
    ("argv", "code", "message"),
    [
        (["--k", "1..2", "--budget", "3", "--replicates", "50"], 2,
         "need at least 100 replicates"),
        (["--k", "1..1000000000000"], 3, "tree level of 2**27 vertices"),
    ],
    ids=["too-few-replicates", "level-past-vertex-budget"],
)
def test_cli_eps_k_refuses_a_fallback_before_any_period_runs(
    capsys, monkeypatch, argv, code, message
):
    # k = 1 fits a budget of 3 support points and k = 2 does not, so only
    # k = 2 falls back to Monte Carlo; its refusal comes before k = 1 runs.
    never_work(monkeypatch)
    assert main(["eps-k", "--r", "2", "--eps", "0.1", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
