"""The experiment scripts write the rows of the ``treecast`` command they
copy, and keep the CLI's misuse contract.

A script's CSV under ``--reproducible`` holds, apart from its own
``tail_frequency`` row, exactly the lines ``treecast critical``, ``sweep``
or ``fk-stats`` writes for the same arguments.  A misused script is refused
before any draw or count law (``rng._philox_keys`` and ``exact._count_laws``
patched to raise), with exit code 2, or 3 for a budget, argparse's usage
error or one ``error:``/``budget error:`` line on stderr, no traceback, and
nothing on stdout.
"""

import contextlib
import csv
import io
import json

import pytest

from test_script_tables import load_script
from treecast import cli, exact, rng


def run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def csv_lines(path):
    """``(quantity, line)`` of each line of a CSV report; the header's
    quantity is ``"quantity"``."""
    lines = path.read_text(encoding="utf-8").splitlines(True)
    return [(row[2], line) for row, line in zip(csv.reader(lines), lines)]


def cli_lines(argv, path):
    assert run(cli.main, [*argv, "--reproducible", "--out", str(path)])[0] == 0
    return csv_lines(path)


def script_lines(script, argv, path):
    assert run(load_script(script).main, [*argv, "--reproducible", "--out", str(path)])[0] == 0
    return csv_lines(path)


def test_critical_table_writes_critical_rows(tmp_path):
    rows = script_lines("critical_point_table.py", ["--r", "3,2", "--k-max", "3"],
                        tmp_path / "script.csv")
    three = cli_lines(["critical", "--r", "3", "--k", "1..3"], tmp_path / "r3.csv")
    two = cli_lines(["critical", "--r", "2", "--k", "1..3"], tmp_path / "r2.csv")
    assert rows == three + two[1:]


def test_fk_summary_writes_fk_stats_rows(tmp_path):
    rows = script_lines(
        "fk_moment_summary.py",
        ["--p", "0.3", "--r", "4", "--k", "2,4,3", "--samples", "40", "--seed", "11"],
        tmp_path / "script.csv",
    )
    expected = cli_lines(
        ["fk-stats", "--r", "4", "--p", "0.3", "--k", "2,4,3", "--samples", "40",
         "--seed", "11"],
        tmp_path / "cli.csv",
    )
    assert [quantity for quantity, _ in rows].count("tail_frequency") == 1
    assert [row for row in rows if row[0] != "tail_frequency"] == expected


def test_correction_sweep_writes_sweep_rows(tmp_path):
    schemes = ["Identity", "WithinDescentMajority{k=2}", "MinorityRemovalEveryStep{M=2}"]
    rows = script_lines(
        "run_correction_sweep.py",
        ["--r", "2", "--depth", "4", "--eps", "0.1,0.2", "--schemes", ",".join(schemes),
         "--replicates", "200", "--seed", "3"],
        tmp_path / "script.csv",
    )
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"r": 2, "schemes": schemes, "eps": [0.1, 0.2],
                                "depths": [4], "replicates": 200, "seed": 3}))
    assert rows == cli_lines(["sweep", str(grid)], tmp_path / "cli.csv")


MISUSES = [
    ("fk_moment_summary.py", ["--samples", "1"], 2),
    ("fk_moment_summary.py", ["--k", "0"], 2),
    ("fk_moment_summary.py", ["--r", "1"], 2),
    ("fk_moment_summary.py", ["--out", "MISSING"], 2),
    ("fk_moment_summary.py", ["--out", ""], 2),
    ("critical_point_table.py", ["--r", "2", "--k-max", "17"], 3),
    ("critical_point_table.py", ["--r", "2,4", "--k-max", "9"], 3),
    ("critical_point_table.py", ["--out", "MISSING"], 2),
    ("run_correction_sweep.py", ["--eps", "0.1,0.5"], 2),
    ("run_correction_sweep.py", ["--replicates", "10"], 2),
    ("run_correction_sweep.py", ["--out", "MISSING"], 2),
]


class Work(BaseException):
    """Raised by the patched draw and count-law routines."""


def never(*args, **kwargs):
    raise Work


@pytest.mark.parametrize("script, argv, code", MISUSES,
                         ids=[" ".join([s, *a]) for s, a, _ in MISUSES])
def test_misused_script_is_refused_before_work(script, argv, code, tmp_path, monkeypatch):
    monkeypatch.delenv("TREECAST_BUDGET", raising=False)
    monkeypatch.setattr(rng, "_philox_keys", never)
    monkeypatch.setattr(exact, "_count_laws", never)
    missing = str(tmp_path / "missing" / "x.csv")
    argv = [missing if arg == "MISSING" else arg for arg in argv]
    got, out, err = run(load_script(script).main, argv)
    assert (got, out) == (code, ""), err
    assert "Traceback" not in err
    lines = err.splitlines()
    if lines[0].startswith("usage: "):
        assert code == 2 and ": error: " in lines[-1]
    else:
        assert len(lines) == 1
        assert lines[0].startswith("budget error: " if code == 3 else "error: ")
