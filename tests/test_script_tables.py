"""The printed tables of the experiment scripts, pinned by digest.

Each case runs one script in-process and pins the SHA-256 of its stdout,
less any ``wrote N rows`` line (the row count of ``--out`` is not part of
the table).  The sizes are the smoke sizes of ``tests/test_api.py`` and one
size per script that also writes ``--out``.
"""

import contextlib
import hashlib
import importlib.util
import io

import pytest

from test_api import SCRIPT_RUNS, SCRIPTS


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_digest(script, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert load_script(script).main(argv) == 0
    kept = [line for line in out.getvalue().splitlines(True) if not line.startswith("wrote ")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


OUT_RUNS = {
    "critical_point_table.py": ["--r", "3,2", "--k-max", "3"],
    "fk_moment_summary.py": ["--p", "0.45", "--r", "3", "--k", "1,3,5", "--samples", "40",
                             "--seed", "5"],
    "run_correction_sweep.py": ["--r", "3", "--depth", "4", "--eps", "0.1,0.25",
                                "--schemes", "Identity,BlockMajorityEveryStep{M=3}",
                                "--replicates", "300", "--seed", "2"],
}

DIGESTS = {
    ("critical_point_table.py", "smoke"):
        "3b183bb84953f8fbc239077a6a8cb5cb9cad39c3211d994bce8a584674af90ba",
    ("fk_moment_summary.py", "smoke"):
        "96960d4000f3b04d05e24555d3168327b2cadd2ade5e0a5389ed5337cc54f9ab",
    ("run_correction_sweep.py", "smoke"):
        "19ef1f677c64669814cbf6a20fc48b0eb924672fdb29788a860c5cfc7bf454ab",
    ("critical_point_table.py", "out"):
        "cc186d7a8e7336bd00e07be5cba7813e2901ef9d2b2c67e8517e22b186b9d3e6",
    ("fk_moment_summary.py", "out"):
        "4f1f1e04684ddec504e7b21073b3387c84cc74bedadbd4068311ec35d97de370",
    ("run_correction_sweep.py", "out"):
        "ba63d327baa22222e77c6c49230eff6e093a718f76f0673dd4c0214a66c8ca29",
}


@pytest.mark.parametrize("script, size", sorted(DIGESTS))
def test_script_table_is_pinned(script, size, tmp_path):
    if size == "smoke":
        argv = SCRIPT_RUNS[script]
    else:
        argv = [*OUT_RUNS[script], "--reproducible", "--out", str(tmp_path / "rows.csv")]
    assert table_digest(script, argv) == DIGESTS[script, size]
    assert size == "smoke" or (tmp_path / "rows.csv").is_file()
