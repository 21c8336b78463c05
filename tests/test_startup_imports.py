"""Start-up stays free of scipy.

``import scipy.stats`` takes about a second, several times a whole exact
pass, so only the paths that need scipy's binomial (``fk-stats``, the
block-scheme exact paths) may load it.  Each case
runs in a fresh interpreter and reports the scipy modules it left behind.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treecast

SRC = str(Path(treecast.__file__).resolve().parent.parent)

REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))\n"
)

RUN_MAIN = (
    "import contextlib, io\n"
    "from treecast.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main({argv!r})\n"
    "assert code == 0, code\n"
)

CASES = {
    "import-treecast": "import treecast\n",
    "build-parser": "import treecast.cli\ntreecast.cli.build_parser()\n",
    "critical": RUN_MAIN.format(argv=["critical", "--r", "2", "--k", "1..2"]),
    "delta-exact": RUN_MAIN.format(
        argv=["delta", "--exact", "--r", "2", "--depth", "4", "--eps", "0.1"]
    ),
    "verify-lemma22": RUN_MAIN.format(argv=["verify", "lemma22"]),
    "delta-mc": RUN_MAIN.format(
        argv=["delta", "--r", "2", "--depth", "4", "--eps", "0.1",
              "--replicates", "200", "--reproducible"]
    ),
}


def scipy_modules_after(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script + REPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", list(CASES))
def test_path_leaves_scipy_unloaded(case):
    assert scipy_modules_after(CASES[case]) == []


def test_guard_sees_a_lazy_import():
    # Control: fk-stats needs scipy's binomial pmf, so the probe must see it.
    script = RUN_MAIN.format(
        argv=["fk-stats", "--r", "4", "--p", "0.3", "--k", "2", "--samples", "10"]
    )
    assert "scipy.stats" in scipy_modules_after(script)
