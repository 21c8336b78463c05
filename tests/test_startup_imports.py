"""Start-up stays free of scipy, and no path loads ``scipy.stats``.

``import scipy.special`` takes about 0.3 s, many times a whole exact pass,
so only the paths that need scipy's binomial law (``fk-stats``, the
block-scheme exact paths) may load it, and they take the law from
``scipy.special`` alone: ``scipy.stats`` would add about 0.7 s and 46 MiB.
Each case runs in a fresh interpreter and reports the scipy modules it left
behind; a static check keeps ``scipy.stats`` imports out of the sources.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treecast

PACKAGE = Path(treecast.__file__).resolve().parent
SRC = str(PACKAGE.parent)

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

FK_STATS = RUN_MAIN.format(
    argv=["fk-stats", "--r", "4", "--p", "0.3", "--k", "2", "--samples", "10"]
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

# The paths that use a binomial law: they may load scipy.special only.
BINOMIAL_CASES = {
    "fk-stats": FK_STATS,
    "verify-fk-moments": RUN_MAIN.format(argv=["verify", "fk-moments"]),
    "eps-k-M": RUN_MAIN.format(
        argv=["eps-k", "--r", "4", "--k", "1..2", "--M", "4", "--eps", "0.1"]
    ),
    "delta-exact-block": RUN_MAIN.format(
        argv=["delta", "--exact", "--r", "2", "--depth", "4", "--eps", "0.1", "--M", "4"]
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


def is_scipy_stats(module):
    return module == "scipy.stats" or module.startswith("scipy.stats.")


def scipy_stats_imports(tree):
    """``(line, statement)`` of every import of ``scipy.stats`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(is_scipy_stats(name) for name in names):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("case", list(CASES))
def test_path_leaves_scipy_unloaded(case):
    assert scipy_modules_after(CASES[case]) == []


@pytest.mark.parametrize("case", list(BINOMIAL_CASES))
def test_binomial_path_leaves_scipy_stats_unloaded(case):
    assert not [m for m in scipy_modules_after(BINOMIAL_CASES[case]) if is_scipy_stats(m)]


def test_guard_sees_a_lazy_import():
    # Control: fk-stats needs scipy's binomial pmf, so the probe must see it.
    assert "scipy.special" in scipy_modules_after(FK_STATS)


def test_sources_never_import_scipy_stats():
    found = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := scipy_stats_imports(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


@pytest.mark.parametrize("statement", [
    "import scipy.stats",
    "import numpy, scipy.stats as st",
    "from scipy.stats import binom",
    "from scipy.stats._discrete_distns import binom",
    "from scipy import stats",
    "def f():\n    from scipy import special, stats\n",
])
def test_static_guard_sees_every_spelling(statement):
    assert len(scipy_stats_imports(ast.parse(statement))) == 1
