"""The public API holds what the CLI, the suites and the scripts use.

``treecast.__all__`` and each module's ``__all__`` may list only names that
``cli.py``, ``verify.py`` or ``scripts/*.py`` import; everything else is
imported from its own module.  The scripts import from ``treecast`` and
``treecast.cli`` alone, and only names their ``__all__`` lists.  The scripts
run end to end at tiny sizes.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import treecast
from treecast import cli

PACKAGE = Path(treecast.__file__).resolve().parent
SCRIPTS = PACKAGE.parent.parent / "scripts"


def imported_names(path, module):
    """Names ``path`` imports with ``from <module> import ...``; ``"."``
    stands for a relative import from the file's own package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        relative = node.level == 1 and node.module is not None
        if (module == "." and relative) or (node.level == 0 and node.module == module):
            names.update(alias.name for alias in node.names)
    return names


def script_names():
    return {
        path.name: imported_names(path, "treecast")
        for path in sorted(SCRIPTS.glob("*.py"))
    }


def used_names():
    used = imported_names(PACKAGE / "cli.py", ".") | imported_names(PACKAGE / "verify.py", ".")
    for names in script_names().values():
        used |= names
    return used


def test_package_exports_only_used_names():
    assert set(treecast.__all__) <= used_names()
    public = {
        name for name, value in vars(treecast).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(treecast.__all__)


def test_module_exports_only_used_names():
    used = used_names()
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"treecast.{info.name}")
        extra = set(getattr(module, "__all__", ())) - used
        assert not extra, f"treecast.{info.name}.__all__ lists unused {sorted(extra)}"


def package_imports(path):
    """The ``treecast`` modules ``path`` imports, as ``("import", module)``
    or ``("from", module)``; a relative import counts as the package's."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(("import", alias.name) for alias in node.names
                         if alias.name.split(".")[0] == "treecast")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "treecast":
                found.add(("from", "." * node.level + module))
    return found


def test_scripts_import_only_exported_names():
    for script, names in script_names().items():
        path = SCRIPTS / script
        imports = package_imports(path)
        assert imports <= {("from", "treecast"), ("from", "treecast.cli")}, (script, imports)
        cli_names = imported_names(path, "treecast.cli")
        assert names | cli_names, f"{script} imports nothing from treecast"
        missing = names - set(treecast.__all__)
        assert not missing, f"{script} imports {sorted(missing)} outside treecast.__all__"
        missing = cli_names - set(cli.__all__)
        assert not missing, f"{script} imports {sorted(missing)} outside treecast.cli.__all__"


SCRIPT_RUNS = {
    "critical_point_table.py": ["--r", "2", "--k-max", "2"],
    "fk_moment_summary.py": ["--p", "0.3", "--r", "4", "--k", "2", "--samples", "20"],
    "run_correction_sweep.py": ["--r", "2", "--depth", "4", "--replicates", "200"],
}


def test_every_script_has_a_smoke_run():
    assert set(SCRIPT_RUNS) == set(script_names())


@pytest.mark.parametrize("script", sorted(SCRIPT_RUNS))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *SCRIPT_RUNS[script]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
