"""The four benchmark workloads and the closed loop that runs them.

A workload is a fixed list of ``treecast`` CLI commands.  One client issues
them in order, each only after the previous one has returned (a closed
loop), by calling ``treecast.cli.main(argv)`` in this process with
``--reproducible`` and capturing what it writes to stdout.  The workload
seed is the only input that varies between runs: it becomes the ``seed`` of
a sweep grid and the ``--seed`` of ``fk-stats``; the ``exact`` commands take
no random input.  Why each workload was chosen is in ``README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Command:
    """One CLI call; ``{seed}`` and ``{grid}`` in ``argv`` are filled per run."""

    argv: tuple[str, ...]
    grid: dict | None = None

    @property
    def experiment(self) -> str:
        """The ``experiment`` column of the rows this command writes."""
        return self.argv[0]

    @property
    def seeded(self) -> bool:
        return self.grid is not None or "{seed}" in self.argv


def _sweep(r: int, eps: float, depth: int, replicates: int, schemes: list[str]) -> Command:
    grid = {"r": r, "schemes": schemes, "eps": [eps], "depths": [depth],
            "replicates": replicates}
    return Command(("sweep", "{grid}"), grid)


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "exact": (
        Command(("critical", "--r", "2", "--k", "1..8")),
        Command(("delta", "--exact", "--r", "2", "--depth", "11", "--eps", "0.1")),
        Command(("eps-k", "--r", "4", "--k", "1..6", "--eps", "0.1")),
    ),
    "mc-wide": (
        _sweep(4, 0.3, 8, 1024, [
            "Identity",
            "WithinDescentMajority{k=2}",
            "WithinDescentMinorityRemoval{k=2}",
            "MinorityRemovalEveryStep{M=4}",
        ]),
    ),
    "mc-narrow": (
        _sweep(2, 0.1, 10, 51_200, [
            "Identity",
            "WithinDescentMajority{k=2}",
            "BlockMajorityEveryStep{M=4}",
            "WithinDescentMinorityRemoval{k=2}",
        ]),
    ),
    "fk": (
        Command(("fk-stats", "--r", "4", "--p", "0.3", "--k", "2..10",
                 "--samples", "1000", "--seed", "{seed}")),
    ),
}


@dataclass(frozen=True)
class CommandResult:
    command: Command
    exit_code: int | None  # None when main raised instead of returning
    stdout: str
    wall_s: float


def import_cli():
    """Import ``treecast.cli`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "treecast" / "cli.py").is_file():
        raise FileNotFoundError(f"no treecast sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import treecast.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "treecast":
        raise ImportError(f"treecast was imported from {cli.__file__}, not {SRC}")
    return cli


def run_workload(cli, name: str, seed: int) -> list[CommandResult]:
    """Run every command of one workload once, in order."""
    OUT.mkdir(exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for command in WORKLOADS[name]:
            grid_path = os.path.join(tmp, "grid.json")
            if command.grid is not None:
                with open(grid_path, "w", encoding="utf-8") as fh:
                    json.dump({**command.grid, "seed": seed}, fh)
            argv = [a.format(seed=seed, grid=grid_path) for a in command.argv]
            argv.append("--reproducible")
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, not a benchmark crash
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - start
            results.append(CommandResult(command, code, buf.getvalue(), wall))
    return results
