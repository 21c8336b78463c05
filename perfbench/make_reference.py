"""Regenerate ``perfbench/reference/`` from the current sources.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py

Writes ``reference/<workload>.csv`` (every row each workload's commands
print at the reference seed, under one header) and ``reference/truth.json``
(exact values that Monte Carlo rows must come close to at any seed).  Run it
only on code whose output is known to be right: the checks treat these
files as the truth.

Truth tolerances are six standard errors, so a correct row fails its check
with probability about 2e-9.  For a sweep row the standard error is bounded
by ``sqrt((1 - delta**2) / replicates)``, that of a frequency difference;
for ``W_mean`` it is read off the row's own 99% interval at the reference
seed.
"""

from __future__ import annotations

import json
import math
import sys

from checks import REFERENCE_DIR, REFERENCE_SEED, parse_csv
from workloads import WORKLOADS, import_cli, run_workload

SIGMAS = 6.0
Z99 = 2.5758293035489  # two-sided 99% normal quantile


# Sweep cells whose exact advantage is cheap to compute: workload -> scheme ->
# value.  Identity on mc-wide is left out, its count law has 65,537 points.
SWEEP_EXACT = {
    "mc-wide": {
        "WithinDescentMajority{k=2}": lambda ex: ex.renormalized_delta(2, 3, 4, 0.3),
    },
    "mc-narrow": {
        "Identity": lambda ex: ex.delta_exact(10, 2, 0.1),
        "WithinDescentMajority{k=2}": lambda ex: ex.renormalized_delta(2, 4, 2, 0.1),
        "BlockMajorityEveryStep{M=4}": lambda ex: ex.block_scheme_delta(4, 8, 2, 0.1),
    },
}


def _sweep_truths(exact, workload: str, grid: dict) -> list[dict]:
    truths = []
    for scheme, compute in SWEEP_EXACT.get(workload, {}).items():
        value = compute(exact)
        truths.append({
            "experiment": "sweep", "quantity": "delta_n", "match": [f"scheme={scheme}"],
            "value": value,
            "tolerance": SIGMAS * math.sqrt((1.0 - value * value) / grid["replicates"]),
        })
    return truths


def _fk_truths(rows) -> list[dict]:
    """``W_k`` is a mean-one martingale, so every level's ``W_mean`` is near 1."""
    truths = []
    for row in rows:
        if row.fields["quantity"] != "W_mean":
            continue
        k = next(t for t in row.fields["params"].split(" ") if t.startswith("k="))
        half = (float(row.fields["hi"]) - float(row.fields["lo"])) / 2.0
        truths.append({"experiment": "fk-stats", "quantity": "W_mean", "match": [k],
                       "value": 1.0, "tolerance": SIGMAS * half / Z99})
    return truths


def main() -> int:
    cli = import_cli()
    import treecast.exact as exact

    truths: dict[str, list[dict]] = {}
    for name, commands in WORKLOADS.items():
        results = run_workload(cli, name, REFERENCE_SEED)
        header, lines = None, []
        for res in results:
            if res.exit_code != 0:
                print(f"{name}: {res.command.argv} exited {res.exit_code}", file=sys.stderr)
                return 1
            head, rows = parse_csv(res.stdout)
            header = header or head
            lines.extend(rows)
        text = "\n".join([header, *(row.line for row in lines)]) + "\n"
        (REFERENCE_DIR / f"{name}.csv").write_text(text, encoding="utf-8")
        found = []
        for command in commands:
            if command.grid is not None:
                found += _sweep_truths(exact, name, command.grid)
        if name == "fk":
            found += _fk_truths(lines)
        if found:
            truths[name] = found
        print(f"{name}: {len(lines)} rows, {len(found)} exact values")
    (REFERENCE_DIR / "truth.json").write_text(json.dumps(truths, indent=2) + "\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
