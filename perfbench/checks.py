"""Output checks behind ``fail_ratio``: rows wrong or missing over rows expected.

The expected rows of a workload are the rows its commands wrote at
:data:`REFERENCE_SEED` on the seed code, stored in
``reference/<workload>.csv``.  A row is keyed by its ``experiment``,
``params`` and ``quantity`` columns; at another seed the ``seed=`` token of a
seeded command's params is rewritten to that seed.

* Exact rows are compared numerically, each within its own ``tolerance``
  column, so an engine that differs in the last digits still passes.
* Monte Carlo rows must equal the reference line byte for byte at
  :data:`REFERENCE_SEED` (``--reproducible`` output is a byte-for-byte contract).
  At other seeds they must lie inside their own interval and, where
  ``reference/truth.json`` holds the exact value, within that entry's
  tolerance of it.
* A command that exits non-zero or writes a wrong header fails all of its
  expected rows; a row no reference expects counts as one wrong row.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# MC rows are compared byte for byte with the stored reference at this seed.
REFERENCE_SEED = 0
COLUMNS = ("experiment", "params", "quantity", "value", "lo", "hi", "provenance",
           "tolerance")


@dataclass(frozen=True)
class Row:
    line: str
    fields: dict[str, str]

    @property
    def key(self) -> tuple[str, str, str]:
        return self.fields["experiment"], self.fields["params"], self.fields["quantity"]


@dataclass(frozen=True)
class Truth:
    """An exact value an MC row must come close to at any seed."""

    experiment: str
    quantity: str
    match: tuple[str, ...]  # params tokens the row must carry
    value: float
    tolerance: float


@dataclass
class Reference:
    header: str
    rows: list[Row]
    truths: list[Truth] = field(default_factory=list)

    @classmethod
    def load(cls, workload: str) -> "Reference":
        text = (REFERENCE_DIR / f"{workload}.csv").read_text(encoding="utf-8")
        header, rows = parse_csv(text)
        entries = json.loads((REFERENCE_DIR / "truth.json").read_text(encoding="utf-8"))
        truths = [Truth(e["experiment"], e["quantity"], tuple(e["match"]), float(e["value"]),
                        float(e["tolerance"])) for e in entries.get(workload, [])]
        return cls(header, rows, truths)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def parse_csv(text: str) -> tuple[str, list[Row]]:
    """Split CLI CSV output into its header line and data rows."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return "", []
    rows = []
    for line in lines[1:]:
        values = next(csv.reader([line]))
        if len(values) != len(COLUMNS):
            values = (values + [""] * len(COLUMNS))[: len(COLUMNS)]
        rows.append(Row(line, dict(zip(COLUMNS, values))))
    return lines[0], rows


def _with_seed(params: str, seed: int) -> str:
    return " ".join(f"seed={seed}" if tok.startswith("seed=") else tok
                    for tok in params.split(" "))


def _num(text: str) -> float | None:
    return float(text) if text else None


def _exact_ok(got: Row, want: Row) -> bool:
    tol = _num(want.fields["tolerance"])
    if tol is None or _num(got.fields["tolerance"]) != tol:
        return False
    for col in ("value", "lo", "hi"):
        a, b = _num(got.fields[col]), _num(want.fields[col])
        if (a is None) != (b is None):
            return False
        if a is not None and not abs(a - b) <= tol:
            return False
    return True


def _mc_ok(got: Row, want: Row, at_reference: bool, truths: list[Truth]) -> bool:
    if at_reference:
        return got.line == want.line
    value, lo, hi = (_num(got.fields[c]) for c in ("value", "lo", "hi"))
    if value is None or lo is None or hi is None or not math.isfinite(value):
        return False
    if not lo <= value <= hi:
        return False
    tokens = set(got.fields["params"].split(" "))
    for truth in truths:
        if (truth.experiment, truth.quantity) == (got.fields["experiment"],
                                                   got.fields["quantity"]) \
                and tokens.issuperset(truth.match) \
                and not abs(value - truth.value) <= truth.tolerance:
            return False
    return True


def check_command(ref: Reference, experiment: str, seeded: bool, seed: int,
                  exit_code: int | None, stdout: str) -> Verdict:
    """Check one command's stdout against the rows the reference expects of it."""
    at_reference = not seeded or seed == REFERENCE_SEED
    expected = {}
    for row in ref.rows:
        if row.fields["experiment"] != experiment:
            continue
        params = _with_seed(row.fields["params"], seed) if seeded else row.fields["params"]
        expected[(experiment, params, row.fields["quantity"])] = row
    verdict = Verdict(attempted=len(expected))
    if exit_code != 0:
        verdict.failed = len(expected)
        verdict.problems.append(f"{experiment}: exit code {exit_code}")
        return verdict
    header, rows = parse_csv(stdout)
    if header != ref.header:
        verdict.failed = len(expected)
        verdict.problems.append(f"{experiment}: header {header!r}")
        return verdict
    seen = set()
    for got in rows:
        want = expected.get(got.key)
        if want is None or got.key in seen:
            verdict.failed += 1
            verdict.problems.append(f"unexpected row: {got.line}")
            continue
        seen.add(got.key)
        try:
            if got.fields["provenance"] != want.fields["provenance"]:
                ok = False
            elif want.fields["provenance"] == "exact":
                ok = _exact_ok(got, want)
            else:
                ok = _mc_ok(got, want, at_reference, ref.truths)
        except ValueError:  # a number that does not parse
            ok = False
        if not ok:
            verdict.failed += 1
            verdict.problems.append(f"wrong row: {got.line}")
    for key in expected.keys() - seen:
        verdict.failed += 1
        verdict.problems.append(f"missing row: {' | '.join(key)}")
    verdict.failed = min(verdict.failed, verdict.attempted)
    return verdict
