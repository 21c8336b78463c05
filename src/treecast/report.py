"""Tabular result rows and their CSV / JSON serialization.

Every experiment emits a flat list of :class:`ReportRow`; the two output
formats carry identical content row for row, so downstream tooling needs a
single schema.  CSV quoting follows RFC 4180 (the ``csv`` module's default);
an optional leading ``# timestamp=...`` comment line is suppressed when a
byte-reproducible artifact is requested.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping

import numpy as np

__all__ = ["EXACT", "MC", "ReportRow", "rows_to_csv", "rows_to_json"]

EXACT = "exact"
MC = "mc"

CSV_COLUMNS = (
    "experiment",
    "params",
    "quantity",
    "value",
    "lo",
    "hi",
    "provenance",
    "tolerance",
)


@dataclass(frozen=True)
class ReportRow:
    """One scalar result with its parameters and uncertainty metadata.

    Monte Carlo rows must carry a confidence interval; exact rows must carry
    the numerical tolerance they were computed to.
    """

    experiment: str
    params: Mapping[str, object]
    quantity: str
    value: float
    provenance: str
    lo: float | None = None
    hi: float | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.provenance not in (EXACT, MC):
            raise ValueError(
                f"provenance must be '{EXACT}' or '{MC}', got {self.provenance!r}"
            )
        if not self.experiment or not self.quantity:
            raise ValueError("experiment and quantity must be non-empty")
        if self.provenance == MC:
            if self.lo is None or self.hi is None:
                raise ValueError(f"mc row {self.quantity!r} needs an interval")
            if not self.lo <= self.hi:
                raise ValueError(f"interval [{self.lo}, {self.hi}] is not ordered")
        if self.provenance == EXACT:
            if self.tolerance is None or self.tolerance < 0:
                raise ValueError(
                    f"exact row {self.quantity!r} needs a tolerance >= 0"
                )


def _native(value: object) -> object:
    """Collapse numpy scalars to plain Python so both formats render alike."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _format_scalar(value: object) -> str:
    value = _native(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_params(params: Mapping[str, object]) -> str:
    """Render a parameter mapping as stable ``key=value`` pairs."""
    return " ".join(f"{key}={_format_scalar(val)}" for key, val in params.items())


def _cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _timestamp_line() -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return f"# timestamp={stamp}\n"


def rows_to_csv(rows: list[ReportRow], reproducible: bool = False) -> str:
    """Serialize rows to CSV text (RFC-4180 quoting, ``\\n`` line ends).

    A ``# timestamp=...`` comment precedes the header unless ``reproducible``
    is set, so reproducible runs are byte-identical.
    """
    buf = io.StringIO()
    if not reproducible:
        buf.write(_timestamp_line())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.experiment,
                format_params(row.params),
                row.quantity,
                repr(float(row.value)),
                _cell(row.lo),
                _cell(row.hi),
                row.provenance,
                _cell(row.tolerance),
            ]
        )
    return buf.getvalue()


def rows_to_json(rows: list[ReportRow]) -> str:
    """Serialize rows to a JSON array of objects mirroring the CSV rows.

    The array carries no timestamp, so JSON output is always
    byte-deterministic.
    """
    payload = [
        {
            "experiment": row.experiment,
            "params": {key: _native(val) for key, val in row.params.items()},
            "quantity": row.quantity,
            "value": float(row.value),
            "lo": None if row.lo is None else float(row.lo),
            "hi": None if row.hi is None else float(row.hi),
            "provenance": row.provenance,
            "tolerance": None if row.tolerance is None else float(row.tolerance),
        }
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"
