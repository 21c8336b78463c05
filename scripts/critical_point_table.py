"""Exact critical-rate table for k-step descent majority correction.

For each branching factor the script brackets the critical error-free rate of
the period-k scheme (``critical_point_k``: a grid scan, then an ITP search of
its sign-change cell) and prints it next to the two reference points it
interpolates between: the plain-channel threshold 1/sqrt(r) at k=1 and the
deep-correction limit 1/r.  With ``--out`` the rows are written as CSV.
"""

import argparse
import math
import sys
from pathlib import Path

from treecast import ReportRow, critical_point_k, rows_to_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--r",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=(2, 3, 4),
        help="comma list of branching factors",
    )
    parser.add_argument("--k-max", type=int, default=5, help="largest period")
    parser.add_argument(
        "--tol", type=float, default=1e-9,
        help="bracket width, at least the float spacing at 1/sqrt(r) (about 1.1e-16)",
    )
    parser.add_argument("--out", type=Path, default=None, help="CSV output path")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="omit the CSV timestamp comment for byte-identical reruns",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rows: list[ReportRow] = []
    header = (
        f"{'r':>2s} {'k':>2s} {'p_c(k,r)':>10s} {'p_c*r':>8s} "
        f"{'1/sqrt(r)':>10s} {'1/r':>6s} {'monotone':>8s}"
    )
    print(header)
    print("-" * len(header))
    for r in args.r:
        for k in range(1, args.k_max + 1):
            est = critical_point_k(k, r, tol=args.tol)
            rows.append(
                ReportRow(
                    experiment="critical-table",
                    params={"r": r, "k": k, "monotone": est.objective_monotone},
                    quantity="p_c_k",
                    value=est.midpoint,
                    provenance="exact",
                    lo=est.p_lo,
                    hi=est.p_hi,
                    tolerance=est.tolerance,
                )
            )
            print(
                f"{r:2d} {k:2d} {est.midpoint:10.6f} {est.midpoint * r:8.4f} "
                f"{1.0 / math.sqrt(r):10.6f} {1.0 / r:6.4f} "
                f"{str(est.objective_monotone):>8s}"
            )
        print()

    if args.out is not None:
        args.out.write_text(rows_to_csv(rows, reproducible=args.reproducible))
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
