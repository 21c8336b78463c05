"""Cluster-moment ensemble summaries in the heavy-cluster regime.

For a supercritical but square-subcritical edge-retention rate (p*r > 1 and
p**2 * r < 1) the script samples level cluster-size histograms, prints the
second-moment floor and third-moment decay summaries per level, and probes
the root-cluster tail at the deepest level.  With ``--out`` the rows are
written as CSV.
"""

import argparse
import math
import sys
from pathlib import Path

from treecast import (
    ReportRow,
    SeedSpec,
    Z_99,
    median_interval,
    moment_summary,
    rows_to_csv,
    sample_size_ensembles,
    tail_probe_Rk,
    wilson_interval,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.3, help="edge-retention rate")
    parser.add_argument("--r", type=int, default=4, help="branching factor")
    parser.add_argument(
        "--k",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=(2, 4, 6, 8, 10),
        help="comma list of levels",
    )
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--tail-factor",
        type=float,
        default=0.9,
        help="tail threshold is (factor * p * r)**k",
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
    seed = SeedSpec(master_seed=args.seed)
    ensembles = sample_size_ensembles(args.p, args.r, args.k, seed, args.samples)

    rows: list[ReportRow] = []
    header = (
        f"{'k':>3s} {'z2 floor':>8s} {'min z2':>8s} {'med z2':>8s} "
        f"{'med z3':>8s} {'mean W':>8s} {'regime':>6s}"
    )
    print(f"p={args.p} r={args.r} samples={args.samples} seed={args.seed}")
    print(header)
    print("-" * len(header))
    for ensemble in ensembles:
        s = moment_summary(ensemble)
        z2, z3, w = ensemble.z2_ratio, ensemble.z3_ratio, ensemble.W_k
        w_half = Z_99 * float(w.std(ddof=1)) / math.sqrt(w.size)
        params = {"p": args.p, "r": args.r, "k": s.k, "regime_ok": s.regime_ok}
        for quantity, value, lo, hi in (
            ("z2_ratio_min", s.min_z2_ratio, float(z2.min()), float(z2.max())),
            ("z2_ratio_median", s.median_z2_ratio, *median_interval(z2)),
            ("z3_ratio_median", s.median_z3_ratio, *median_interval(z3)),
            ("W_mean", s.mean_W, s.mean_W - w_half, s.mean_W + w_half),
        ):
            rows.append(
                ReportRow(
                    experiment="fk-moments",
                    params=params,
                    quantity=quantity,
                    value=float(value),
                    provenance="mc",
                    lo=float(lo),
                    hi=float(hi),
                )
            )
        print(
            f"{s.k:3d} {s.z2_floor:8.4f} {s.min_z2_ratio:8.4f} "
            f"{s.median_z2_ratio:8.4f} {s.median_z3_ratio:8.4f} "
            f"{s.mean_W:8.4f} {str(s.regime_ok):>6s}"
        )

    deepest = max(args.k)
    probe = tail_probe_Rk(
        args.p, args.r, deepest, args.tail_factor, args.samples, seed
    )
    tail_lo, tail_hi = wilson_interval(
        probe.frequency * probe.n_samples, probe.n_samples
    )
    rows.append(
        ReportRow(
            experiment="fk-moments",
            params={
                "p": args.p,
                "r": args.r,
                "k": probe.k,
                "threshold": probe.threshold,
                "slow_decay_expected": probe.slow_decay_expected,
            },
            quantity="tail_frequency",
            value=probe.frequency,
            provenance="mc",
            lo=tail_lo,
            hi=tail_hi,
        )
    )
    print(
        f"\ntail probe at k={probe.k}: P(R_k >= {probe.threshold:.4g}) "
        f"~= {probe.frequency:.4f} over {probe.n_samples} samples"
        + ("  [slow decay expected near p*r=1]" if probe.slow_decay_expected else "")
    )

    if args.out is not None:
        args.out.write_text(rows_to_csv(rows, reproducible=args.reproducible))
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
