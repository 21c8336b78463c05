"""Cluster-moment ensemble summaries in the heavy-cluster regime.

For a supercritical but square-subcritical edge-retention rate (p*r > 1 and
p**2 * r < 1) the script samples level cluster-size histograms, prints the
second-moment floor and third-moment decay summaries per level, and probes
the root-cluster tail at the deepest level.  The summary rows are those of
``treecast fk-stats``, followed by a ``tail_frequency`` row; with ``--out``
they are written as CSV.
"""

import argparse
import sys

from treecast import ReportRow, tail_probe_Rk, wilson_interval
from treecast.cli import RunConfig, cmd_fk_stats, emit, parse_k_values, run_or_refuse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.3, help="edge-retention rate")
    parser.add_argument("--r", type=int, default=4, help="branching factor")
    parser.add_argument(
        "--k",
        type=parse_k_values,
        default="2,4,6,8,10",
        help="levels, e.g. 2,4,6 or 2..10",
    )
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--tail-factor",
        type=float,
        default=0.9,
        help="tail threshold is (factor * p * r)**k",
    )
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="omit the CSV timestamp comment for byte-identical reruns",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        "fk-stats", r=args.r, k=args.k, p=args.p, samples=args.samples, seed=args.seed,
        format="csv", out=args.out, reproducible=args.reproducible,
    )
    # The probe checks its own rules before its draws, and it draws only
    # from its own stream, so running it first moves no value.
    probe = tail_probe_Rk(
        args.p, args.r, max(cfg.periods()), args.tail_factor, args.samples, cfg.seed_spec()
    )
    rows = cmd_fk_stats(cfg)
    tail_lo, tail_hi = wilson_interval(
        probe.frequency * probe.n_samples, probe.n_samples
    )
    tail = ReportRow(
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
    if args.out is not None:
        emit(cfg, [*rows, tail])

    header = (
        f"{'k':>3s} {'z2 floor':>8s} {'min z2':>8s} {'med z2':>8s} "
        f"{'med z3':>8s} {'mean W':>8s} {'regime':>6s}"
    )
    print(f"p={args.p} r={args.r} samples={args.samples} seed={args.seed}")
    print(header)
    print("-" * len(header))
    # Each level's rows: z2_ratio_min, z2_ratio_median, z3_ratio_median,
    # W_mean, z2_floor.
    for i in range(0, len(rows), 5):
        z2_min, z2_median, z3_median, w_mean, floor = rows[i:i + 5]
        print(
            f"{floor.params['k']:3d} {floor.value:8.4f} {z2_min.value:8.4f} "
            f"{z2_median.value:8.4f} {z3_median.value:8.4f} "
            f"{w_mean.value:8.4f} {str(floor.params['regime_ok']):>6s}"
        )
    print(
        f"\ntail probe at k={probe.k}: P(R_k >= {probe.threshold:.4g}) "
        f"~= {probe.frequency:.4f} over {probe.n_samples} samples"
        + ("  [slow decay expected near p*r=1]" if probe.slow_decay_expected else "")
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_or_refuse(lambda: run(args))


if __name__ == "__main__":
    sys.exit(main())
