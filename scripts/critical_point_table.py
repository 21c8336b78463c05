"""Exact critical-rate table for k-step descent majority correction.

For each branching factor the script brackets the critical error-free rate of
the period-k scheme (``critical_point_k``: a grid scan, then an ITP search of
its sign-change cell) and prints it next to the two reference points it
interpolates between: the plain-channel threshold 1/sqrt(r) at k=1 and the
deep-correction limit 1/r.  The rows are those of ``treecast critical --r R
--k 1..K`` for each listed r; with ``--out`` they are written as CSV.
"""

import argparse
import sys

from treecast.cli import RunConfig, cmd_critical, emit, parse_k_values, run_or_refuse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--r",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=(2, 3, 4),
        help="comma list of branching factors",
    )
    parser.add_argument("--k-max", type=int, default=5, help="largest period")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="omit the CSV timestamp comment for byte-identical reruns",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    periods = parse_k_values(f"1..{args.k_max}")
    cfgs = [
        RunConfig("critical", r=r, k=periods, format="csv", out=args.out,
                  reproducible=args.reproducible)
        for r in args.r
    ]
    # The largest r has the widest count laws, so its call checks every
    # period of every listed r against the budget before the first search.
    by_r = {cfg.r: cmd_critical(cfg) for cfg in sorted(cfgs, key=lambda cfg: -cfg.r)}
    if args.out is not None:
        emit(cfgs[0], [row for r in args.r for row in by_r[r]])

    header = (
        f"{'r':>2s} {'k':>2s} {'p_c(k,r)':>10s} {'p_c*r':>8s} "
        f"{'1/sqrt(r)':>10s} {'1/r':>6s} {'monotone':>8s}"
    )
    print(header)
    print("-" * len(header))
    for r in args.r:
        # Each period's p_c_k and p_c_times_r rows, then the ks_reference row.
        *pairs, reference = by_r[r]
        for p_c, p_c_r in zip(pairs[::2], pairs[1::2]):
            print(
                f"{r:2d} {p_c.params['k']:2d} {p_c.value:10.6f} {p_c_r.value:8.4f} "
                f"{reference.value:10.6f} {1.0 / r:6.4f} "
                f"{str(p_c.params['monotone']):>8s}"
            )
        print()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_or_refuse(lambda: run(args))


if __name__ == "__main__":
    sys.exit(main())
