"""Sweep correction schemes across a noise grid and tabulate advantages.

For every (scheme, distortion rate) pair the script reports the Monte Carlo
advantage at the target depth with its confidence interval, next to the
exact plain-broadcast value at the same depth as a reference column.  The
rows are those of ``treecast sweep`` on the same grid, whose schemes of one
distortion rate run as one trajectory group, drawing each flip mask once
for all of them.  Results go to stdout as an aligned table and, with
``--out``, to CSV.
"""

import argparse
import math
import sys

from treecast import delta_exact
from treecast.cli import RunConfig, emit, run_or_refuse, sweep_grid

DEFAULT_SCHEMES = (
    "Identity",
    "WithinDescentMajority{k=2}",
    "BlockMajorityEveryStep{M=4}",
    "MinorityRemovalEveryStep{M=4}",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=int, default=2, help="branching factor")
    parser.add_argument("--depth", type=int, default=8, help="deepest level")
    parser.add_argument(
        "--eps",
        type=lambda s: tuple(float(x) for x in s.split(",")),
        default=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
        help="comma list of distortion rates",
    )
    parser.add_argument(
        "--schemes",
        type=lambda s: tuple(s.split(",")),
        default=DEFAULT_SCHEMES,
        help="comma list of scheme descriptors",
    )
    parser.add_argument("--replicates", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="omit the CSV timestamp comment for byte-identical reruns",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        "sweep", replicates=args.replicates, seed=args.seed, format="csv", out=args.out,
        reproducible=args.reproducible,
    )
    rows = sweep_grid(cfg, args.r, args.schemes, args.eps, [args.depth])
    if args.out is not None:
        emit(cfg, rows)

    print(
        f"r={args.r} depth={args.depth} replicates={args.replicates} "
        f"seed={args.seed}"
    )
    header = f"{'scheme':34s} {'eps':>5s} {'delta_hat':>9s} {'99% ci':>17s} {'plain exact':>11s}"
    print(header)
    print("-" * len(header))
    for row in rows:
        eps = row.params["cell_eps"]
        reference = delta_exact(args.depth, args.r, eps)
        print(
            f"{row.params['scheme']:34s} {eps:5.2f} {row.value:9.4f} "
            f"[{row.lo:7.4f}, {row.hi:7.4f}] {reference:11.4f}"
        )

    threshold = (1.0 - 1.0 / math.sqrt(args.r)) / 2.0
    print(f"\nplain-channel critical distortion rate: {threshold:.4f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_or_refuse(lambda: run(args))


if __name__ == "__main__":
    sys.exit(main())
