"""Sweep correction schemes across a noise grid and tabulate advantages.

For every (scheme, distortion rate) pair the script reports the Monte Carlo
advantage at the target depth with its confidence interval, next to the
exact plain-broadcast value at the same depth as a reference column.  The
schemes of one distortion rate run as one trajectory group, which draws each
flip mask once for all of them.  Results go to stdout as an aligned table
and, with ``--out``, to CSV with the same schema as the ``treecast`` CLI.
"""

import argparse
import math
import sys
from pathlib import Path

from treecast import (
    ChannelParams,
    CorrectionScheme,
    ReportRow,
    SeedSpec,
    delta_exact,
    mc_deltas,
    rows_to_csv,
)

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
    parser.add_argument("--out", type=Path, default=None, help="CSV output path")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="omit the CSV timestamp comment for byte-identical reruns",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    schemes = [CorrectionScheme.parse(text) for text in args.schemes]
    seed = SeedSpec(master_seed=args.seed)

    rows: list[ReportRow] = []
    print(
        f"r={args.r} depth={args.depth} replicates={args.replicates} "
        f"seed={args.seed}"
    )
    header = f"{'scheme':34s} {'eps':>5s} {'delta_hat':>9s} {'99% ci':>17s} {'plain exact':>11s}"
    print(header)
    print("-" * len(header))
    by_eps = {
        eps: mc_deltas(
            schemes, args.r, args.depth, ChannelParams(epsilon=eps), seed,
            args.replicates,
        )
        for eps in args.eps
    }
    for i, scheme in enumerate(schemes):
        for eps in args.eps:
            est = by_eps[eps][i]
            reference = delta_exact(args.depth, args.r, eps)
            rows.append(
                ReportRow(
                    experiment="correction-sweep",
                    params={
                        "scheme": scheme.descriptor(),
                        "r": args.r,
                        "eps": eps,
                        "level": args.depth,
                        "renormalized": est.renormalized,
                    },
                    quantity="delta_n",
                    value=est.delta_hat,
                    provenance="mc",
                    lo=est.ci[0],
                    hi=est.ci[1],
                )
            )
            print(
                f"{scheme.descriptor():34s} {eps:5.2f} {est.delta_hat:9.4f} "
                f"[{est.ci[0]:7.4f}, {est.ci[1]:7.4f}] {reference:11.4f}"
            )

    threshold = (1.0 - 1.0 / math.sqrt(args.r)) / 2.0
    print(f"\nplain-channel critical distortion rate: {threshold:.4f}")
    if args.out is not None:
        args.out.write_text(rows_to_csv(rows, reproducible=args.reproducible))
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
