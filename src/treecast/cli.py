"""Command-line surface: experiments and verification with CSV/JSON output.

Subcommands
-----------
``eps-k``     effective / fraction-pick error-rate table over a range of
              correction periods (exact where the support budget allows,
              Monte Carlo fallback flagged by provenance).
``delta``     reconstruction advantage of a scheme at one depth, exact
              (``--exact``) or Monte Carlo.
``critical``  exact critical-rate brackets over a range of periods, with
              diagnostic rows relating them to the plain threshold.
``fk-stats``  cluster-moment ensemble summaries at chosen levels.
``verify``    run one named verification suite; exit 4 on any failed gate.
``sweep``     fan a Monte Carlo advantage run over a (scheme, eps, depth)
              grid described by a JSON file, one row per cell.

Every command is deterministic given its arguments and seed.  Exit codes:
0 success, 2 argument/domain error, 3 budget error, 4 verification-gate
failure.  A JSON config file (``--config``) supplies defaults; explicit
flags win, and a value of the wrong JSON type, there or in a sweep grid,
is an argument error.  The resolved configuration is echoed into every
report row.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
import typing
from collections.abc import Iterator
from dataclasses import dataclass

from .budget import BudgetError, check_support
from .channel import ChannelParams, check_epsilon
from .correction import CorrectionScheme
from .estimators import (
    Z_99, check_mc_delta, mc_delta, mc_deltas, median_interval, wilson_interval,
)
from .exact import (
    block_error_rate,
    critical_point_k,
    effective_error_rate,
    fraction_error_rate,
    scheme_delta,
)
from .fk import moment_summary, sample_size_ensembles
from .report import EXACT, MC, ReportRow, rows_to_csv, rows_to_json
from .rng import SeedSpec
from .verify import SUITE_NAMES, results_to_rows, run_suite

__all__ = ["RunConfig", "build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_GATE = 4

_EXACT_TOL = 1e-12
_K_VALUES_HINT = "expected positive integers, a range like 1..4, or a comma list"
_FORMATS = ("csv", "json")


def parse_k_values(value: str | int | list[int]) -> tuple[range, ...]:
    """Parse a period list: a flag or config string like ``"3"``, ``"1..4"``
    or ``"1,3,9"``, or a config int or list, into its runs of consecutive
    periods, in order (``"1..4,9"`` is ``(range(1, 5), range(9, 10))``).
    A range stays unexpanded, so a rule or budget that refuses a period
    does so before a wide range is listed.  The one home of the period
    rule, at least one period and each >= 1; raises ``ArgumentTypeError``."""
    runs = []
    if isinstance(value, str):
        try:
            for chunk in value.split(","):
                first, dots, last = chunk.partition("..")
                lo = int(first)
                hi = int(last) if dots else lo
                if hi < lo:
                    raise ValueError
                runs.append(range(lo, hi + 1))
        except ValueError:
            runs = []  # refused below, as an empty list is
    else:
        runs = [range(k, k + 1) for k in ([value] if isinstance(value, int) else value)]
    if not runs:
        raise argparse.ArgumentTypeError(f"{_K_VALUES_HINT}, got {value!r}")
    if min(run.start for run in runs) < 1:
        raise argparse.ArgumentTypeError(f"periods must be >= 1, got {value!r}")
    return tuple(runs)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved arguments of one CLI run, validated before compute."""

    command: str
    r: int | None = None
    depth: int | None = None
    epsilon: float | None = None
    p: float | None = None
    scheme: str = "Identity"
    replicates: int = 10_000
    seed: int = 0
    k_values: tuple[range, ...] | None = None
    M: int | None = None
    samples: int = 200
    budget: int | None = None
    out: str | None = None
    fmt: str = "csv"
    reproducible: bool = False
    exact: bool = False

    def __post_init__(self) -> None:
        if self.epsilon is not None and self.p is not None:
            raise ValueError("give either an error rate or an error-free rate, not both")
        if self.epsilon is not None or self.p is not None:
            check_epsilon(self.epsilon_value)
        if self.r is not None and self.r < 2:
            raise ValueError(f"branching rate must be >= 2, got {self.r}")
        if self.depth is not None and self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.M is not None and self.M < 1:
            raise ValueError(f"block size must be >= 1, got {self.M}")
        if self.budget is not None and self.budget < 2:
            raise ValueError(f"budget must be >= 2, got {self.budget}")
        if self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.fmt!r}")

    @property
    def epsilon_value(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        if self.p is not None:
            return (1.0 - self.p) / 2.0
        raise ValueError("this command needs an error rate (--eps or --p)")

    @property
    def p_value(self) -> float:
        if self.p is not None:
            return self.p
        return 1.0 - 2.0 * self.epsilon_value

    def seed_spec(self) -> SeedSpec:
        return SeedSpec(master_seed=self.seed)

    def periods(self) -> Iterator[int]:
        """The periods of ``k_values`` one by one, in order, never listed
        all at once."""
        return itertools.chain.from_iterable(self.k_values)

    def echo(self) -> dict[str, object]:
        """Resolved configuration carried in every report row."""
        out: dict[str, object] = {"command": self.command}
        if self.r is not None:
            out["r"] = self.r
        if self.epsilon is not None or self.p is not None:
            out["eps"] = self.epsilon_value
            out["p"] = self.p_value
        if self.depth is not None:
            out["depth"] = self.depth
        if self.command in ("delta", "sweep"):
            out["scheme"] = self.scheme
        if self.command in ("delta", "eps-k", "sweep") and not self.exact:
            out["replicates"] = self.replicates
        if self.command == "fk-stats":
            out["samples"] = self.samples
        if self.command in ("delta", "eps-k", "fk-stats", "sweep"):
            out["seed"] = self.seed
        if self.budget is not None:
            out["budget"] = self.budget
        return out


def _row(
    cfg: RunConfig,
    quantity: str,
    value: float,
    provenance: str,
    *,
    params: dict[str, object] | None = None,
    lo: float | None = None,
    hi: float | None = None,
    tolerance: float | None = None,
) -> ReportRow:
    merged = cfg.echo()
    if params:
        merged.update(params)
    return ReportRow(
        experiment=cfg.command,
        params=merged,
        quantity=quantity,
        value=float(value),
        provenance=provenance,
        lo=lo,
        hi=hi,
        tolerance=tolerance,
    )


# --- subcommand implementations ----------------------------------------------


def cmd_eps_k(cfg: RunConfig) -> list[ReportRow]:
    """Error-rate table over periods: exact under the support budget, Monte
    Carlo (flagged) when only sampling fits."""
    if cfg.r is None or cfg.k_values is None:
        raise ValueError("eps-k needs --r and --k")
    eps = cfg.epsilon_value
    rows = []
    for k in cfg.periods():
        kp = {"k": k}
        eps_tilde = fraction_error_rate(k, eps)
        try:
            eps_k = effective_error_rate(k, cfg.r, eps, cfg.budget)
            ci, provenance, tolerance = None, EXACT, _EXACT_TOL
        except BudgetError:
            # The majority of level k from a +1 root errs on a minus sign and
            # half the time on a tie.
            n = cfg.replicates
            est = mc_delta(
                CorrectionScheme.identity(), cfg.r, k, ChannelParams(epsilon=eps),
                cfg.seed_spec(), n,
            )
            error_mass = est.minus_count + 0.5 * (n - est.plus_count - est.minus_count)
            eps_k, ci = error_mass / n, wilson_interval(error_mass, n)
            provenance, tolerance = MC, None

        def derived(quantity: str, f) -> ReportRow:
            """Row of ``f(eps_k)``, its interval the image of ``eps_k``'s."""
            lo, hi = (None, None) if ci is None else sorted((f(ci[0]), f(ci[1])))
            return _row(cfg, quantity, f(eps_k), provenance, params=kp,
                        lo=lo, hi=hi, tolerance=tolerance)

        rows += [
            derived("eps_k", lambda x: x),
            _row(cfg, "eps_tilde_k", eps_tilde, EXACT, params=kp, tolerance=_EXACT_TOL),
            derived("t_stat", lambda x: eps_tilde - x),
            derived("p_k", lambda x: 1.0 - 2.0 * x),
        ]
    if cfg.M is not None:
        rows.append(
            _row(
                cfg, "eps_bar_M", block_error_rate(cfg.M, eps), EXACT,
                params={"M": cfg.M}, tolerance=_EXACT_TOL,
            )
        )
    return rows


def cmd_delta(cfg: RunConfig) -> list[ReportRow]:
    """Reconstruction advantage of one scheme at one depth."""
    if cfg.r is None or cfg.depth is None:
        raise ValueError("delta needs --r and --depth")
    descriptor = cfg.scheme
    if cfg.M is not None:
        if descriptor != "Identity":
            raise ValueError("give either --M or --scheme, not both")
        descriptor = f"BlockMajorityEveryStep{{M={cfg.M}}}"
    scheme = CorrectionScheme.parse(descriptor)
    params = {"scheme": scheme.descriptor(), "level": cfg.depth}
    ch = ChannelParams(epsilon=cfg.epsilon_value)
    if cfg.exact:
        value = scheme_delta(scheme, cfg.r, cfg.depth, ch, cfg.budget)
        return [
            _row(cfg, "delta_n", value, EXACT, params=params, tolerance=_EXACT_TOL)
        ]
    est = mc_delta(scheme, cfg.r, cfg.depth, ch, cfg.seed_spec(), cfg.replicates)
    params["renormalized"] = est.renormalized
    return [
        _row(
            cfg, "delta_n", est.delta_hat, MC, params=params,
            lo=est.ci[0], hi=est.ci[1],
        )
    ]


def cmd_critical(cfg: RunConfig) -> list[ReportRow]:
    """Critical error-free rates over periods, with diagnostic rows."""
    if cfg.r is None or cfg.k_values is None:
        raise ValueError("critical needs --r and --k")
    for k in cfg.periods():
        check_support(cfg.r, k, cfg.budget)
    rows = []
    for k in cfg.periods():
        est = critical_point_k(k, cfg.r, tol=1e-9, budget=cfg.budget)
        kp = {"k": k, "monotone": est.objective_monotone}
        rows.append(
            _row(
                cfg, "p_c_k", est.midpoint, EXACT, params=kp,
                lo=est.p_lo, hi=est.p_hi, tolerance=est.tolerance,
            )
        )
        rows.append(
            _row(
                cfg, "p_c_times_r", est.midpoint * cfg.r, EXACT, params=kp,
                tolerance=est.tolerance * cfg.r,
            )
        )
    rows.append(
        _row(
            cfg, "ks_reference", 1.0 / math.sqrt(cfg.r), EXACT,
            params={"meaning": "plain-channel critical rate 1/sqrt(r)"},
            tolerance=0.0,
        )
    )
    return rows


def cmd_fk_stats(cfg: RunConfig) -> list[ReportRow]:
    """Cluster-moment ensemble summaries per level."""
    if cfg.r is None or cfg.k_values is None:
        raise ValueError("fk-stats needs --r and --k")
    p = cfg.p_value
    rows = []
    ensembles = sample_size_ensembles(p, cfg.r, cfg.periods(), cfg.seed_spec(), cfg.samples)
    for ensemble in ensembles:
        summary = moment_summary(ensemble)
        kp = {"k": summary.k, "regime_ok": summary.regime_ok}
        z2, z3, w = ensemble.z2_ratio, ensemble.z3_ratio, ensemble.W_k
        rows.append(
            _row(
                cfg, "z2_ratio_min", summary.min_z2_ratio, MC, params=kp,
                lo=float(z2.min()), hi=float(z2.max()),
            )
        )
        med_lo, med_hi = median_interval(z2)
        rows.append(
            _row(
                cfg, "z2_ratio_median", summary.median_z2_ratio, MC, params=kp,
                lo=med_lo, hi=med_hi,
            )
        )
        med_lo, med_hi = median_interval(z3)
        rows.append(
            _row(
                cfg, "z3_ratio_median", summary.median_z3_ratio, MC, params=kp,
                lo=med_lo, hi=med_hi,
            )
        )
        spread = Z_99 * float(w.std(ddof=1)) / math.sqrt(w.size)
        rows.append(
            _row(
                cfg, "W_mean", summary.mean_W, MC, params=kp,
                lo=summary.mean_W - spread, hi=summary.mean_W + spread,
            )
        )
        rows.append(
            _row(
                cfg, "z2_floor", summary.z2_floor, EXACT, params=kp, tolerance=0.0
            )
        )
    return rows


def cmd_verify(cfg: RunConfig, suite: str, seed_given: bool) -> tuple[list[ReportRow], bool]:
    """Run one verification suite; returns its rows and overall pass."""
    results = run_suite(suite, seed=cfg.seed if seed_given else None)
    base = cfg.echo()
    if seed_given:
        base["seed"] = cfg.seed
    rows = []
    for row in results_to_rows(results):
        rows.append(dataclasses.replace(row, params={**base, **row.params}))
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.suite}:{res.name}  measured={res.measured:.6g}  "
              f"required: {res.requirement}", file=sys.stderr)
    passed = all(res.passed for res in results)
    print(f"suite {suite}: {'all gates passed' if passed else 'GATE FAILURE'}",
          file=sys.stderr)
    return rows, passed


def cmd_sweep(cfg: RunConfig, grid_path: str, overrides: dict[str, bool]) -> list[ReportRow]:
    """Monte Carlo advantage over a (scheme, eps, depth) grid, one row per cell.

    The schemes of each (eps, depth) pair run as one :func:`mc_deltas` group,
    which draws every flip mask once for all of them; the rows keep the
    grid's (scheme, eps, depth) order."""
    grid = _load_json_object(grid_path, "sweep grid", _GRID_TYPES)
    for key in ("r", "schemes", "eps", "depths"):
        if key not in grid:
            raise ValueError(f"sweep grid file is missing {key!r}")
    r, schemes, depths = grid["r"], grid["schemes"], grid["depths"]
    eps_list = [float(e) for e in grid["eps"]]
    if not schemes or not eps_list or not depths:
        raise ValueError("sweep grid axes must be non-empty")
    replicates = cfg.replicates if overrides["replicates"] else grid.get(
        "replicates", cfg.replicates
    )
    seed = cfg.seed if overrides["seed"] else grid.get("seed", cfg.seed)
    base = dataclasses.replace(
        cfg, r=r, replicates=replicates, seed=seed, scheme="grid"
    )
    parsed = [CorrectionScheme.parse(text) for text in schemes]
    channels = [ChannelParams(epsilon=eps) for eps in eps_list]
    for depth in depths:
        check_mc_delta(parsed, r, depth, replicates)
    # groups[e, d][i] is scheme i's estimate at eps e and depth d.
    groups = {}
    for e, ch in enumerate(channels):
        for d, depth in enumerate(depths):
            groups[e, d] = mc_deltas(parsed, r, depth, ch, base.seed_spec(), replicates)
    rows = []
    for i, scheme in enumerate(parsed):
        for e, ch in enumerate(channels):
            for d, depth in enumerate(depths):
                est = groups[e, d][i]
                params = {
                    "scheme": scheme.descriptor(),
                    "cell_eps": ch.epsilon,
                    "level": depth,
                    "renormalized": est.renormalized,
                }
                rows.append(
                    _row(
                        base, "delta_n", est.delta_hat, MC, params=params,
                        lo=est.ci[0], hi=est.ci[1],
                    )
                )
    return rows


# --- argument parsing and dispatch -------------------------------------------


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=_FORMATS, default=None,
                    help="output format (default csv)")
    sp.add_argument("--out", default=None, help="write the report to this path")
    sp.add_argument("--reproducible", action="store_true",
                    help="suppress the timestamp header for byte-identical output")
    sp.add_argument("--config", default=None,
                    help="JSON file of defaults; explicit flags win")


def _add_channel_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--eps", type=float, default=None, help="edge error rate in [0, 0.5)")
    group.add_argument("--p", type=float, default=None, help="edge error-free rate in (0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecast",
        description="Noisy broadcast on regular trees: exact engine, "
                    "self-correction schemes, and Monte Carlo estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eps-k", help="error-rate table over correction periods")
    sp.add_argument("--r", type=int, default=None, help="branching rate")
    sp.add_argument("--k", type=parse_k_values, default=None,
                    help="period or range, e.g. 3 or 1..4")
    sp.add_argument("--M", type=int, default=None,
                    help="also report the block-majority error for this block size")
    sp.add_argument("--replicates", type=int, default=None,
                    help="Monte Carlo fallback sample count")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--budget", type=int, default=None, help="support budget override")
    _add_channel_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("delta", help="reconstruction advantage at one depth")
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--scheme", default=None,
                    help='descriptor like Identity or "WithinDescentMajority{k=2}"')
    sp.add_argument("--M", type=int, default=None,
                    help="shorthand for BlockMajorityEveryStep{M=...}")
    sp.add_argument("--replicates", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--exact", action="store_true",
                    help="use the exact engine instead of Monte Carlo")
    _add_channel_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("critical", help="exact critical-rate table")
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--k", type=parse_k_values, default=None)
    sp.add_argument("--budget", type=int, default=None)
    _add_output_flags(sp)

    sp = sub.add_parser("fk-stats", help="cluster-moment ensemble summaries")
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--k", type=parse_k_values, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    _add_channel_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("verify", help="run one verification suite")
    sp.add_argument("suite", choices=SUITE_NAMES)
    sp.add_argument("--seed", type=int, default=None,
                    help="override the suite's pinned seed")
    _add_output_flags(sp)

    sp = sub.add_parser("sweep", help="advantage over a JSON-described grid")
    sp.add_argument("grid", help="JSON file with r, schemes, eps, depths")
    sp.add_argument("--replicates", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    _add_output_flags(sp)

    return parser


# The JSON types a config file may give each key it sets; ``list[t]`` is a
# list of ``t``.
_CONFIG_TYPES: dict[str, tuple[object, ...]] = {
    **dict.fromkeys(("r", "depth", "M", "budget", "replicates", "seed", "samples"), (int,)),
    **dict.fromkeys(("eps", "p"), (int, float)),
    "k": (str, int, list[int]),
    **dict.fromkeys(("scheme", "out", "format"), (str,)),
    **dict.fromkeys(("reproducible", "exact"), (bool,)),
}

# The JSON types of a sweep grid file's keys, in the same notation.
_GRID_TYPES: dict[str, tuple[object, ...]] = {
    **dict.fromkeys(("r", "replicates", "seed"), (int,)),
    "schemes": (list[str],),
    "eps": (list[int | float],),
    "depths": (list[int],),
}


def _json_type_ok(value: object, kinds: tuple[object, ...]) -> bool:
    if isinstance(value, bool):
        return bool in kinds
    if isinstance(value, list):
        return any(
            typing.get_origin(kind) is list
            and all(_json_type_ok(v, typing.get_args(kind)) for v in value)
            for kind in kinds
        )
    return any(typing.get_origin(kind) is not list and isinstance(value, kind) for kind in kinds)


def _load_json_object(
    path: str, what: str, types: dict[str, tuple[object, ...]]
) -> dict[str, object]:
    """Read a JSON object and check the JSON type of each key ``types`` names."""
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"{what} file must hold a JSON object")
    for key, kinds in types.items():
        if key in loaded and not _json_type_ok(loaded[key], kinds):
            raise ValueError(f"{what} key {key!r} has the wrong JSON type: {loaded[key]!r}")
    return loaded


def _load_config(path: str | None) -> dict[str, object]:
    return {} if path is None else _load_json_object(path, "config", _CONFIG_TYPES)


def _pick(args: argparse.Namespace, config: dict, key: str, default):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _build_run_config(args: argparse.Namespace) -> tuple[RunConfig, dict[str, bool]]:
    config = _load_config(getattr(args, "config", None))
    k_values = getattr(args, "k", None)
    if k_values is None and "k" in config:
        k_values = parse_k_values(config["k"])
    flag_eps = getattr(args, "eps", None)
    flag_p = getattr(args, "p", None)
    if flag_eps is not None or flag_p is not None:
        eps, p = flag_eps, flag_p
    else:
        eps, p = config.get("eps"), config.get("p")
    cfg = RunConfig(
        command=args.command,
        r=_pick(args, config, "r", None),
        depth=_pick(args, config, "depth", None),
        epsilon=None if eps is None else float(eps),
        p=None if p is None else float(p),
        scheme=str(_pick(args, config, "scheme", "Identity")),
        replicates=int(_pick(args, config, "replicates", 10_000)),
        seed=int(_pick(args, config, "seed", 0)),
        k_values=k_values,
        M=_pick(args, config, "M", None),
        samples=int(_pick(args, config, "samples", 200)),
        budget=_pick(args, config, "budget", None),
        out=_pick(args, config, "out", None),
        fmt=str(_pick(args, config, "format", "csv")),
        reproducible=bool(getattr(args, "reproducible", False)
                          or config.get("reproducible", False)),
        exact=bool(getattr(args, "exact", False) or config.get("exact", False)),
    )
    overrides = {
        "replicates": getattr(args, "replicates", None) is not None,
        "seed": getattr(args, "seed", None) is not None,
    }
    return cfg, overrides


def _emit(cfg: RunConfig, rows: list[ReportRow]) -> None:
    text = rows_to_csv(rows, cfg.reproducible) if cfg.fmt == "csv" else rows_to_json(rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {cfg.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    passed = True
    try:
        cfg, overrides = _build_run_config(args)
        if args.command == "eps-k":
            rows = cmd_eps_k(cfg)
        elif args.command == "delta":
            rows = cmd_delta(cfg)
        elif args.command == "critical":
            rows = cmd_critical(cfg)
        elif args.command == "fk-stats":
            rows = cmd_fk_stats(cfg)
        elif args.command == "verify":
            rows, passed = cmd_verify(cfg, args.suite, overrides["seed"])
        else:
            rows = cmd_sweep(cfg, args.grid, overrides)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(cfg, rows)
    return EXIT_OK if passed else EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
