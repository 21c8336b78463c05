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
``fk-stats``  cluster-moment summaries at chosen levels: the minimum,
              medians and mean of each level's ensemble arrays.
``verify``    run one named verification suite, whose gates come back as
              report rows; one status line per gate goes to stderr, and
              any failed gate exits 4.
``sweep``     fan a Monte Carlo advantage run over a (scheme, eps, depth)
              grid described by a JSON file, one row per cell.

Every command is deterministic given its arguments and seed.  Exit codes:
0 success, 2 argument/domain error, 3 budget error, 4 verification-gate
failure.  Each option is declared once, in ``OPTIONS``; the parser, the
config check, the defaults, the domain checks and the row echo are built
from it.  A JSON config file (``--config``) supplies defaults and explicit
flags win.  A key that names no option, or a value of the wrong JSON type,
there or in a sweep grid, is an argument error; a key of an option this
command does not take is ignored, so one file may serve several commands.
An ``--out`` whose directory is missing or not writable is refused before
any work.  Every report row echoes the resolved options its command takes.

The experiment scripts under ``scripts/`` build a :class:`RunConfig` too and
take their rows from the command they copy (:func:`cmd_critical`,
:func:`cmd_fk_stats`, :func:`sweep_grid`); they write them with
:func:`emit` and exit through :func:`run_or_refuse`, as :func:`main` does.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import typing
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

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
from .fk import sample_size_ensembles
from .report import EXACT, MC, ReportRow, rows_to_csv, rows_to_json
from .rng import SeedSpec
from .verify import SUITE_NAMES, run_suite

# The entry point, its parser, and what scripts/ takes from the CLI.
__all__ = ["RunConfig", "build_parser", "cmd_critical", "cmd_fk_stats", "emit", "main",
           "parse_k_values", "run_or_refuse", "sweep_grid"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_GATE = 4

_EXACT_TOL = 1e-12
_K_VALUES_HINT = "expected positive integers, a range like 1..4, or a comma list"


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
class Option:
    """One option, declared once.  ``key`` is both its flag (``--key``) and
    its config key; ``types`` are the JSON types a config may give it
    (``list[t]`` is a list of ``t``); ``commands`` take it; ``minimum`` is
    its least admitted value; ``echo`` puts it in every report row; ``flag``
    holds the rest of its ``add_argument`` keywords, whose ``type`` also
    converts a config value and whose ``choices`` also bound one."""

    key: str
    types: tuple[object, ...]
    commands: tuple[str, ...]
    default: object = None
    minimum: int | None = None
    echo: bool = False
    flag: dict[str, object] = dataclasses.field(default_factory=dict)


_COMMANDS = {
    "eps-k": "error-rate table over correction periods",
    "delta": "reconstruction advantage at one depth",
    "critical": "exact critical-rate table",
    "fk-stats": "cluster-moment ensemble summaries",
    "verify": "run one verification suite",
    "sweep": "advantage over a JSON-described grid",
}
_CHANNEL = ("eps-k", "delta", "fk-stats")

# In table order, which is the order of --help and of the echo in each row.
OPTIONS = (
    Option("r", (int,), ("eps-k", "delta", "critical", "fk-stats"), minimum=2, echo=True,
           flag={"type": int, "help": "branching rate"}),
    Option("k", (str, int, list[int]), ("eps-k", "critical", "fk-stats"),
           flag={"type": parse_k_values, "help": "periods, e.g. 3, 1..4 or 1,3,9"}),
    Option("eps", (int, float), _CHANNEL, echo=True,
           flag={"type": float, "help": "edge error rate in [0, 0.5)"}),
    Option("p", (int, float), _CHANNEL, echo=True,
           flag={"type": float, "help": "edge error-free rate in (0, 1]"}),
    Option("depth", (int,), ("delta",), minimum=0, echo=True,
           flag={"type": int, "help": "level whose advantage is reported"}),
    Option("scheme", (str,), ("delta",), "Identity", echo=True,
           flag={"help": 'descriptor like Identity or "WithinDescentMajority{k=2}"'}),
    Option("M", (int,), ("eps-k", "delta"), minimum=1,
           flag={"type": int, "help": "block size: delta runs BlockMajorityEveryStep{M=...}, "
                                      "eps-k also reports its block-majority error"}),
    Option("replicates", (int,), ("eps-k", "delta", "sweep"), 10_000, minimum=1, echo=True,
           flag={"type": int, "help": "Monte Carlo replicate count (default: a sweep "
                                      "grid's, else 10000)"}),
    Option("samples", (int,), ("fk-stats",), 200, minimum=2, echo=True,
           flag={"type": int, "help": "ensemble samples per level (default 200)"}),
    Option("seed", (int,), ("eps-k", "delta", "fk-stats", "verify", "sweep"), 0, minimum=0,
           echo=True, flag={"type": int, "help": "master seed (default: a sweep grid's, "
                                                 "verify's pinned seed, else 0)"}),
    Option("budget", (int,), ("eps-k", "delta", "critical"), minimum=2, echo=True,
           flag={"type": int, "help": "support budget override"}),
    Option("exact", (bool,), ("delta",), False,
           flag={"action": "store_true", "help": "use the exact engine instead of Monte Carlo"}),
    Option("format", (str,), tuple(_COMMANDS), "csv",
           flag={"choices": ("csv", "json"), "help": "output format (default csv)"}),
    Option("out", (str,), tuple(_COMMANDS), flag={"help": "write the report to this path"}),
    Option("reproducible", (bool,), tuple(_COMMANDS), False,
           flag={"action": "store_true",
                 "help": "suppress the timestamp header for byte-identical output"}),
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved arguments of one CLI run, validated before compute.
    Options the command does not take stay ``None``.  An ``out`` must name
    a file in an existing, writable directory."""

    command: str
    r: int | None = None
    k: tuple[range, ...] | None = None
    eps: float | None = None
    p: float | None = None
    depth: int | None = None
    scheme: str | None = None
    M: int | None = None
    replicates: int | None = None
    samples: int | None = None
    seed: int | None = None
    budget: int | None = None
    exact: bool | None = None
    format: str | None = None
    out: str | None = None
    reproducible: bool | None = None

    def __post_init__(self) -> None:
        if self.eps is not None and self.p is not None:
            raise ValueError("give either an error rate or an error-free rate, not both")
        if self.eps is not None or self.p is not None:
            check_epsilon(self.epsilon_value)
        for opt in OPTIONS:
            value, choices = getattr(self, opt.key), opt.flag.get("choices")
            if value is None:
                continue
            if opt.minimum is not None and value < opt.minimum:
                raise ValueError(f"{opt.key} must be >= {opt.minimum}, got {value}")
            if choices is not None and value not in choices:
                raise ValueError(f"{opt.key} must be one of {choices}, got {value!r}")
        if self.out is not None:
            folder = os.path.dirname(self.out) or "."
            writable = os.path.isdir(folder) and os.access(folder, os.W_OK)
            if not self.out or os.path.isdir(self.out) or not writable:
                raise ValueError(f"cannot write {self.out!r}: not a file in a writable directory")

    @property
    def epsilon_value(self) -> float:
        if self.eps is not None:
            return self.eps
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
        """The periods of ``k`` one by one, in order, never listed all at
        once."""
        return itertools.chain.from_iterable(self.k)

    def echo(self) -> dict[str, object]:
        """Resolved configuration carried in every report row: each echoed
        option that is set, in table order.  A channel is echoed as both
        its rates, and an exact run, which draws nothing, echoes no
        replicate count."""
        channel = {}
        if self.eps is not None or self.p is not None:
            channel = {"eps": self.epsilon_value, "p": self.p_value}
        out: dict[str, object] = {"command": self.command}
        for opt in OPTIONS:
            value = channel.get(opt.key, getattr(self, opt.key))
            if opt.echo and value is not None and not (opt.key == "replicates" and self.exact):
                out[opt.key] = value
        return out


def _row(cfg: RunConfig, quantity: str, value: float, provenance: str, *,
         params: dict[str, object] | None = None, lo: float | None = None,
         hi: float | None = None, tolerance: float | None = None) -> ReportRow:
    """A report row of ``cfg``'s command: its params are ``cfg``'s echo,
    then ``params``."""
    return ReportRow(
        experiment=cfg.command, params={**cfg.echo(), **(params or {})},
        quantity=quantity, value=float(value), provenance=provenance,
        lo=lo, hi=hi, tolerance=tolerance,
    )


# --- subcommand implementations ----------------------------------------------


def cmd_eps_k(cfg: RunConfig) -> list[ReportRow]:
    """Error-rate table over periods: exact under the support budget, Monte
    Carlo (flagged) when only sampling fits."""
    if cfg.r is None or cfg.k is None:
        raise ValueError("eps-k needs --r and --k")
    eps = cfg.epsilon_value
    for k in cfg.periods():  # refuse a fallback that cannot run before any period runs
        try:
            check_support(cfg.r, k, cfg.budget)
        except BudgetError:
            check_mc_delta([CorrectionScheme.identity()], cfg.r, k, cfg.replicates)
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
    if cfg.r is None or cfg.k is None:
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
    """Cluster-moment ensemble summaries per level, each read off the
    ensemble's per-sample arrays."""
    if cfg.r is None or cfg.k is None:
        raise ValueError("fk-stats needs --r and --k")
    rows = []
    ensembles = sample_size_ensembles(
        cfg.p_value, cfg.r, cfg.periods(), cfg.seed_spec(), cfg.samples
    )
    for ensemble in ensembles:
        kp = {"k": ensemble.k, "regime_ok": ensemble.regime_ok}
        z2, w = ensemble.z2_ratio, ensemble.W_k
        rows.append(
            _row(cfg, "z2_ratio_min", z2.min(), MC, params=kp, lo=z2.min(), hi=z2.max())
        )
        for quantity, ratio in (("z2_ratio_median", z2), ("z3_ratio_median", ensemble.z3_ratio)):
            lo, hi = median_interval(ratio)
            rows.append(_row(cfg, quantity, np.median(ratio), MC, params=kp, lo=lo, hi=hi))
        mean = float(w.mean())
        spread = Z_99 * float(w.std(ddof=1)) / math.sqrt(w.size)
        rows.append(
            _row(cfg, "W_mean", mean, MC, params=kp, lo=mean - spread, hi=mean + spread)
        )
        rows.append(
            _row(cfg, "z2_floor", ensemble.z2_floor, EXACT, params=kp, tolerance=0.0)
        )
    return rows


def cmd_verify(cfg: RunConfig, suite: str) -> tuple[list[ReportRow], bool]:
    """Run one verification suite; returns its rows, each with ``cfg``'s
    echo before its own params, and whether every gate passed.  One status
    line per row, then the suite's, goes to stderr."""
    rows = [
        dataclasses.replace(row, params={**cfg.echo(), **row.params})
        for row in run_suite(suite, seed=cfg.seed)
    ]
    for row in rows:
        status = "PASS" if row.params["passed"] else "FAIL"
        print(f"[{status}] {suite}:{row.quantity}  measured={row.value:.6g}  "
              f"required: {row.params['requirement']}", file=sys.stderr)
    passed = all(row.params["passed"] for row in rows)
    print(f"suite {suite}: {'all gates passed' if passed else 'GATE FAILURE'}",
          file=sys.stderr)
    return rows, passed


def cmd_sweep(cfg: RunConfig, grid_path: str, flags: set[str]) -> list[ReportRow]:
    """:func:`sweep_grid` on the grid of a JSON file."""
    grid = _load_json_object(grid_path, "sweep grid", _GRID_TYPES)
    for key in ("r", "schemes", "eps", "depths"):
        if key not in grid:
            raise ValueError(f"sweep grid file is missing {key!r}")
    # Unlike any other option, a sweep's replicates and seed come from the
    # flag, then the grid, then the config, then the default.
    cfg = dataclasses.replace(cfg, **{
        key: grid[key] for key in ("replicates", "seed") if key in grid and key not in flags
    })
    return sweep_grid(cfg, grid["r"], grid["schemes"], grid["eps"], grid["depths"])


def sweep_grid(
    cfg: RunConfig, r: int, schemes: list[str], eps_list: list[float], depths: list[int]
) -> list[ReportRow]:
    """Monte Carlo advantage over a (scheme, eps, depth) grid at rate ``r``,
    one row per cell, with ``cfg``'s replicates and seed.

    The schemes of each (eps, depth) pair run as one :func:`mc_deltas` group,
    which draws every flip mask once for all of them; the rows keep the
    grid's (scheme, eps, depth) order."""
    if not schemes or not eps_list or not depths:
        raise ValueError("sweep grid axes must be non-empty")
    base = dataclasses.replace(cfg, r=r, scheme="grid")
    replicates = base.replicates
    parsed = [CorrectionScheme.parse(text) for text in schemes]
    channels = [ChannelParams(epsilon=float(eps)) for eps in eps_list]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecast",
        description="Noisy broadcast on regular trees: exact engine, "
                    "self-correction schemes, and Monte Carlo estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        if command == "verify":
            sp.add_argument("suite", choices=SUITE_NAMES)
        if command == "sweep":
            sp.add_argument("grid", help="JSON file with r, schemes, eps, depths "
                                           "and optionally replicates, seed")
        channel = sp.add_mutually_exclusive_group() if command in _CHANNEL else None
        for opt in OPTIONS:
            if command in opt.commands:
                target = channel if opt.key in ("eps", "p") else sp
                target.add_argument(f"--{opt.key}", default=None, **opt.flag)
        sp.add_argument("--config", default=None,
                        help="JSON file of defaults; explicit flags win")
    return parser


_CONFIG_TYPES = {opt.key: opt.types for opt in OPTIONS}

# The JSON types of a sweep grid file's keys, in the same notation.
_GRID_TYPES = {"r": (int,), "schemes": (list[str],), "eps": (list[int | float],),
               "depths": (list[int],), "replicates": (int,), "seed": (int,)}


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
    """Read a JSON object whose keys ``types`` all names, and check the JSON
    type of each."""
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"{what} file must hold a JSON object")
    for key in sorted(loaded.keys() - types.keys()):
        raise ValueError(f"unknown {what} key {key!r}; expected one of {', '.join(types)}")
    for key, kinds in types.items():
        if key in loaded and not _json_type_ok(loaded[key], kinds):
            raise ValueError(f"{what} key {key!r} has the wrong JSON type: {loaded[key]!r}")
    return loaded


def _build_run_config(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """Resolve each option the command takes from its flag, else the config
    file, else its default; returns the config and the keys given as flags.
    Two rules are not uniform: ``verify``'s seed defaults to the suite's
    pinned seed, and ``sweep`` ranks its grid between flags and config
    (:func:`cmd_sweep`)."""
    config = {} if args.config is None else _load_json_object(
        args.config, "config", _CONFIG_TYPES
    )
    taken = [opt for opt in OPTIONS if args.command in opt.commands]
    flags = {opt.key for opt in taken if getattr(args, opt.key) is not None}
    if flags & {"eps", "p"}:  # a channel flag replaces the config's channel
        config = {key: v for key, v in config.items() if key not in ("eps", "p")}
    values = {}
    for opt in taken:
        if opt.key in flags:
            values[opt.key] = getattr(args, opt.key)
        elif opt.key in config:
            convert = opt.flag.get("type")
            values[opt.key] = convert(config[opt.key]) if convert else config[opt.key]
        elif (args.command, opt.key) == ("verify", "seed"):
            values[opt.key] = None
        else:
            values[opt.key] = opt.default
    return RunConfig(command=args.command, **values), flags


def emit(cfg: RunConfig, rows: list[ReportRow]) -> None:
    """Write ``rows`` in ``cfg``'s format to its ``out``, else to stdout."""
    text = rows_to_csv(rows, cfg.reproducible) if cfg.format == "csv" else rows_to_json(rows)
    if cfg.out is not None:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {cfg.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def run_or_refuse(work: Callable[[], int]) -> int:
    """The exit code ``work()`` returns, or that of its refusal: 3 for a
    budget error, 2 for any other argument or domain error, each with one
    line on stderr."""
    try:
        return work()
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _run(args: argparse.Namespace) -> int:
    cfg, flags = _build_run_config(args)
    passed = True
    if args.command == "verify":
        rows, passed = cmd_verify(cfg, args.suite)
    elif args.command == "sweep":
        rows = cmd_sweep(cfg, args.grid, flags)
    else:
        run = {"eps-k": cmd_eps_k, "delta": cmd_delta, "critical": cmd_critical,
               "fk-stats": cmd_fk_stats}[args.command]
        rows = run(cfg)
    emit(cfg, rows)
    return EXIT_OK if passed else EXIT_GATE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_or_refuse(lambda: _run(args))


if __name__ == "__main__":
    sys.exit(main())
