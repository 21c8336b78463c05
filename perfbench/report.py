"""Run every workload several times and print each metric by name and unit.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--runs 11] [--trace]

Each run is one fresh ``perfbench/run.py`` process with its own seed
(``0 .. runs-1``) and the ``run_seconds`` of ``BENCHMARK.json``, issued one
after the other.  For every workload of ``BENCHMARK.json`` the table gives
each end-to-end metric's median over runs, the highest percentile that has
at least ten runs beyond it (none below eleven runs, hence the default of
11), the run count, and the spread (distance between the first and third
quartiles over the median) next to the metric's bound in ``BENCHMARK.json``.
``fail_ratio`` is the rows wrong or missing over the rows expected, summed
over runs.  With ``--trace`` one traced run per workload follows and its
per-layer metrics are printed too.  The raw results go to
``perfbench/out/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import OUT, ROOT

RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def high_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten values above it."""
    n = len(values)
    if n < 11:
        return None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=11)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary: dict[str, dict] = {}
    print(f"{'workload':<10} {'metric':<13} {'unit':<6} {'runs':>4} {'median':>12} "
          f"{'high pct':>16} {'spread':>7} {'bound':>6}")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in range(args.runs)]
        stats = {}
        for name, unit in ((m["name"], m["unit"]) for m in spec["end_to_end"]):
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = {"unit": unit, "runs": len(values),
                           "median": statistics.median(values),
                           "high_percentile": high_percentile(values),
                           "spread": spread(values), "bound": bounds[name]}
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        stats["fail_ratio"] = {"unit": "ratio", "runs": len(runs),
                               "value": failed / attempted}
        for name, st in stats.items():
            if name == "fail_ratio":
                print(f"{workload:<10} {name:<13} {st['unit']:<6} {st['runs']:>4} "
                      f"{st['value']:>12.6g}")
                continue
            high = st["high_percentile"]
            high_text = f"{high[0]} {high[1]:.6g}" if high else "n/a"
            print(f"{workload:<10} {name:<13} {st['unit']:<6} {st['runs']:>4} "
                  f"{st['median']:>12.6g} {high_text:>16} {st['spread']:>7.3f} "
                  f"{st['bound']:>6}")
        if not all(r["result"]["correct"] for r in runs):
            print(f"{workload:<10} INCORRECT output in at least one run")
        entry = summary[workload] = {"env": runs[0]["detail"]["env"], "stats": stats,
                                     "runs": runs}
        if args.trace:
            traced = entry["trace"] = run_once(workload, 0, spec["run_seconds"], 1)
            for name, metric in traced["result"]["metrics"].items():
                print(f"{workload:<10}   {name:<30} {metric['value']:>14.6g} {metric['unit']}")
        sys.stdout.flush()
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
