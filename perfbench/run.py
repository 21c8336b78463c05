"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s`` (the
median over fresh interpreters of importing ``treecast.cli`` and building its
parser), ``wall_s`` (the median, over repeated passes of the workload, of the
summed wall time of its commands) and ``peak_rss_mib`` (peak resident memory
of this process).  One set-up sample comes before the first pass and one
after every pass, so the samples are spread over the run.  It repeats passes
while the next one is predicted to end within ``--seconds``, and always
makes at least one.

With ``--trace 1`` it spends about half of ``--seconds`` on untraced passes,
then makes at least two passes with the layer probes of ``layers.py``
installed and prints the per-layer metrics.  Counters that must repeat
exactly are compared between the traced passes; a difference, or a probe
whose target is missing, is a benchmark fault and makes the result
incorrect.  The spans of the last traced pass are written to
``perfbench/out/``.

Every pass's output is checked (see ``checks.py``).  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``attempted`` counts expected output rows over all passes and
``failed`` the rows wrong or missing.  Without the ``src/treecast`` sources
next to this directory the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Reference, Verdict, check_command
from layers import DETERMINISTIC, LAYER_METRICS, Tracer, layer_metrics
from workloads import OUT, ROOT, SRC, WORKLOADS, import_cli, run_workload

IMPORTTIME_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 60
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
SETUP_CODE = """\
import time
start = time.perf_counter()
import treecast.cli
treecast.cli.build_parser()
print(time.perf_counter() - start)
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
PROCESS_METRICS = {
    "setup.scipy_import_s": "s",
    "setup.treecast_import_s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    """One pass over a workload's commands."""

    wall_s: float
    cpu_s: float
    verdict: Verdict
    layers: dict[str, float] | None = None


def cap_thread_pools() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_POOL_VARS:
        os.environ[var] = str(nproc)
    return nproc


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment_stamp(nproc: int) -> dict[str, object]:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), None)
    l3 = None
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        if _read(base + "level").strip() == "3":
            l3 = _read(base + "size").strip() or None
    return {
        "git_sha": _git_sha(),
        "nproc": nproc,
        "cpu_model": cpu,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)


def setup_sample() -> float:
    """Import ``treecast.cli`` and build the parser in a fresh interpreter."""
    return float(_python("-c", SETUP_CODE).stdout.strip())


def import_profile() -> dict[str, float]:
    """Seconds spent in scipy's and treecast's own module bodies, from ``-X importtime``."""
    totals = {"scipy": 0.0, "treecast": 0.0}
    for line in _python("-X", "importtime", "-c", "import treecast.cli").stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cumulative, module = line[len("import time:"):].split("|")
        top = module.strip().split(".")[0]
        if top in totals and self_us.strip().isdigit():
            totals[top] += int(self_us) * 1e-6
    return totals


def one_pass(cli, ref: Reference, workload: str, seed: int) -> Pass:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_before = usage.ru_utime + usage.ru_stime
    results = run_workload(cli, workload, seed)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    verdict = Verdict()
    for res in results:
        verdict.add(check_command(ref, res.command.experiment, res.command.seeded, seed,
                                  res.exit_code, res.stdout))
    return Pass(wall_s=sum(res.wall_s for res in results),
                cpu_s=usage.ru_utime + usage.ru_stime - cpu_before, verdict=verdict)


def repeat(make_pass, budget_s: float, at_least: int) -> list[Pass]:
    """Passes while the next one, as long as the last, would end within budget."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(make_pass())
        last = time.perf_counter() - pass_start
        if len(passes) >= at_least and time.perf_counter() - start + last > budget_s:
            return passes


def _metric(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _median(passes: list[Pass], attr: str) -> float:
    return statistics.median(getattr(p, attr) for p in passes)


def measure_end_to_end(cli, ref: Reference, args) -> tuple[dict, list[Pass], dict]:
    start = time.perf_counter()
    setup = [setup_sample()]

    def pass_then_setup() -> Pass:
        p = one_pass(cli, ref, args.workload, args.seed)
        setup.append(setup_sample())
        return p

    passes = repeat(pass_then_setup, args.seconds - (time.perf_counter() - start), 1)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": _median(passes, "wall_s"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"setup_samples": setup, "wall_samples": [p.wall_s for p in passes]}
    return _metric(values, END_TO_END), passes, detail


def measure_layers(cli, ref: Reference, args) -> tuple[dict, list[Pass], dict]:
    untraced = repeat(lambda: one_pass(cli, ref, args.workload, args.seed),
                      args.seconds / 2, 1)
    tracer = Tracer()
    missing = tracer.install()
    for probe in missing:
        print(f"benchmark fault: probe target {probe} not found", file=sys.stderr)

    def traced_pass() -> Pass:
        tracer.reset()
        p = one_pass(cli, ref, args.workload, args.seed)
        p.layers = layer_metrics(tracer.spans, p.wall_s)
        return p

    try:
        traced = repeat(traced_pass, args.seconds - sum(p.wall_s for p in untraced), 2)
    finally:
        tracer.uninstall()
    _write_spans(tracer.spans, args)

    faults = [name for name in DETERMINISTIC
              if len({p.layers[name] for p in traced}) != 1]
    for name in faults:
        print(f"benchmark fault: counter {name} differs between passes at one seed: "
              f"{[p.layers[name] for p in traced]}", file=sys.stderr)
    imports = [import_profile() for _ in range(IMPORTTIME_SAMPLES)]
    untraced_wall = _median(untraced, "wall_s")
    values = {name: traced[0].layers[name] if name in DETERMINISTIC
              else statistics.median(p.layers[name] for p in traced)
              for name in LAYER_METRICS}
    values.update({
        "setup.scipy_import_s": statistics.median(i["scipy"] for i in imports),
        "setup.treecast_import_s": statistics.median(i["treecast"] for i in imports),
        "process.cpu_s": _median(untraced, "cpu_s"),
        "process.cpu_util": statistics.median(p.cpu_s / p.wall_s for p in untraced),
        "trace.overhead_s": _median(traced, "wall_s") - untraced_wall,
    })
    detail = {"untraced_wall_samples": [p.wall_s for p in untraced],
              "traced_wall_samples": [p.wall_s for p in traced],
              "missing_probes": missing, "counter_faults": faults}
    metrics = _metric(values, {**LAYER_METRICS, **PROCESS_METRICS})
    return metrics, untraced + traced, detail


def _write_spans(spans: list[list], args) -> None:
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "note"], "names": names,
                   "spans": [[index[s[0]], *s[1:]] for s in spans]}, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    nproc = cap_thread_pools()
    try:
        cli = import_cli()
        ref = Reference.load(args.workload)
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stamp = environment_stamp(nproc)

    metrics, passes, detail = (measure_layers if args.trace else measure_end_to_end)(
        cli, ref, args)
    verdict = Verdict()
    for p in passes:
        verdict.add(p.verdict)
    for problem in verdict.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    faults = detail.get("counter_faults", []) + detail.get("missing_probes", [])
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": stamp, "passes": len(passes),
                      "fail_ratio": verdict.fail_ratio, **detail}))
    print(json.dumps({
        "correct": verdict.failed == 0 and not faults,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
