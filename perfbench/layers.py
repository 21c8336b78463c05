"""Per-layer spans taken from outside the package.

:class:`Tracer` wraps the public functions listed in :data:`PROBES` and
records one span per call: name, start, end, parent span and, for some
probes, a note taken from the call's arguments (bits drawn, support points,
ensemble identity).  It patches every ``treecast`` module namespace that
binds the function, because ``from .rng import bernoulli_bits`` makes a
separate binding in each importing module, and patches
``SeedSpec.generator`` on the class.  Spans stay in memory; nothing inside
``src/`` knows it is being traced.

A span's self time is its duration minus the union of its child spans.
The count chain step and ``repeat_packed`` are deliberately not probed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Probe:
    span: str
    module: str
    attr: str  # "function" or "Class.method"
    note: Callable[[dict], object] | None = None


PROBES = (
    Probe("rng.stream", "treecast.rng", "SeedSpec.generator"),
    Probe("rng.bernoulli", "treecast.rng", "bernoulli_bits",
          lambda a: a["rows"] * a["cols"]),
    Probe("broadcast.step", "treecast.broadcast", "sample_next_generation"),
    Probe("broadcast.majority", "treecast.broadcast", "majority_statistic"),
    Probe("correction.apply", "treecast.correction", "apply_block_majority"),
    Probe("correction.apply", "treecast.correction", "apply_fraction_identification"),
    Probe("correction.apply", "treecast.correction", "apply_minority_removal"),
    Probe("correction.trajectory", "treecast.correction", "run_corrected_trajectory"),
    Probe("estimators.mc_delta", "treecast.estimators", "mc_delta"),
    Probe("exact.count_law", "treecast.exact", "count_distribution",
          lambda a: a["r"] ** a["level"] + 1),
    Probe("exact.ks_eval", "treecast.exact", "ks_condition_value"),
    Probe("exact.critical", "treecast.exact", "critical_point_k"),
    Probe("fk.ensemble", "treecast.fk", "sample_size_ensemble",
          lambda a: (a["p"], a["r"], a["k"], a["seed"].master_seed, a["n_samples"])),
    Probe("report.serialize", "treecast.report", "rows_to_csv"),
    Probe("report.serialize", "treecast.report", "rows_to_json"),
)

# name -> unit of every metric :func:`layer_metrics` returns
LAYER_METRICS = {
    "rng.bits_drawn": "count",
    "rng.bernoulli_calls": "count",
    "rng.bernoulli_s": "s",
    "rng.streams": "count",
    "rng.stream_s": "s",
    "broadcast.steps": "count",
    "broadcast.step_self_s": "s",
    "broadcast.majority_s": "s",
    "correction.applies": "count",
    "correction.apply_self_s": "s",
    "correction.trajectory_self_s": "s",
    "estimators.mc_delta_calls": "count",
    "estimators.mc_delta_self_s": "s",
    "exact.count_laws": "count",
    "exact.support_points": "count",
    "exact.count_law_s": "s",
    "exact.ks_evals": "count",
    "exact.critical_self_s": "s",
    "fk.ensembles": "count",
    "fk.samples_drawn": "count",
    "fk.useful_ratio": "ratio",
    "fk.ensemble_s": "s",
    "report.serialize_s": "s",
    "cli.self_s": "s",
    "trace.coverage": "ratio",
}

# Counters that must repeat exactly at a fixed seed.
DETERMINISTIC = ("rng.bits_drawn", "rng.bernoulli_calls", "rng.streams",
                 "broadcast.steps", "correction.applies", "estimators.mc_delta_calls",
                 "exact.count_laws", "exact.support_points", "exact.ks_evals",
                 "fk.ensembles", "fk.samples_drawn", "fk.useful_ratio")


class Tracer:
    """Records spans around the probed functions while installed."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, note]
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            note = None
            if probe.note is not None:
                note = probe.note(signature.bind(*args, **kwargs).arguments)
            span = [probe.span, 0.0, 0.0, stack[-1] if stack else -1, note]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Patch every binding of every probe; returns the probes not found."""
        missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "treecast" or n.startswith("treecast."))]
        for probe in PROBES:
            owner = sys.modules.get(probe.module)
            holder_name, _, fn_name = probe.attr.rpartition(".")
            holder = getattr(owner, holder_name, None) if holder_name else owner
            original = getattr(holder, fn_name, None) if holder is not None else None
            if original is None:
                missing.append(f"{probe.module}.{probe.attr}")
                continue
            wrapper = self._wrap(probe, original)
            bindings = [(holder, fn_name)] if holder_name else [
                (m, attr) for m in modules
                for attr, value in list(vars(m).items()) if value is original]
            for target, attr in bindings:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass whose commands took ``wall_s``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, list] = {}
    for i, (name, start, end, _parent, note) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = (self_time.get(name, 0.0) + (end - start)
                           - _union_length(children.get(i, [])))
        calls[name] = calls.get(name, 0) + 1
        if note is not None:
            notes.setdefault(name, []).append(note)
    ensembles = notes.get("fk.ensemble", [])
    drawn = sum(e[-1] for e in ensembles)
    distinct = sum(e[-1] for e in set(ensembles))
    covered = _union_length([(s[1], s[2]) for s in spans if s[3] < 0])
    metrics = {
        "rng.bits_drawn": sum(notes.get("rng.bernoulli", [])),
        "rng.bernoulli_calls": calls.get("rng.bernoulli", 0),
        "rng.bernoulli_s": total.get("rng.bernoulli", 0.0),
        "rng.streams": calls.get("rng.stream", 0),
        "rng.stream_s": total.get("rng.stream", 0.0),
        "broadcast.steps": calls.get("broadcast.step", 0),
        "broadcast.step_self_s": self_time.get("broadcast.step", 0.0),
        "broadcast.majority_s": total.get("broadcast.majority", 0.0),
        "correction.applies": calls.get("correction.apply", 0),
        "correction.apply_self_s": self_time.get("correction.apply", 0.0),
        "correction.trajectory_self_s": self_time.get("correction.trajectory", 0.0),
        "estimators.mc_delta_calls": calls.get("estimators.mc_delta", 0),
        "estimators.mc_delta_self_s": self_time.get("estimators.mc_delta", 0.0),
        "exact.count_laws": calls.get("exact.count_law", 0),
        "exact.support_points": sum(notes.get("exact.count_law", [])),
        "exact.count_law_s": total.get("exact.count_law", 0.0),
        "exact.ks_evals": calls.get("exact.ks_eval", 0),
        "exact.critical_self_s": self_time.get("exact.critical", 0.0),
        "fk.ensembles": len(ensembles),
        "fk.samples_drawn": drawn,
        "fk.useful_ratio": distinct / drawn if drawn else 0.0,
        "fk.ensemble_s": total.get("fk.ensemble", 0.0),
        "report.serialize_s": total.get("report.serialize", 0.0),
        "cli.self_s": wall_s - covered,
        "trace.coverage": covered / wall_s if wall_s > 0 else 0.0,
    }
    assert metrics.keys() == LAYER_METRICS.keys()
    return metrics
