"""The benchmark's layer probes still find their targets.

``perfbench/layers.py`` patches named functions of the package from outside
it; a renamed or re-signed target would break traced benchmark runs without
any other test failing.  The module is loaded from its file and not changed.
"""

import importlib.util
import sys
from pathlib import Path

import treecast.cli  # noqa: F401  (the probes look for every module it loads)
from treecast import SeedSpec, fk

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_exists_and_binds_its_note():
    layers = load_layers()
    tracer = layers.Tracer()
    try:
        assert tracer.install() == []
        fk.sample_size_ensemble(0.3, 4, 2, SeedSpec(master_seed=5), 3)
    finally:
        tracer.uninstall()
    notes = [span[4] for span in tracer.spans if span[0] == "fk.ensemble"]
    assert notes == [(0.3, 4, 2, 5, 3)]
    metrics = layers.layer_metrics(tracer.spans, wall_s=1.0)
    assert metrics["fk.ensembles"] == 1 and metrics["fk.samples_drawn"] == 3
