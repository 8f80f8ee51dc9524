"""The benchmark's tracer must keep working on the package.

perfbench/layers.py lists (module, attribute) pairs that the traced
benchmark run wraps, and perfbench/tracer.py reads some package state after
the calls it wraps; a rename, deletion or change of type in ncfact would
otherwise surface only in the benchmark.  The files are read and run,
never changed.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import ncfact
from ncfact import kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_callables():
    layers = _layers()
    missing = []
    for module_name, attr, _ in layers.SPAN_TARGETS + layers.COUNT_TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_backend_stamp_reads_pure():
    assert kernels.BACKEND == "pure"


def test_traced_run_prints_the_untraced_bytes(tmp_path):
    paths = [str(Path(ncfact.__file__).resolve().parents[1])]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    argv = ["verify", "H3", "--format", "json"]
    plain = subprocess.run([sys.executable, "-m", "ncfact.cli", *argv],
                           env=env, capture_output=True, timeout=120)
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), *argv],
        env={**env, "PERFBENCH_SPANS": str(spans),
             "PERFBENCH_SPAWN": repr(time.perf_counter())},
        capture_output=True, timeout=120)
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    assert json.loads(spans.read_text())["spans"]
