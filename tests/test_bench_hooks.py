"""The names the benchmark's tracer wraps must exist in the package.

perfbench/layers.py lists (module, attribute) pairs that the traced
benchmark run wraps; a rename or deletion in ncfact would otherwise surface
only there.  The file is read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

from ncfact import kernels

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
