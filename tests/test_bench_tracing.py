"""The traced benchmark launcher wraps functions that exist."""

import importlib.util
from pathlib import Path

import grosslap

ROOT = Path(__file__).resolve().parents[1]


def test_traced_layers_resolve():
    # Load bench/tracing.py as a module without running its main(); a layer
    # it names but the library no longer has would only fail at trace time.
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = list(tracing.LAYERS.values()) + list(tracing.COUNTED.values())
    assert targets
    for module, attribute in targets:
        assert callable(getattr(getattr(grosslap, module), attribute)), \
            (module, attribute)
