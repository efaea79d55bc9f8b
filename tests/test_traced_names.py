"""The traced benchmark run wraps ctscreen functions by module and name, so a
function that moves or is renamed must keep the name the tracer looks up."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_layer_names_a_ctscreen_function():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for module, function, _, _ in spans.LAYERS:
        home = importlib.import_module(f"ctscreen.{module}")
        assert callable(getattr(home, function, None)), f"ctscreen.{module}.{function}"
