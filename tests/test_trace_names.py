"""The benchmark tracer wraps uext's layer entry points by name.

perfbench/spans.py skips a name its layer module lacks, so a moved or renamed
function would silently drop out of the per-layer trace; this keeps them bound.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"uext.{layer}.{name}" for layer, names in spans.LAYERS.items()
               for name in names if not callable(getattr(importlib.import_module(f"uext.{layer}"), name, None))]
    assert missing == []
