"""The benchmark tracer's list of traced functions still names the library.

``perfbench/spans.py`` counts a name of ``EXPECTED`` that it cannot find in
``trace.missing`` and that layer's metrics then read 0, which no other test
would notice.  The file is loaded by path, as the benchmark loads it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_every_expected_span_is_a_callable_of_its_layer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert set(spans.EXPECTED) <= set(spans.LAYERS)
    for layer, names in spans.EXPECTED.items():
        module = importlib.import_module(f"fcclib.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fcclib.{layer}.{name}"
