import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "_perfbench_tracer",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
SPANS = _tracer.SPANS


@pytest.mark.parametrize("layer", sorted(SPANS))
def test_traced_span_resolves_to_a_function(layer):
    # the benchmark's tracer rebinds each of these names; renaming or
    # deleting one breaks every traced benchmark run
    module_name, attr = SPANS[layer]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
