"""The benchmark's tracer wraps program names where their callers look them
up (``perfbench/tracing.py``, ``WRAPS``).  A name it wraps that the program
no longer defines makes every benchmark run fail at import; this test fails
first."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrapped_name_is_defined_where_it_is_looked_up():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.WRAPS
               if attr not in vars(owner)]
    assert not missing
