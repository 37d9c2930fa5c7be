"""The benchmark calls the program from outside it (``perfbench/``): its
tracer wraps program names where their callers look them up, and its
workloads call the public API.  A name the tracer wraps that the program no
longer defines, or an API change a workload still relies on, makes every
benchmark run fail; these tests fail first."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOAD_NAMES = [w["name"] for w in
                  json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def test_every_wrapped_name_is_defined_where_it_is_looked_up():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.WRAPS
               if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_runs_and_passes_its_gate(name, monkeypatch):
    # The benchmark's modules import each other by their bare names.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    result, _ = run.run_workload(name, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0
