"""Every function the benchmark tracer wraps must exist in qhs.

perfbench/tracer.py names its targets by module and attribute; a rename in
qhs would otherwise only surface when a traced benchmark run fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # read-only: no bytecode is written next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("qhs_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.TARGETS
    for name, module, attr, _hook in tracer.TARGETS:
        owner = importlib.import_module(f"qhs.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr, None)), name
