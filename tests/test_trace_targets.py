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


def test_every_hook_runs_on_a_traced_request(monkeypatch, capsys, cold_caches):
    # a hook reads the result of its target; one that no longer fits raises
    # inside the request, which then exits 4
    import qhs.cli as cli

    tracer_module = _load_tracer(monkeypatch)
    tracer = tracer_module.Tracer()
    requests = [
        ("integrate-g", "--spec", "S(3)", "--word", "oo", "--row", "1,2", "--col", "1,2"),
        ("integrate-x", "--spec", "S(3)", "--I", "1,2", "--word", "oo", "--idx", "1,2"),
        ("relations", "--form", "hom", "--spec", "S(3)", "--I", "1,2", "--max-k", "1", "--max-l", "1"),
        ("verify", "--suite", "relations", "--spec", "S(3)", "--I", "1,2", "--max-k", "2", "--max-l", "1"),
        ("verify", "--suite", "saturation", "--oracle", "dualZ2(2)", "--I", "1", "--bounds", "2"),
        ("verify", "--suite", "projection-laws", "--spec", "S(2)", "--max-k", "2"),
        ("verify", "--suite", "weingarten-vs-bruteforce", "--spec", "S(2)", "--max-k", "2"),
        ("verify", "--suite", "ergodicity", "--spec", "S(3)", "--I", "1", "--max-k", "2"),
        ("verify", "--suite", "frobenius", "--oracle", "SN(2)", "--bounds", "2", "--samples", "1"),
    ]
    tracer.install()
    try:
        codes = [cli.main(list(argv)) for argv in requests]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(requests)
    hooked = {name for name, _module, _attr, hook in tracer_module.TARGETS if hook is not None}
    assert not hooked - set(tracer.calls), sorted(hooked - set(tracer.calls))
