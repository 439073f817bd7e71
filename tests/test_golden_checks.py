"""Every oracle-check report must keep its recorded bytes.

perfbench/golden.json holds a sha256 prefix of the report and verdict of
each of the benchmark's oracle checks (relation verification, saturation
and ergodicity).  This replays all of them through the benchmark's own
generator and comparison, so a change to any library report fails here and
not only in a benchmark run.  The benchmark's files are loaded read-only.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("answers", "gen", "golden")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's answers, gen and golden modules; sys.path and
    sys.modules get back what they held before."""
    # read-only: no bytecode is written next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = {name: sys.modules.pop(name, None) for name in BENCH_MODULES}
    try:
        yield tuple(importlib.import_module(name) for name in BENCH_MODULES)
    finally:
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


def test_every_oracle_check_matches_its_golden_digest(bench):
    answers, gen, golden = bench
    expected = golden.load()["checks"]
    sources = answers.build_sources()
    checks = gen.all_oracle_checks()
    assert len(checks) == len(expected) == 243
    mismatched = [
        name
        for name, kind, args in checks
        if not answers.check_matches(expected.get(name), *answers.run_check(kind, args, sources))
    ]
    assert mismatched == []
