"""Self-tests of the benchmark itself (not collected by pytest).

    python3 perfbench/selftest.py

Run from the repository root; takes about three minutes.  Checks that seeds
reproduce inputs, that a corrupted golden answer is counted as a failure,
that a traced CLI request prints the same bytes as an untraced one, that
metric names and BENCHMARK.json agree, that traced self times fit inside
the traced wall time, and that the benchmark refuses to run without qhs.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import gen
import golden
import run
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "selftest")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7


def invoke(root: str, workload: str, seconds: int, trace: int = 0):
    """Run a benchmark tree's run.py; (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def copy_tree(name: str, with_src: bool) -> str:
    """A copy of the benchmark (and optionally of src/) under SCRATCH."""
    root = os.path.join(SCRATCH, name)
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_same_seed_same_inputs():
    assert gen.cli_cycle(SEED, 0) == gen.cli_cycle(SEED, 0)
    assert gen.moment_stream(SEED) == gen.moment_stream(SEED)
    assert gen.oracle_batch(SEED) == gen.oracle_batch(SEED)
    assert gen.cli_cycle(SEED, 0) != gen.cli_cycle(SEED + 1, 0)
    assert gen.moment_stream(SEED) != gen.moment_stream(SEED + 1)
    assert sorted(map(str, gen.cli_cycle(SEED, 0))) != sorted(map(str, gen.cli_cycle(SEED + 1, 0)))


def _corrupt(value: str) -> str:
    return ("0" if value[0] != "0" else "1") + value[1:]


def test_corrupted_golden_is_a_failure():
    root = copy_tree("corrupt", with_src=True)
    path = os.path.join(root, "perfbench", "golden.json")
    recorded = golden.load()
    first_check = gen.oracle_batch(SEED)[0][0]
    entry = recorded["checks"][first_check]
    entry["digest"] = _corrupt(entry["digest"])
    first_argv = " ".join(gen.cli_cycle(SEED, 0)[0])
    recorded["cli"][first_argv] = _corrupt(recorded["cli"][first_argv])
    for name, digests in recorded["moments"].items():
        recorded["moments"][name] = _corrupt(digests)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle)
    # One oracle-checks batch runs; the corrupted CLI request and moments recur.
    for workload, expect_failed in (("oracle-checks", 1), ("cold-cli", None), ("warm-moments", None)):
        code, lines = invoke(root, workload, 1)
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
        assert code == 0, workload
        assert not result["correct"], workload
        assert result["failed"] >= 1 and info["fail_ratio"] > 0, workload
        if expect_failed is not None:
            assert result["failed"] == expect_failed, (workload, result["failed"])


def test_traced_cli_prints_same_bytes():
    env = run.child_env()
    out_path = os.path.join(SCRATCH, "driver.json")
    picks = {}
    for argv in gen.cli_cycle(SEED, 0):
        picks.setdefault((argv[0], argv[2] if argv[0] == "relations" else ""), argv)
    for argv in picks.values():
        plain = subprocess.run([sys.executable, "-m", "qhs", *argv], cwd=ROOT, env=env,
                               capture_output=True, timeout=60, check=False)
        traced = subprocess.run([sys.executable, os.path.join(HERE, "clidriver.py"),
                                 "--out", out_path, "--", *argv], cwd=ROOT, env=env,
                                capture_output=True, timeout=60, check=False)
        assert plain.returncode == traced.returncode == 0, argv
        assert plain.stdout == traced.stdout, argv
        with open(out_path, encoding="utf-8") as handle:
            assert json.load(handle)["trace"]["calls"]["cli.main"] == 1


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    code, lines = invoke(ROOT, "oracle-checks", 1)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["end_to_end"])


def test_traced_self_times_fit_wall():
    for workload in run.WORKLOADS:
        code, lines = invoke(ROOT, workload, 1, trace=1)
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert code == 0 and result["correct"], workload
        assert sorted(metrics) == sorted(name for name, _unit in tracer.PER_LAYER)
        assert 0 < metrics["trace.self_sum_s"] <= metrics["trace.wall_s"], workload
        assert metrics["trace.overhead_ratio"] > 0, workload
        for layer in ("weingarten", "partitions", "exact"):
            assert any(metrics[name] for name in metrics
                       if name.startswith(layer) and name.endswith(".calls")), (workload, layer)


def test_refuses_without_program():
    root = copy_tree("bare", with_src=False)
    code, lines = invoke(root, "cold-cli", 1)
    assert code != 0 and not lines


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        for test in tests:
            try:
                test()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {test.__name__}: {exc}")
            else:
                print(f"pass {test.__name__}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
