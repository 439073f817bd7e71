"""Run one workload of the qhs benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; qhs is taken from src/ of the same tree, so
nothing needs installing.  Workloads: cold-cli, warm-moments, oracle-checks
(see perfbench/README.md).  With --trace 0 the last stdout line carries the
end-to-end metrics, timings scaled to the reference host speed (see
hostspeed.py); with --trace 1 it carries the per-layer metrics of a traced
run of fixed size.  The line before it describes the host and the run,
with the unscaled values.  Every answer is checked; failures are counted
in "failed".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

import gen
import golden
import hostspeed
import tracer
from worker import CHUNK, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("cold-cli", "warm-moments", "oracle-checks")
GENERATORS = {
    "cold-cli": "perfbench/gen.py:cli_cycle",
    "warm-moments": "perfbench/gen.py:moment_stream",
    "oracle-checks": "perfbench/gen.py:oracle_batch",
}
UNITS = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms", "ops_per_s": "1/s",
         "peak_rss_mb": "MB"}
RUN_BUDGET_S = 150.0  # no request starts after this; every run ends well inside 180 s
REQUEST_TIMEOUT_S = 60.0
SETUP_SAMPLES = 15  # fresh processes whose set-up times give the median setup_s
WARM_SETUP_SAMPLES = 7  # fewer for warm-moments, whose set-up takes about 0.5 s
MIN_CLI_CYCLES = 4  # 100 cold-cli requests
WARM_WORKERS = 3  # timed warm-moments processes per run, each set up from scratch
WARM_TIMED_SHARE = 0.75  # of --seconds; set-up-only processes use most of the rest
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qhs.cli; print(time.perf_counter() - t)"
)


def child_env() -> dict:
    """qhs from this tree's src/, with bytecode caching on as for an install."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def cpu_ticks():
    """(steal, total) from the aggregate cpu line of /proc/stat, read only."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


class Run:
    """Counts, deadline and host-speed probes shared by every request of a run."""

    def __init__(self, args):
        self.args = args
        self.start = perf_counter()
        self.deadline = time.time() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.env = child_env()
        self.span_dir = os.path.join(OUT_DIR, args.workload)
        # One CPU for this process and every child, so the probes here see the
        # core the CLI requests run on.
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.bracket = hostspeed.Bracket()

    def remaining(self) -> float:
        return self.deadline - time.time()

    def spawn(self, cmd: list):
        """Run a child to completion: (exit code, stdout, wall seconds,
        host-speed factor), or None if it timed out or the budget is spent."""
        timeout = min(REQUEST_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            return None
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, _err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None
        wall = perf_counter() - t0
        return proc.returncode, out, wall, self.bracket.next_factor()

    def record(self, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1

    def worker(self, extra: list):
        """Run worker.py; its JSON result, or None (counted as a failure)."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.args.workload,
               "--seed", str(self.args.seed), "--deadline", repr(self.deadline), *extra]
        done = self.spawn(cmd)
        if done is None or done[0] != 0:
            self.record(False)
            return None
        result = json.loads(done[1].decode("utf-8").strip().splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        return result

    def setup_samples(self, results: list, count: int) -> list:
        """[seconds, factor] set-up samples of the given workers plus
        set-up-only processes, count in all."""
        setups = [r["setup"] for r in results]
        while len(setups) < count:
            result = self.worker(["--setup-only"])
            if result is None:
                break
            setups.append(result["setup"])
        return setups


def written_spans(span_dir: str) -> int:
    """Raw spans written to the span files of a traced run."""
    total = 0
    for name in os.listdir(span_dir):
        with open(os.path.join(span_dir, name), encoding="utf-8") as handle:
            total += sum(1 for _line in handle)
    return total


def ms(seconds: float) -> float:
    return seconds * 1000.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def values(samples, scaled: bool) -> list:
    """Sample values, each times its host-speed factor when scaled."""
    return [value * factor if scaled else value for value, factor in samples]


# cold-cli -------------------------------------------------------------------

def cli_request(run: Run, argv: list, expected: dict, driver: list = ()):
    """One CLI request, `python -m qhs ARGV` or `python DRIVER... -- ARGV`;
    its exit code and stdout bytes are checked.  Returns run.spawn's result."""
    launcher = list(driver) + ["--"] if driver else ["-m", "qhs"]
    done = run.spawn([sys.executable, *launcher, *argv])
    run.record(done is not None and done[0] == 0
               and golden.digest(done[1], 16) == expected.get(" ".join(argv)))
    return done


def cold_cli(run: Run):
    expected = golden.load()["cli"]
    pool = gen.cli_pool()
    run.spawn([sys.executable, "-c", "import qhs.cli"])  # fills the bytecode cache, untimed
    if run.args.trace:
        return cold_cli_traced(run, pool, expected)
    setups = []
    for _ in range(SETUP_SAMPLES):
        done = run.spawn([sys.executable, "-c", IMPORT_PROBE])
        run.record(done is not None and done[0] == 0)
        if done is not None and done[0] == 0:
            setups.append([float(done[1]), done[3]])
    requests = []
    timed_start = perf_counter()
    cycle = 0
    while True:
        for argv in gen.cli_cycle(run.args.seed, cycle, pool):
            done = cli_request(run, argv, expected)
            if done is not None:
                requests.append([done[2], done[3]])
        cycle += 1
        elapsed = perf_counter() - timed_start
        # Whole cycles only, so every run sends the same mix of classes, and at
        # least MIN_CLI_CYCLES, so the tail percentile has ten samples beyond it.
        if run.remaining() < 2 * elapsed / cycle:
            break
        if cycle >= MIN_CLI_CYCLES and elapsed + elapsed / cycle > run.args.seconds:
            break

    def metrics(scaled: bool) -> dict:
        latencies = values(requests, scaled)
        return {
            "setup_s": statistics.median(values(setups, scaled)),
            "p50_ms": ms(statistics.median(latencies)),
            "tail_ms": ms(percentile(latencies, gen.TAIL_PERCENTILE["cold-cli"])),
            "ops_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": children_peak_rss_mb(),
        }

    if len(requests) < 2 or not setups:
        return None, {}
    return metrics, {"samples": len(requests), "cycles": cycle, "setup_samples": len(setups),
                     "probe_ms": ms(statistics.median(run.bracket.probes))}


def cold_cli_traced(run: Run, pool, expected):
    """Cycle 0 once: each request untraced and through clidriver.py, in
    alternating order, so the two compare the same work.  The overhead ratio
    uses host-speed-scaled times; trace.wall_s is the raw traced time."""
    summaries, imports = [], []
    traced_wall = traced_scaled = untraced_scaled = 0.0
    output_bytes = 0
    spans_path = os.path.join(run.span_dir, "spans.jsonl")
    for request, argv in enumerate(gen.cli_cycle(run.args.seed, 0, pool)):
        out_path = os.path.join(run.span_dir, f"request-{request}.json")
        for traced in ((False, True) if request % 2 == 0 else (True, False)):
            if not traced:
                done = cli_request(run, argv, expected)
                untraced_scaled += done[2] * done[3] if done is not None else 0.0
                continue
            driver = [os.path.join(HERE, "clidriver.py"), "--out", out_path,
                      "--request", str(request)]
            done = cli_request(run, argv, expected, driver)
            if done is None or not os.path.exists(out_path):
                continue
            with open(out_path, encoding="utf-8") as handle:
                report = json.load(handle)
            os.remove(out_path)
            traced_wall += done[2]
            traced_scaled += done[2] * done[3]
            output_bytes += len(done[1])
            imports.append(report["import_s"])
            summaries.append(report["trace"])
            tracer.write_spans(spans_path, report["raw"])
    if not imports or not untraced_scaled:
        return None, {}
    extra = {
        "cli.import_s": statistics.median(imports),
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": traced_scaled / untraced_scaled,
        "trace.wall_s": traced_wall,
    }
    return tracer.layer_metrics(tracer.merge(summaries), extra), {"requests": len(imports)}


# warm-moments ---------------------------------------------------------------

def warm_moments(run: Run):
    results = []
    for index in range(WARM_WORKERS):
        extra = ["--trace", str(run.args.trace)]
        if run.args.trace:
            extra += ["--spans", os.path.join(run.span_dir, f"spans-{index}.jsonl")]
        else:
            extra += ["--seconds", repr(run.args.seconds * WARM_TIMED_SHARE / WARM_WORKERS)]
        result = run.worker(extra)
        if result is not None:
            results.append(result)
    if not results:
        return None, {}
    if run.args.trace:
        traced = sum(r["traced_pass_s"] for r in results)
        untraced = sum(r["untraced_pass_s"] for r in results)
        extra = {"trace.overhead_ratio": traced / untraced,
                 "trace.wall_s": sum(r["traced_wall_s"] for r in results)}
        return (tracer.layer_metrics(tracer.merge(r["trace"] for r in results), extra),
                {"workers": len(results)})
    setups = run.setup_samples(results, WARM_SETUP_SAMPLES)
    # per chunk: [wall, p50 latency, tail latency, factor]
    chunks = [chunk for r in results for chunk in r["chunks"]]

    def metrics(scaled: bool) -> dict:
        def column(i):
            return values(((chunk[i], chunk[3]) for chunk in chunks), scaled)

        return {
            "setup_s": statistics.median(values(setups, scaled)),
            "p50_ms": ms(statistics.median(column(1))),
            "tail_ms": ms(statistics.median(column(2))),
            "ops_per_s": statistics.median(CHUNK / wall for wall in column(0)),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }

    return metrics, {"workers": len(results), "samples": sum(r["attempted"] for r in results),
                     "chunks": len(chunks), "setup_samples": len(setups),
                     "probe_ms": ms(statistics.median(r["probe_s"] for r in results))}


# oracle-checks --------------------------------------------------------------

def oracle_checks(run: Run):
    if run.args.trace:
        return oracle_checks_traced(run)
    results = []
    timed_start = perf_counter()
    while True:
        result = run.worker(["--trace", "0"])
        if result is None:
            break
        results.append(result)
        elapsed = perf_counter() - timed_start
        # Whole batches only; stop before a batch would overrun --seconds.
        if elapsed + elapsed / len(results) > run.args.seconds:
            break
    if not results:
        return None, {}
    setups = run.setup_samples(results, SETUP_SAMPLES)

    def metrics(scaled: bool) -> dict:
        batches = [values(r["checks"], scaled) for r in results]
        latencies = [x for batch in batches for x in batch]
        # A batch's typical time: each check's median over the batches, summed.
        batch_s = sum(statistics.median(per_check) for per_check in zip(*batches))
        return {
            "setup_s": statistics.median(values(setups, scaled)),
            "p50_ms": ms(statistics.median(latencies)),
            "tail_ms": ms(percentile(latencies, gen.TAIL_PERCENTILE["oracle-checks"])),
            "ops_per_s": len(batches[0]) / batch_s,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }

    return metrics, {"batches": len(results), "samples": sum(len(r["checks"]) for r in results),
                     "setup_samples": len(setups),
                     "probe_ms": ms(statistics.median(r["probe_s"] for r in results))}


def oracle_checks_traced(run: Run):
    """One traced and one untraced batch, each in a fresh process."""
    order = (1, 0) if run.args.seed % 2 else (0, 1)
    results = {}
    for traced in order:
        extra = ["--trace", str(traced)]
        if traced:
            extra += ["--spans", os.path.join(run.span_dir, "spans.jsonl")]
        results[traced] = run.worker(extra)
    if results[0] is None or results[1] is None:
        return None, {}
    def scaled_wall(result):
        return sum(values([result["setup"], *result["checks"]], scaled=True))

    extra = {"trace.overhead_ratio": scaled_wall(results[1]) / scaled_wall(results[0]),
             "trace.wall_s": results[1]["setup"][0] + results[1]["batch_s"]}
    return tracer.layer_metrics(tracer.merge([results[1]["trace"]]), extra), {"batches": 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qhs", "cli.py")):
        print(f"error: no qhs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    host = host_info()  # before Run pins the process to one CPU
    run = Run(args)
    shutil.rmtree(run.span_dir, ignore_errors=True)
    os.makedirs(run.span_dir)
    ticks_before = cpu_ticks()
    body = {"cold-cli": cold_cli, "warm-moments": warm_moments,
            "oracle-checks": oracle_checks}[args.workload]
    metrics, details = body(run)
    ticks_after = cpu_ticks()
    if metrics is None:
        print("error: no request of this run completed", file=sys.stderr)
        return 1
    steal = None
    if ticks_before and ticks_after:
        total = ticks_after[1] - ticks_before[1]
        steal = {"ticks": ticks_after[0] - ticks_before[0],
                 "share": (ticks_after[0] - ticks_before[0]) / total if total else 0.0}
    if args.trace:
        details["spans_dropped"] = metrics["trace.spans"]["value"] - written_spans(run.span_dir)
    else:
        details["raw"] = metrics(scaled=False)
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in metrics(scaled=True).items()}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "clients": 1,
        "generator": GENERATORS[args.workload], "host": {**host, "pinned_cpu": run.cpu},
        "steal": steal,
        "wall_s": perf_counter() - run.start,
        "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "tail_percentile": gen.TAIL_PERCENTILE[args.workload], **details,
    }
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':48s} {info['fail_ratio']:.6g} 1", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": run.attempted > 0 and run.failed == 0,
                      "attempted": max(run.attempted, 1), "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
