"""One library process of the warm-moments or oracle-checks workload.

    python3 perfbench/worker.py WORKLOAD --seed N --deadline EPOCH
        [--seconds S] [--trace 0|1] [--spans PATH] [--setup-only]

run.py starts it with src/ on PYTHONPATH and reads the JSON object it
prints as its last stdout line.  Set-up (import qhs plus cache warm-up or
oracle construction) is timed from before the first qhs import.  Every
timed sample comes with its host-speed factor (see hostspeed.py), and every
answer is checked after the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from time import perf_counter

import gen
import golden
import hostspeed
import tracer

CHUNK = 3800  # warm-moments queries per timed chunk; divides gen.STREAM_LENGTH
TRACE_PASSES = 3  # warm-moments stream passes per traced worker, traced and untraced
CHECK_TIMEOUT_S = 60.0


class CheckTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CheckTimeout()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples, pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _cache_key(key: tuple) -> tuple:
    """The qhs cache entry a query fills: colors are invisible to the
    self-conjugate families, and integrate_X also keys on I."""
    kind, family, n, word, first, _second = key
    norm = "o" * len(word) if gen.self_conjugate(family) else word
    return (kind, family, n, norm, first if kind == "X" else None)


def warm_moments(args, trace: tracer.Tracer | None) -> dict:
    pool = gen.moment_pool()
    stream = [pool[name][variant] for name, variant in gen.moment_stream(args.seed, pool)]

    bracket = hostspeed.Bracket()
    start = perf_counter()
    import answers
    from qhs import weingarten

    if trace is not None:
        trace.install()
    keys = sorted(set(stream))
    plan = {key: answers.moment_args(key) for key in keys}
    warmed = set()
    for key in keys:
        if _cache_key(key) not in warmed:
            warmed.add(_cache_key(key))
            is_g, call = plan[key]
            (weingarten.integrate_G if is_g else weingarten.integrate_X)(*call)
    out = {"setup": [perf_counter() - start, bracket.next_factor()], "attempted": 0, "failed": 0}
    if args.setup_only:
        return out
    if trace is not None:
        trace.uninstall()

    # Expected answers, outside every timed and traced region.
    oracle = answers.MomentOracle()
    expected_digests = golden.load()["moments"]
    width = golden.DIGEST_CHARS
    pool_pos = {key: (name, i) for name, entries in pool.items() for i, key in enumerate(entries)}
    expected = {}
    for key in keys:
        is_g, call = plan[key]
        value = (weingarten.integrate_G if is_g else weingarten.integrate_X)(*call)
        truth = oracle.expected(key)
        if truth is None:
            name, i = pool_pos[key]
            want = expected_digests[name][i * width:(i + 1) * width]
            ok = golden.digest(answers.moment_text(value)) == want
        else:
            ok = value == truth and type(value) is type(truth)
        expected[key] = value if ok else None

    calls = [(plan[key][0], plan[key][1], key) for key in stream]
    chunk_starts = range(0, len(calls), CHUNK)
    latencies = array("d", bytes(8 * CHUNK))
    results = [None] * CHUNK
    chunks = []  # per chunk: [wall, p50 latency, tail latency, host-speed factor]

    def run_chunk(first: int) -> float:
        if trace is not None:
            trace.request = len(chunks)  # spans of one chunk share a request id
        integrate_G, integrate_X = weingarten.integrate_G, weingarten.integrate_X
        chunk = calls[first:first + CHUNK]
        t0 = perf_counter()
        for j, (is_g, call, _key) in enumerate(chunk):
            a = perf_counter()
            try:
                results[j] = (integrate_G if is_g else integrate_X)(*call)
            except Exception as exc:  # counted as a failed query below
                results[j] = exc
            latencies[j] = perf_counter() - a
        wall = perf_counter() - t0
        # Per-chunk statistics keep memory flat whatever the query rate.
        chunks.append([wall, percentile(latencies, 50),
                       percentile(latencies, gen.TAIL_PERCENTILE["warm-moments"]),
                       bracket.next_factor()])
        out["attempted"] += CHUNK
        for j, (_is_g, _call, key) in enumerate(chunk):
            want = expected[key]
            if want is None or results[j] != want or type(results[j]) is not type(want):
                out["failed"] += 1
        return wall

    if trace is None:
        bracket.next_factor()  # a fresh probe right before the first chunk
        timed_start = perf_counter()
        while not chunks or perf_counter() - timed_start < args.seconds:
            for first in chunk_starts:
                run_chunk(first)
        out["chunks"] = chunks
    else:
        # Fixed work: the same passes over the stream traced, then untraced.
        trace.install()
        traced = [run_chunk(c) for _ in range(TRACE_PASSES) for c in chunk_starts]
        trace.uninstall()
        for _ in range(TRACE_PASSES):
            for first in chunk_starts:
                run_chunk(first)
        half = len(chunks) // 2
        out.update(traced_wall_s=out["setup"][0] + sum(traced),
                   traced_pass_s=sum(wall * f for wall, _p50, _tail, f in chunks[:half]),
                   untraced_pass_s=sum(wall * f for wall, _p50, _tail, f in chunks[half:]))
    out["probe_s"] = statistics.median(bracket.probes)
    return out


def oracle_checks(args, trace: tracer.Tracer | None) -> dict:
    batch = gen.oracle_batch(args.seed)

    bracket = hostspeed.Bracket()
    start = perf_counter()
    import answers

    if trace is not None:
        trace.install()
    sources = answers.build_sources()
    out = {"setup": [perf_counter() - start, bracket.next_factor()],
           "attempted": 0, "failed": 0}
    if args.setup_only:
        return out

    expected_checks = golden.load()["checks"]
    signal.signal(signal.SIGALRM, _on_alarm)
    checks = []  # per check: [latency, host-speed factor]
    for request, (name, kind, check_args) in enumerate(batch):
        if trace is not None:
            trace.request = request
        out["attempted"] += 1
        timeout = min(CHECK_TIMEOUT_S, args.deadline - time.time())
        if timeout <= 0:
            checks.append([0.0, 1.0])
            out["failed"] += 1
            continue
        outcome = None
        signal.setitimer(signal.ITIMER_REAL, timeout)
        t0 = perf_counter()
        try:
            outcome = answers.run_check(kind, check_args, sources)
        except Exception:  # a timeout or an error: counted as a failed check
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        checks.append([perf_counter() - t0, bracket.next_factor()])
        if outcome is None or not answers.check_matches(expected_checks.get(name), *outcome):
            out["failed"] += 1
    out.update(checks=checks, batch_s=sum(latency for latency, _f in checks),
               probe_s=statistics.median(bracket.probes))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("warm-moments", "oracle-checks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up, then exit")
    parser.add_argument("--deadline", type=float, required=True, help="epoch seconds")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    trace = tracer.Tracer() if args.trace else None
    run = warm_moments if args.workload == "warm-moments" else oracle_checks
    out = run(args, trace)
    out["peak_rss_mb"] = peak_rss_mb()
    if trace is not None:
        trace.uninstall()
        out["trace"] = trace.summary()
        if args.spans:
            tracer.write_spans(args.spans, trace.raw)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
