"""Benchmark child process: one workload, one client, closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --probe

Prints ``ready`` once ``entroframe`` is imported and the seeded requests
exist; the parent times that line as set-up.  A probe exits there.
Otherwise the worker runs the warm-up requests once, untimed, then whole
passes over the request list, each request starting when the previous one
has finished, until ``--seconds`` have passed (at least two passes).  With
``--trace 1`` passes alternate untraced and traced.  Results are checked
after each pass, outside the timed region, and one JSON line is printed.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

from tracer import BENCH, LAYERS, Tracer
from workloads import WORKLOADS, worst

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS_DIR = os.path.join(ROOT, ".perfbench")

# Address-space cap of the flows child.  The default-grid 2d small-time OU
# flow then raises MemoryError in about a second instead of exhausting the
# machine's memory; every other flows request fits under it.
FLOWS_ADDRESS_SPACE = 4 << 30

MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


def execute(request, request_id, tracer=None):
    """Run one request; returns (latency_s, cpu_s, result, error).

    The CPU clock is read outside the latency: on a shared 2-vCPU virtual
    machine, a read right after a request took 0.2-0.6 ms.
    """
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        if tracer is None:
            result = request.run()
        else:
            result = tracer.request(request_id, request.run)
        error = None
    except Exception as exc:  # a failing request is recorded, not fatal
        result, error = None, exc
    latency = time.perf_counter() - start
    return latency, time.process_time() - cpu, result, error


def evaluate(request, result, error):
    """Returns (status, values, err_ratio); status is ok, failed or wrong.

    ``failed`` is the recorded known failure of the request; ``wrong`` is
    any other exception, a wrong exit code or a missed accuracy bound.
    """
    if error is not None:
        known = (request.known_failure is not None
                 and isinstance(error, request.known_failure))
        return ("failed" if known else "wrong"), {"error": repr(error)}, math.nan
    try:
        values = request.values(result)
        ratio = worst(check(values) for check in request.checks)
    except Exception as exc:  # unparsable output counts as a wrong answer
        return "wrong", {"error": repr(exc)}, math.nan
    # a NaN ratio fails this test, so a NaN result is wrong
    return ("ok" if ratio <= 1.0 else "wrong"), values, ratio


def run_pass(workload, tracer=None):
    wall0 = time.perf_counter()
    raw = [execute(req, i, tracer) for i, req in enumerate(workload.requests)]
    wall = time.perf_counter() - wall0
    outcomes = [evaluate(req, result, error)
                for req, (_, _, result, error) in zip(workload.requests, raw)]
    return {"wall": wall, "latencies": [r[0] for r in raw],
            "cpus": [r[1] for r in raw], "outcomes": outcomes}


def run(workload, seconds, trace, spans_path=None):
    """Warm up, run passes until ``seconds`` have passed, return the summary."""
    for i in range(workload.warmup):
        execute(workload.requests[i], i)
    passes = []
    traced_passes = []
    peak_rss = None
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if trace and len(passes) % 2 == 1:
            tracer = Tracer()
            tracer.install()
            try:
                p = run_pass(workload, tracer)
            finally:
                tracer.uninstall()
            p["layers"] = tracer.metrics()
            p["tracer"] = tracer
            traced_passes.append(p)
        else:
            p = run_pass(workload)
        passes.append(p)
        if peak_rss is None:
            # after a fixed number of passes, so the figure does not depend
            # on how many passes fit into the run
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans_path is not None:
        for index, p in enumerate(passes):
            if "tracer" in p:
                p["tracer"].dump(spans_path, index)

    untraced = [p for p in passes if "layers" not in p]
    outcomes = [o for p in passes for o in p["outcomes"]]
    statuses = [status for status, _, _ in outcomes]
    ratios = [r for status, _, r in outcomes if status == "ok"]
    names = [req.name for req in workload.requests]
    summary = {
        "attempted": len(outcomes),
        "wrong": statuses.count("wrong"),
        "known_failures": statuses.count("failed"),
        "wrong_requests": {n: values.get("error", f"error ratio {r:.3g}")
                           for p in passes
                           for n, (s, values, r) in zip(names, p["outcomes"])
                           if s == "wrong"},
        "pass_walls": [round(p["wall"], 3) for p in passes],
    }
    metrics = {
        "wall_s": _least_total(untraced, "latencies"),
        "cpu_s": _least_total(untraced, "cpus"),
        "req_p50_ms": 1e3 * statistics.median(
            _best_latency(untraced, i) for i in range(len(names))),
        "peak_rss_mb": peak_rss,
        "ok_frac": statuses.count("ok") / len(statuses),
        "accuracy.max_err_ratio": max(ratios) if ratios else math.nan,
    }
    identical = True
    if traced_passes:
        reference = untraced[0]["outcomes"]
        mismatched = sorted({n for p in traced_passes
                             for n, a, b in zip(names, reference, p["outcomes"])
                             if not _same(a, b)})
        identical = not mismatched
        summary["trace_mismatches"] = mismatched
        layers = {key: statistics.median(p["layers"][key] for p in traced_passes)
                  for key in traced_passes[0]["layers"]}
        layers["trace.overhead_s"] = (_least_total(traced_passes, "latencies")
                                      - metrics["wall_s"])
        layers["trace.accounted_frac"] = statistics.median(
            sum(p["layers"][f"{layer}.self_s"] for layer in LAYERS + (BENCH,))
            / p["wall"] for p in traced_passes)
        metrics.update(layers)
    summary["correct"] = summary["wrong"] == 0 and identical
    summary["metrics"] = metrics
    return summary


def _least_total(passes, key):
    """One pass over the request list, each request at its least time.

    A busy host only ever adds time, and it switches between a fast and a
    slow speed within seconds, so the least time of each request over the
    passes is steadier than the least pass.
    """
    return sum(min(p[key][i] for p in passes) for i in range(len(passes[0][key])))


def _best_latency(passes, index):
    """Least latency of one request over the passes.

    Taken per request before the median over requests, so that a pass run
    while the machine was busy moves the result by its share, not by a jump
    from one request to another.  A request that failed in any pass counts
    as missing any latency limit.
    """
    if any(p["outcomes"][index][0] != "ok" for p in passes):
        return math.inf
    return min(p["latencies"][index] for p in passes)


def _same(a, b):
    """Bit-identical outcomes: same status and equal report values."""
    return a[0] == b[0] and (a[0] != "ok" or a[1] == b[1])


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "flows":
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (FLOWS_ADDRESS_SPACE, hard))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.probe:
        return 0
    spans_path = None
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR,
                                  f"spans-{args.workload}-seed{args.seed}.jsonl")
        if os.path.exists(spans_path):
            os.remove(spans_path)
    summary = run(workload, args.seconds, args.trace, spans_path)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
