"""Benchmark of entroframe: one workload per run, checked against references.

    python3 perfbench/run.py --workload grid2d|flows|checks1d --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in its own child
process (``worker.py``) against the package in ``src/``; set-up is the
median time from spawning a fresh interpreter until ``entroframe`` is
imported and the seeded requests exist, over several starts.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` lists: its end-to-end
metrics with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A summary for people goes to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Fresh interpreter starts timed for set-up besides the worker's own start;
# with the worker's, an odd number, so the median is one of the starts.
SETUP_PROBES = 2
# Every run must end well inside the three minutes a run is allowed.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "entroframe", "__init__.py")):
        raise BenchError(f"no entroframe package under {src}")
    env = dict(os.environ)
    # grids are passed explicitly; the default-grid override must not leak in
    env.pop("ENTROFRAME_GRID_N", None)
    env["PYTHONPATH"] = src
    return env


def spawn(args, env, extra):
    """Start a worker; returns (process, seconds until it printed ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", args.workload,
         "--seed", str(args.seed)] + extra,
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start: {line!r}")
    return proc, ready


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def load_metric_table(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        table = load_metric_table(args.trace)
        env = child_env()
        setup = []
        for _ in range(SETUP_PROBES):
            proc, ready = spawn(args, env, ["--probe"])
            finish(proc, DEADLINE_S - (time.perf_counter() - started))
            setup.append(ready)
        proc, ready = spawn(args, env, ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)])
        setup.append(ready)
        out = finish(proc, DEADLINE_S - (time.perf_counter() - started))
        summary = json.loads(out.strip().splitlines()[-1])
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    values = dict(summary["metrics"], setup_s=statistics.median(setup))
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        print(f"benchmark failed: worker did not report {missing}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: passes {summary['pass_walls']} s, "
          f"{summary['attempted']} requests, {summary['known_failures']} known "
          f"failures, wrong: {summary['wrong_requests'] or 'none'}, "
          f"trace mismatches: {summary.get('trace_mismatches', 'n/a')}, "
          f"max err ratio {values['accuracy.max_err_ratio']:.3g}",
          file=sys.stderr)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["wrong"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
