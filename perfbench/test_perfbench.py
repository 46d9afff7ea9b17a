"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench -q

The tracer must not change any result, and its self-time arithmetic must
account for every instant of a request exactly once.
"""

import math

import pytest

import entroframe
import tracer
import worker
import workloads
from tracer import Tracer, self_times


def span(start, end, parent=None):
    return ("s", start, end, parent, 0)


def test_self_time_of_a_hand_built_tree():
    spans = [span(0.0, 10.0),           # 0: request root
             span(1.0, 4.0, 0),         # 1
             span(2.0, 3.0, 1),         # 2: grandchild of 0
             span(5.0, 9.0, 0),         # 3
             span(5.5, 6.0, 3),         # 4
             span(7.0, 8.5, 3)]         # 5
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5], abs=1e-12)
    assert sum(own) == pytest.approx(10.0, abs=1e-12)


def test_known_failure_is_failed_not_wrong():
    req = workloads.Request("r", None, (workloads.close("v", 0.0, 1.0),),
                            values=dict, known_failure=MemoryError)
    assert worker.evaluate(req, None, MemoryError())[0] == "failed"
    assert worker.evaluate(req, None, ValueError())[0] == "wrong"
    assert worker.evaluate(req, {"v": 0.5}, None)[0] == "ok"
    assert worker.evaluate(req, {"v": 2.0}, None)[0] == "wrong"
    assert worker.evaluate(req, {"v": math.nan}, None)[0] == "wrong"


def test_nan_is_wrong_wherever_a_check_sees_it():
    nan = math.nan
    assert math.isnan(workloads.holds(1e-4)({"slack": nan}))
    assert workloads.holds(1e-4)({"slack": 1.0}) == 0.0
    sweep = workloads.rows(lambda p, lhs, rhs, slack: workloads.shortfall(slack))
    assert math.isnan(sweep({"param": [1, 2], "lhs": [0, 0], "rhs": [0, 0],
                             "slack": [-0.5, nan]}))
    assert math.isnan(workloads.worst((0.5, nan)))
    # a NaN after a passing check, as a CLI request's exit-code check
    req = workloads.Request("cli", None,
                            (workloads.exits(0), workloads.close("slack", 0.0, 1.0),
                             workloads.holds(1.0, "other")),
                            values=dict)
    assert worker.evaluate(req, {"exit": 0, "slack": 0.5, "other": 0.0}, None)[0] == "ok"
    assert worker.evaluate(req, {"exit": 0, "slack": nan, "other": 0.0}, None)[0] == "wrong"
    assert worker.evaluate(req, {"exit": 0, "slack": 0.5, "other": nan}, None)[0] == "wrong"


@pytest.mark.parametrize("build", [
    lambda: workloads.grid2d(7, points=129),
    lambda: workloads.flows(7, points=65, coarse_points=65),
    lambda: workloads.checks1d(7, points=129),
], ids=["grid2d", "flows", "checks1d"])
def test_traced_pass_matches_untraced_bit_for_bit(build):
    workload = build()
    plain = worker.run_pass(workload)
    original_marginal = entroframe.marginal
    t = Tracer()
    t.install()
    try:
        traced = worker.run_pass(workload, t)
    finally:
        t.uninstall()
    assert entroframe.marginal is original_marginal
    for req, a, b in zip(workload.requests, plain["outcomes"], traced["outcomes"]):
        assert a[0] == b[0], req.name
        assert a[1] == b[1], req.name

    # every instant inside a request belongs to exactly one span's self time
    own = self_times(t.spans)
    roots = [s for s in t.spans if s[3] is None]
    assert all(s[0] == tracer.BENCH for s in roots)
    assert len(roots) == len(workload.requests)
    assert math.isclose(sum(own), sum(s[2] - s[1] for s in roots), rel_tol=1e-9)
    metrics = t.metrics()
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS + (tracer.BENCH,))
    assert math.isclose(layers, sum(own), rel_tol=1e-9)
