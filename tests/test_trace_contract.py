"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps package
names from outside.  A kernel that stops calling through a traced name
would silently read 0 in its layer's metrics; these tests fail instead."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]/"perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_target_exists():
    tracer = tracing.Tracer()
    with tracer.tracing():
        pass
    assert tracer.absent == []


def test_traced_single_qubit_smoke_pass_counts_the_kernels():
    wl = workloads.build("single-qubit", smoke=True)
    oracle_points = sum(op.latency == "oracle_point_s" for op in wl.ops)
    tracer = tracing.Tracer()
    with tracer.tracing():
        for op in wl.ops:
            op.run()
    metrics = tracer.metrics()
    assert tracer.absent == []
    assert oracle_points > 0
    assert metrics["oracle.n_fock_40.calls"] == oracle_points
    assert metrics["oracle.n_fock_80.calls"] == oracle_points
    # each oracle point and each coherent sweep calls the coherent kernel
    assert metrics["detector.response.coherent.co.points"] > oracle_points
