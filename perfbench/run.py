"""Run one workload of the starkprobe benchmark and print its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is taken from the checkout's
`src`.  One closed-loop client in this process runs the workload's operations
one at a time, in an order drawn from the seed, in whole passes until
`--seconds` have gone by, and at least three passes.  Every output is checked
against the references in `refs/` (see record_refs.py).  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced pass
and then one traced pass (see tracing.py) and reports the per-layer metrics,
with `trace.overhead_s` the difference of the two passes' wall times.
--smoke runs the same code at tiny sizes against the smoke references.

BLAS keeps its default thread count; the run records it with the machine.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT/"src"
SETUP_REPS = 9  # fresh interpreters per set-up measurement
IMPORT_REPS = 5
PROBE_REF_S = 4.3e-4  # about speed_probe's fastest reading where the benchmark was built
MIN_PASSES = 3  # every operation repeats, also when one pass outlasts --seconds


def _median_wall(cmd: list[str], reps: int, env=None) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_seconds(workload: str, smoke: bool, reps: int) -> float:
    """A fresh interpreter imports starkprobe and builds the workload."""
    code = (f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; import workloads; "
            f"workloads.build({workload!r}, {smoke!r})")
    return _median_wall([sys.executable, "-c", code], reps)


def import_seconds(reps: int, env: dict) -> dict:
    """Interpreter start, and numpy and starkprobe's own modules from -X importtime."""
    numpy_us, own_us = [], []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import starkprobe"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        numpy_us.append(cumulative.get("numpy", 0))
        own_us.append(cumulative["starkprobe"] - cumulative.get("numpy", 0))
    return {"import.interpreter_s": _median_wall([sys.executable, "-c", "pass"], reps),
            "import.numpy_s": statistics.median(numpy_us)*1e-6,
            "import.starkprobe_s": statistics.median(own_us)*1e-6}


def _blas_threads():
    """The thread count OpenBLAS runs with, asked of the library numpy loaded."""
    import numpy as np
    for lib in sorted((Path(np.__file__).parent.parent/"numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT/".git"/"HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT/".git"/ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT/".git"/"packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def machine_record(args) -> dict:
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "commit": _git_commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
    }


class Runner:
    """Runs operations one at a time, timing each and checking its output."""

    def __init__(self, wl, refs):
        self.wl, self.refs = wl, refs
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict = {}

    def run(self, op) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:   # a failed operation is counted, not fatal
            self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        try:
            out = op.collect(result)
        except Exception as exc:
            self.failures.append(f"{op.name}: output unreadable: {type(exc).__name__}: {exc}")
            return elapsed
        ref = self.refs.get(op.name)
        if ref is None:
            self.failures.append(f"{op.name}: no reference")
        elif not self.wl.compare(ref, out):
            self.failures.append(f"{op.name}: off reference")
        self.outputs[op.name] = out
        return elapsed

    def run_pass(self, rng: random.Random) -> list[tuple]:
        ops = list(self.wl.ops)
        rng.shuffle(ops)
        return [(op, self.run(op)) for op in ops]


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast this core runs now."""
    t0 = time.perf_counter()
    x, total = 1.0 + 0j, 0.0
    for _ in range(4000):
        x = x*0.999 + 1e-3j
        total += abs(x)
    return time.perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and which one;
    the maximum when there are too few samples for that."""
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0*(k + 1)/len(xs)


def by_kind(timed: list[tuple]) -> dict[str, float]:
    groups: dict[str, list] = {}
    for op, dt in timed:
        groups.setdefault(op.kind, []).append(dt)
    return {kind: statistics.median(ts) for kind, ts in sorted(groups.items())}


def timed_run(args, wl, runner) -> tuple[dict, dict]:
    setup_s = setup_seconds(wl.name, args.smoke, 2 if args.smoke else SETUP_REPS)
    rng = random.Random(args.seed)
    if wl.warmup is not None:
        runner.run(wl.warmup)
    per_op: dict[str, list] = {op.name: [] for op in wl.ops}
    probes: list[float] = []
    passes = 0
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
            if not wl.children:
                # one core can be slowed for seconds while the other is not,
                # and the scheduler keeps a busy thread where it is: so the
                # passes take turns on the cores.  BLAS keeps its threads,
                # which started at import; children would inherit the mask.
                os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            ops = list(wl.ops)
            rng.shuffle(ops)
            for op in ops:
                probes.append(speed_probe())
                per_op[op.name].append(runner.run(op))
            passes += 1
    finally:
        os.sched_setaffinity(0, cpus)
    fastest = {name: min(ts) for name, ts in per_op.items()}
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    # Each operation counts at its fastest repetition.  The machine also
    # changes speed for minutes at a time, which the fixed speed probe taken
    # before every operation follows, so the sum is rescaled to the probe's
    # reference reading.
    raw_wall = sum(fastest.values())
    metrics = {
        "setup_s": setup_s,
        "wall_s": raw_wall*PROBE_REF_S/min(probes),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss/1024.0,
    }
    # per-operation latency over every sample; reported, not gated, because
    # it follows the speed of the machine during the run
    latency = []
    per_latency = sorted({op.latency for op in wl.ops})
    for name in per_latency:
        times = [dt for op in wl.ops if op.latency == name for dt in per_op[op.name]]
        tail_value, tail_pct = tail(times)
        latency += [(f"{name}.p50", statistics.median(times),
                     f"{len(times)} samples in {passes} passes"),
                    (f"{name}.tail", tail_value, f"p{tail_pct:.4g} of {len(times)} samples")]
    group_size = {name: sum(op.latency == name for op in wl.ops) for name in per_latency}
    detail = {
        "passes": passes, "raw_wall_s": raw_wall, "probe_s": min(probes), "latency": latency,
        # one line per operation, except for groups as large as the oracle's points
        "fastest_s": {op.name: fastest[op.name] for op in wl.ops
                      if group_size[op.latency] <= 50},
        "times_s": per_op,
    }
    return metrics, detail


def traced_run(args, wl, runner) -> tuple[dict, dict]:
    import tracing
    import workloads
    rng = random.Random(args.seed)
    metrics = import_seconds(2 if args.smoke else IMPORT_REPS, workloads.python_env())
    runner.run(wl.warmup or wl.ops[0])
    plain = runner.run_pass(rng)
    tracer = tracing.Tracer()
    with tracer.tracing():
        traced = runner.run_pass(rng)
    metrics.update(tracer.metrics())
    sweeps = by_kind([(op, dt) for op, dt in plain if op.latency == "sweep_s"])
    for kind in ("vacuum", "coherent", "incoherent", "thermal", "comb"):
        metrics[f"spectrum_s.{kind}"] = sweeps.get(kind, 0.0)
    devs = {40: 0.0, 80: 0.0}
    for op in wl.ops:
        if op.latency == "oracle_point_s" and op.name in runner.outputs:
            out = runner.outputs[op.name]
            for col, nf in enumerate((40, 80)):
                devs[nf] = max(devs[nf], abs(out[col] - out[2])/abs(out[2]))
    for nf, dev in devs.items():
        metrics[f"oracle.max_rel_dev.n_fock_{nf}"] = dev
    plain_wall = sum(dt for _, dt in plain)
    traced_wall = sum(dt for _, dt in traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    trace_file = workloads.WORK/f"trace-{wl.name}{'-smoke' if args.smoke else ''}.npz"
    tracer.save(trace_file)
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans": len(tracer.start), "absent": tracer.absent,
              "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["figures", "single-qubit", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, checked against the smoke references")
    args = parser.parse_args(argv)

    if not (SRC/"starkprobe"/"__init__.py").is_file():
        print(f"error: no starkprobe package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import starkprobe
    import workloads
    if Path(starkprobe.__file__).resolve().parent != SRC/"starkprobe":
        print(f"error: imported starkprobe from {starkprobe.__file__}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.smoke, in_process=bool(args.trace))
    try:
        refs = workloads.load_refs(args.workload, args.smoke)
    except OSError as exc:
        print(f"error: no references: {exc}", file=sys.stderr)
        return 2
    runner = Runner(wl, refs)
    if wl.name == "cli":
        workloads.prepare_cli()
    try:
        if args.trace:
            metrics, detail = traced_run(args, wl, runner)
        else:
            metrics, detail = timed_run(args, wl, runner)
    finally:
        if wl.name == "cli":
            workloads.cleanup_cli()

    with open(ROOT/"BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = len(runner.failures)
    record = {"machine": machine_record(args), "detail": detail,
              "failures": runner.failures[:20],
              "failed_frac": failed/runner.attempted}
    print(f"# {json.dumps(record['machine'])}")
    for name, value in metrics.items():
        if value is None:
            print(f"{name}: absent (its traced target no longer exists)")
        else:
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed/runner.attempted:.6g} ({failed} of {runner.attempted})")
    for failure in runner.failures[:20]:
        print(f"failed: {failure}")
    if "raw_wall_s" in detail:
        print(f"# wall_s = raw {detail['raw_wall_s']:.6g} s x {PROBE_REF_S:g} s / fastest "
              f"speed probe {detail['probe_s']:.6g} s")
    for name, value, note in detail.get("latency", ()):
        print(f"{name} = {value:.6g} s ({note})")
    for name, value in sorted((detail.get("fastest_s") or {}).items()):
        print(f"fastest {name} = {value:.6g} s")

    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": float(value), "unit": units[name]}
                          for name, value in metrics.items() if value is not None}}
    record["result"] = result
    out = workloads.WORK/(f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          f"{'-smoke' if args.smoke else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
