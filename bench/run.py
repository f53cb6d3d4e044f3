"""Benchmark of the cnmfg particle solver: time to a checked solution, end to end and per layer.

    python3 bench/run.py --workload lq_desk --seed 11 --seconds 24 --trace 0
    python3 bench/run.py --workload all

One process runs one workload as a closed loop: a single client starts the
next operation only when the previous one has returned and been checked.
``--trace 0`` solves one instance of the workload per operation for
``--seconds`` seconds, then the first instance again, and reports the
end-to-end metrics. ``--trace 1`` alternates untraced and traced operations
on the first instance and reports the per-layer metrics of the traced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in its own process, so that no peak memory carries over,
once untraced and once traced.

The package is imported from ``src`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("lq_desk", "quartic_newton", "cli_continuation", "nash_small")

# the BLAS pool is the only thread pool; cap it at the CPUs this process may
# use, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))

SETUP_MIN_REPS = 5          # set-up repeats: at least this many ...
SETUP_MIN_S = 1.0           # ... and until this much time has passed ...
SETUP_MAX_REPS = 50         # ... or this many repeats
INSTANCE_STRIDE = 1000      # instance i of a run solves the noise of seed + i * stride


def _median_setup(workload, seed: int):
    """Median set-up time over repeats, and the inputs of the last repeat."""
    times = []
    inputs = None
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S
                                          and len(times) < SETUP_MAX_REPS):
        inputs = None           # free the previous repeat's arrays before timing
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), inputs


class Loop:
    """Runs, times and checks the operations of one workload.

    Operation inputs are instances of the workload: instance 0 is made from
    the run's seed, instance i from ``seed + i * INSTANCE_STRIDE``. The number
    of sweeps to tolerance depends on the noise, so a run spreads its
    operations over several instances and reports their median.
    """

    def __init__(self, workload, seed: int, inputs0, out_root: Path):
        self.workload = workload
        self.seed = seed
        self.inputs0 = inputs0
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict[int, str] = {}
        self.accuracy: dict = {}
        self.peak_rss_mb = None

    def run(self, instance: int, tracer=None):
        """One operation; returns (wall seconds, root span or None, checks passed)."""
        inputs = (self.inputs0 if instance == 0
                  else self.workload.setup(self.seed + instance * INSTANCE_STRIDE))
        out_dir = self.out_root / f"op{self.attempted}"
        self.attempted += 1
        root = result = None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.workload.operation(inputs, out_dir)
            else:
                result, root = tracer.operation(self.workload.operation, inputs, out_dir)
        except Exception:
            traceback.print_exc()
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if root is not None:
            wall = root.duration
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        ok = result is not None and self._check(instance, inputs, result)
        shutil.rmtree(out_dir, ignore_errors=True)
        if not ok:
            self.failed += 1
        return wall, root, ok

    def _check(self, instance: int, inputs, result) -> bool:
        try:
            outcome = self.workload.check(inputs, result)
        except Exception:
            traceback.print_exc()
            return False
        problems = list(outcome.problems)
        first = self.fingerprints.setdefault(instance, outcome.fingerprint)
        if outcome.fingerprint != first:
            problems.append(f"result fingerprint {outcome.fingerprint} differs from {first} "
                            f"of the first operation on instance {instance}")
        if instance == 0 and not self.accuracy:
            self.accuracy = outcome.accuracy
        for problem in problems:
            print(f"check failed on operation {self.attempted - 1} (instance {instance}): "
                  f"{problem}", file=sys.stderr)
        return not problems


def measure(workload, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    """Run one workload for ``seconds``; return the result object printed as the last line."""
    setup_s, inputs0 = _median_setup(workload, seed)
    loop = Loop(workload, seed, inputs0, out_root)
    start = time.perf_counter()

    def room_for(n_ops: int) -> bool:
        elapsed = time.perf_counter() - start
        return elapsed + n_ops * elapsed / loop.attempted <= seconds

    if trace:
        return _traced(loop, room_for, out_root.parent)
    # one operation per instance while there is time, then instance 0 again
    # for the determinism guard
    walls = [loop.run(0)[0]]
    while room_for(2):
        walls.append(loop.run(loop.attempted)[0])
    walls.append(loop.run(0)[0])
    print(f"{workload.name} seed={seed}: {loop.attempted} operations on "
          f"{loop.attempted - 1} instances, {loop.failed} failed")
    for name, unit, value in (
            ("wall_s", "s", statistics.median(walls)),
            ("setup_s", "s", setup_s),
            ("peak_rss_mb", "MB", loop.peak_rss_mb),
            ("fail_frac", "ratio", loop.failed / loop.attempted),
            *((name, "-" if name == "foc_residual" else "ratio", value)
              for name, value in loop.accuracy.items())):
        print(f"  {name:16s} {value:.6g} {unit}")
    print(f"  wall_s per operation: {', '.join(f'{w:.3f}' for w in walls)}")
    metrics = {"wall_s": (statistics.median(walls), "s"), "setup_s": (setup_s, "s"),
               "peak_rss_mb": (loop.peak_rss_mb, "MB")}
    return _result(loop, metrics)


def _traced(loop: Loop, room_for, spans_dir: Path) -> dict:
    """Untraced and traced operations alternate on instance 0, so that count
    metrics repeat exactly and the overhead compares like with like."""
    from tracing import COUNT_METRICS, LAYER_METRICS, Tracer, operation_metrics

    tracer = Tracer()
    tracer.install()
    try:
        _, setup_root = tracer.operation(loop.workload.setup, loop.seed)
    finally:
        tracer.uninstall()
    overheads: list[float] = []     # traced minus untraced wall of adjacent operations
    per_op: list[dict] = []
    while not overheads or room_for(2):
        untraced = loop.run(0)[0]
        wall, root, ok = loop.run(0, tracer)
        overheads.append(wall - untraced)
        if ok and root is not None:
            per_op.append(operation_metrics(tracer, root, setup_root))
    tracer.write(spans_dir / f"spans-{loop.workload.name}-seed{loop.seed}.jsonl")
    for name in tracer.missing:
        print(f"hook {name} not found: its layer is unmeasured", file=sys.stderr)
    for i, m in enumerate(per_op[1:], 1):
        changed = [name for name in COUNT_METRICS if m[name] != per_op[0][name]]
        if changed:
            print(f"count metrics of traced operation {i} differ: {changed}", file=sys.stderr)
            loop.failed += 1
    metrics = {name: (statistics.median(m[name] for m in per_op) if per_op else 0.0, unit)
               for name, unit in LAYER_METRICS.items()}
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    metrics["trace.missing_hooks"] = (len(tracer.missing), "count")
    print(f"{loop.workload.name} seed={loop.seed} traced: {loop.attempted} operations "
          f"({len(overheads)} traced), {loop.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    return _result(loop, metrics)


def _result(loop: Loop, metrics: dict) -> dict:
    return {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    worst = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=11, help="noise seed (default 11)")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measuring time of one run (default 24, as in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "cnmfg").is_dir():
        print(f"error: package source not found at {SRC / 'cnmfg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    out_root = OUT / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
