"""Run one benchmark workload against the prepost source in this checkout.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs come from the seed alone. After a timed set-up (import plus the
workload's program-side construction, repeated and reported as a median),
the workload runs closed loop, one caller, in whole passes until S seconds
have elapsed. Outputs are then checked; any exception or failed check counts
as a failed operation. The last line of standard output is the JSON result.

With --trace 0 the end-to-end metrics are reported. With --trace 1 one pass
runs untraced, then whole passes run with spans recorded around every call
into prepost's public functions, then single-layer probes run; the per-layer
metrics come from the spans and probes, and the spans are written to
.bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import copy
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 6


@dataclass
class Op:
    index: int
    latency: float
    trials: int
    output: object
    error: BaseException | None


@dataclass
class Phase:
    ops: list[Op]
    pass_walls: list[float]


def _import_prepost():
    for name in [n for n in sys.modules if n == "prepost" or n.startswith("prepost.")]:
        del sys.modules[name]
    pp = importlib.import_module("prepost")
    importlib.import_module("prepost.cli")
    return pp


def time_setups(wl, repeats: int) -> tuple[list[float], object]:
    """Times to import prepost afresh and build the workload's program
    objects, once per repeat; returns them and the last import."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        pp = _import_prepost()
        wl.setup(pp)
        times.append(perf_counter() - start)
    return times, pp


def run_passes(wl, seconds: float, tracer=None) -> Phase:
    """Closed loop over whole passes until ``seconds`` have elapsed."""
    ops: list[Op] = []
    walls: list[float] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for i in range(wl.n_ops):
            if tracer is not None:
                tracer.op = len(ops)
            t0 = perf_counter()
            try:
                output, trials = wl.run_op(i)
                error = None
            except Exception as exc:  # counted as a failed operation
                output, trials, error = None, 0, exc
            ops.append(Op(i, perf_counter() - t0, trials, output, error))
        walls.append(perf_counter() - pass_start)
        if perf_counter() - start >= seconds:
            return Phase(ops, walls)


def check_phase(wl, phase: Phase, first: dict[int, str]) -> int:
    """Check each operation and return how many failed.

    The first successful output of each input is checked against the
    workload's independent route and remembered in ``first``; every later
    output for that input must repeat it exactly.
    """
    failed = 0
    for op in phase.ops:
        if op.error is None:
            try:
                item = json.dumps(wl.digest_item(op.index, op.output))
                if op.index not in first:
                    wl.check(op.index, op.output)
                    first[op.index] = item
                elif item != first[op.index]:
                    raise AssertionError(
                        f"op {op.index} output differs from its first run")
            except Exception as exc:
                op.error = exc
        if op.error is not None:
            if failed == 0:
                print(f"input {op.index} failed:", file=sys.stderr)
                traceback.print_exception(op.error, file=sys.stderr)
            failed += 1
    return failed


def end_to_end(setup_s: float, phase: Phase, n_ops: int) -> dict[str, tuple[float, str]]:
    """Figures of a median pass.

    Each input's latency is its median over the passes, which keeps a burst
    of load from a neighbouring process out of the figures. The latency
    percentiles are taken over the inputs (n_ops samples), the throughputs
    over their sum.
    """
    latencies = [[] for _ in range(n_ops)]
    trials = [0] * n_ops
    for op in phase.ops:
        latencies[op.index].append(op.latency)
        if op.error is None:
            trials[op.index] = op.trials
    medians_ms = np.array([statistics.median(times) for times in latencies]) * 1e3
    wall = medians_ms.sum() / 1e3
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "trials_per_s": (sum(trials) / wall, "1/s"),
        "ops_per_s": (n_ops / wall, "1/s"),
        "op_p50_ms": (float(np.percentile(medians_ms, 50)), "ms"),
        "op_p99_ms": (float(np.percentile(medians_ms, 99)), "ms"),
        "wall_s": (wall, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prepost" / "__init__.py").is_file():
        print(f"error: no prepost package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probes
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workers = len(os.sched_getaffinity(0))
    wl = workloads.make(args.workload, args.seed, workers, OUT_DIR)
    setup_times, pp = time_setups(wl, SETUP_REPEATS)
    if not Path(pp.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported prepost from {pp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if hasattr(wl, "count_trials"):
        wl.count_trials()

    first: dict[int, str] = {}
    if args.trace == 0:
        phase = run_passes(wl, args.seconds)
        # Half the set-ups are timed after the phase, on a copy that leaves
        # the measured objects alone, so that the median spans the run.
        setup_times += time_setups(copy.copy(wl), SETUP_REPEATS)[0]
        failed = check_phase(wl, phase, first)
        attempted = len(phase.ops)
        metrics = end_to_end(statistics.median(setup_times), phase, wl.n_ops)
        passes = len(phase.pass_walls)
    else:
        plain = run_passes(wl, 0.0)
        tracer = tracing.Tracer()
        tracer.install(pp)
        try:
            traced = run_passes(wl, args.seconds, tracer)
        finally:
            tracer.uninstall()
        # Traced outputs must repeat the untraced ones exactly.
        failed = check_phase(wl, plain, first) + check_phase(wl, traced, first)
        attempted = len(plain.ops) + len(traced.ops)
        passes = len(traced.pass_walls)
        metrics = tracer.layer_metrics(passes)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced.pass_walls) / plain.pass_walls[0], "ratio")
        metrics.update(probes.run(pp, args.seed, workers))
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    digest = workloads.digest([first.get(i) for i in range(wl.n_ops)])
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"workers={workers} passes={passes} ops={attempted} "
          f"latency_samples={wl.n_ops} "
          f"fail_rate={failed / attempted:g} digest={digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
