"""Single-layer probes for the traced run, measured with tracing off.

The three-box figures reconcile with the per-call baselines quoted in
ROADMAP.md; the sampler figures feed its streaming-sampler item: whether
the worker thread pool pays for itself, and how sampler memory per trial
depends on the number of final outcomes.
"""
from __future__ import annotations

import statistics
import tracemalloc
from time import perf_counter

import numpy as np

from workloads import McScale

REPEATS = 5
CALLS = 100
SAMPLER_TRIALS = 10_000_000
SPEEDUP_PAIRS = 3


def _us_per_call(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(CALLS):
            fn()
        times.append((perf_counter() - start) / CALLS)
    return statistics.median(times) * 1e6


def _peak_bytes_per_trial(pp, protocol, seed: int, workers: int) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pp.run_ensemble(protocol, SAMPLER_TRIALS, seed, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / SAMPLER_TRIALS


def _seconds(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def run(pp, seed: int, workers: int) -> dict[str, tuple[float, str]]:
    s3 = 1.0 / np.sqrt(3.0)
    labels = ("A", "B", "C")
    pre = pp.PureState(labels, [s3, s3, s3])
    post = pp.ProjectiveMeasurement.binary_from_state(
        pp.PureState(labels, [s3, s3, -s3]), "b", "not_b")
    in_a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    box_a = [("in_A", in_a), ("not_A", np.eye(3) - in_a)]
    query = pp.ProjectiveMeasurement(box_a)
    ctx = pp.SelectionContext(pre, post, "b")
    stmt = pp.CounterfactualStatement(pp.Protocol(pre, post, selection="b"),
                                      query, "single")
    three_box = pp.Protocol(pre, post, intermediate=pp.MeasureStage(query),
                            selection="b")
    dim8 = McScale(seed, workers)
    dim8.setup(pp)

    ratios = []
    for _ in range(SPEEDUP_PAIRS):
        serial = _seconds(lambda: pp.run_ensemble(dim8.protocol, SAMPLER_TRIALS,
                                                  seed, workers=1))
        pooled = _seconds(lambda: pp.run_ensemble(dim8.protocol, SAMPLER_TRIALS,
                                                  seed, workers=workers))
        ratios.append(serial / pooled)

    return {
        "probe.three_box.abl_us": (
            _us_per_call(lambda: pp.abl_distribution(ctx, query)), "us"),
        "probe.three_box.evaluate_us": (
            _us_per_call(lambda: pp.evaluate(stmt)), "us"),
        "probe.pvm_dim3_us": (
            _us_per_call(lambda: pp.ProjectiveMeasurement(box_a)), "us"),
        "ensemble.worker_speedup": (statistics.median(ratios), "ratio"),
        "ensemble.peak_bytes_per_trial.nfinal2": (
            _peak_bytes_per_trial(pp, three_box, seed, workers), "B/trial"),
        "ensemble.peak_bytes_per_trial.nfinal8": (
            _peak_bytes_per_trial(pp, dim8.protocol, seed, workers), "B/trial"),
    }
