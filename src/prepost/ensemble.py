"""Seeded Monte Carlo realization of prepare/measure protocols.

Each trial prepares the state, evolves it to the intermediate time, runs
the optional intermediate stage (measurement, unitary, or absorbing
filter), evolves to the final time, and measures the final PVM. Only joint
(intermediate outcome, final outcome) counts are retained.

Determinism contract: the two uniform variates consumed by trial i are a
fixed function of (seed, i), namely rows of a counter-based Philox stream
keyed by the seed. Each even-aligned chunk of CHUNK trials is drawn from
the stream advanced to its first trial. Every tally, run_ensemble's and the
per-trial outcome counts over many seeded streams (the quantum raffle's
coins), is summed by worker threads that each draw their own run of whole
chunks: counts are byte-identical for every worker count, and memory does
not depend on the number of trials.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .core import EPS_AGREE, EPS_PROB, Distribution, Protocol, stage_branches


# Trials per variate chunk. Even, because one Philox counter step yields the
# four 64-bit words of two trials, so only even trials can start a chunk.
CHUNK = 1 << 16
# Upper bound on the worker count: every worker is an operating-system thread.
MAX_WORKERS = 64


class EmptySelection(ValueError):
    """No trial satisfied the requested final-outcome condition.

    Distinct from the analytic ImpossiblePostSelection: this one is about a
    finite sample and reports the observed counts.
    """


@dataclass(frozen=True, slots=True)
class EmpiricalDistribution:
    """Frequencies plus the sample size they were computed from."""
    distribution: Distribution
    sample_size: int

    def to_json_dict(self) -> dict:
        return {"distribution": self.distribution.to_json_dict(),
                "sample_size": self.sample_size}


@dataclass(frozen=True, slots=True)
class AgreementEntry:
    label: str
    frequency: float
    probability: float
    tolerance: float
    passed: bool


@dataclass(frozen=True, slots=True)
class AgreementReport:
    """Per-outcome binomial z-gates between frequencies and probabilities."""
    entries: tuple[AgreementEntry, ...]
    z: float
    sample_size: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "z": self.z,
            "sample_size": self.sample_size,
            "passed": self.passed,
            "entries": [asdict(e) for e in self.entries],
        }


class EnsembleStats:
    """Joint outcome counts of one seeded run, with full provenance."""

    def __init__(self, protocol: Protocol, trials: int, seed: int,
                 counts: dict[tuple[str | None, str], int]) -> None:
        if sum(counts.values()) != trials:
            raise ValueError("counts do not add up to the number of trials")
        self.protocol = protocol
        self.trials = trials
        self.seed = seed
        self.counts = dict(counts)

    def final_frequencies(self) -> EmpiricalDistribution:
        return self._marginal(self.protocol.post_pvm.labels, 1)

    def intermediate_frequencies(self) -> EmpiricalDistribution:
        """Empty when the protocol records no intermediate outcome."""
        return self._marginal(self.protocol.intermediate_labels, 0)

    def _marginal(self, labels: tuple[str, ...], side: int) -> EmpiricalDistribution:
        dist = Distribution([
            (l, sum(c for key, c in self.counts.items() if key[side] == l) / self.trials)
            for l in labels])
        return EmpiricalDistribution(dist, self.trials)

    def ordered_keys(self) -> list[tuple[str | None, str]]:
        mids = self.protocol.intermediate_labels or (None,)
        return [(m, f) for m in mids for f in self.protocol.post_pvm.labels]

    def to_json_dict(self) -> dict:
        return {
            "protocol": self.protocol.to_json_dict(),
            "trials": self.trials,
            "seed": self.seed,
            "counts": [{"intermediate": m, "final": f,
                        "count": self.counts.get((m, f), 0)}
                       for m, f in self.ordered_keys()],
        }


def _clean_cdf(probs: np.ndarray) -> np.ndarray:
    """CDF with numerically-zero branches given zero-width intervals.

    A right-bisect against this CDF can never land in a zero-width
    interval, so zero-probability outcomes are never sampled, not even
    once in 10^9 trials.
    """
    p = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    p[p <= EPS_PROB] = 0.0
    total = p.sum()
    if total <= 0.0:
        raise ValueError("all outcomes have zero probability")
    cdf = np.cumsum(p / total)
    cdf[-1] = 1.0
    return cdf


def _branch_table(protocol: Protocol, trials: int, seed: int
                  ) -> tuple[tuple[str | None, ...], np.ndarray, np.ndarray]:
    """Check the run size and seed, then precompute per-branch sampling tables.

    Returns (branch labels, branch CDF, per-branch final CDFs) over the
    branches of core.stage_branches.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    labels, p, rows = stage_branches(protocol, protocol.intermediate)
    # An unreachable branch gets a row of ones; it is never consulted.
    finals = np.array([_clean_cdf(row) if row.any() else np.ones(len(row)) for row in rows])
    return labels, _clean_cdf(p), finals


def _draw(branch_cdf: np.ndarray, final_cdfs: np.ndarray, seed: int,
          lo: int, hi: int) -> tuple[np.ndarray | int, np.ndarray]:
    """Branch and final outcome indices of trials [lo, hi); lo is even.
    The branch index is the scalar 0 when there is only one branch."""
    bits = np.random.Philox(key=seed).advance(lo // 2)
    uniforms = np.random.Generator(bits).random((hi - lo, 2))
    # Right-bisect each trial's final CDF row one column at a time; the last
    # column is exactly 1.0 and no variate reaches it.
    final = np.zeros(hi - lo, dtype=np.intp)
    if branch_cdf.size == 1:  # the branch CDF is [1.0]: no bisect needed
        for edge in final_cdfs[0, :-1]:
            final += edge <= uniforms[:, 1]
        return 0, final
    branch = np.searchsorted(branch_cdf, uniforms[:, 0], side="right")
    for column in final_cdfs.T[:-1]:
        final += column.take(branch) <= uniforms[:, 1]
    return branch, final


def resolve_workers(workers: int | None) -> int:
    """The worker count to run with: None picks one from the CPU count, and
    a count outside 1..MAX_WORKERS is an error."""
    if workers is None:
        return min(4, os.cpu_count() or 1)
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be between 1 and {MAX_WORKERS}")
    return workers


def _run_chunks(trials: int, workers: int | None,
                count: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Sum of count(lo, hi) over the chunks [lo, hi) of trials [0, trials).
    At most ``workers`` threads (None picks a number) each sum a contiguous
    run of whole chunks; a single run is summed inline."""
    n_chunks = -(-trials // CHUNK)
    workers = min(resolve_workers(workers), n_chunks)

    def tally(lo: int, hi: int) -> np.ndarray:
        return sum(count(start, min(start + CHUNK, hi))
                   for start in range(lo, hi, CHUNK))

    if workers == 1:
        return tally(0, trials)
    bounds = [min(n_chunks * k // workers * CHUNK, trials)
              for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(tally, bounds[:-1], bounds[1:]))


def trial_outcome_labels(protocol: Protocol, trials: int, seed: int
                         ) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-trial outcome labels of the draws that run_ensemble tallies; the
    intermediate array is None when the protocol records no such outcome."""
    _, branch_cdf, final_cdfs = _branch_table(protocol, trials, seed)
    chunks = [_draw(branch_cdf, final_cdfs, seed, lo, min(lo + CHUNK, trials))
              for lo in range(0, trials, CHUNK)]
    final = np.concatenate([f for _, f in chunks])
    final_labels = np.array(protocol.post_pvm.labels, dtype=object)[final]
    if not protocol.intermediate_labels:
        return None, final_labels
    branch = np.concatenate([np.broadcast_to(b, f.shape) for b, f in chunks])
    return np.array(protocol.intermediate_labels, dtype=object)[branch], final_labels


def _joint_counts(branch: np.ndarray | int, final: np.ndarray,
                  final_cdfs: np.ndarray) -> np.ndarray:
    """Tally of (branch, final outcome) index pairs, flattened row-major."""
    n_branch, n_final = final_cdfs.shape
    return np.bincount(branch * n_final + final, minlength=n_branch * n_final)


def _ensemble_stats(protocol: Protocol, trials: int, seed: int,
                    mids: tuple[str | None, ...], table: np.ndarray) -> EnsembleStats:
    n_final = len(protocol.post_pvm.labels)
    counts = {(mid, f_label): int(n)
              for mid, row in zip(mids, table.reshape(-1, n_final))
              for f_label, n in zip(protocol.post_pvm.labels, row)}
    return EnsembleStats(protocol, trials, seed, counts)


def run_ensemble(protocol: Protocol, trials: int, seed: int,
                 workers: int | None = None) -> EnsembleStats:
    """Run the protocol for the given number of trials and tally outcomes.

    Identical (protocol, trials, seed) always produce identical counts;
    ``workers`` only changes which thread draws which chunks. With
    workers=None a worker count is chosen automatically; no more workers
    run than there are chunks, and more than MAX_WORKERS is an error.
    """
    mids, branch_cdf, final_cdfs = _branch_table(protocol, trials, seed)

    def count(lo: int, hi: int) -> np.ndarray:
        return _joint_counts(*_draw(branch_cdf, final_cdfs, seed, lo, hi), final_cdfs)

    table = _run_chunks(trials, workers, count)
    return _ensemble_stats(protocol, trials, seed, mids, table)


def outcome_count_histogram(protocol: Protocol, label: str, trials: int,
                            seeds: Sequence[int], workers: int | None = None
                            ) -> tuple[np.ndarray, EnsembleStats]:
    """Entry m of the histogram counts the trials in which exactly m of the
    independent runs of the protocol, one per seed, end in ``label``; each
    run makes the draws that run_ensemble would tally for its seed. Returned
    with run_ensemble's tally for the first seed, taken from the same draws."""
    target = protocol.post_pvm.index(label)  # KeyError if absent
    # The tables do not depend on the seed; checking the smallest checks all.
    mids, branch_cdf, final_cdfs = _branch_table(protocol, trials, min(seeds))
    n_hist = len(seeds) + 1

    def count(lo: int, hi: int) -> np.ndarray:
        hits = np.zeros(hi - lo, dtype=np.min_scalar_type(len(seeds)))
        for k, seed in enumerate(seeds):
            branch, final = _draw(branch_cdf, final_cdfs, seed, lo, hi)
            if k == 0:
                first = _joint_counts(branch, final, final_cdfs)
            hits += final == target
        return np.concatenate([np.bincount(hits, minlength=n_hist), first])

    table = _run_chunks(trials, workers, count)
    return table[:n_hist], _ensemble_stats(protocol, trials, seeds[0], mids,
                                           table[n_hist:])


def conditional_frequencies(stats: EnsembleStats, condition: str) -> EmpiricalDistribution:
    """Intermediate-outcome frequencies among trials with the given final outcome.

    For a protocol whose intermediate stage records nothing the result is
    the empty distribution, with the matched-trial count still reported.
    """
    stats.protocol.post_pvm.index(condition)  # KeyError if absent
    matched = sum(c for (_, f), c in stats.counts.items() if f == condition)
    if matched == 0:
        raise EmptySelection(
            f"final outcome {condition!r} occurred in 0 of {stats.trials} trials")
    dist = Distribution([(m, stats.counts.get((m, condition), 0) / matched)
                         for m in stats.protocol.intermediate_labels])
    return EmpiricalDistribution(dist, matched)


def agreement_check(empirical: EmpiricalDistribution, analytic: Distribution,
                    z: float = 5.0) -> AgreementReport:
    """Gate each frequency against z standard binomial errors of its probability."""
    emp = empirical.distribution
    if set(emp.labels) != set(analytic.labels):
        raise ValueError(
            f"label mismatch: {emp.labels} vs {analytic.labels}")
    n = empirical.sample_size
    if n < 1:
        raise ValueError("empirical sample size must be at least 1")
    entries = []
    for label, p in analytic:
        freq = emp.probability(label)
        tolerance = z * float(np.sqrt(p * (1.0 - p) / n)) + EPS_AGREE
        entries.append(AgreementEntry(
            label=label, frequency=freq, probability=p,
            tolerance=tolerance, passed=abs(freq - p) <= tolerance))
    return AgreementReport(tuple(entries), z, n, all(e.passed for e in entries))
