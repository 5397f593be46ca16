"""Seeded Monte Carlo realization of prepare/measure protocols.

Each trial prepares the state, evolves it to the intermediate time, runs
the optional intermediate stage (measurement, unitary, or absorbing
filter), evolves to the final time, and measures the final PVM. Only joint
(intermediate outcome, final outcome) counts are retained.

Determinism contract: the two uniform variates consumed by trial i are a
fixed function of (seed, i), namely rows of a counter-based Philox stream
keyed by the seed. Trials are split between workers in runs of whole
chunks of CHUNK trials; each run is drawn, in blocks of BLOCK trials, from
one stream advanced to its first trial, which is even.
Outcomes are read from the same 53-bit integers (each 64-bit word shifted
right by 11) that Generator.random scales by 2**-53, against CDF edges
rounded up to that grid, so every outcome is the one a float bisect of
Generator.random's variates gives. Every tally, run_ensemble's and the
per-trial outcome counts over many seeded streams (the quantum raffle's
coins), is summed by worker threads that each draw their own run: counts
are byte-identical for every worker count, and memory does not depend on
the number of trials.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Iterator, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .core import EPS_AGREE, EPS_PROB, Distribution, Protocol, stage_branches


# Trials per chunk, the unit in which trials are split between workers. Even,
# because one Philox counter step yields the four 64-bit words of two trials,
# so only even trials can start a worker's run.
CHUNK = 1 << 16
# Trials per _draw call. Its buffers, about 24 bytes a trial at their peak,
# stay near 0.8 MB per worker thread; at a whole chunk they reach 1.6 MB,
# which the allocator keeps resident in every thread's arena. The blocks of
# a run read one Philox stream in order, so any block size gives the same
# draws.
BLOCK = 1 << 15
# Upper bound on the worker count: every worker is an operating-system thread.
MAX_WORKERS = 64
# Standard errors a frequency may stray from its probability in every gate.
GATE_Z = 5.0


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


def _clean_cdfs(rows: np.ndarray) -> np.ndarray:
    """Row-wise CDFs with numerically-zero outcomes given zero-width intervals.

    A right-bisect against such a row can never land in a zero-width
    interval, so zero-probability outcomes are never sampled, not even once
    in 10^9 trials. Each row is clipped, zeroed, summed, divided and
    accumulated exactly as it would be on its own: the sum of a C-contiguous
    row is numpy's pairwise sum either way. A row of zeros is an unreached
    branch and becomes a row of ones, never consulted.
    """
    unreached = ~np.asarray(rows).any(axis=1)
    p = np.array(rows, dtype=float, order="C")
    np.clip(p, 0.0, 1.0, out=p)
    p[p <= EPS_PROB] = 0.0
    total = p.sum(axis=1)
    if (total[~unreached] <= 0.0).any():
        raise ValueError("all outcomes have zero probability")
    total[unreached] = 1.0
    cdf = np.cumsum(p / total[:, None], axis=1)
    cdf[:, -1] = 1.0
    cdf[unreached] = 1.0
    return cdf


def _integer_edges(cdf: np.ndarray) -> np.ndarray:
    """K = ceil(edge * 2**53) per CDF edge. Scaling by a power of two is
    exact, so edge <= k * 2**-53 holds exactly when K <= k for every 53-bit
    integer k: comparing K with k bisects as comparing edge with the
    variate Generator.random makes of k."""
    return np.ceil(cdf * 2.0 ** 53).astype(np.uint64)


def _branch_table(protocol: Protocol, trials: int, seed: int
                  ) -> tuple[tuple[str | None, ...], np.ndarray, np.ndarray]:
    """Check the run size and seed, then precompute per-branch sampling tables.

    Returns (branch labels, branch edges, per-branch final edges): the
    integer edges of the branch CDF and of each branch's final CDF, over the
    branches of core.stage_branches.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    labels, p, rows = stage_branches(protocol, protocol.intermediate)
    return labels, _integer_edges(_clean_cdfs(p[None])[0]), _integer_edges(_clean_cdfs(rows))


def _draw(branch_edges: np.ndarray, final_edges: np.ndarray,
          bits: np.random.Philox, n: int) -> tuple[np.ndarray | int, np.ndarray]:
    """Branch and final outcome indices of the next n trials of ``bits``.
    The branch index is the scalar 0 when there is only one branch.

    A trial reads two words of the Philox stream, the first for its branch
    and the second for its final outcome, shifted right by 11 bits: the
    53-bit integers k that Generator.random scales by 2**-53. Each index is
    a right-bisect, one compare-and-add per edge but the last (it exceeds
    every k), run on a contiguous copy of one word of each trial.
    """
    index = np.min_scalar_type(max(final_edges.shape) - 1)
    words = bits.random_raw(2 * n)
    words >>= 11
    # At most one copy lives beside the words, and the intp branch index
    # that take and bincount want is made only once the words are gone.
    branch = 0
    if branch_edges.size > 1:
        variates = words[0::2].copy()
        branch = np.zeros(n, dtype=index)
        for edge in branch_edges[:-1]:
            branch += edge <= variates
        del variates
    variates = words[1::2].copy()
    del words
    if branch_edges.size > 1:
        branch = branch.astype(np.intp)
    final = np.zeros(n, dtype=index)
    for column in final_edges.T[:-1]:
        final += column.take(branch) <= variates
    return branch, final


def _draws(branch_edges: np.ndarray, final_edges: np.ndarray, seed: int,
           lo: int, hi: int) -> Iterator[tuple[np.ndarray | int, np.ndarray]]:
    """_draw's indices of trials [lo, hi), lo even, in runs of at most BLOCK
    trials, all drawn from one Philox stream advanced to trial lo."""
    bits = np.random.Philox(key=seed).advance(lo // 2)
    for start in range(lo, hi, BLOCK):
        yield _draw(branch_edges, final_edges, bits, min(BLOCK, hi - start))


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
    """Sum of count(lo, hi) over runs [lo, hi) of whole chunks that cover
    trials [0, trials). At most ``workers`` threads (None picks a number)
    each count one run; a single run is counted inline."""
    n_chunks = -(-trials // CHUNK)
    workers = min(resolve_workers(workers), n_chunks)
    if workers == 1:
        return count(0, trials)
    bounds = [min(n_chunks * k // workers * CHUNK, trials)
              for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(count, bounds[:-1], bounds[1:]))


def trial_outcome_labels(protocol: Protocol, trials: int, seed: int
                         ) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-trial outcome labels of the draws that run_ensemble tallies; the
    intermediate array is None when the protocol records no such outcome."""
    _, branch_edges, final_edges = _branch_table(protocol, trials, seed)
    blocks = list(_draws(branch_edges, final_edges, seed, 0, trials))
    final = np.concatenate([f for _, f in blocks])
    final_labels = np.array(protocol.post_pvm.labels, dtype=object)[final]
    if not protocol.intermediate_labels:
        return None, final_labels
    branch = np.concatenate([np.broadcast_to(b, f.shape) for b, f in blocks])
    return np.array(protocol.intermediate_labels, dtype=object)[branch], final_labels


def _joint_counts(branch: np.ndarray | int, final: np.ndarray,
                  final_edges: np.ndarray) -> np.ndarray:
    """Tally of (branch, final outcome) index pairs, flattened row-major."""
    n_branch, n_final = final_edges.shape
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
    mids, branch_edges, final_edges = _branch_table(protocol, trials, seed)

    def count(lo: int, hi: int) -> np.ndarray:
        return sum(_joint_counts(branch, final, final_edges)
                   for branch, final in _draws(branch_edges, final_edges, seed, lo, hi))

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
    mids, branch_edges, final_edges = _branch_table(protocol, trials, min(seeds))
    n_hist = len(seeds) + 1

    def count(lo: int, hi: int) -> np.ndarray:
        table = 0
        # One block at a time, the draws of every seed for the same trials.
        for blocks in zip(*(_draws(branch_edges, final_edges, seed, lo, hi) for seed in seeds)):
            hits = np.zeros(blocks[0][1].size, dtype=np.min_scalar_type(len(seeds)))
            for _, final in blocks:
                hits += final == target
            table = table + np.concatenate([np.bincount(hits, minlength=n_hist),
                                            _joint_counts(*blocks[0], final_edges)])
        return table

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


def agreement_check(empirical: EmpiricalDistribution,
                    analytic: Distribution) -> AgreementReport:
    """Gate each frequency against GATE_Z standard binomial errors of its probability."""
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
        tolerance = GATE_Z * float(np.sqrt(p * (1.0 - p) / n)) + EPS_AGREE
        entries.append(AgreementEntry(
            label=label, frequency=freq, probability=p,
            tolerance=tolerance, passed=abs(freq - p) <= tolerance))
    return AgreementReport(tuple(entries), GATE_Z, n, all(e.passed for e in entries))
