"""Randomized verification suites.

Five invariant suites exercise the analytic engine on randomized instances
in dimensions 2 to 4, each against a tolerance of 1e-10:

  abl_sum_to_one        conditional distributions are normalized
  time_symmetry         swapping the two selections and reversing the
                        evolution leaves them unchanged
  born_marginalization  averaging over final outcomes recovers the Born rule
  oracle_equivalence    the engine matches brute-force path enumeration
  compound_triviality   the claim matches path enumeration, and is cotenable
                        exactly when dephasing by the query keeps Born(a)

Instances are drawn as stacked arrays, a block at a time. Each suite reads
a block's joint tables off one call of the stacked kernel and compares them
with 1, with each other or with raw numpy; compound_triviality runs them
through evaluate's verdict rule, counterfactual._verdicts, and draws half
its instances cotenable. Every scenario's agreement gates are recorded too.
All of it runs in the calling process, each suite on its own seeded stream,
so reports are deterministic for a given seed, regardless of worker count.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .abl import _abl
from .core import (EPS_COTEN, EPS_PROB, EPS_VERIFY as TOLERANCE, _born_rows, _branches,
                   _checked_rows, _evolved)
from .counterfactual import _verdicts
from .ensemble import resolve_workers
from .scenarios import available_scenarios, run_scenario

DIMS = (2, 3, 4)
MAX_RESAMPLES = 100
# Most instances drawn and checked at once; the suites' working memory is
# in proportion to it, whatever the instance count.
BLOCK = 256


@dataclass(frozen=True)
class SuiteResult:
    name: str
    instances: int
    failures: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    instances: int
    compound_instances: int
    trials: int
    suites: tuple[SuiteResult, ...]
    scenario_gates: dict[str, bool]

    @property
    def all_passed(self) -> bool:
        return (all(s.passed for s in self.suites)
                and all(self.scenario_gates.values()))

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "instances": self.instances,
            "compound_instances": self.compound_instances,
            "trials": self.trials,
            "all_passed": self.all_passed,
            "suites": [s.to_json_dict() for s in self.suites],
            "scenario_gates": dict(self.scenario_gates),
        }

    def to_text(self) -> str:
        lines = [
            f"verification: seed {self.seed}, {self.instances} instances "
            f"per suite, {self.trials} trials per scenario",
            "",
            "INVARIANT SUITES",
        ]
        for s in self.suites:
            status = "pass" if s.passed else "FAIL"
            lines.append(
                f"  {s.name}: {status} ({s.instances} instances, "
                f"{s.failures} failures, max error {s.max_error:.3e})")
        lines.append("")
        lines.append("SCENARIO GATES")
        for name, ok in self.scenario_gates.items():
            lines.append(f"  {name}: {'pass' if ok else 'FAIL'}")
        lines.append("")
        lines.append(f"overall: {'pass' if self.all_passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# Instance generators. These deliberately use raw arrays, not the package's
# sampling machinery, so the suites stay an independent route to the same
# numbers.

def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _states(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    z = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _unitaries(rng: np.random.Generator, kinds: int, count: int, dim: int) -> np.ndarray:
    """``kinds`` stacks of ``count`` Haar unitaries, from one batched QR."""
    shape = (kinds * count, dim, dim)
    q, r = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    phases = np.diagonal(r, axis1=1, axis2=2)
    return (q * (phases / np.abs(phases))[:, None, :]).reshape(kinds, count, dim, dim)


def _projectors(cols: np.ndarray, degenerate: bool) -> np.ndarray:
    """The projectors onto the columns of each matrix of cols (count, d, d),
    columns 0 and 1 spanning one outcome when ``degenerate``: (count, n, d, d)."""
    c = cols.swapaxes(1, 2)
    stack = c[:, :, :, None] * c.conj()[:, :, None, :]
    if degenerate:
        stack = np.concatenate([stack[:, :2].sum(1, keepdims=True), stack[:, 2:]], axis=1)
    return stack


def _binary(rng: np.random.Generator, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Final stacks {|b><b|, 1 - |b><b|} for each row b, the selected |b><b| at a
    drawn index k; returns the stacks and k (B, 1)."""
    sel = b[:, :, None] * b.conj()[:, None, :]
    rest = np.eye(b.shape[1]) - sel
    k = rng.integers(2, size=(len(b), 1))
    first = (k == 0)[:, :, None]
    stacks = np.stack([np.where(first, sel, rest), np.where(first, rest, sel)], axis=1)
    return stacks, k


def _groups(instances: int, dims: tuple[int, ...], pvms: int):
    """(dim, shape, count) for each group of instances drawn alike. The k-th
    instance has dimension dims[k % len(dims)]; above dimension 2, the
    instances of a dimension take turns over the 2**pvms shapes, each of the
    ``pvms`` drawn measurements rank-1 or degenerate (True)."""
    for i, dim in enumerate(dims):
        shapes = (list(itertools.product((False, True), repeat=pvms)) if dim > 2
                  else [(False,) * pvms])
        in_dim = len(range(i, instances, len(dims)))
        for s, shape in enumerate(shapes):
            yield dim, shape, len(range(s, in_dim, len(shapes)))


def _suite(name: str, instances: int, dims: tuple[int, ...], pvms: int, check) -> SuiteResult:
    """Tally ``instances`` instances, drawn per _groups in blocks of at most BLOCK.

    check(count, dim, shape) draws ``count`` instances and returns the error
    of each one it can use; the rest (impossible selections) are drawn again,
    up to MAX_RESAMPLES times. An instance fails unless its error is at most
    TOLERANCE; NaN marks one that failed outright.
    """
    failures, max_error = 0, 0.0
    for dim, shape, count in _groups(instances, dims, pvms):
        for lo in range(0, count, BLOCK):
            need = min(BLOCK, count - lo)
            for _ in range(MAX_RESAMPLES):
                error = check(need, dim, shape)
                failures += int(np.count_nonzero(~(error <= TOLERANCE)))
                max_error = float(np.fmax.reduce(error, initial=max_error))
                need -= len(error)
                if need == 0:
                    break
            else:
                raise RuntimeError("could not draw a usable instance")
    return SuiteResult(name, instances, failures, max_error, TOLERANCE)


def _suite_sum_to_one(instances: int, seed: int) -> SuiteResult:
    rng = _rng(seed, 0)

    def check(count: int, dim: int, shape: tuple[bool, ...]) -> np.ndarray:
        a = _states(rng, count, dim)
        u, v, q, f = _unitaries(rng, 4, count, dim)
        finals = _projectors(f, shape[1])
        k = rng.integers(finals.shape[1], size=(count, 1))
        conditional, denominator = _abl(*_branches(_evolved(a, u), v, _projectors(q, shape[0]), finals), k)
        return np.abs(conditional.sum(2) - 1.0)[denominator > EPS_PROB]
    return _suite("abl_sum_to_one", instances, DIMS, 2, check)


def _suite_time_symmetry(instances: int, seed: int) -> SuiteResult:
    # ABL over (a, U, V, b) equals ABL over (b, V^dagger, U^dagger, a).
    rng = _rng(seed, 1)

    def check(count: int, dim: int, shape: tuple[bool, ...]) -> np.ndarray:
        a, b = _states(rng, 2 * count, dim).reshape(2, count, dim)
        u, v, q = _unitaries(rng, 3, count, dim)
        queries = _projectors(q, shape[0])
        (to_b, kb), (to_a, ka) = _binary(rng, b), _binary(rng, a)
        forward, wf = _abl(*_branches(_evolved(a, u), v, queries, to_b), kb)
        backward, wb = _abl(*_branches(_evolved(b, v.conj().swapaxes(1, 2)),
                                       u.conj().swapaxes(1, 2), queries, to_a), ka)
        return np.abs(forward - backward).max(2)[(wf > EPS_PROB) & (wb > EPS_PROB)]
    return _suite("time_symmetry", instances, DIMS, 1, check)


def _suite_born_marginalization(instances: int, seed: int) -> SuiteResult:
    rng = _rng(seed, 2)

    def check(count: int, dim: int, shape: tuple[bool, ...]) -> np.ndarray:
        a = _states(rng, count, dim)
        u, v, q, f = _unitaries(rng, 4, count, dim)
        queries = _projectors(q, shape[0])
        p, rows = _branches(_evolved(a, u), v, queries, _projectors(f, shape[1]))
        conditional, _ = _abl(p, rows, np.arange(rows.shape[2])[None])
        # Mix the conditionals by each final outcome's weight with the query in place.
        mixed = (conditional * (p[:, :, None] * rows).sum(1)[:, :, None]).sum(1)
        projected = np.einsum("bjxy,byz,bz->bjx", queries, u, a)  # P_j U a
        return np.abs(mixed - (np.abs(projected) ** 2).sum(2)).max(1)
    return _suite("born_marginalization", instances, DIMS, 2, check)


def _suite_oracle_equivalence(instances: int, seed: int) -> SuiteResult:
    # Every final outcome is conditioned on in turn, so no selection sits at
    # a fixed index that a wrong column could read.
    rng = _rng(seed, 3)

    def check(count: int, dim: int, shape: tuple[bool, ...]) -> np.ndarray:
        a = _states(rng, count, dim)
        u, v, q, f = _unitaries(rng, 4, count, dim)
        queries, finals = _projectors(q, shape[0]), _projectors(f, shape[1])
        conditional, denominator = _abl(*_branches(_evolved(a, u), v, queries, finals),
                                        np.arange(finals.shape[1])[None])
        # Enumerate each path j -> k as its explicit amplitude P_k V P_j U a.
        paths = np.einsum("bkxy,byz,bjzw,bwt,bt->bkjx", finals, v, queries, u, a,
                          optimize=True)
        usable = (denominator > EPS_PROB).all(1)
        weights = (np.abs(paths[usable]) ** 2).sum(3)
        expected = weights / weights.sum(2, keepdims=True)
        return np.abs(conditional[usable] - expected).max((1, 2))
    return _suite("oracle_equivalence", instances, DIMS, 2, check)


def _suite_compound_triviality(instances: int, seed: int) -> SuiteResult:
    # The verdict rule against the path weights |F_k P_j a|^2: the claim is
    # their normalised column k, and the query is cotenable when dephasing a
    # by it keeps Born(a) on F. Every other instance is drawn cotenable.
    rng, eigen = _rng(seed, 4), _rng(seed, 5)

    def check(count: int, dim: int, shape: tuple[bool, ...]) -> np.ndarray:
        a = _states(rng, count, dim)
        q, f = _unitaries(rng, 2, count, dim)
        queries, finals = _projectors(q, shape[0]), _projectors(f, False)
        k = rng.integers(dim, size=count)
        # A drawn column of the query's unitary, or a unit combination of
        # columns 0 and 1 when they span one outcome, is in an eigenspace.
        e = q[::2]
        a[::2] = (np.einsum("bxc,bc->bx", e[:, :, :2], _states(eigen, len(e), 2)) if shape[0]
                  else e[np.arange(len(e)), :, eigen.integers(dim, size=len(e))])
        try:
            p, rows = _branches(a, np.broadcast_to(np.eye(dim), q.shape), queries, finals)
            claimed, denominator, _, cotenable = _verdicts(p, rows, k, _checked_rows(_born_rows(a, finals)))
        except ValueError:
            return np.full(count, np.nan)
        usable = denominator > EPS_PROB
        weights = (np.abs(np.einsum("bkxy,bjyz,bz->bjkx", finals, queries, a)) ** 2).sum(3)[usable]
        selected = weights[np.arange(len(weights)), :, k[usable]]
        born = (np.abs(np.einsum("bkxy,by->bkx", finals, a)) ** 2).sum(2)[usable]
        dephased = 0.5 * np.abs(born - weights.sum(1)).sum(1) <= EPS_COTEN
        error = np.abs(claimed[usable] - selected / selected.sum(1, keepdims=True)).max(1)
        return np.where(cotenable[usable] == dephased, error, np.nan)
    return _suite("compound_triviality", instances, (2, 3), 1, check)


_SUITES = (_suite_sum_to_one, _suite_time_symmetry, _suite_born_marginalization,
           _suite_oracle_equivalence, _suite_compound_triviality)


def run_verification(instances: int = 500, compound_instances: int = 200,
                     trials: int = 100_000, seed: int = 0,
                     workers: int | None = None) -> VerificationReport:
    """Run every invariant suite and every scenario's agreement gates.

    All of it runs in the calling process; ``workers`` is the scenarios'
    sampler thread count, and no result depends on it.
    """
    if instances < 1:
        raise ValueError("instances must be at least 1")
    if compound_instances < 1:
        raise ValueError("compound_instances must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    workers = resolve_workers(workers)
    sizes = (instances,) * 4 + (compound_instances,)
    suites = tuple(suite(n, seed) for suite, n in zip(_SUITES, sizes))
    gates = {info.name: run_scenario(info.name, None, trials, seed,
                                     workers=workers).all_gates_passed
             for info in available_scenarios()}
    return VerificationReport(seed, instances, compound_instances, trials,
                              suites, gates)
