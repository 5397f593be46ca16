"""Randomized verification suites.

Five invariant suites exercise the analytic engine on randomized instances
in dimensions 2 to 4, each against a tolerance of 1e-10:

  abl_sum_to_one        conditional distributions are normalized
  time_symmetry         swapping the two selections leaves them unchanged
  born_marginalization  averaging over final outcomes recovers the Born rule
  oracle_equivalence    the engine matches brute-force path enumeration
  compound_triviality   compound-reading verdicts never deviate, and are
                        nontrivial exactly when the query is cotenable

On top of the suites, every catalogue scenario is run once and its
statistical agreement gates are recorded. With more than one worker, the
suites run on up to min(workers, 5) forked processes while the scenarios run
in the calling process. Each suite draws only from its own seeded stream, so
reports are deterministic for a given seed, regardless of worker count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abl import ImpossiblePostSelection, SelectionContext, abl_distribution, post_outcome_distribution
from .core import (
    EPS_COTEN,
    EPS_PROB,
    EPS_VERIFY as TOLERANCE,
    Distribution,
    ProjectiveMeasurement,
    Protocol,
    PureState,
    UnitaryOp,
    born_distribution,
    evolve,
)
from .counterfactual import (
    Classification,
    CounterfactualStatement,
    Flavor,
    cotenability_report,
    evaluate,
)
from .ensemble import resolve_workers
from .scenarios import available_scenarios, run_scenario

DIMS = (2, 3, 4)
MAX_RESAMPLES = 100


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
        return {
            "name": self.name,
            "instances": self.instances,
            "failures": self.failures,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


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


def _labels(dim: int) -> tuple[str, ...]:
    return tuple(str(k) for k in range(dim))


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pvm(rng: np.random.Generator, dim: int, prefix: str,
         allow_degenerate: bool = True) -> ProjectiveMeasurement:
    cols = _unitary(rng, dim)
    blocks: list[list[int]] = [[k] for k in range(dim)]
    if allow_degenerate and dim >= 3 and rng.random() < 0.5:
        blocks = [[0, 1]] + [[k] for k in range(2, dim)]
    outcomes = []
    for i, block in enumerate(blocks):
        sub = cols[:, block]
        outcomes.append((f"{prefix}{i}", sub @ sub.conj().T))
    return ProjectiveMeasurement(outcomes)


def _rank1_post(rng: np.random.Generator, dim: int) -> tuple[ProjectiveMeasurement, str, np.ndarray]:
    b = _unit(rng, dim)
    state = PureState(_labels(dim), b)
    return ProjectiveMeasurement.binary_from_state(state, "sel", "rest"), "sel", b


def _suite(name: str, instances: int, dims: tuple[int, ...], draw) -> SuiteResult:
    """Tally ``instances`` instances, the k-th drawn in dimension dims[k % len(dims)].

    draw(dim) returns (error, ok), or None to draw again. An instance fails
    when error > TOLERANCE or when it is not ok.
    """
    failures, max_error = 0, 0.0
    for k in range(instances):
        for _ in range(MAX_RESAMPLES):
            drawn = draw(dims[k % len(dims)])
            if drawn is not None:
                break
        else:
            raise RuntimeError("could not draw a usable instance")
        error, ok = drawn
        max_error = max(max_error, error)
        if error > TOLERANCE or not ok:
            failures += 1
    return SuiteResult(name, instances, failures, max_error, TOLERANCE)


def _max_gap(dist: Distribution, expected: dict[str, float]) -> float:
    return max(abs(dist.probability(label) - p) for label, p in expected.items())


def _suite_sum_to_one(instances: int, seed: int) -> SuiteResult:
    rng = _rng(seed, 0)

    def draw(dim: int):
        pre = PureState(_labels(dim), _unit(rng, dim))
        post = _pvm(rng, dim, "b")
        label = post.labels[int(rng.integers(len(post.labels)))]
        u = UnitaryOp(_unitary(rng, dim))
        v = UnitaryOp(_unitary(rng, dim))
        query = _pvm(rng, dim, "q")
        try:
            dist = abl_distribution(SelectionContext(pre, post, label, u, v), query)
        except ImpossiblePostSelection:
            return None
        return abs(sum(p for _, p in dist) - 1.0), True
    return _suite("abl_sum_to_one", instances, DIMS, draw)


def _suite_time_symmetry(instances: int, seed: int) -> SuiteResult:
    rng = _rng(seed, 1)

    def draw(dim: int):
        a = _unit(rng, dim)
        b = _unit(rng, dim)
        query = _pvm(rng, dim, "q")
        post_b = ProjectiveMeasurement.binary_from_state(
            PureState(_labels(dim), b), "sel", "rest")
        post_a = ProjectiveMeasurement.binary_from_state(
            PureState(_labels(dim), a), "sel", "rest")
        try:
            forward = abl_distribution(
                SelectionContext(PureState(_labels(dim), a), post_b, "sel"), query)
            backward = abl_distribution(
                SelectionContext(PureState(_labels(dim), b), post_a, "sel"), query)
        except ImpossiblePostSelection:
            return None
        return max(abs(forward.probability(l) - backward.probability(l))
                   for l in query.labels), True
    return _suite("time_symmetry", instances, DIMS, draw)


def _suite_born_marginalization(instances: int, seed: int) -> SuiteResult:
    rng = _rng(seed, 2)

    def draw(dim: int):
        pre = PureState(_labels(dim), _unit(rng, dim))
        post = _pvm(rng, dim, "b")
        u = UnitaryOp(_unitary(rng, dim))
        v = UnitaryOp(_unitary(rng, dim))
        query = _pvm(rng, dim, "q")

        weights = post_outcome_distribution(pre, post, intermediate=query,
                                            pre_to_t=u, t_to_post=v)
        mixed = {label: 0.0 for label in query.labels}
        for b_label, b_prob in weights:
            if b_prob <= EPS_PROB:
                continue
            cond = abl_distribution(
                SelectionContext(pre, post, b_label, u, v), query)
            for q_label in query.labels:
                mixed[q_label] += b_prob * cond.probability(q_label)
        return _max_gap(born_distribution(evolve(pre, u), query), mixed), True
    return _suite("born_marginalization", instances, DIMS, draw)


def _brute_force_abl(a: np.ndarray, u: np.ndarray, q_projectors: list[np.ndarray],
                     v: np.ndarray, b_projector: np.ndarray) -> np.ndarray:
    # Enumerate each intermediate outcome as an explicit matrix path.
    weights = np.array([
        float(np.linalg.norm(b_projector @ v @ p @ u @ a) ** 2)
        for p in q_projectors
    ])
    return weights / weights.sum()


def _suite_oracle_equivalence(instances: int, seed: int) -> SuiteResult:
    rng = _rng(seed, 3)

    def draw(dim: int):
        a = _unit(rng, dim)
        u = _unitary(rng, dim)
        v = _unitary(rng, dim)
        query = _pvm(rng, dim, "q")
        post, label, b = _rank1_post(rng, dim)
        try:
            dist = abl_distribution(
                SelectionContext(PureState(_labels(dim), a), post, label,
                                 UnitaryOp(u), UnitaryOp(v)),
                query)
        except ImpossiblePostSelection:
            return None
        expected = _brute_force_abl(
            a, u, [query.projector(l) for l in query.labels], v,
            np.outer(b, b.conj()))
        return max(abs(dist.probability(l) - e)
                   for l, e in zip(query.labels, expected)), True
    return _suite("oracle_equivalence", instances, DIMS, draw)


def _suite_compound_triviality(instances: int, seed: int) -> SuiteResult:
    rng = _rng(seed, 4)

    def draw(dim: int):
        pre = PureState(_labels(dim), _unit(rng, dim))
        post = _pvm(rng, dim, "b", allow_degenerate=False)
        label = post.labels[int(rng.integers(len(post.labels)))]
        query = _pvm(rng, dim, "q")
        base = Protocol(pre, post, selection=label)
        try:
            verdict = evaluate(CounterfactualStatement(base, query, Flavor.COMPOUND))
        except ImpossiblePostSelection:
            return None
        coten = cotenability_report(base, query)
        consistent = (
            (verdict.classification is Classification.NONTRIVIALLY_TRUE)
            == (coten.tvd <= EPS_COTEN))
        return verdict.max_deviation, verdict.max_deviation <= TOLERANCE and consistent
    return _suite("compound_triviality", instances, (2, 3), draw)


_SUITES = (_suite_sum_to_one, _suite_time_symmetry, _suite_born_marginalization,
           _suite_oracle_equivalence, _suite_compound_triviality)


def run_verification(instances: int = 500, compound_instances: int = 200,
                     trials: int = 100_000, seed: int = 0,
                     workers: int | None = None) -> VerificationReport:
    """Run every invariant suite and every scenario's agreement gates.

    With more than one worker the suites run on forked processes while the
    scenario gates run here; each suite depends only on (instances, seed).
    """
    if instances < 1:
        raise ValueError("instances must be at least 1")
    if compound_instances < 1:
        raise ValueError("compound_instances must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    workers = resolve_workers(workers)
    sizes = (instances,) * 4 + (compound_instances,)

    def scenario_gates() -> dict[str, bool]:
        return {info.name: run_scenario(info.name, None, trials, seed,
                                        workers=workers).all_gates_passed
                for info in available_scenarios()}

    processes = min(workers, len(_SUITES))
    if processes > 1:
        # Imported here so that commands which never verify do not pay for it.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" not in multiprocessing.get_all_start_methods():
            processes = 1
    if processes == 1:
        suites = tuple(suite(n, seed) for suite, n in zip(_SUITES, sizes))
        gates = scenario_gates()
    else:
        pool = ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = [pool.submit(suite, n, seed) for suite, n in zip(_SUITES, sizes)]
            gates = scenario_gates()
            suites = tuple(f.result() for f in futures)
        finally:
            pool.shutdown(cancel_futures=True)
    return VerificationReport(seed, instances, compound_instances, trials,
                              suites, gates)
