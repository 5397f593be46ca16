"""The three benchmark workloads.

Each workload turns the run seed into raw inputs with plain numpy before
prepost is imported, then builds whatever program objects it needs in
``setup`` and runs one closed-loop operation per ``run_op`` call. A pass is
the workload's fixed list of operations; every pass repeats the same inputs,
so every pass must give the same outputs.

Outputs are checked against routes that do not go through prepost: the
judge statements against a raw-numpy path-weight oracle, the scenarios and
the dim-8 ensemble against their own agreement gates plus the same oracle,
and the verify command against its exit status and report.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

# Tolerance for analytic agreement with the oracle, and the threshold the
# verdict classifications use (the package's EPS_NORM and EPS_COTEN).
EXACT = 1e-10


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def _seed_from(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1, np.uint32)[0])


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _projectors(rng: np.random.Generator, dim: int,
                degenerate: bool) -> list[np.ndarray]:
    """A random complete family of orthogonal projectors; with
    ``degenerate`` the first two basis columns share one rank-2 outcome."""
    cols = _haar(rng, dim)
    blocks = [[0, 1]] + [[k] for k in range(2, dim)] if degenerate else \
        [[k] for k in range(dim)]
    return [cols[:, b] @ cols[:, b].conj().T for b in blocks]


def path_weights(a, u, query, v, post) -> np.ndarray:
    """Oracle table W[j, k] = |P_k V P_j U a|^2, written out path by path."""
    return np.array([[float(np.linalg.norm(pk @ v @ pj @ u @ a) ** 2)
                      for pk in post] for pj in query])


def _pairs(z: np.ndarray) -> list:
    """Complex array as nested [re, im] lists, the package's JSON layout."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _pvm_json(prefix: str, projectors) -> dict:
    return {"dim": projectors[0].shape[0],
            "outcomes": [{"label": f"{prefix}{i}", "projector": _pairs(p)}
                         for i, p in enumerate(projectors)]}


def _unitary_json(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "matrix": _pairs(m)}


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def scenario_trials(report) -> int:
    """Trials a scenario run sampled, over all of its ensembles."""
    trials = sum(s.trials for s in report.ensembles().values())
    if report.name == "quantum_raffle":
        # Every coin is also drawn through trial_outcome_labels.
        trials += report.params["n_coins"] * report.trials
    return trials


class CheckFailed(AssertionError):
    """An operation's output disagrees with its independent check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class McScale:
    """Sampler-bound: every catalogue scenario and the 20-coin raffle at
    5*10^5 trials, and one random dim-8 protocol at 5*10^6 trials. The sizes
    keep a pass near two seconds, so that a run holds enough passes for a
    steady median on a shared two-core machine."""

    SCENARIOS = ("aad_dispersion_free", "three_box", "quantum_raffle",
                 "crossed_polarizers", "epr_no_signaling",
                 "epr_timelike_detection")
    SCENARIO_TRIALS = 500_000
    RAFFLE_COINS = 20
    DIM = 8
    ENSEMBLE_TRIALS = 5_000_000

    def __init__(self, seed: int, workers: int) -> None:
        self.workers = workers
        self.seeds = [_seed_from(seed, 1, k) for k in range(len(self.SCENARIOS) + 2)]
        rng = _rng(seed, 1, 99)
        d = self.DIM
        self.raw = dict(a=_unit(rng, d), u=_haar(rng, d), v=_haar(rng, d),
                        query=_projectors(rng, d, False),
                        post=_projectors(rng, d, False))
        self.n_ops = len(self.SCENARIOS) + 2

    def setup(self, pp) -> None:
        r = self.raw
        labels = [str(k) for k in range(self.DIM)]
        self.query = pp.ProjectiveMeasurement(
            [(f"q{j}", p) for j, p in enumerate(r["query"])])
        self.post = pp.ProjectiveMeasurement(
            [(f"b{k}", p) for k, p in enumerate(r["post"])])
        self.pre = pp.PureState(labels, r["a"])
        self.u, self.v = pp.UnitaryOp(r["u"]), pp.UnitaryOp(r["v"])
        self.protocol = pp.Protocol(self.pre, self.post,
                                    intermediate=pp.MeasureStage(self.query),
                                    pre_to_t=self.u, t_to_post=self.v)
        self.pp = pp

    def run_op(self, i: int):
        """Returns (output, trials sampled)."""
        pp, seed = self.pp, self.seeds[i]
        if i < len(self.SCENARIOS):
            report = pp.run_scenario(self.SCENARIOS[i], None, self.SCENARIO_TRIALS,
                                     seed, workers=self.workers)
        elif i == len(self.SCENARIOS):
            report = pp.run_scenario("quantum_raffle", {"n_coins": self.RAFFLE_COINS},
                                     self.SCENARIO_TRIALS, seed, workers=self.workers)
        else:
            stats = pp.run_ensemble(self.protocol, self.ENSEMBLE_TRIALS, seed,
                                    workers=self.workers)
            return stats, stats.trials
        return report, scenario_trials(report)

    def check(self, i: int, out) -> None:
        if i < len(self.SCENARIOS) + 1:
            _require(out.all_gates_passed, f"{out.name}: a gate failed")
            return
        pp, r = self.pp, self.raw
        analytic = pp.post_outcome_distribution(
            self.pre, self.post, intermediate=self.query,
            pre_to_t=self.u, t_to_post=self.v)
        oracle = path_weights(r["a"], r["u"], r["query"], r["v"], r["post"]).sum(axis=0)
        _require(np.abs(analytic.probabilities - oracle).max() <= EXACT,
                 "dim-8 final marginal differs from the oracle")
        _require(pp.agreement_check(out.final_frequencies(), analytic).passed,
                 "dim-8 final marginal fails its agreement gate")

    def digest_item(self, i: int, out):
        ensembles = {"ensemble": out} if i == self.n_ops - 1 else out.ensembles()
        item = {key: sorted([str(m), f, c] for (m, f), c in stats.counts.items())
                for key, stats in ensembles.items()}
        if i < self.n_ops - 1 and out.name == "quantum_raffle":
            item["m_frequencies"] = out.monte_carlo["m_frequencies"].to_json_dict()
        return item


class JudgeBatch:
    """Analytic-bound: random counterfactual statements, each parsed from
    JSON, judged, and cross-checked by a small seeded ensemble."""

    STATEMENTS = 1000
    DIMS = (2, 3, 4, 5, 6, 7, 8)
    TRIALS = 4000
    # Floor on the expected number of post-selected trials through every
    # query outcome. Below it the z = 5 gate of agreement_check is not a
    # 5-sigma test: with n*p << 1 a single matched trial already exceeds
    # z*sqrt(p(1-p)/n). Without the floor the gate raises about 0.4 false
    # alarms per 1000 statements, with it about 0.011 (exact binomial law).
    MIN_MATCHED = 10

    def __init__(self, seed: int) -> None:
        self.raw, self.configs, self.seeds = [], [], []
        self.rejected = 0
        for i in range(self.STATEMENTS):
            rng = _rng(seed, 2, i)
            dim = self.DIMS[i % len(self.DIMS)]
            while True:
                a, u, v = _unit(rng, dim), _haar(rng, dim), _haar(rng, dim)
                post = _projectors(rng, dim, False)
                query = _projectors(rng, dim, dim >= 3 and rng.random() < 0.5)
                b = int(rng.integers(dim))
                to_b = post[b] @ v
                selected = [np.linalg.norm(to_b @ p @ u @ a) ** 2 for p in query]
                if self.TRIALS * min(selected) >= self.MIN_MATCHED:
                    break
                self.rejected += 1
            weights = path_weights(a, u, query, v, post)
            flavor = "single" if i % 2 == 0 else "compound"
            self.raw.append(dict(a=a, u=u, v=v, post=post, query=query, b=b,
                                 weights=weights, flavor=flavor))
            self.configs.append({
                "base_protocol": {
                    "preparation": {"dim": dim,
                                    "basis_labels": [str(k) for k in range(dim)],
                                    "amplitudes": _pairs(a)},
                    "intermediate": None,
                    "pre_to_t": _unitary_json(u),
                    "t_to_post": _unitary_json(v),
                    "post_pvm": _pvm_json("b", post),
                    "selection": f"b{b}",
                },
                "query": _pvm_json("q", query),
                "flavor": flavor,
            })
            self.seeds.append(_seed_from(seed, 3, i))
        self.n_ops = self.STATEMENTS

    def setup(self, pp) -> None:
        self.pp = pp

    def run_op(self, i: int):
        pp = self.pp
        stmt = pp.CounterfactualStatement.from_json_dict(self.configs[i])
        verdict = pp.evaluate(stmt)
        base = stmt.base_protocol
        inserted = pp.Protocol(base.preparation, base.post_pvm,
                               intermediate=pp.MeasureStage(stmt.query),
                               pre_to_t=base.pre_to_t, t_to_post=base.t_to_post,
                               selection=base.selection)
        stats = pp.run_ensemble(inserted, self.TRIALS, self.seeds[i], workers=1)
        conditional = pp.conditional_frequencies(stats, base.selection)
        gate = pp.agreement_check(conditional, verdict.claimed)
        return (verdict, gate), self.TRIALS

    def check(self, i: int, out) -> None:
        verdict, gate = out
        r = self.raw[i]
        w = r["weights"]
        claimed = w[:, r["b"]] / w[:, r["b"]].sum()
        _require(verdict.flavor.value == r["flavor"], "flavor changed")
        _require(np.abs(verdict.claimed.probabilities - claimed).max() <= EXACT,
                 "claimed distribution differs from the oracle")
        if r["flavor"] == "single":
            born = np.array([float(np.linalg.norm(p @ r["u"] @ r["a"]) ** 2)
                             for p in r["query"]])
            true = 0.5 * np.abs(claimed - born).sum() <= EXACT
            expected = "TRUE_BY_COINCIDENCE" if true else "FALSE"
        else:
            direct = np.array([float(np.linalg.norm(p @ r["v"] @ r["u"] @ r["a"]) ** 2)
                               for p in r["post"]])
            cotenable = 0.5 * np.abs(w.sum(axis=0) - direct).sum() <= EXACT
            expected = "NONTRIVIALLY_TRUE" if cotenable else "TRIVIALLY_TRUE"
        _require(verdict.classification.value == expected,
                 f"classified {verdict.classification.value}, oracle says {expected}")
        _require(gate.passed, "ensemble disagrees with the claimed distribution")

    def digest_item(self, i: int, out):
        verdict, _ = out
        return [verdict.classification.value, list(verdict.claimed.probabilities)]


class VerifyCli:
    """End to end: ``prepost verify`` with default sizes, in-process."""

    TRIALS = 100_000  # the command's default --trials

    def __init__(self, seed: int, workers: int, out_dir: Path) -> None:
        self.out_path = out_dir / f"verify-{os.getpid()}.json"
        self.argv = ["verify", "--format", "json", "--output", str(self.out_path),
                     "--seed", str(seed), "--workers", str(workers)]
        self.n_ops = 1

    def setup(self, pp) -> None:
        self.pp = pp

    def count_trials(self) -> None:
        """Trials one verify command samples: its scenario trial count times
        each scenario's ensembles per trial, read off a one-trial run."""
        pp = self.pp
        per_trial = sum(scenario_trials(pp.run_scenario(info.name, None, 1, 0))
                        for info in pp.available_scenarios())
        self.trials = per_trial * self.TRIALS

    def run_op(self, i: int):
        status = self.pp.cli.main(self.argv)
        data = self.out_path.read_bytes()
        self.out_path.unlink()
        return (status, data), self.trials

    def check(self, i: int, out) -> None:
        status, data = out
        _require(status == 0, f"verify exited {status}")
        _require(json.loads(data)["all_passed"] is True, "verify report failed")

    def digest_item(self, i: int, out):
        return hashlib.sha256(out[1]).hexdigest()


def make(name: str, seed: int, workers: int, out_dir: Path):
    if name == "mc_scale":
        return McScale(seed, workers)
    if name == "judge_batch":
        return JudgeBatch(seed)
    if name == "verify_cli":
        return VerifyCli(seed, workers, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_scale", "judge_batch", "verify_cli")
