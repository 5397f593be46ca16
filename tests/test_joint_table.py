"""evaluate reads one joint table per stage: the query inserted, and the
actual run. The claim and both readings' worlds are marginals of the first.
"""
from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from helpers import random_pvm_projectors, random_unit_vector, random_unitary
from prepost import core
from prepost.abl import abl_distribution, final_distribution
from prepost.cli import main
from prepost.core import (
    EPS_PROB,
    Distribution,
    MeasureStage,
    ProjectiveMeasurement,
    Protocol,
    PureState,
    UnitaryOp,
    born_distribution,
    evolve,
    stage_branches,
)
from prepost.counterfactual import (
    CounterfactualStatement,
    Flavor,
    cotenability_report,
    evaluate,
)
from prepost.ensemble import run_ensemble

S2 = 1.0 / np.sqrt(2.0)


def _pvm(rng: np.random.Generator, dim: int, name: str,
         degenerate: bool) -> ProjectiveMeasurement:
    projectors = random_pvm_projectors(rng, dim, degenerate)
    return ProjectiveMeasurement([(f"{name}{k}", p) for k, p in enumerate(projectors)])


def seeded_statement(seed: int) -> CounterfactualStatement:
    """Dims 2-8 in turn, both flavors, queries that are sometimes degenerate,
    and an actual intermediate measurement in every third statement."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    dim = 2 + seed % 7
    post = _pvm(rng, dim, "b", False)
    actual = MeasureStage(_pvm(rng, dim, "m", True)) if seed % 3 == 0 else None
    protocol = Protocol(
        PureState([f"e{k}" for k in range(dim)], random_unit_vector(rng, dim)),
        post, intermediate=actual,
        pre_to_t=UnitaryOp(random_unitary(rng, dim)),
        t_to_post=UnitaryOp(random_unitary(rng, dim)),
        selection=post.labels[int(rng.integers(dim))])
    flavor = Flavor.SINGLE if seed % 2 == 0 else Flavor.COMPOUND
    return CounterfactualStatement(protocol, _pvm(rng, dim, "q", True), flavor)


def same_bits(a: Distribution, b: Distribution) -> bool:
    return a.labels == b.labels and a.probabilities.tobytes() == b.probabilities.tobytes()


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("measured", [False, True], ids=["no_actual", "actual_measure"])
def test_evaluate_builds_two_tables(monkeypatch, flavor, measured):
    real = core.stage_branches
    stages = []

    def counted(protocol, stage):
        stages.append(stage)
        return real(protocol, stage)

    # Rebind the name wherever a prepost module holds it, as
    # benchmarks/tracing.py does, so `from .core import` copies count too.
    for name, module in list(sys.modules.items()):
        if (name == "prepost" or name.startswith("prepost.")) and \
                getattr(module, "stage_branches", None) is real:
            monkeypatch.setattr(module, "stage_branches", counted)
    z = ProjectiveMeasurement.from_eigenvectors(("z+", "z-"), np.eye(2))
    x = ProjectiveMeasurement.from_eigenvectors(
        ("x+", "x-"), np.array([[S2, S2], [S2, -S2]]))
    actual = MeasureStage(z) if measured else None
    protocol = Protocol(PureState(("z+", "z-"), [1.0, 0.0]), x,
                        intermediate=actual, selection="x+")
    evaluate(CounterfactualStatement(protocol, x, flavor))
    assert len(stages) == 2
    assert any(s is actual for s in stages)
    assert any(isinstance(s, MeasureStage) and s.pvm is x for s in stages)


@pytest.mark.parametrize("seed", range(280))
def test_readings_are_marginals_of_one_table(seed):
    stmt = seeded_statement(seed)
    p, query = stmt.base_protocol, stmt.query
    verdict = evaluate(stmt)
    assert same_bits(verdict.claimed, abl_distribution(p, query))
    if stmt.flavor is Flavor.SINGLE:
        born = born_distribution(evolve(p.preparation, p.pre_to_t), query)
        assert same_bits(verdict.counterfactual_world, born)
    else:
        assert same_bits(verdict.counterfactual_world, verdict.claimed)
        assert verdict.max_deviation == 0.0
    assert verdict.cotenable == cotenability_report(p, query).cotenable


def boundary_statement() -> CounterfactualStatement:
    """A dim-2 statement whose query branch v has Born weight p = <a|P|a>
    just above EPS_PROB while ||P a||^2, which rounds differently, is at or
    below it: a = sqrt(1 - s^2) w + s v for orthonormal v, w with s^2 within
    3e-5 (relative) of EPS_PROB, a query {v v^+, 1 - v v^+} and a final
    sigma-z measurement selecting b0. The first seeded draw that lands on
    the boundary is taken."""
    rng = np.random.default_rng(2)
    final = ProjectiveMeasurement.from_eigenvectors(("b0", "b1"), np.eye(2))
    for _ in range(100):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v, w = np.linalg.qr(z)[0].T
        s2 = EPS_PROB * (1.0 + rng.uniform(-3e-5, 3e-5))
        a = PureState(("b0", "b1"), np.sqrt(1.0 - s2) * w + np.sqrt(s2) * v)
        query = ProjectiveMeasurement.binary_from_state(
            PureState(("b0", "b1"), v), "v", "not_v")
        x = query.projector("v") @ a.amplitudes
        if born_distribution(a, query).probability("v") > EPS_PROB >= (x.conj() @ x).real:
            return CounterfactualStatement(Protocol(a, final, selection="b0"),
                                           query, Flavor.COMPOUND)
    raise AssertionError("no seeded draw lands on the boundary")


def test_a_branch_is_live_by_its_born_weight_alone(tmp_path, capsys):
    stmt = boundary_statement()
    protocol, query = stmt.base_protocol, stmt.query
    _, p, rows = stage_branches(protocol, MeasureStage(query))
    assert p[0] > EPS_PROB and rows[0].sum() == pytest.approx(1.0)
    assert abl_distribution(protocol, query).probability("v") > 0.0
    inserted = Protocol(protocol.preparation, protocol.post_pvm,
                        intermediate=MeasureStage(query), selection="b0")
    final_distribution(inserted)
    assert run_ensemble(inserted, 1000, seed=0).trials == 1000
    for flavor in Flavor:
        evaluate(CounterfactualStatement(protocol, query, flavor))
    config = tmp_path / "statement.json"
    config.write_text(json.dumps(stmt.to_json_dict()))
    code = main(["evaluate", "--config", str(config)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "classification: TRIVIALLY_TRUE" in captured.out
