"""evaluate reads one joint table per stage: the query inserted, and the
actual run. The claim and both readings' worlds are marginals of the first.
"""
from __future__ import annotations

import sys

import numpy as np
import pytest

from helpers import random_pvm_projectors, random_unit_vector, random_unitary
from prepost import core
from prepost.abl import abl_distribution
from prepost.core import (
    Distribution,
    MeasureStage,
    ProjectiveMeasurement,
    Protocol,
    PureState,
    UnitaryOp,
    born_distribution,
    evolve,
)
from prepost.counterfactual import (
    CounterfactualStatement,
    Flavor,
    cotenability_report,
    evaluate,
)

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
