"""The stacked verdict rule, counterfactual._verdicts, against the per-statement
route it replaced: evaluate and cotenability_report must keep their report
bytes, and a stacked block must give each instance's batch of one bit for bit.
The old route is copied here verbatim: evaluate, _cotenability, and the
_conditioned and _mixture helpers they called."""
from __future__ import annotations

import functools
import json
import math
import operator

import numpy as np
import pytest

from helpers import random_pvm_projectors, random_unit_vector, random_unitary
from prepost.abl import ImpossiblePostSelection, _abl, final_distribution
from prepost.core import (
    EPS_COTEN,
    EPS_NORM,
    EPS_PROB,
    Distribution,
    FilterStage,
    MeasureStage,
    ProjectiveMeasurement,
    Protocol,
    PureState,
    Stage,
    UnitaryOp,
    _born_rows,
    _branches,
    _checked_rows,
    axis_pvm,
    stage_branches,
    total_variation,
)
from prepost.counterfactual import (
    Classification,
    CotenabilityReport,
    CounterfactualStatement,
    Flavor,
    Verdict,
    _verdicts,
    cotenability_report,
    evaluate,
)


# The per-statement route as it stood before the stacked rule, verbatim.

def _conditioned(protocol: Protocol, table: tuple) -> Distribution:
    """The branches of ``table``, a core.stage_branches result, conditioned on
    the protocol's selected outcome: _abl for the batch of one."""
    if protocol.selection is None:
        raise ValueError("the protocol must fix a selected outcome")
    labels, p, rows = table
    k = protocol.post_pvm.index(protocol.selection)
    conditional, denominator = _abl(p[None], rows[None], np.array([[k]]))
    if denominator[0, 0] <= EPS_PROB:
        raise ImpossiblePostSelection(
            f"outcome {protocol.selection!r} is unreachable through any outcome "
            f"of the query (total weight {float(denominator[0, 0])!r})")
    return Distribution(list(zip(labels, conditional[0, 0])))


def _mixture(protocol: Protocol, stage: Stage, table: tuple) -> Distribution:
    _, p, rows = table
    post = protocol.post_pvm
    if isinstance(stage, FilterStage):
        j = stage.pvm.index(stage.pass_label)
        mixture = p[j] * rows[j]
        mixture[post.index(stage.absorb_label)] += 1.0 - min(p[j], 1.0)
    else:
        # Python's sum adds the rows in branch order from zero, as the
        # per-branch loop did; ndarray.sum may reorder the additions.
        mixture = sum(p[:, None] * rows, np.zeros(len(post.labels)))
    return Distribution(list(zip(post.labels, mixture)))


def _cotenability(p: Protocol, inserted: Stage, asked: tuple) -> CotenabilityReport:
    """The report, its disturbed side read off ``asked``, the inserted stage's table."""
    undisturbed = final_distribution(p)
    disturbed = _mixture(p, inserted, asked)
    tvd = total_variation(undisturbed, disturbed)
    delta = disturbed.probability(p.selection) - undisturbed.probability(p.selection)
    return CotenabilityReport(undisturbed, disturbed, tvd, delta,
                              cotenable=tvd <= EPS_COTEN)


def old_evaluate(stmt: CounterfactualStatement) -> Verdict:
    p, inserted = stmt.base_protocol, MeasureStage(stmt.query)
    asked = stage_branches(p, inserted)
    claimed = _conditioned(p, asked)
    world = (Distribution(list(zip(asked[0], asked[1])))
             if stmt.flavor is Flavor.SINGLE else claimed)
    deviation = total_variation(claimed, world)
    cotenable = _cotenability(p, inserted, asked).cotenable
    if stmt.flavor is Flavor.SINGLE:
        classification = (Classification.TRUE_BY_COINCIDENCE
                          if deviation <= EPS_NORM else Classification.FALSE)
    else:
        classification = (Classification.NONTRIVIALLY_TRUE if cotenable
                          else Classification.TRIVIALLY_TRUE)
    return Verdict(stmt.flavor, claimed, world, deviation, cotenable,
                   classification)


def _pvm(projectors, prefix: str) -> ProjectiveMeasurement:
    return ProjectiveMeasurement([(f"{prefix}{j}", m) for j, m in enumerate(projectors)])


def _statements(seed: int, dim: int):
    """Seeded statements of dimension dim: random evolutions, sometimes a
    degenerate query, a base with and without an actual measurement, and a
    preparation inside a query eigenspace (cotenable) every third time."""
    rng = np.random.default_rng((seed, dim))
    labels = tuple(str(j) for j in range(dim))
    for i in range(6):
        query = random_pvm_projectors(rng, dim)
        if i % 3 == 2:
            a, u = query[0] @ random_unit_vector(rng, dim), None
            a /= np.linalg.norm(a)
        else:
            a, u = random_unit_vector(rng, dim), UnitaryOp(random_unitary(rng, dim))
        post = _pvm(random_pvm_projectors(rng, dim), "b")
        actual = MeasureStage(_pvm(random_pvm_projectors(rng, dim), "m")) if i % 2 else None
        base = Protocol(PureState(labels, a), post, actual, pre_to_t=u,
                        t_to_post=UnitaryOp(random_unitary(rng, dim)),
                        selection=post.labels[int(rng.integers(len(post.labels)))])
        for flavor in Flavor:
            yield CounterfactualStatement(base, _pvm(query, "q"), flavor)


def _bytes(result) -> str:
    return json.dumps(result.to_json_dict())


class TestSameBytesAsThePerStatementRoute:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_verdicts_and_reports(self, dim):
        kinds = set()
        for stmt in _statements(11, dim):
            try:
                want = old_evaluate(stmt)
            except ImpossiblePostSelection:
                with pytest.raises(ImpossiblePostSelection):
                    evaluate(stmt)
                continue
            assert _bytes(evaluate(stmt)) == _bytes(want)
            p, inserted = stmt.base_protocol, MeasureStage(stmt.query)
            assert _bytes(cotenability_report(p, stmt.query)) == _bytes(
                _cotenability(p, inserted, stage_branches(p, inserted)))
            kinds.add((want.classification, len(stmt.query.labels) < dim))
        assert {c for c, _ in kinds} == set(Classification)
        assert (dim > 2) == any(degenerate for _, degenerate in kinds)

    def test_total_variation_adds_in_label_order(self):
        # Python's sum() compensates float additions from 3.12 on; the stacked
        # rule and total_variation both add in label order on every version.
        for stmt in _statements(5, 8):
            p = stmt.base_protocol
            u = final_distribution(p)
            d = _mixture(p, MeasureStage(stmt.query),
                         stage_branches(p, MeasureStage(stmt.query)))
            diffs = [abs(x - d.probability(label)) for label, x in u]
            assert total_variation(u, d) == 0.5 * functools.reduce(operator.add, diffs, 0.0)

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, math.pi / 2])
    def test_crossed_polarizer_filter(self, theta):
        p = Protocol(PureState(("x", "y"), [1.0, 0.0]), axis_pvm(math.pi / 2),
                     selection="pass")
        stage = FilterStage(axis_pvm(theta), "pass", "block")
        assert _bytes(cotenability_report(p, stage)) == _bytes(
            _cotenability(p, stage, stage_branches(p, stage)))


class TestStackedBlock:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_each_instance_is_its_batch_of_one(self, dim):
        rng = np.random.default_rng(dim)
        count = 40
        q = np.array([random_unitary(rng, dim) for _ in range(count)])
        queries = np.einsum("bxj,byj->bjxy", q, q.conj())
        finals = np.array([random_pvm_projectors(rng, dim, False) for _ in range(count)])
        a = np.array([random_unit_vector(rng, dim) for _ in range(count)])
        a[::2] = q[::2, :, 0]  # a query eigenvector: cotenable
        v = np.array([random_unitary(rng, dim) for _ in range(count)])
        k = rng.integers(dim, size=count)
        p, rows = _branches(a, v, queries, finals)
        undisturbed = _checked_rows(_born_rows(np.einsum("bxy,by->bx", v, a), finals))
        stacked = _verdicts(p, rows, k, undisturbed)
        assert stacked[3].tolist() == [True, False] * (count // 2)
        for i in range(count):
            one = _verdicts(p[i:i + 1], rows[i:i + 1], k[i:i + 1], undisturbed[i:i + 1])
            for whole, part in zip(stacked, one):
                assert whole[i:i + 1].tobytes() == part.tobytes()
