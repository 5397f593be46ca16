"""Counterfactual semantics tests: the two readings and the cotenability gate."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_dist, random_pvm_projectors, random_unit_vector
from prepost.abl import ImpossiblePostSelection
from prepost.core import (
    EPS_NORM,
    FilterStage,
    MeasureStage,
    ProjectiveMeasurement,
    PureState,
    axis_pvm,
)
from prepost.counterfactual import (
    Classification,
    CounterfactualStatement,
    Flavor,
    Verdict,
    cotenability_report,
    evaluate,
)
from prepost.ensemble import Protocol

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)


def z_plus() -> PureState:
    return PureState(("z+", "z-"), [1.0, 0.0])


def sigma_z() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(("z+", "z-"), np.eye(2))


def sigma_x() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(
        ("x+", "x-"), np.array([[S2, S2], [S2, -S2]]))


def aad_statement(flavor: Flavor, query=None) -> CounterfactualStatement:
    proto = Protocol(z_plus(), sigma_x(), selection="x+")
    return CounterfactualStatement(proto, query or sigma_x(), flavor)


def three_box_statement(flavor: Flavor) -> CounterfactualStatement:
    a = PureState(("A", "B", "C"), [S3, S3, S3])
    b = PureState(("A", "B", "C"), [S3, S3, -S3])
    post = ProjectiveMeasurement.binary_from_state(b, "b", "not_b")
    p_a = np.zeros((3, 3), dtype=complex)
    p_a[0, 0] = 1.0
    query = ProjectiveMeasurement([("in_A", p_a), ("not_A", np.eye(3) - p_a)])
    return CounterfactualStatement(Protocol(a, post, selection="b"), query, flavor)


class TestStatementValidation:
    def test_selection_is_required(self):
        proto = Protocol(z_plus(), sigma_x())
        with pytest.raises(ValueError):
            CounterfactualStatement(proto, sigma_x(), Flavor.SINGLE)

    def test_query_dimension_must_match(self):
        proto = Protocol(z_plus(), sigma_x(), selection="x+")
        coin_pvm = ProjectiveMeasurement([("r", np.eye(3))])
        with pytest.raises(ValueError):
            CounterfactualStatement(proto, coin_pvm, Flavor.SINGLE)

    def test_actual_intermediate_must_be_nothing_or_a_measurement(self):
        stage = FilterStage(axis_pvm(math.pi / 4), "pass", "block")
        proto = Protocol(PureState(("x", "y"), [1.0, 0.0]), axis_pvm(math.pi / 2),
                         intermediate=stage, selection="pass")
        with pytest.raises(ValueError):
            CounterfactualStatement(proto, axis_pvm(math.pi / 4), Flavor.SINGLE)

    def test_json_round_trip(self):
        stmt = aad_statement(Flavor.COMPOUND)
        back = CounterfactualStatement.from_json_dict(stmt.to_json_dict())
        assert back.flavor is Flavor.COMPOUND
        assert back.query.labels == ("x+", "x-")
        assert back.base_protocol.selection == "x+"


class TestCounterfactualDistribution:
    def test_single_world_ignores_the_post_selection(self):
        world = evaluate(aad_statement(Flavor.SINGLE)).counterfactual_world
        assert_dist(world, {"x+": 0.5, "x-": 0.5})

    def test_compound_world_filters_on_the_post_outcome(self):
        world = evaluate(aad_statement(Flavor.COMPOUND)).counterfactual_world
        assert_dist(world, {"x+": 1.0, "x-": 0.0})

    def test_single_world_with_query_matching_preparation(self):
        world = evaluate(
            aad_statement(Flavor.SINGLE, query=sigma_z())).counterfactual_world
        assert_dist(world, {"z+": 1.0, "z-": 0.0})

    def test_compound_world_unreachable_selection_raises(self):
        proto = Protocol(z_plus(), sigma_z(), selection="z-")
        stmt = CounterfactualStatement(proto, sigma_z(), Flavor.COMPOUND)
        with pytest.raises(ImpossiblePostSelection):
            evaluate(stmt)

    def test_single_world_replaces_an_actual_measurement(self):
        # When the actual run measured something else at t, the hypothetical
        # world swaps that measurement for the query; it does not stack them.
        proto = Protocol(z_plus(), sigma_x(),
                         intermediate=MeasureStage(sigma_z()), selection="x+")
        stmt = CounterfactualStatement(proto, sigma_x(), Flavor.SINGLE)
        assert_dist(evaluate(stmt).counterfactual_world, {"x+": 0.5, "x-": 0.5})


class TestCotenability:
    def test_commuting_query_is_cotenable(self):
        proto = Protocol(z_plus(), sigma_x(), selection="x+")
        report = cotenability_report(proto, sigma_x())
        assert report.tvd <= EPS_NORM
        assert report.cotenable
        assert report.delta_selected == pytest.approx(0.0, abs=1e-10)

    def test_query_commuting_with_preparation_is_cotenable(self):
        proto = Protocol(z_plus(), sigma_z(), selection="z+")
        report = cotenability_report(proto, sigma_z())
        assert report.cotenable

    def test_inserted_polarizer_filter_shifts_the_selected_outcome(self):
        proto = Protocol(PureState(("x", "y"), [1.0, 0.0]), axis_pvm(math.pi / 2),
                         selection="pass")
        stage = FilterStage(axis_pvm(math.pi / 4), "pass", "block")
        report = cotenability_report(proto, stage)
        assert not report.cotenable
        assert report.delta_selected == pytest.approx(0.25, abs=1e-10)
        assert report.tvd == pytest.approx(0.25, abs=1e-10)
        assert_dist(report.undisturbed, {"pass": 0.0, "block": 1.0})
        assert_dist(report.disturbed, {"pass": 0.25, "block": 0.75})

    def test_plain_oblique_measurement_disturbs_more_than_the_filter(self):
        proto = Protocol(PureState(("x", "y"), [1.0, 0.0]), axis_pvm(math.pi / 2),
                         selection="pass")
        report = cotenability_report(proto, axis_pvm(math.pi / 4))
        assert report.delta_selected == pytest.approx(0.5, abs=1e-10)
        assert not report.cotenable

    def test_undisturbed_side_keeps_the_actual_intermediate(self):
        proto = Protocol(z_plus(), sigma_x(),
                         intermediate=MeasureStage(sigma_z()), selection="x+")
        report = cotenability_report(proto, sigma_x())
        # measuring z first leaves the x distribution even, as does x itself
        assert_dist(report.undisturbed, {"x+": 0.5, "x-": 0.5})
        assert_dist(report.disturbed, {"x+": 0.5, "x-": 0.5})
        assert report.cotenable

    def test_selection_is_required_for_the_delta(self):
        proto = Protocol(z_plus(), sigma_x())
        with pytest.raises(ValueError):
            cotenability_report(proto, sigma_x())


class TestEvaluate:
    def test_single_reading_of_the_dispersion_free_claim_is_false(self):
        verdict = evaluate(aad_statement(Flavor.SINGLE))
        assert verdict.max_deviation == pytest.approx(0.5, abs=1e-10)
        assert verdict.classification is Classification.FALSE
        assert_dist(verdict.claimed, {"x+": 1.0, "x-": 0.0})
        assert_dist(verdict.counterfactual_world, {"x+": 0.5, "x-": 0.5})

    def test_compound_reading_is_true_and_here_nontrivially(self):
        verdict = evaluate(aad_statement(Flavor.COMPOUND))
        assert verdict.max_deviation <= EPS_NORM
        assert verdict.cotenable
        assert verdict.classification is Classification.NONTRIVIALLY_TRUE

    def test_single_reading_can_hold_by_coincidence(self):
        verdict = evaluate(aad_statement(Flavor.SINGLE, query=sigma_z()))
        assert verdict.max_deviation <= EPS_NORM
        assert verdict.classification is Classification.TRUE_BY_COINCIDENCE

    def test_three_box_single_reading_is_false(self):
        verdict = evaluate(three_box_statement(Flavor.SINGLE))
        assert verdict.classification is Classification.FALSE
        assert verdict.max_deviation == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_three_box_compound_reading_is_nontrivially_true(self):
        # Inserting the box measurement leaves the final-outcome
        # distribution exactly unchanged, so cotenability holds here.
        verdict = evaluate(three_box_statement(Flavor.COMPOUND))
        assert verdict.max_deviation <= EPS_NORM
        assert verdict.cotenable
        assert verdict.classification is Classification.NONTRIVIALLY_TRUE

    def test_trivially_true_when_the_query_disturbs_the_selection(self):
        proto = Protocol(PureState(("x", "y"), [1.0, 0.0]), axis_pvm(math.pi / 2),
                         selection="pass")
        stmt = CounterfactualStatement(proto, axis_pvm(math.pi / 4), Flavor.COMPOUND)
        verdict = evaluate(stmt)
        assert verdict.max_deviation <= EPS_NORM
        assert not verdict.cotenable
        assert verdict.classification is Classification.TRIVIALLY_TRUE

    def test_undefined_claim_propagates(self):
        proto = Protocol(z_plus(), sigma_z(), selection="z-")
        stmt = CounterfactualStatement(proto, sigma_z(), Flavor.SINGLE)
        with pytest.raises(ImpossiblePostSelection):
            evaluate(stmt)

    def test_verdict_serializes_with_stable_fields(self):
        data = evaluate(aad_statement(Flavor.SINGLE)).to_json_dict()
        assert data["flavor"] == "single"
        assert data["classification"] == "FALSE"
        assert set(data) == {"flavor", "claimed", "counterfactual_world",
                             "max_deviation", "cotenable", "classification"}


# The triviality property: compound readings never deviate from the claim.

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=3)


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_compound_reading_never_deviates(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = tuple(f"e{k}" for k in range(dim))
    pre = PureState(labels, random_unit_vector(rng, dim))
    post_state = PureState(labels, random_unit_vector(rng, dim))
    post = ProjectiveMeasurement.binary_from_state(post_state, "b", "not_b")
    projs = random_pvm_projectors(rng, dim)
    query = ProjectiveMeasurement([(f"q{k}", p) for k, p in enumerate(projs)])
    stmt = CounterfactualStatement(
        Protocol(pre, post, selection="b"), query, Flavor.COMPOUND)
    try:
        verdict = evaluate(stmt)
    except ImpossiblePostSelection:
        return
    assert verdict.max_deviation <= EPS_NORM
    expected = (Classification.NONTRIVIALLY_TRUE if verdict.cotenable
                else Classification.TRIVIALLY_TRUE)
    assert verdict.classification is expected


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_single_reading_classification_follows_the_deviation(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = tuple(f"e{k}" for k in range(dim))
    pre = PureState(labels, random_unit_vector(rng, dim))
    post_state = PureState(labels, random_unit_vector(rng, dim))
    post = ProjectiveMeasurement.binary_from_state(post_state, "b", "not_b")
    projs = random_pvm_projectors(rng, dim)
    query = ProjectiveMeasurement([(f"q{k}", p) for k, p in enumerate(projs)])
    stmt = CounterfactualStatement(
        Protocol(pre, post, selection="b"), query, Flavor.SINGLE)
    try:
        verdict = evaluate(stmt)
    except ImpossiblePostSelection:
        return
    if verdict.max_deviation <= EPS_NORM:
        assert verdict.classification is Classification.TRUE_BY_COINCIDENCE
    else:
        assert verdict.classification is Classification.FALSE
