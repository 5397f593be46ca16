"""Conditional-probability engine tests.

Frozen analytic values first (hand-checked against the defining formulas),
then randomized property suites with the raw-matrix oracle from helpers.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import abl_oracle, random_pvm_projectors, random_unit_vector, random_unitary, assert_dist
from prepost.abl import (
    ImpossiblePostSelection,
    SelectionContext,
    abl_distribution,
    post_outcome_distribution,
    sequence_probability,
)
from prepost.core import (
    EPS_NORM,
    FilterStage,
    MeasureStage,
    ProjectiveMeasurement,
    Protocol,
    PureState,
    UnitaryOp,
    UnitaryStage,
    axis_pvm,
    born_distribution,
)

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)


def z_plus() -> PureState:
    return PureState(("z+", "z-"), [1.0, 0.0])


def sigma_z() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(("z+", "z-"), np.eye(2))


def sigma_x() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(
        ("x+", "x-"), np.array([[S2, S2], [S2, -S2]]))


def aad_context() -> SelectionContext:
    return SelectionContext(z_plus(), sigma_x(), "x+")


def three_box_states() -> tuple[PureState, PureState]:
    a = PureState(("A", "B", "C"), [S3, S3, S3])
    b = PureState(("A", "B", "C"), [S3, S3, -S3])
    return a, b


def box_query(box: str) -> ProjectiveMeasurement:
    idx = "ABC".index(box)
    p = np.zeros((3, 3), dtype=complex)
    p[idx, idx] = 1.0
    return ProjectiveMeasurement([(f"in_{box}", p), (f"not_{box}", np.eye(3) - p)])


class TestAblDistribution:
    def test_query_matching_preparation_is_certain(self):
        assert_dist(abl_distribution(aad_context(), sigma_z()),
                    {"z+": 1.0, "z-": 0.0})

    def test_query_matching_post_selection_is_certain(self):
        assert_dist(abl_distribution(aad_context(), sigma_x()),
                    {"x+": 1.0, "x-": 0.0})

    def test_three_box_occupies_either_box_with_certainty(self):
        a, b = three_box_states()
        ctx = SelectionContext(
            a, ProjectiveMeasurement.binary_from_state(b, "b", "not_b"), "b")
        assert_dist(abl_distribution(ctx, box_query("A")),
                    {"in_A": 1.0, "not_A": 0.0})
        assert_dist(abl_distribution(ctx, box_query("B")),
                    {"in_B": 1.0, "not_B": 0.0})

    def test_orthogonal_selections_with_commuting_query_are_impossible(self):
        ctx = SelectionContext(z_plus(), sigma_z(), "z-")
        with pytest.raises(ImpossiblePostSelection):
            abl_distribution(ctx, sigma_z())

    def test_matches_oracle_on_random_dim3_inputs(self):
        rng = np.random.Generator(np.random.Philox(key=424242))
        labels = ("q0", "q1", "q2")
        for _ in range(25):
            a = random_unit_vector(rng, 3)
            b = random_unit_vector(rng, 3)
            q_cols = random_unitary(rng, 3)
            q = ProjectiveMeasurement.from_eigenvectors(labels, q_cols)
            ctx = SelectionContext(
                PureState(labels, a),
                ProjectiveMeasurement.binary_from_state(
                    PureState(labels, b), "b", "not_b"),
                "b")
            got = abl_distribution(ctx, q)
            want = abl_oracle(a, np.eye(3), [q.projector(l) for l in labels],
                              np.eye(3), np.outer(b, b.conj()))
            assert np.allclose(got.probabilities, want, atol=EPS_NORM)

    def test_unitaries_are_applied_between_stages(self):
        # Evolving z+ by the Hadamard before t makes the sigma-x query certain
        # regardless of post-selection details.
        h = UnitaryOp(np.array([[S2, S2], [S2, -S2]]))
        ctx = SelectionContext(z_plus(), sigma_z(), "z+", pre_to_t=h)
        got = abl_distribution(ctx, sigma_x())
        assert got.probability("x+") == pytest.approx(1.0, abs=1e-10)

    def test_post_label_must_exist(self):
        with pytest.raises(KeyError):
            SelectionContext(z_plus(), sigma_x(), "sideways")


class TestSequenceProbability:
    def test_crossed_polarizers_block_everything(self):
        ctx = SelectionContext(PureState(("x", "y"), [1.0, 0.0]),
                               axis_pvm(math.pi / 2), "pass")
        assert sequence_probability(ctx, None) == pytest.approx(0.0, abs=1e-12)

    def test_oblique_intermediate_outcome_opens_a_path(self):
        ctx = SelectionContext(PureState(("x", "y"), [1.0, 0.0]),
                               axis_pvm(math.pi / 2), "pass")
        p = sequence_probability(ctx, (axis_pvm(math.pi / 4), "pass"))
        assert p == pytest.approx(0.25, abs=1e-10)

    def test_eigenstate_passes_with_certainty(self):
        ctx = SelectionContext(z_plus(), sigma_z(), "z+")
        assert sequence_probability(ctx, None) == pytest.approx(1.0, abs=1e-10)

    def test_joint_weights_marginalize_to_direct_probability(self):
        # Summing the joint path weights over a complete intermediate PVM
        # that commutes with nothing still recovers unitarity of total mass.
        rng = np.random.Generator(np.random.Philox(key=7))
        labels = ("q0", "q1", "q2")
        a = PureState(labels, random_unit_vector(rng, 3))
        q = ProjectiveMeasurement.from_eigenvectors(labels, random_unitary(rng, 3))
        post = ProjectiveMeasurement.from_eigenvectors(
            labels, random_unitary(rng, 3))
        total = 0.0
        for post_label in post.labels:
            ctx = SelectionContext(a, post, post_label)
            total += sum(sequence_probability(ctx, (q, ql)) for ql in q.labels)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestProtocolTimeline:
    def test_selection_context_is_a_protocol(self):
        ctx = aad_context()
        assert isinstance(ctx, Protocol)
        assert (ctx.intermediate, ctx.selection) == (None, "x+")

    def test_query_replaces_the_protocols_intermediate_stage(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        a, b = three_box_states()
        post = ProjectiveMeasurement.binary_from_state(b, "b", "not_b")
        u, v = UnitaryOp(random_unitary(rng, 3)), UnitaryOp(random_unitary(rng, 3))
        ctx = SelectionContext(a, post, "b", pre_to_t=u, t_to_post=v)
        protocol = Protocol(a, post, intermediate=MeasureStage(box_query("C")),
                            pre_to_t=u, t_to_post=v, selection="b")
        for box in "AB":
            q = box_query(box)
            assert abl_distribution(protocol, q).entries == abl_distribution(ctx, q).entries
            for label in q.labels:
                assert (sequence_probability(protocol, (q, label))
                        == sequence_probability(ctx, (q, label)))
        assert sequence_probability(protocol, None) == sequence_probability(ctx, None)

    def test_abl_needs_a_selected_outcome(self):
        with pytest.raises(ValueError, match="the protocol must fix a selected outcome"):
            abl_distribution(Protocol(z_plus(), sigma_x()), sigma_z())

    def test_sequence_probability_needs_a_selected_outcome(self):
        with pytest.raises(ValueError, match="the protocol must fix a selected outcome"):
            sequence_probability(Protocol(z_plus(), sigma_x()), (sigma_z(), "z+"))


class TestPostOutcomeDistribution:
    def test_commuting_measurement_does_not_disturb(self):
        base = post_outcome_distribution(z_plus(), sigma_x())
        probed = post_outcome_distribution(z_plus(), sigma_x(),
                                           intermediate=sigma_x())
        assert_dist(base, {"x+": 0.5, "x-": 0.5})
        assert_dist(probed, {"x+": 0.5, "x-": 0.5})

    def test_oblique_measurement_randomizes(self):
        x = PureState(("x", "y"), [1.0, 0.0])
        probed = post_outcome_distribution(
            x, axis_pvm(math.pi / 2), intermediate=axis_pvm(math.pi / 4))
        assert_dist(probed, {"pass": 0.5, "block": 0.5})

    def test_absorbing_filter_routes_stopped_weight_to_absorb_label(self):
        x = PureState(("x", "y"), [1.0, 0.0])
        stage = FilterStage(axis_pvm(math.pi / 4), "pass", "block")
        probed = post_outcome_distribution(x, axis_pvm(math.pi / 2),
                                           intermediate=stage)
        assert_dist(probed, {"pass": 0.25, "block": 0.75})

    def test_filter_with_unknown_absorb_label_rejected(self):
        x = PureState(("x", "y"), [1.0, 0.0])
        stage = FilterStage(axis_pvm(math.pi / 4), "pass", "vanished")
        with pytest.raises(KeyError):
            post_outcome_distribution(x, axis_pvm(math.pi / 2), intermediate=stage)

    def test_nothing_intermediate_is_plain_born(self):
        assert_dist(post_outcome_distribution(z_plus(), sigma_z()),
                    {"z+": 1.0, "z-": 0.0})

    def test_unitary_stage_evolves_before_final(self):
        flip = UnitaryStage(UnitaryOp(np.array([[S2, S2], [S2, -S2]])))
        got = post_outcome_distribution(z_plus(), sigma_x(), intermediate=flip)
        assert_dist(got, {"x+": 1.0, "x-": 0.0})


# Randomized property suites.

dims = st.integers(min_value=2, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_context_and_query(rng, dim, allow_degenerate=True):
    labels = tuple(f"e{k}" for k in range(dim))
    a = PureState(labels, random_unit_vector(rng, dim))
    b_vec = random_unit_vector(rng, dim)
    post = ProjectiveMeasurement.binary_from_state(
        PureState(labels, b_vec), "b", "not_b")
    projs = random_pvm_projectors(rng, dim, allow_degenerate)
    q = ProjectiveMeasurement([(f"q{k}", p) for k, p in enumerate(projs)])
    return SelectionContext(a, post, "b"), q, a.amplitudes, b_vec


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_abl_sums_to_one(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    ctx, q, _, _ = _random_context_and_query(rng, dim)
    try:
        dist = abl_distribution(ctx, q)
    except ImpossiblePostSelection:
        return
    assert abs(dist.probabilities.sum() - 1.0) <= EPS_NORM


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_time_symmetry_under_selection_swap(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = tuple(f"e{k}" for k in range(dim))
    a = PureState(labels, random_unit_vector(rng, dim))
    b = PureState(labels, random_unit_vector(rng, dim))
    projs = random_pvm_projectors(rng, dim)
    q = ProjectiveMeasurement([(f"q{k}", p) for k, p in enumerate(projs)])
    fwd_ctx = SelectionContext(
        a, ProjectiveMeasurement.binary_from_state(b, "sel", "rest"), "sel")
    rev_ctx = SelectionContext(
        b, ProjectiveMeasurement.binary_from_state(a, "sel", "rest"), "sel")
    try:
        fwd = abl_distribution(fwd_ctx, q)
        rev = abl_distribution(rev_ctx, q)
    except ImpossiblePostSelection:
        return
    assert np.allclose(fwd.probabilities, rev.probabilities, atol=EPS_NORM)


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_born_marginalization_identity(dim, seed):
    # Averaging the conditional distribution over the post outcome
    # distribution (with the query inserted) recovers the plain Born weights.
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = tuple(f"e{k}" for k in range(dim))
    a = PureState(labels, random_unit_vector(rng, dim))
    post = ProjectiveMeasurement.from_eigenvectors(
        labels, random_unitary(rng, dim))
    projs = random_pvm_projectors(rng, dim)
    q = ProjectiveMeasurement([(f"q{k}", p) for k, p in enumerate(projs)])
    post_dist = post_outcome_distribution(a, post, intermediate=q)
    recovered = np.zeros(len(q.labels))
    for post_label, weight in post_dist:
        if weight <= 1e-12:
            continue
        ctx = SelectionContext(a, post, post_label)
        recovered += weight * abl_distribution(ctx, q).probabilities
    assert np.allclose(recovered, born_distribution(a, q).probabilities,
                       atol=EPS_NORM)


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_commuting_determinism(dim, seed):
    # A query sharing the preparation as an eigenvector gets probability 1.
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = tuple(f"e{k}" for k in range(dim))
    q_cols = random_unitary(rng, dim)
    q = ProjectiveMeasurement.from_eigenvectors(
        tuple(f"q{k}" for k in range(dim)), q_cols)
    a = PureState(labels, q_cols[:, 0])
    b = PureState(labels, random_unit_vector(rng, dim))
    ctx = SelectionContext(
        a, ProjectiveMeasurement.binary_from_state(b, "sel", "rest"), "sel")
    try:
        dist = abl_distribution(ctx, q)
    except ImpossiblePostSelection:
        return
    assert dist.probability("q0") == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_matches_path_weight_oracle(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = tuple(f"e{k}" for k in range(dim))
    a_vec = random_unit_vector(rng, dim)
    b_vec = random_unit_vector(rng, dim)
    u = random_unitary(rng, dim)
    v = random_unitary(rng, dim)
    projs = random_pvm_projectors(rng, dim)
    q = ProjectiveMeasurement([(f"q{k}", p) for k, p in enumerate(projs)])
    ctx = SelectionContext(
        PureState(labels, a_vec),
        ProjectiveMeasurement.binary_from_state(
            PureState(labels, b_vec), "b", "not_b"),
        "b", pre_to_t=UnitaryOp(u), t_to_post=UnitaryOp(v))
    try:
        got = abl_distribution(ctx, q)
    except ImpossiblePostSelection:
        with pytest.raises(ZeroDivisionError):
            abl_oracle(a_vec, u, projs, v, np.outer(b_vec, b_vec.conj()))
        return
    want = abl_oracle(a_vec, u, projs, v, np.outer(b_vec, b_vec.conj()))
    assert np.allclose(got.probabilities, want, atol=EPS_NORM)
