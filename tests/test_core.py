"""State algebra tests: frozen values first, randomized properties after."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_dist,
    born_oracle,
    collapse_oracle,
    random_unit_vector,
    random_unitary,
)
from prepost.core import (
    EPS_NORM,
    BipartiteState,
    DensityMatrix,
    DimensionMismatch,
    Distribution,
    ProjectiveMeasurement,
    PureState,
    UnitaryOp,
    ZeroProbabilityOutcome,
    axis_pvm,
    born_distribution,
    branch_distributions,
    collapse,
    embed_pvm,
    evolve,
    reduced_density,
    tensor,
    total_variation,
)

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)


def z_plus() -> PureState:
    return PureState(("z+", "z-"), [1.0, 0.0])


def sigma_z() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(("z+", "z-"), np.eye(2))


def sigma_x() -> ProjectiveMeasurement:
    h = np.array([[S2, S2], [S2, -S2]])
    return ProjectiveMeasurement.from_eigenvectors(("x+", "x-"), h)


def singlet() -> BipartiteState:
    return BipartiteState(("z+", "z-"), ("z+", "z-"), [0.0, S2, -S2, 0.0])


def box_pvm(box: str) -> ProjectiveMeasurement:
    idx = "ABC".index(box)
    p = np.zeros((3, 3), dtype=complex)
    p[idx, idx] = 1.0
    return ProjectiveMeasurement(
        [(f"in_{box}", p), (f"not_{box}", np.eye(3) - p)]
    )


class TestPureState:
    def test_valid_construction(self):
        s = z_plus()
        assert s.dim == 2
        assert s.basis_labels == ("z+", "z-")
        assert np.allclose(s.amplitudes, [1.0, 0.0])

    def test_small_norm_error_is_repaired(self):
        s = PureState(("a", "b"), [1.0 + 3e-7, 0.0])
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= EPS_NORM

    def test_large_norm_error_is_rejected(self):
        with pytest.raises(ValueError):
            PureState(("a", "b"), [1.0, 0.5])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            PureState(("a", "b"), [0.0, 0.0])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            PureState(("a", "a"), [S2, S2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PureState(("a", "b"), [bad, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PureState(("a", "b", "c"), [1.0, 0.0])

    def test_amplitudes_are_read_only(self):
        s = z_plus()
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_json_round_trip_is_lossless(self):
        amps = [complex(0.123456789012345, -0.5), complex(0.2, 0.84)]
        amps = np.array(amps) / np.linalg.norm(amps)
        s = PureState(("u", "v"), amps)
        back = PureState.from_json_dict(s.to_json_dict())
        assert back.basis_labels == s.basis_labels
        assert np.array_equal(back.amplitudes, s.amplitudes)


class TestProjectiveMeasurement:
    def test_sigma_pvms_validate(self):
        for pvm in (sigma_z(), sigma_x()):
            assert pvm.dim == 2
            assert len(pvm.outcomes) == 2

    def test_degenerate_rank2_projector_is_allowed(self):
        pvm = box_pvm("A")
        assert pvm.dim == 3
        ranks = [int(round(np.real(np.trace(p)))) for _, p in pvm.outcomes]
        assert ranks == [1, 2]

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError):
            ProjectiveMeasurement([("m", np.array([[0.5, 0.0], [0.0, 0.5]])),
                                   ("n", np.array([[0.5, 0.0], [0.0, 0.5]]))])

    def test_non_orthogonal_rejected(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ProjectiveMeasurement([("m", p), ("n", p)])

    def test_incomplete_family_rejected(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ProjectiveMeasurement([("m", p)])

    def test_duplicate_labels_rejected(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ProjectiveMeasurement([("m", p), ("m", np.eye(2) - p)])

    def test_binary_from_state(self):
        plus = PureState(("z+", "z-"), [S2, S2])
        pvm = ProjectiveMeasurement.binary_from_state(plus, "hit", "miss")
        assert pvm.labels == ("hit", "miss")
        assert np.allclose(pvm.projector("hit"), np.full((2, 2), 0.5))

    def test_non_finite_entry_rejected(self):
        p = np.array([[1.0, 0.0], [0.0, float("nan")]])
        with pytest.raises(ValueError, match="non-finite"):
            ProjectiveMeasurement([("m", p), ("n", np.eye(2) - p)])

    def test_json_round_trip_is_lossless(self):
        pvm = sigma_x()
        back = ProjectiveMeasurement.from_json_dict(pvm.to_json_dict())
        assert back.labels == pvm.labels
        for label in pvm.labels:
            assert np.array_equal(back.projector(label), pvm.projector(label))


class TestUnitaryOp:
    def test_identity(self):
        u = UnitaryOp.identity(3)
        assert np.array_equal(u.matrix, np.eye(3))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            UnitaryOp([[1.0, 0.0], [0.0, 2.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            UnitaryOp([[1.0, 0.0], [0.0, bad]])

    def test_json_round_trip(self):
        u = UnitaryOp([[S2, S2], [S2, -S2]])
        back = UnitaryOp.from_json_dict(u.to_json_dict())
        assert np.array_equal(back.matrix, u.matrix)


class TestBornDistribution:
    def test_eigenstate_is_deterministic(self):
        assert_dist(born_distribution(z_plus(), sigma_z()), {"z+": 1.0, "z-": 0.0})

    def test_unbiased_basis_is_even(self):
        assert_dist(born_distribution(z_plus(), sigma_x()), {"x+": 0.5, "x-": 0.5})

    def test_flipped_coin_state_against_heads_detector(self):
        coin = PureState(("ready", "heads", "tails"), [0.0, S2, S2])
        heads = np.zeros((3, 3), dtype=complex)
        heads[1, 1] = 1.0
        pvm = ProjectiveMeasurement([("heads", heads), ("noheads", np.eye(3) - heads)])
        assert_dist(born_distribution(coin, pvm), {"heads": 0.5, "noheads": 0.5})

    def test_dimension_mismatch(self):
        coin = PureState(("r", "h", "t"), [1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            born_distribution(coin, sigma_z())


class TestCollapse:
    def test_projects_onto_new_basis(self):
        out = collapse(z_plus(), sigma_x(), "x+")
        assert abs(abs(np.vdot([S2, S2], out.amplitudes)) - 1.0) <= EPS_NORM

    def test_eigenstate_fixed_point(self):
        out = collapse(z_plus(), sigma_z(), "z+")
        assert np.allclose(out.amplitudes, z_plus().amplitudes, atol=EPS_NORM)

    def test_rank1_branch_of_degenerate_pvm(self):
        a = PureState(("A", "B", "C"), [S3, S3, S3])
        out = collapse(a, box_pvm("A"), "in_A")
        assert np.allclose(out.amplitudes, [1.0, 0.0, 0.0], atol=EPS_NORM)

    def test_zero_probability_outcome_raises(self):
        with pytest.raises(ZeroProbabilityOutcome):
            collapse(z_plus(), sigma_z(), "z-")

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            collapse(z_plus(), sigma_z(), "sideways")


class TestBranchDistributions:
    def test_rows_follow_each_branch(self):
        p, rows = branch_distributions(z_plus(), sigma_x(), UnitaryOp.identity(2),
                                       sigma_z())
        assert np.allclose(p, [0.5, 0.5], atol=EPS_NORM)
        assert np.allclose(rows, [[0.5, 0.5], [0.5, 0.5]], atol=EPS_NORM)

    def test_zero_weight_outcome_gets_a_zero_row_and_no_collapse(self, monkeypatch):
        collapsed = []

        def spy(state, pvm, label):
            collapsed.append(label)
            return collapse(state, pvm, label)

        monkeypatch.setattr("prepost.core.collapse", spy)
        p, rows = branch_distributions(z_plus(), sigma_z(), UnitaryOp.identity(2),
                                       sigma_x())
        assert p[1] == 0.0
        assert collapsed == ["z+"]
        assert np.array_equal(rows[1], [0.0, 0.0])
        assert np.allclose(rows[0], [0.5, 0.5], atol=EPS_NORM)


class TestEvolve:
    def flip(self) -> UnitaryOp:
        # ready -> (heads + tails)/sqrt(2); the rest completes the unitary.
        return UnitaryOp(np.array([
            [0.0, 0.0, 1.0],
            [S2, S2, 0.0],
            [S2, -S2, 0.0],
        ]))

    def test_flip_produces_even_coin_superposition(self):
        ready = PureState(("ready", "heads", "tails"), [1.0, 0.0, 0.0])
        out = evolve(ready, self.flip())
        assert np.allclose(out.amplitudes, [0.0, S2, S2], atol=EPS_NORM)

    def test_identity_is_a_no_op(self):
        s = PureState(("a", "b"), [0.6, 0.8j])
        out = evolve(s, UnitaryOp.identity(2))
        assert np.allclose(out.amplitudes, s.amplitudes, atol=EPS_NORM)

    def test_inverse_recovers_input(self):
        ready = PureState(("ready", "heads", "tails"), [1.0, 0.0, 0.0])
        u = self.flip()
        back = evolve(evolve(ready, u), UnitaryOp(u.matrix.conj().T))
        assert np.allclose(back.amplitudes, ready.amplitudes, atol=EPS_NORM)


class TestTensorAndBipartite:
    def test_product_basis_placement(self):
        z_minus = PureState(("z+", "z-"), [0.0, 1.0])
        bi = tensor(z_plus(), z_minus)
        assert bi.dims == (2, 2)
        assert np.allclose(bi.amplitudes, [0.0, 1.0, 0.0, 0.0])

    def test_plus_plus_is_uniform(self):
        plus = PureState(("z+", "z-"), [S2, S2])
        bi = tensor(plus, plus)
        assert np.allclose(bi.amplitudes, [0.5, 0.5, 0.5, 0.5])

    def test_to_pure_state_labels(self):
        s = singlet().to_pure_state()
        assert s.basis_labels == ("z+*z+", "z+*z-", "z-*z+", "z-*z-")

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            BipartiteState(("0", "1"), ("0", "1"), [1.0, 1.0, 0.0, 0.0])


class TestReducedDensity:
    def test_singlet_reduces_to_maximally_mixed(self):
        for side in ("left", "right"):
            rho = reduced_density(singlet(), side)
            assert np.allclose(rho.matrix, np.eye(2) / 2.0, atol=EPS_NORM)

    def test_product_state_reduces_to_projector(self):
        z_minus = PureState(("z+", "z-"), [0.0, 1.0])
        rho = reduced_density(tensor(z_plus(), z_minus), "left")
        assert np.allclose(rho.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=EPS_NORM)

    def test_density_matrix_invariants_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix([[0.5, 0.0], [0.0, 0.6]])
        with pytest.raises(ValueError):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]])

    def test_density_matrix_non_finite_entry_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix([[0.5, float("nan")], [0.0, 0.5]])


class TestAxisPvm:
    def test_zero_angle_aligns_with_first_axis(self):
        pvm = axis_pvm(0.0)
        assert pvm.labels == ("pass", "block")
        assert np.allclose(pvm.projector("pass"), [[1.0, 0.0], [0.0, 0.0]])

    def test_quarter_turn_is_orthogonal_to_zero(self):
        p0 = axis_pvm(0.0).projector("pass")
        p90 = axis_pvm(math.pi / 2).projector("pass")
        assert np.allclose(p0 @ p90, np.zeros((2, 2)), atol=EPS_NORM)

    def test_malus_at_45_degrees(self):
        x = PureState(("x", "y"), [1.0, 0.0])
        assert_dist(born_distribution(x, axis_pvm(math.pi / 4)),
                    {"pass": 0.5, "block": 0.5})


class TestDistribution:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            Distribution([("a", 0.6), ("b", 0.6)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Distribution([("a", bad), ("b", 1.0)])

    def test_empty_distribution_is_allowed(self):
        d = Distribution([])
        assert d.entries == ()

    def test_total_variation(self):
        p = Distribution([("a", 1.0), ("b", 0.0)])
        q = Distribution([("a", 0.5), ("b", 0.5)])
        assert abs(total_variation(p, q) - 0.5) <= EPS_NORM

    def test_total_variation_ignores_entry_order(self):
        p = Distribution([("a", 0.25), ("b", 0.75)])
        q = Distribution([("b", 0.75), ("a", 0.25)])
        assert total_variation(p, q) <= EPS_NORM

    def test_total_variation_rejects_label_mismatch(self):
        p = Distribution([("a", 1.0)])
        q = Distribution([("b", 1.0)])
        with pytest.raises(ValueError):
            total_variation(p, q)


class TestEmbedPvm:
    def test_left_embedding_acts_trivially_on_right(self):
        lifted = embed_pvm(sigma_z(), "left", 2)
        assert lifted.dim == 4
        assert np.allclose(lifted.projector("z+"),
                           np.kron([[1, 0], [0, 0]], np.eye(2)))

    def test_right_embedding(self):
        lifted = embed_pvm(sigma_z(), "right", 2)
        assert np.allclose(lifted.projector("z-"),
                           np.kron(np.eye(2), [[0, 0], [0, 1]]))


# Randomized properties.

dims = st.integers(min_value=2, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=50, deadline=None)
@given(dims, seeds)
def test_born_matches_oracle_and_sums_to_one(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    vec = random_unit_vector(rng, dim)
    u = random_unitary(rng, dim)
    labels = tuple(f"q{k}" for k in range(dim))
    state = PureState(labels, vec)
    pvm = ProjectiveMeasurement.from_eigenvectors(labels, u)
    dist = born_distribution(state, pvm)
    expected = born_oracle(vec, [pvm.projector(l) for l in labels])
    assert np.allclose(dist.probabilities, expected, atol=EPS_NORM)
    assert abs(dist.probabilities.sum() - 1.0) <= EPS_NORM


@settings(max_examples=50, deadline=None)
@given(dims, seeds)
def test_global_phase_changes_no_distribution(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    vec = random_unit_vector(rng, dim)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    labels = tuple(f"q{k}" for k in range(dim))
    pvm = ProjectiveMeasurement.from_eigenvectors(labels, random_unitary(rng, dim))
    a = born_distribution(PureState(labels, vec), pvm)
    b = born_distribution(PureState(labels, phase * vec), pvm)
    assert np.allclose(a.probabilities, b.probabilities, atol=EPS_NORM)


@settings(max_examples=50, deadline=None)
@given(dims, seeds)
def test_collapse_is_idempotent(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = tuple(f"q{k}" for k in range(dim))
    state = PureState(labels, random_unit_vector(rng, dim))
    pvm = ProjectiveMeasurement.from_eigenvectors(labels, random_unitary(rng, dim))
    dist = born_distribution(state, pvm)
    label = max(dist.entries, key=lambda e: e[1])[0]
    once = collapse(state, pvm, label)
    twice = collapse(once, pvm, label)
    assert np.allclose(once.amplitudes, twice.amplitudes, atol=EPS_NORM)
    # Nondegenerate collapse lands on the outcome eigenstate up to phase.
    expected = collapse_oracle(state.amplitudes, pvm.projector(label))
    assert abs(abs(np.vdot(expected, once.amplitudes)) - 1.0) <= EPS_NORM


@settings(max_examples=50, deadline=None)
@given(dims, seeds)
def test_evolve_preserves_norm(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = tuple(f"q{k}" for k in range(dim))
    state = PureState(labels, random_unit_vector(rng, dim))
    out = evolve(state, UnitaryOp(random_unitary(rng, dim)))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= EPS_NORM


@settings(max_examples=50, deadline=None)
@given(dims, dims, seeds)
def test_tensor_norm_and_reduction(dl, dr, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    left = PureState(tuple(f"l{k}" for k in range(dl)), random_unit_vector(rng, dl))
    right = PureState(tuple(f"r{k}" for k in range(dr)), random_unit_vector(rng, dr))
    bi = tensor(left, right)
    assert abs(np.linalg.norm(bi.amplitudes) - 1.0) <= EPS_NORM
    rho = reduced_density(bi, "right")
    assert abs(np.real(np.trace(rho.matrix)) - 1.0) <= EPS_NORM
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert eigs.min() >= -EPS_NORM and eigs.max() <= 1.0 + EPS_NORM


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_random_bipartite_reduction_is_valid_density(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    amps = random_unit_vector(rng, 6)
    bi = BipartiteState(("0", "1"), ("a", "b", "c"), amps)
    for side in ("left", "right"):
        rho = reduced_density(bi, side)
        assert abs(np.real(np.trace(rho.matrix)) - 1.0) <= EPS_NORM
