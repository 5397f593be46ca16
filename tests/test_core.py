"""State algebra tests: frozen values first, randomized properties after."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_dist,
    born_oracle,
    collapse_oracle,
    random_pvm_projectors,
    random_unit_vector,
    random_unitary,
)
from prepost.core import (
    EPS_NORM,
    EPS_PROB,
    NORM_REPAIR,
    BipartiteState,
    DensityMatrix,
    DimensionMismatch,
    Distribution,
    FilterStage,
    MeasureStage,
    ProjectiveMeasurement,
    Protocol,
    PureState,
    UnitaryOp,
    UnitaryStage,
    ZeroProbabilityOutcome,
    _branches,
    axis_pvm,
    born_distribution,
    collapse,
    embed_pvm,
    evolve,
    reduced_density,
    stage_branches,
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


def _product(left: PureState, right: PureState) -> BipartiteState:
    """Product state, row-major in (left, right) subsystem order."""
    return BipartiteState(left.basis_labels, right.basis_labels,
                          np.kron(left.amplitudes, right.amplitudes))


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
        p, rows = _branches(z_plus().amplitudes, sigma_x(), UnitaryOp.identity(2),
                            sigma_z())
        assert np.allclose(p, [0.5, 0.5], atol=EPS_NORM)
        assert np.allclose(rows, [[0.5, 0.5], [0.5, 0.5]], atol=EPS_NORM)

    def test_zero_weight_outcome_gets_a_zero_row_and_no_collapse(self):
        # Collapsing onto z- would raise; the routine must not attempt it.
        with pytest.raises(ZeroProbabilityOutcome):
            collapse(z_plus(), sigma_z(), "z-")
        p, rows = _branches(z_plus().amplitudes, sigma_z(), UnitaryOp.identity(2),
                            sigma_x())
        assert p[1] == 0.0
        assert np.array_equal(rows[1], [0.0, 0.0])
        assert np.allclose(rows[0], [0.5, 0.5], atol=EPS_NORM)

    def test_outcome_below_eps_prob_gets_a_zero_row(self):
        state = PureState(("z+", "z-"), [math.sqrt(1.0 - 1e-13), math.sqrt(1e-13)])
        p, rows = _branches(state.amplitudes, sigma_z(), UnitaryOp.identity(2),
                            sigma_x())
        assert 0.0 < p[1] <= EPS_PROB
        assert np.array_equal(rows[1], [0.0, 0.0])
        assert np.allclose(rows[0], [0.5, 0.5], atol=EPS_NORM)


class TestStageBranches:
    def test_no_stage_and_a_unitary_stage_are_one_born_branch(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        u, h, v = (UnitaryOp(random_unitary(rng, 2)) for _ in range(3))
        protocol = Protocol(z_plus(), sigma_x(), pre_to_t=u, t_to_post=v)
        for stage, mid in ((None, []), (UnitaryStage(h), [h])):
            state = z_plus()
            for w in [u, *mid, v]:
                state = evolve(state, w)
            labels, p, rows = stage_branches(protocol, stage)
            assert labels == (None,)
            assert p.tolist() == [1.0]
            assert rows.tolist() == [list(born_distribution(state, sigma_x()).probabilities)]

    def test_stage_replaces_the_protocols_own(self):
        protocol = Protocol(z_plus(), sigma_x(), intermediate=MeasureStage(sigma_x()))
        labels, p, rows = stage_branches(protocol, None)
        assert labels == (None,)
        assert np.allclose(rows, [[0.5, 0.5]], atol=EPS_NORM)

    def test_zero_weight_measure_outcome_gets_an_exactly_zero_row(self):
        labels, p, rows = stage_branches(Protocol(z_plus(), sigma_x()),
                                         MeasureStage(sigma_z()))
        assert labels == ("z+", "z-")
        assert p.tolist() == [1.0, 0.0]
        assert rows[1].tolist() == [0.0, 0.0]
        assert np.allclose(rows[0], [0.5, 0.5], atol=EPS_NORM)

    def test_filter_absorbs_every_other_branch_at_its_absorb_label(self):
        boxes = ProjectiveMeasurement.from_eigenvectors(("a", "b", "c"), np.eye(3))
        protocol = Protocol(PureState(("A", "B", "C"), [S2, S2, 0.0]), box_pvm("A"))
        labels, p, rows = stage_branches(protocol, FilterStage(boxes, "b", "in_A"))
        assert labels == ("a", "b", "c")
        assert np.allclose(p, [0.5, 0.5, 0.0], atol=EPS_NORM)
        # Branch c is never reached, but it is absorbed all the same.
        assert rows.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        _, _, rows = stage_branches(protocol, FilterStage(boxes, "c", "in_A"))
        assert rows.tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]


# The stacked kernels against the per-branch arithmetic they replaced,
# written out with no helper of the package: the dimension checks, the Born
# sums, Distribution's checks and the renormalisation PureState ran. The
# comparison is exact: the stacked matmuls run the same BLAS kernels as
# these loops, so not even the last bit may move.

def _loop_dim(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionMismatch(f"{what}: {a} != {b}")


def _loop_unit(v: np.ndarray) -> np.ndarray:
    """v over np.linalg.norm(v), checked as PureState checked it."""
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite amplitudes")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORM_REPAIR:
        raise ValueError(f"state vector has norm {norm!r}, expected 1")
    return v / norm


def _loop_born(v: np.ndarray, pvm: ProjectiveMeasurement) -> tuple:
    """born_distribution's entries: one v.conj() @ p @ v per projector, then
    Distribution's checks and clip."""
    _loop_dim(len(v), pvm.dim, "state vs measurement")
    probs = np.array([max(0.0, float(np.real(v.conj() @ p @ v))) for _, p in pvm.outcomes])
    if not np.all(np.isfinite(probs)):
        raise ValueError(f"non-finite probabilities: {probs}")
    if probs.min() < -EPS_NORM or probs.max() > 1.0 + EPS_NORM:
        raise ValueError(f"probabilities outside [0, 1]: {probs}")
    if abs(probs.sum() - 1.0) > EPS_NORM:
        raise ValueError(f"probabilities sum to {float(probs.sum())!r}, not 1")
    return tuple(zip(pvm.labels, (float(p) for p in np.clip(probs, 0.0, 1.0))))


def _loop_collapse(v: np.ndarray, pvm: ProjectiveMeasurement, label: str) -> np.ndarray:
    """collapse's amplitudes, projected, scaled and renormalised one by one."""
    _loop_dim(len(v), pvm.dim, "state vs measurement")
    projected = pvm.projector(label) @ v
    weight = float(np.real(np.vdot(projected, projected)))
    if weight <= EPS_PROB:
        raise ZeroProbabilityOutcome(f"outcome {label!r} has probability {weight!r}")
    return _loop_unit(projected / np.sqrt(weight))


def _loop_evolve(v: np.ndarray, u: UnitaryOp) -> np.ndarray:
    _loop_dim(len(v), u.dim, "state vs unitary")
    return _loop_unit(u.matrix @ v)


def _loop_branches(state, pvm, u, post) -> tuple[np.ndarray, np.ndarray]:
    """_branches as the per-branch chain: Born weights, then
    collapse, evolve and Born for each live branch."""
    p = np.array([q for _, q in _loop_born(state.amplitudes, pvm)])
    rows = np.zeros((len(p), len(post.labels)))
    for j, label in enumerate(pvm.labels):
        if p[j] > EPS_PROB:
            branch = _loop_evolve(_loop_collapse(state.amplitudes, pvm, label), u)
            rows[j] = [q for _, q in _loop_born(branch, post)]
    return p, rows


def _result(fn, *args):
    """fn's result, or the type and text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:  # ZeroProbabilityOutcome, DimensionMismatch too
        return type(exc), str(exc)


def _unvalidated_pvm(mats) -> ProjectiveMeasurement:
    """A measurement built around the constructor, to feed in bad projectors."""
    pvm = object.__new__(ProjectiveMeasurement)
    pvm.stack = np.array(mats, dtype=complex)
    pvm.outcomes = tuple((f"o{k}", p) for k, p in enumerate(pvm.stack))
    pvm._index = {label: k for k, (label, _) in enumerate(pvm.outcomes)}
    return pvm


KERNEL_KINDS = ("rank1", "degenerate", "one_outcome", "basis", "near_eps")


def _kernel_instance(seed: int):
    """Seeded (state, pvm, u, post) at dims 2-8. The query PVM is rank-1,
    degenerate, a single outcome, the basis itself, or rank-1 with a
    completeness error just under EPS_NORM in the spectral norm. The state is a basis vector
    (exactly zero branches against the basis PVM), one with a 1e-13 branch,
    or random."""
    rng = np.random.default_rng(seed)
    dim, kind = 2 + seed % 7, KERNEL_KINDS[seed // 7 % 5]
    labels = tuple(f"s{k}" for k in range(dim))
    if kind == "one_outcome":
        mats = [np.eye(dim)]
    elif kind == "basis":
        mats = [np.diag(e) for e in np.eye(dim)]
    elif kind == "near_eps":
        mats = [np.outer(c, c.conj()) for c in random_unitary(rng, dim).T]
        mats[0] = mats[0] * (1.0 + 0.8 * EPS_NORM)
    else:
        mats = random_pvm_projectors(rng, dim, allow_degenerate=kind == "degenerate")
    amps = [random_unit_vector(rng, dim), np.eye(dim)[int(rng.integers(dim))],
            np.sqrt([1.0 - 1e-13, 1e-13] + [0.0] * (dim - 2))][seed // 35 % 3]
    pvm = ProjectiveMeasurement([(f"q{k}", m) for k, m in enumerate(mats)])
    post = ProjectiveMeasurement([(f"f{k}", m) for k, m in
                                  enumerate(random_pvm_projectors(rng, dim))])
    u = UnitaryOp(random_unitary(rng, dim) if seed % 3 else np.eye(dim))
    return PureState(labels, amps), pvm, u, post, kind


BAD_STACKS = {
    "sum_two": [np.eye(2), np.eye(2)],
    "outside": [3.0 * np.diag([1.0, 0.0]), np.diag([-2.0, 1.0])],
    "infinite": [np.diag([np.inf, 0.0]), np.diag([0.0, 1.0])],
    "nan": [np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])],
    "overflow": [np.full((2, 2), 1e308), np.eye(2)],
    "weightless_branch": [np.diag([1e-7, 0.0]), np.diag([1.0 - 1e-7, 1.0])],
}


class TestStackedKernels:
    SEEDS = range(245)

    def test_branch_distributions_equals_the_per_branch_loop(self):
        zero_rows = tiny_rows = near_eps = 0
        for seed in self.SEEDS:
            state, pvm, u, post, kind = _kernel_instance(seed)
            want = _result(_loop_branches, state, pvm, u, post)
            got = _result(_branches, state.amplitudes, pvm, u, post)
            if isinstance(want[0], type):  # an error is raised as the loop raises it
                assert got == want, seed
                continue
            (p, rows), (want_p, want_rows) = got, want
            assert np.array_equal(p, want_p), seed
            assert np.array_equal(rows, want_rows), seed
            zero_rows += bool(np.any(p == 0.0))
            tiny_rows += bool(np.any((p > 0.0) & (p <= EPS_PROB)))
            if kind == "near_eps":
                error = np.linalg.norm(pvm.stack.sum(0) - np.eye(pvm.dim), 2)
                near_eps += 0.5 * EPS_NORM < error <= EPS_NORM
        assert zero_rows >= 20 and tiny_rows >= 5 and near_eps >= 20

    def test_born_collapse_and_evolve_equal_the_unstacked_arithmetic(self):
        for seed in self.SEEDS:
            state, pvm, u, post, _ = _kernel_instance(seed)
            for m in (pvm, post):
                got = _result(lambda: born_distribution(state, m).entries)
                assert got == _result(_loop_born, state.amplitudes, m), seed
            for label in pvm.labels:
                got = _result(lambda: collapse(state, pvm, label).amplitudes)
                want = _result(_loop_collapse, state.amplitudes, pvm, label)
                assert type(got) is type(want) and np.array_equal(got, want), seed
            assert np.array_equal(evolve(state, u).amplitudes,
                                  _loop_evolve(state.amplitudes, u)), seed

    @pytest.mark.parametrize("bad", sorted(BAD_STACKS))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bad_rows_raise_as_the_loops_do(self, bad):
        pvm = _unvalidated_pvm(BAD_STACKS[bad])
        for state in (z_plus(), PureState(("z+", "z-"), [S2, S2])):
            got = _result(lambda: born_distribution(state, pvm).entries)
            assert got == _result(_loop_born, state.amplitudes, pvm)
            for args in ((pvm, UnitaryOp.identity(2), sigma_x()),
                         (sigma_x(), UnitaryOp.identity(2), pvm),
                         (sigma_x(), UnitaryOp.identity(3), sigma_z()),
                         (sigma_x(), UnitaryOp.identity(2), box_pvm("A"))):
                got = _result(_branches, state.amplitudes, *args)
                want = _result(_loop_branches, state, *args)
                if isinstance(want[0], type):
                    assert got == want
                else:
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
        bi = _product(z_plus(), z_minus)
        assert bi.dims == (2, 2)
        assert np.allclose(bi.amplitudes, [0.0, 1.0, 0.0, 0.0])

    def test_plus_plus_is_uniform(self):
        plus = PureState(("z+", "z-"), [S2, S2])
        bi = _product(plus, plus)
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
        rho = reduced_density(_product(z_plus(), z_minus), "left")
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

    def test_bad_sum_is_shown_as_a_plain_float(self):
        with pytest.raises(ValueError, match=r"^probabilities sum to 1\.1, not 1$"):
            Distribution([("a", 0.5), ("b", 0.6)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Distribution([("a", bad), ("b", 1.0)])

    def test_empty_distribution_is_allowed(self):
        d = Distribution([])
        assert d.entries == ()

    def test_reads_back_as_labelled_pairs(self):
        d = Distribution([("a", 0.25), ("b", 0.75)])
        assert d.entries == (("a", 0.25), ("b", 0.75))
        assert list(d) == [("a", 0.25), ("b", 0.75)]
        assert len(d) == 2
        assert d.labels == ("a", "b")
        assert d.probability("b") == 0.75
        assert repr(d) == "Distribution({a: 0.250000, b: 0.750000})"
        assert json.dumps(d.to_json_dict()) == (
            '{"entries": [{"label": "a", "probability": 0.25}, '
            '{"label": "b", "probability": 0.75}]}')

    def test_values_within_tolerance_are_clipped_to_plain_floats(self):
        d = Distribution([("a", -1e-12), ("b", np.float64(1.0 + 1e-12))])
        assert d.entries == (("a", 0.0), ("b", 1.0))
        assert all(type(p) is float for _, p in d)

    def test_probabilities_array_is_a_copy(self):
        d = Distribution([("a", 0.25), ("b", 0.75)])
        d.probabilities[0] = 0.5
        arr = d.probabilities
        arr[:] = 0.0
        assert d.probability("a") == 0.25
        assert np.array_equal(d.probabilities, [0.25, 0.75])

    def test_has_no_instance_dict(self):
        d = Distribution([("a", 1.0)])
        assert not hasattr(d, "__dict__")
        with pytest.raises(AttributeError):
            d.extra = 1

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
    bi = _product(left, right)
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
