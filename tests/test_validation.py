"""Constructor validation of PVMs, unitaries and density matrices.

Each rejection is pinned to its message, and each invariant is probed on
both sides of its tolerance: an offset of EPS_NORM / 2 is accepted and one
of 2 * EPS_NORM rejected. A property test compares the PVM validator with
the pairwise check below, which is kept here as an independent route.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pvm_projectors, random_unit_vector, random_unitary
from prepost.core import (
    EPS_NORM,
    DensityMatrix,
    DimensionMismatch,
    ProjectiveMeasurement,
    PureState,
    UnitaryOp,
    born_distribution,
)

E0 = np.diag([1.0, 0.0])
E1 = np.diag([0.0, 1.0])
UNDER, OVER = 0.5 * EPS_NORM, 2.0 * EPS_NORM


def pairwise_reference(outcomes) -> str | None:
    """First fault of a family of finite square projectors of one dimension,
    or None: every outcome and every pair checked with its own np.allclose,
    then the sum's distance to the identity in the spectral norm."""
    def close(a, b) -> bool:
        return np.allclose(a, b, atol=EPS_NORM, rtol=0.0)

    mats = [np.asarray(p, dtype=complex) for _, p in outcomes]
    labels = [label for label, _ in outcomes]
    for label, p in zip(labels, mats):
        if not close(p, p.conj().T):
            return f"projector for {label!r} is not Hermitian"
        if not close(p @ p, p):
            return f"projector for {label!r} is not idempotent"
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not close(mats[i] @ mats[j], 0.0):
                return f"projectors {labels[i]!r} and {labels[j]!r} overlap"
    if np.linalg.norm(sum(mats) - np.eye(len(mats[0])), 2) > EPS_NORM:
        return "projectors do not sum to the identity"
    return None


def validator_fault(outcomes) -> str | None:
    try:
        ProjectiveMeasurement(outcomes)
    except ValueError as exc:
        return str(exc)
    return None


class TestPvmRejections:
    @pytest.mark.parametrize("outcomes, exc, message", [
        ([], ValueError, "needs at least one outcome"),
        ([("m", E0), ("m", E1)], ValueError, "labels must be unique"),
        ([("m", E0), ("n", np.diag([np.inf, 1.0]))], ValueError,
         "projector for 'n' has non-finite entries"),
        ([("m", np.zeros((2, 3))), ("n", E1)], ValueError,
         "projector for 'm' is not square"),
        ([("m", np.zeros(2)), ("n", E1)], ValueError,
         "projector for 'm' is not square"),
        ([("m", np.zeros((0, 0)))], ValueError,
         r"projector for 'm' is empty \(0x0\)"),
        ([("m", E0), ("n", np.eye(3))], DimensionMismatch,
         "projectors have mixed dimensions"),
        ([("m", np.array([[1.0, 1.0], [0.0, 0.0]])),
          ("n", np.array([[0.0, -1.0], [0.0, 1.0]]))], ValueError,
         "projector for 'm' is not Hermitian"),
        ([("m", E0), ("n", 0.5 * E1)], ValueError,
         "projector for 'n' is not idempotent"),
        ([("a", np.diag([1.0, 0, 0])), ("b", np.diag([0, 1.0, 0])),
          ("c", np.diag([0, 1.0, 0]))], ValueError,
         "projectors 'b' and 'c' overlap"),
        ([("m", E0)], ValueError, "projectors do not sum to the identity"),
    ])
    def test_each_fault_has_its_message(self, outcomes, exc, message):
        with pytest.raises(exc, match=message):
            ProjectiveMeasurement(outcomes)

    def test_first_faulty_outcome_in_label_order_is_named(self):
        # 'a' is Hermitian but not idempotent, 'b' is not Hermitian.
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="'a' is not idempotent"):
            ProjectiveMeasurement([("a", 0.5 * E0), ("b", E1 + skew)])

    def test_hermiticity_is_reported_before_idempotence(self):
        bad = np.array([[2.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="'m' is not Hermitian"):
            ProjectiveMeasurement([("m", bad), ("n", E1)])

    def test_shape_fault_is_reported_before_an_algebraic_one(self):
        with pytest.raises(ValueError, match="'n' is not square"):
            ProjectiveMeasurement([("m", 0.5 * E0), ("n", np.zeros((2, 3)))])

    def test_stored_projectors_are_read_only_copies(self):
        raw = E0.astype(complex)
        pvm = ProjectiveMeasurement([("m", raw), ("n", E1)])
        raw[0, 0] = 0.0
        assert pvm.projector("m")[0, 0] == 1.0
        with pytest.raises(ValueError):
            pvm.projector("n")[1, 1] = 0.0


def hermiticity_offset(delta: float):
    return [("m", E0 + [[0.0, delta], [0.0, 0.0]]), ("n", E1)]


def idempotence_offset(delta: float):
    return [("m", (1.0 - delta) * E0), ("n", E1)]


def overlap_offset(delta: float):
    v = np.array([delta, np.sqrt(1.0 - delta**2)])
    return [("m", E0), ("n", np.outer(v, v))]


def completeness_offset(delta: float):
    # Rank-one projectors on a Hadamard basis, each shrunk by 1 - delta: the
    # sum misses the identity by delta, idempotence only by delta / 4.
    h = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                        [1, 1, -1, -1], [1, -1, -1, 1]])
    return [(f"h{k}", (1.0 - delta) * np.outer(h[k], h[k])) for k in range(4)]


class TestPvmToleranceEdges:
    @pytest.mark.parametrize("family, message", [
        (hermiticity_offset, "'m' is not Hermitian"),
        (idempotence_offset, "'m' is not idempotent"),
        (overlap_offset, "'m' and 'n' overlap"),
        (completeness_offset, "do not sum to the identity"),
    ])
    def test_half_eps_passes_and_twice_eps_fails(self, family, message):
        ProjectiveMeasurement(family(UNDER))
        with pytest.raises(ValueError, match=message):
            ProjectiveMeasurement(family(OVER))


@pytest.mark.parametrize("per_entry", [True, False])
def test_accepted_completeness_error_cannot_make_born_raise(per_entry):
    """P0 of a rank-1 dim-4 PVM scaled by 1 + 0.9e-10/max|P0| keeps every
    entry of sum(P) - I within 0.9e-10, yet a state along P0 has a Born sum
    that misses 1 by 0.9e-10/max|P0|: each such PVM is rejected or gives Born
    distributions that pass Distribution's sum check. Scaled by 1 + 0.9e-10,
    the error is 0.9e-10 in the spectral norm, and every PVM is accepted."""
    rejected = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 4)
        mats = [np.outer(c, c.conj()) for c in u.T]
        mats[0] = mats[0] * (1.0 + 0.9 * EPS_NORM / (np.abs(mats[0]).max() if per_entry else 1.0))
        try:
            pvm = ProjectiveMeasurement([(f"o{k}", m) for k, m in enumerate(mats)])
        except ValueError as exc:
            assert str(exc) == "projectors do not sum to the identity", seed
            rejected += 1
            continue
        for amps in (u[:, 0], *(random_unit_vector(rng, 4) for _ in range(8))):
            born_distribution(PureState(("a", "b", "c", "d"), amps), pvm)
    assert rejected > 0 if per_entry else rejected == 0


class TestUnitaryValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            UnitaryOp(np.zeros((2, 3)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"unitary matrix is empty \(0x0\)"):
            UnitaryOp(np.zeros((0, 0)))

    def test_tolerance_edge(self):
        # U^dagger U differs from the identity by delta in one entry.
        UnitaryOp(np.diag([1.0, np.sqrt(1.0 + UNDER)]))
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryOp(np.diag([1.0, np.sqrt(1.0 + OVER)]))


class TestDensityMatrixValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            DensityMatrix(np.zeros((2, 3)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"density matrix is empty \(0x0\)"):
            DensityMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("family, message", [
        (lambda d: [[0.5, d], [0.0, 0.5]], "not Hermitian"),
        (lambda d: np.diag([0.5 + d, 0.5]), "is not 1"),
        (lambda d: np.diag([1.0 + d, -d]), "negative eigenvalue"),
    ])
    def test_tolerance_edges(self, family, message):
        DensityMatrix(family(UNDER))
        with pytest.raises(ValueError, match=message):
            DensityMatrix(family(OVER))


# Perturbation sizes straddle EPS_NORM without sitting on it, so rounding
# cannot decide an example.
SCALES = (1e-13, 3e-11, 2e-10, 1e-9, 1e-6)
KINDS = ("none", "one", "one_hermitian", "all_hermitian", "scale", "duplicate")


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(0, 2**32 - 1),
       st.sampled_from(KINDS), st.sampled_from(SCALES))
def test_validator_agrees_with_pairwise_reference(dim, seed, kind, scale):
    rng = np.random.Generator(np.random.Philox(key=seed))
    mats = random_pvm_projectors(rng, dim)
    k = int(rng.integers(len(mats)))

    def noise() -> np.ndarray:
        return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    if kind == "one":
        mats[k] = mats[k] + noise()
    elif kind == "one_hermitian":
        e = noise()
        mats[k] = mats[k] + (e + e.conj().T) / 2
    elif kind == "all_hermitian":
        for i in range(len(mats)):
            e = noise()
            mats[i] = mats[i] + (e + e.conj().T) / 2
    elif kind == "scale":
        mats[k] = (1.0 + scale) * mats[k]
    elif kind == "duplicate":
        mats.append(mats[k])
    outcomes = [(f"o{i}", p) for i, p in enumerate(mats)]
    assert validator_fault(outcomes) == pairwise_reference(outcomes)
