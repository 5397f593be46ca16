"""The fused validation checks against the per-row checks they replaced.

_checked_rows, _renormalised and the matrix constructors test a whole stacked
array at once, and walk it only when that test fails, to name the fault. The
reference functions below are the earlier code, kept verbatim: they walk
every row on every call. Each case must give bit-identical output, or the
same exception type and message.
"""
from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import rank1_projectors, random_pvm_projectors, random_unit_vector, random_unitary
import prepost.core
from prepost.core import (
    EPS_NORM,
    NORM_REPAIR,
    DensityMatrix,
    DimensionMismatch,
    ProjectiveMeasurement,
    PureState,
    UnitaryOp,
    _check_unique,
    _checked_rows,
    _complete,
    _quiet_overflow,
    _renormalised,
    _within_eps,
)


def _reference_checked_rows(probs: np.ndarray) -> np.ndarray:
    """Each nonempty row of probs checked as a Distribution checks it, then clipped."""
    finite, total = np.isfinite(probs).all(axis=1), probs.sum(axis=1)
    outside = (probs.min(axis=1) < -EPS_NORM) | (probs.max(axis=1) > 1.0 + EPS_NORM)
    for k in np.flatnonzero(~finite | outside | (np.abs(total - 1.0) > EPS_NORM))[:1]:
        raise ValueError(f"non-finite probabilities: {probs[k]}" if not finite[k] else
                         f"probabilities outside [0, 1]: {probs[k]}" if outside[k] else
                         f"probabilities sum to {float(total[k])!r}, not 1")
    return np.clip(probs, 0.0, 1.0)


def _reference_renormalised(x: np.ndarray, what: str) -> np.ndarray:
    """Each row of x over its norm, taken as np.linalg.norm takes it: dots of
    the strided .real/.imag views (a contiguous copy moves low-order bits)."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} has non-finite amplitudes")
    norms = np.sqrt(sum(r[:, None, :] @ r[:, :, None] for r in (x.real, x.imag)))[:, 0]
    for norm in norms[np.abs(norms - 1.0) > NORM_REPAIR][:1]:
        raise ValueError(f"{what} has norm {float(norm)!r}, expected 1")
    return x / norms


def _reference_pvm_stack(outcomes) -> np.ndarray:
    """The projector stack ProjectiveMeasurement validated outcome by outcome."""
    if not outcomes:
        raise ValueError("a measurement needs at least one outcome")
    labels = _check_unique([label for label, _ in outcomes], "outcome")
    mats = []
    for (label, raw) in outcomes:
        p = np.asarray(raw, dtype=complex)
        if not np.isfinite(p).all():
            raise ValueError(f"projector for {label!r} has non-finite entries")
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"projector for {label!r} is not square")
        if p.size == 0:
            raise ValueError(f"projector for {label!r} is empty (0x0)")
        if mats and p.shape != mats[0].shape:
            raise DimensionMismatch("projectors have mixed dimensions")
        mats.append(p)
    stack = np.array(mats)
    n, dim = stack.shape[:2]
    hermitian = _within_eps(stack, stack.conj().transpose(0, 2, 1), (1, 2))
    # Block (i, j) of rows @ columns is P_i P_j, which must equal δ_ij P_i.
    blocks = (stack.reshape(n * dim, dim) @ stack.transpose(1, 0, 2).reshape(
        dim, n * dim)).reshape(n, dim, n, dim)
    blocks[np.arange(n), :, np.arange(n)] -= stack
    product_ok = _within_eps(blocks, 0.0, (1, 3))
    faults = [f"projector for {label!r} is not {'idempotent' if h else 'Hermitian'}"
              for label, h, ok in zip(labels, hermitian, product_ok.diagonal())
              if not (h and ok)]
    faults += [f"projectors {labels[i]!r} and {labels[j]!r} overlap"
               for i, j in zip(*np.nonzero(~product_ok)) if i < j]
    if faults or not _complete(stack.sum(0) - np.eye(dim)):
        raise ValueError((faults or ["projectors do not sum to the identity"])[0])
    return stack


def _reference_unitary(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("unitary matrix has non-finite entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("unitary matrix must be square")
    if m.size == 0:
        raise ValueError("unitary matrix is empty (0x0)")
    if not _within_eps(m.conj().T @ m, np.eye(m.shape[0])):
        raise ValueError("matrix is not unitary")
    return m.copy()


def _reference_density(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("density matrix has non-finite entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("density matrix must be square")
    if m.size == 0:
        raise ValueError("density matrix is empty (0x0)")
    if not _within_eps(m, m.conj().T):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.real(np.trace(m)) - 1.0) > EPS_NORM:
        raise ValueError(f"trace {np.real(np.trace(m))!r} is not 1")
    if np.linalg.eigvalsh(m).min() < -EPS_NORM:
        raise ValueError("density matrix has a negative eigenvalue")
    return m.copy()


def _outcome(fn, *args):
    """fn's array as (dtype, shape, bytes), or the type and text of what it raised.

    Any exception counts, so a fast test that lets a bad array through, or
    sends a good one to the error walk, shows up as a different outcome."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


def _ulps(x: float, k: int) -> list[float]:
    """x and its k nearest doubles on either side."""
    below, above, out = x, x, [x]
    for _ in range(k):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [float(below), float(above)]
    return out


@pytest.mark.parametrize("tolerance", [EPS_NORM, NORM_REPAIR])
def test_no_double_is_exactly_a_tolerance_away_from_one(tolerance):
    # |total - 1| and |norm - 1| are exact near 1 and so never equal the
    # tolerance: there a strict and a non-strict test agree, and the edge
    # cases below can only straddle it.
    for edge in (1.0 - tolerance, 1.0 + tolerance):
        assert all(abs(t - 1.0) != tolerance for t in _ulps(edge, 4))


BAD_ENTRIES = (np.nan, np.inf, -np.inf)


def _probability_rows(rng: np.random.Generator) -> np.ndarray:
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    rows = rng.random((n, m)) ** 3
    rows[:, 0] += 1e-3
    return rows / rows.sum(axis=1, keepdims=True)


class TestCheckedRows:
    def test_valid_rows_are_clipped_as_before(self):
        rng = np.random.default_rng(1)
        for k in range(300):
            rows = _probability_rows(rng)
            if k % 3 == 0 and rows.shape[1] > 1:  # a hair below 0, which the tolerance admits
                rows[0, :2] = -0.5 * EPS_NORM, rows[0, :2].sum() + 0.5 * EPS_NORM
            want = _outcome(_reference_checked_rows, rows)
            assert isinstance(want[0], np.dtype), k
            assert _outcome(_checked_rows, rows) == want, k

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_a_non_finite_entry_anywhere_is_named(self, bad):
        rng = np.random.default_rng(2)
        for k in range(100):
            rows = _probability_rows(rng)
            rows[rng.integers(rows.shape[0]), rng.integers(rows.shape[1])] = bad
            want = _outcome(_reference_checked_rows, rows)
            assert want[0] is ValueError, k
            assert _outcome(_checked_rows, rows) == want, k

    @pytest.mark.parametrize("edge", [1.0 - EPS_NORM, 1.0 + EPS_NORM, -EPS_NORM])
    def test_rows_at_each_tolerance_edge(self, edge):
        # Entries sit exactly on -EPS_NORM and 1.0 + EPS_NORM, each in a row
        # that sums to 1; row sums straddle 1 +- EPS_NORM.
        passed = failed = 0
        for x in _ulps(edge, 4):
            if x < 0.5:
                cases = ([[x, 0.5, 0.5 - x]], [[0.5, 0.5, 0.0], [x, 0.5, 0.5 - x]])
            else:
                cases = ([[x]], [[x - 0.25, 0.25]], [[0.5, 0.5], [x - 0.25, 0.25]],
                         [[x, -0.5 * EPS_NORM]], [[0.5, 0.5], [x, -0.5 * EPS_NORM]])
            for rows in map(np.array, cases):
                want = _outcome(_reference_checked_rows, rows)
                assert _outcome(_checked_rows, rows) == want, (edge, x, rows)
                passed += isinstance(want[0], np.dtype)
                failed += want[0] is ValueError
        assert passed and failed

    def test_the_first_bad_row_is_named(self):
        rng = np.random.default_rng(3)
        for k in range(200):
            rows = _probability_rows(rng)
            if rows.shape[0] < 2:
                rows = np.vstack([rows, rows])
            for i in rng.choice(rows.shape[0], 2, replace=False):
                kind = int(rng.integers(4))
                if kind < 3:  # non-finite, above 1, below 0
                    rows[i, 0] = (np.nan, 1.5, -0.2)[kind]
                else:  # only the sum is off
                    rows[i] *= 1.01
            want = _outcome(_reference_checked_rows, rows)
            assert want[0] is ValueError, k
            assert _outcome(_checked_rows, rows) == want, k


def _unit_rows(rng: np.random.Generator) -> np.ndarray:
    dim = int(rng.integers(1, 9))
    return np.array([random_unit_vector(rng, dim) for _ in range(int(rng.integers(1, 6)))])


class TestRenormalised:
    def test_valid_rows_are_divided_as_before(self):
        rng = np.random.default_rng(4)
        for k in range(300):
            x = _unit_rows(rng) * (1.0 + rng.uniform(-1, 1) * 0.9 * NORM_REPAIR)
            want = _outcome(_reference_renormalised, x, "state vector")
            assert isinstance(want[0], np.dtype), k
            assert _outcome(_renormalised, x, "state vector") == want, k

    @pytest.mark.parametrize("bad", BAD_ENTRIES + (complex(np.inf, np.nan),
                                                   complex(0.0, -np.inf)))
    def test_a_non_finite_amplitude_anywhere_is_named(self, bad):
        rng = np.random.default_rng(5)
        for k in range(100):
            x = _unit_rows(rng)
            if k % 4 == 0:  # a finite row whose norm overflows as well
                x[0] = 1e308
            x[rng.integers(x.shape[0]), rng.integers(x.shape[1])] = bad
            want = _outcome(_reference_renormalised, x, "branch")
            assert want == (ValueError, "branch has non-finite amplitudes"), k
            assert _outcome(_renormalised, x, "branch") == want, k

    def test_a_norm_that_overflows_is_named_inf(self):
        for x in ([[1e308, 1e308]], [[1e308j, 0.5]], [[0.6, 0.8], [1e200, 1e200]]):
            x = np.array(x, dtype=complex)
            want = _outcome(_reference_renormalised, x, "state vector")
            assert want == (ValueError, "state vector has norm inf, expected 1")
            assert _outcome(_renormalised, x, "state vector") == want

    @pytest.mark.parametrize("edge", [1.0 - NORM_REPAIR, 1.0 + NORM_REPAIR])
    def test_norms_at_each_tolerance_edge(self, edge):
        passed = failed = 0
        for c in _ulps(edge, 6):
            for x in ([[c]], [[c * 1j]], [[0.6, 0.8], [c, 0.0]]):
                x = np.array(x, dtype=complex)
                want = _outcome(_reference_renormalised, x, "state vector")
                assert _outcome(_renormalised, x, "state vector") == want, (edge, c)
                passed += isinstance(want[0], np.dtype)
                failed += want[0] is ValueError
        assert passed and failed

    def test_the_first_bad_norm_is_named(self):
        rng = np.random.default_rng(6)
        for k in range(200):
            x = _unit_rows(rng)
            x = np.vstack([x, x, x])
            for i in rng.choice(x.shape[0], 2, replace=False):
                x[i] *= rng.choice([0.0, 0.5, 1.5, 1.0 + 3 * NORM_REPAIR])
            want = _outcome(_reference_renormalised, x, "state vector")
            assert want[0] is ValueError, k
            assert _outcome(_renormalised, x, "state vector") == want, k

    @pytest.mark.parametrize("amplitudes", [[1e200, 1.0], [np.inf, 1e200], [1e200, np.inf],
                                            [1e200j, np.inf], [np.nan, 1e200]])
    def test_a_direct_state_warns_only_of_overflow(self, amplitudes):
        # The norms now come before the finiteness test, so a direct call may
        # warn of an overflowing square beside an inf, as it always did for
        # finite entries near 1e308 (whether it does depends on the BLAS
        # summation order). The error is the old one either way, and under
        # _quiet_overflow, which the JSON loaders use, nothing warns.
        want = _outcome(_reference_renormalised, np.array([amplitudes], dtype=complex),
                        "state vector")
        assert want[0] is ValueError
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as direct:
                PureState(["a", "b"], amplitudes)
        assert str(direct.value) == want[1]
        assert {(w.category, str(w.message)) for w in caught} <= {
            (RuntimeWarning, "overflow encountered in matmul")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _quiet_overflow(), pytest.raises(ValueError) as quiet:
                PureState(["a", "b"], amplitudes)
        assert str(quiet.value) == want[1]

    def test_an_empty_vector_has_norm_zero(self):
        x = np.zeros((1, 0), dtype=complex)
        want = _outcome(_reference_renormalised, x, "state vector")
        assert want == (ValueError, "state vector has norm 0.0, expected 1")
        assert _outcome(_renormalised, x, "state vector") == want


def _pvm_stack(outcomes) -> np.ndarray:
    return ProjectiveMeasurement(outcomes).stack


def _valid_outcomes(rng: np.random.Generator, dim: int) -> list[tuple[str, np.ndarray]]:
    return [(f"o{k}", p) for k, p in enumerate(random_pvm_projectors(rng, dim))]


BAD_PROJECTORS = {
    "nan": lambda p: np.where(np.eye(len(p)) > 0, np.nan, p),
    "inf": lambda p: p + np.inf,
    "minus_inf": lambda p: p - np.inf,
    "non_square": lambda p: p[:, :-1] if len(p) > 1 else np.zeros((1, 2)),
    "vector": lambda p: p[0],
    "three_axes": lambda p: p[None],
    "empty": lambda p: np.zeros((0, 0)),
    "bigger": lambda p: np.eye(len(p) + 1),
    "smaller": lambda p: np.eye(max(len(p) - 1, 0) or 3),
    "ragged": lambda p: [list(row) for row in p][:-1] + [[1.0]],
    "nested_lists": lambda p: p.tolist(),
    "not_numbers": lambda p: [["a"] * len(p)] * len(p),
    "huge_int": lambda p: [[10**400] * len(p)] * len(p),
    "not_hermitian": lambda p: p + np.triu(np.ones_like(p), 1),
    "not_idempotent": lambda p: 0.5 * p,
}


class TestProjectorStack:
    def test_valid_measurements_keep_their_stack(self):
        rng = np.random.default_rng(7)
        for k in range(200):
            outcomes = _valid_outcomes(rng, 1 + k % 8)
            if k % 4 == 0:
                outcomes = [(label, p.tolist()) for label, p in outcomes]
            want = _outcome(_reference_pvm_stack, outcomes)
            assert isinstance(want[0], np.dtype), k
            assert _outcome(_pvm_stack, outcomes) == want, k

    @pytest.mark.parametrize("bad", sorted(BAD_PROJECTORS))
    def test_the_first_bad_projector_is_named(self, bad):
        rng = np.random.default_rng(8)
        for k in range(40):
            dim = 2 + k % 4
            outcomes = _valid_outcomes(rng, dim)
            i = int(rng.integers(len(outcomes)))
            outcomes[i] = (outcomes[i][0], BAD_PROJECTORS[bad](outcomes[i][1]))
            if k % 2 and i + 1 < len(outcomes):  # a second fault after the first
                other = sorted(BAD_PROJECTORS)[k % len(BAD_PROJECTORS)]
                outcomes[-1] = (outcomes[-1][0], BAD_PROJECTORS[other](np.eye(dim)))
            want = _outcome(_reference_pvm_stack, outcomes)
            assert _outcome(_pvm_stack, outcomes) == want, (bad, k)
            assert bad == "nested_lists" or isinstance(want[0], type), (bad, k)

    @pytest.mark.parametrize("outcomes", [
        [],
        [("m", np.zeros((0, 0)))],
        [("m", np.zeros((0, 0))), ("n", np.zeros((0, 0)))],
        [("m", np.eye(2)), ("n", np.eye(3))],
        [("m", np.eye(3)), ("n", np.zeros((2, 3)))],
        [("m", np.zeros((2, 3))), ("n", np.eye(2))],
        [("m", [[1.0, 0.0], [0.0]]), ("n", np.eye(2))],
        [("m", np.diag([1.0, 0.0])), ("n", np.eye(3)), ("o", np.diag([np.nan, 1.0]))],
        [("m", np.diag([np.nan, 0.0])), ("n", np.eye(3))],
        [("m", np.diag([1.0, 0.0])), ("n", np.diag([0.0, 1.0]))],
    ], ids=["none", "empty", "two_empty", "mixed", "mixed_then_non_square",
            "non_square_first", "ragged", "mixed_before_nan", "nan_before_mixed", "valid"])
    def test_shape_faults_in_their_old_order(self, outcomes):
        assert _outcome(_pvm_stack, outcomes) == _outcome(_reference_pvm_stack, outcomes)

    @pytest.mark.parametrize("matrix", [
        np.eye(2), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0]), np.zeros((2, 3)),
        np.zeros(2), np.zeros((0, 0)), [[1.0, 0.0], [0.0]], np.ones((2, 2, 2)),
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([0.5, 0.5]), np.diag([1.5, -0.5]),
    ])
    def test_unitary_and_density_matrices_as_before(self, matrix):
        got = _outcome(lambda m: UnitaryOp(m).matrix, matrix)
        assert got == _outcome(_reference_unitary, matrix)
        got = _outcome(lambda m: DensityMatrix(m).matrix, matrix)
        assert got == _outcome(_reference_density, matrix)

    def test_runs_of_one_outcome_name_the_same_fault(self, monkeypatch):
        # Every outcome's products form their own run, as a large dim forces.
        monkeypatch.setattr(prepost.core, "PRODUCT_ENTRIES", 1)
        rng = np.random.default_rng(11)
        for k in range(120):
            dim = 2 + k % 4
            outcomes = _valid_outcomes(rng, dim)
            bad = sorted(BAD_PROJECTORS)[k % len(BAD_PROJECTORS)]
            i = int(rng.integers(len(outcomes)))
            if k % 3:
                outcomes[i] = (outcomes[i][0], BAD_PROJECTORS[bad](outcomes[i][1]))
            assert _outcome(_pvm_stack, outcomes) == _outcome(_reference_pvm_stack, outcomes), k

    def test_validation_memory_is_in_proportion_to_the_stack(self):
        # A rank-1 measurement at dim 64 is a 4 MB stack; all its products
        # P_i P_j at once would take 268 MB.
        u = random_unitary(np.random.default_rng(12), 64)
        outcomes = [(f"o{k}", p) for k, p in enumerate(rank1_projectors(u))]
        tracemalloc.start()
        try:
            ProjectiveMeasurement(outcomes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_an_overlapping_pair_at_dim_64_is_named(self):
        outcomes = [(f"o{k}", p) for k, p in enumerate(rank1_projectors(np.eye(64)))]
        v = np.zeros(64)
        v[[5, 63]] = np.sqrt(0.5)
        outcomes[63] = ("o63", np.outer(v, v))
        with pytest.raises(ValueError) as caught:
            ProjectiveMeasurement(outcomes)
        assert str(caught.value) == "projectors 'o5' and 'o63' overlap"

    def test_random_unitaries_as_before(self):
        rng = np.random.default_rng(9)
        for k in range(100):
            u = random_unitary(rng, 1 + k % 8)
            assert _outcome(lambda m: UnitaryOp(m).matrix, u) == _outcome(_reference_unitary, u)
