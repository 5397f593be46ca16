"""Finite-dimensional complex state algebra for projective measurements.

States, projective measurements (PVMs), unitaries, bipartite composition,
the Born/projection primitives the rest of the package builds on, and the
timeline of one experiment (Protocol), whose stages turn into branches in
stage_branches alone.

All types validate their invariants at construction time and are immutable
afterwards; every operation is a pure function, so values can be shared
freely between threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

# Tolerance for algebraic identities (norms, hermiticity, completeness).
EPS_NORM = 1e-10
# Probabilities at or below this are treated as exactly zero.
EPS_PROB = 1e-12
# Norm errors below this are renormalized (hand-entered decimals), larger rejected.
NORM_REPAIR = 1e-6
# Slack added to each agreement-gate tolerance, so zero-variance exact matches pass.
EPS_AGREE = 1e-10
# Final-outcome disturbance (total variation) at or below this counts as none.
EPS_COTEN = 1e-10
# Largest error a verify suite accepts between two routes to the same quantity.
EPS_VERIFY = 1e-10
# Most entries in one run of a measurement's validation products P_i P_j.
PRODUCT_ENTRIES = 1 << 20

Side = Literal["left", "right"]
_JSON_NUMBERS = frozenset({int, float})  # exact types: a JSON true is a bool, an int


class DimensionMismatch(ValueError):
    """Operands describe systems of different dimension."""


class ZeroProbabilityOutcome(ValueError):
    """Collapse was requested onto an outcome of numerically zero probability."""


def _complex_to_json(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _require_list(data, what: str) -> None:
    if type(data) is not list:
        raise ValueError(f"{what} must be a list, got {json.dumps(data, default=repr)}")


def _complex_list(data, what: str) -> list[complex]:
    """JSON [re, im] number pairs as complex values; names the first bad one."""
    _require_list(data, what)
    out = []
    try:
        for k, z in enumerate(data):
            if (type(z) is not list or len(z) != 2
                    or type(z[0]) not in _JSON_NUMBERS or type(z[1]) not in _JSON_NUMBERS):
                raise ValueError(f"{what}[{k}] must be a [re, im] pair of numbers, "
                                 f"got {json.dumps(z, default=repr)}")
            out.append(complex(*z))
    except OverflowError:  # an int past the float range
        raise ValueError(f"{what}[{k}] holds a number too large for a float") from None
    return out


def _matrix_from_json(data, what: str) -> np.ndarray:
    _require_list(data, what)
    rows = [_complex_list(row, f"{what}[{i}]") for i, row in enumerate(data)]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"{what}[{i}] has {len(row)} entries, not {len(rows[0])}")
    return np.array(rows, dtype=complex)


def _check_declared_dim(data: dict, dim: int) -> None:
    """A declared "dim" must be the exact int the object was built with."""
    if "dim" in data and (type(data["dim"]) is not int or data["dim"] != dim):
        raise ValueError(f"declared dim {json.dumps(data['dim'], default=repr)} != {dim}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _within_eps(a, b, axis=None):
    """max|a - b| <= EPS_NORM, over ``axis``; for finite input this is
    np.allclose(a, b, atol=EPS_NORM, rtol=0)."""
    return np.abs(a - b).max(axis=axis, initial=0.0) <= EPS_NORM


def _complete(error: np.ndarray) -> bool:
    """||error||_2 <= EPS_NORM for the completeness error sum(P) - I. The
    spectral norm bounds |<x|error|x>| over unit x, which is how far a Born
    sum can miss 1, so a measurement that passes cannot fail Distribution's
    sum check; an entrywise bound can be exceeded d-fold. The Frobenius norm
    bounds the spectral norm from above and costs far less than its SVD, so
    the SVD runs only when the Frobenius norm does not settle the check."""
    return bool(np.linalg.norm(error) <= EPS_NORM or np.linalg.norm(error, 2) <= EPS_NORM)


def _quiet_overflow() -> np.errstate:
    """Scope for building a value from JSON input. The constructors'
    validation products overflow on finite entries near 1e308, even beside an
    inf; the inf or nan they yield fails the check that reads them, which
    reports the one error, so numpy's warnings about it are noise. Entering
    the scope costs a few microseconds, so the constructors, which computed
    values reach on hot paths, do not enter it themselves."""
    return np.errstate(over="ignore", invalid="ignore")


def _square(raw, what: str, not_square: str) -> np.ndarray:
    """raw as a complex matrix that is finite, square and nonempty; names ``what`` if not."""
    m = np.asarray(raw, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} {not_square}")
    if m.size == 0:
        raise ValueError(f"{what} is empty (0x0)")
    return m


def _renormalised(x: np.ndarray, what: str) -> np.ndarray:
    """Each row of x over its norm, taken as np.linalg.norm takes it: dots of
    the strided .real/.imag views (a contiguous copy moves low-order bits).
    A non-finite row's norm is inf or nan, so one norm test covers both checks."""
    re, im = x.real, x.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
    if not np.abs(norms - 1.0).max(initial=0.0) <= NORM_REPAIR:
        if not np.isfinite(x).all():
            raise ValueError(f"{what} has non-finite amplitudes")
        norm = norms[np.abs(norms - 1.0) > NORM_REPAIR][0]
        raise ValueError(f"{what} has norm {float(norm)!r}, expected 1")
    return x / norms


def _product_errors(stack: np.ndarray):
    """P_i P_j - δ_ij P_i over the projectors of ``stack``, one run of
    outcomes i from lo at a time, as blocks (i - lo, :, j, :). A run holds
    at most PRODUCT_ENTRIES entries, or one outcome's products where those
    are more, so working memory stays in proportion to the stack."""
    n, dim = stack.shape[:2]
    right = stack.transpose(1, 0, 2).reshape(dim, n * dim)
    size = max(1, PRODUCT_ENTRIES // (n * dim * dim))
    for lo in range(0, n, size):
        part = stack[lo:lo + size]
        blocks = (part.reshape(-1, dim) @ right).reshape(len(part), dim, n, dim)
        np.einsum("ijik->ijk", blocks[:, :, lo:lo + size])[...] -= part  # the diagonal blocks
        yield blocks


def _check_unique(labels: Sequence[str], what: str) -> tuple[str, ...]:
    out = tuple(str(l) for l in labels)
    if len(set(out)) != len(out):
        raise ValueError(f"{what} labels must be unique, got {out}")
    return out


class PureState:
    """Unit vector over a labeled orthonormal basis."""

    def __init__(self, basis_labels: Sequence[str], amplitudes) -> None:
        labels = _check_unique(basis_labels, "basis")
        amps = _renormalised(np.asarray(amplitudes, dtype=complex).reshape(1, -1), "state vector")[0]
        if amps.size != len(labels):
            raise DimensionMismatch(
                f"{len(labels)} basis labels but {amps.size} amplitudes")
        self.basis_labels = labels
        self.amplitudes = _frozen(amps)

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim}, labels={self.basis_labels})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "basis_labels": list(self.basis_labels),
            "amplitudes": _complex_to_json(self.amplitudes),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PureState":
        labels = data["basis_labels"]
        if type(labels) is not list or not all(type(l) is str for l in labels):
            raise ValueError("basis_labels must be a list of strings, "
                             f"got {json.dumps(labels, default=repr)}")
        with _quiet_overflow():
            state = cls(labels, _complex_list(data["amplitudes"], "amplitudes"))
        _check_declared_dim(data, state.dim)
        return state


class ProjectiveMeasurement:
    """Complete family of mutually orthogonal projectors with outcome labels.

    Degenerate outcomes (projector rank above one) are first-class; nothing
    here assumes one projector per basis vector.
    """

    def __init__(self, outcomes: Sequence[tuple[str, object]]) -> None:
        if not outcomes:
            raise ValueError("a measurement needs at least one outcome")
        labels = _check_unique([label for label, _ in outcomes], "outcome")
        try:
            stack = np.array([raw for _, raw in outcomes], dtype=complex)
        except (TypeError, ValueError, OverflowError):  # ragged or not numbers
            stack = np.empty(0)
        # One test over the stack; the loop, which raises, names the first bad projector.
        if stack.ndim != 3 or not 0 < stack.shape[1] == stack.shape[2] or not np.isfinite(stack).all():
            for (label, raw) in outcomes:
                p = _square(raw, f"projector for {label!r}", "is not square")
                if p.shape != np.shape(outcomes[0][1]):
                    raise DimensionMismatch("projectors have mixed dimensions")
        adjoint = stack.conj().transpose(0, 2, 1)
        if not (_within_eps(stack, adjoint)
                and all(_within_eps(run, 0.0) for run in _product_errors(stack))
                and _complete(stack.sum(0) - np.eye(stack.shape[1]))):
            hermitian = _within_eps(stack, adjoint, (1, 2))
            product_ok = np.concatenate([_within_eps(run, 0.0, (1, 3))
                                         for run in _product_errors(stack)])
            faults = [f"projector for {label!r} is not {'idempotent' if h else 'Hermitian'}"
                      for label, h, ok in zip(labels, hermitian, product_ok.diagonal())
                      if not (h and ok)]
            faults += [f"projectors {labels[i]!r} and {labels[j]!r} overlap"
                       for i, j in zip(*np.nonzero(~product_ok)) if i < j]
            raise ValueError((faults or ["projectors do not sum to the identity"])[0])
        self.stack = _frozen(stack)
        self.outcomes = tuple(zip(labels, self.stack))
        self._index = {label: k for k, label in enumerate(labels)}

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].shape[0]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    def projector(self, label: str) -> np.ndarray:
        return self.outcomes[self.index(label)][1]

    def index(self, label: str) -> int:
        if label not in self._index:
            raise KeyError(f"no outcome {label!r} in {self.labels}")
        return self._index[label]

    def __repr__(self) -> str:
        return f"ProjectiveMeasurement(dim={self.dim}, labels={self.labels})"

    @classmethod
    def from_eigenvectors(cls, labels: Sequence[str], columns) -> "ProjectiveMeasurement":
        """Nondegenerate PVM from the orthonormal columns of a matrix."""
        u = np.asarray(columns, dtype=complex)
        if u.shape[0] != u.shape[1] or u.shape[1] != len(labels):
            raise DimensionMismatch("need one orthonormal column per label")
        outs = [(label, np.outer(u[:, k], u[:, k].conj()))
                for k, label in enumerate(labels)]
        return cls(outs)

    @classmethod
    def binary_from_state(cls, state: PureState, label: str,
                          complement_label: str) -> "ProjectiveMeasurement":
        """Two-outcome PVM {|s><s|, 1 - |s><s|} testing for a given state."""
        p = np.outer(state.amplitudes, state.amplitudes.conj())
        return cls([(label, p), (complement_label, np.eye(state.dim) - p)])

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "outcomes": [{"label": label, "projector": _complex_to_json(p)}
                         for label, p in self.outcomes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProjectiveMeasurement":
        for k, o in enumerate(data["outcomes"]):
            if type(o) is not dict or "label" not in o or "projector" not in o:
                raise ValueError(f'outcomes[{k}] needs a "label" and a "projector"')
            if type(o["label"]) is not str:
                raise ValueError(f"outcomes[{k}] label must be a string, "
                                 f"got {json.dumps(o['label'], default=repr)}")
        with _quiet_overflow():
            pvm = cls([(o["label"], _matrix_from_json(o["projector"],
                                                      f"outcome {o['label']!r} projector"))
                       for o in data["outcomes"]])
        _check_declared_dim(data, pvm.dim)
        return pvm


class UnitaryOp:
    """Unitary evolution operator on a single system."""

    def __init__(self, matrix) -> None:
        m = _square(matrix, "unitary matrix", "must be square")
        if not _within_eps(m.conj().T @ m, np.eye(m.shape[0])):
            raise ValueError("matrix is not unitary")
        self.matrix = _frozen(m.copy())

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "UnitaryOp":
        return cls(np.eye(dim))

    def __repr__(self) -> str:
        return f"UnitaryOp(dim={self.dim})"

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "matrix": _complex_to_json(self.matrix)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "UnitaryOp":
        with _quiet_overflow():
            u = cls(_matrix_from_json(data["matrix"], "unitary matrix"))
        _check_declared_dim(data, u.dim)
        return u


class BipartiteState:
    """Pure state of a two-part system, amplitudes in row-major (left, right) order."""

    def __init__(self, left_labels: Sequence[str], right_labels: Sequence[str],
                 amplitudes) -> None:
        self.left_labels = _check_unique(left_labels, "left basis")
        self.right_labels = _check_unique(right_labels, "right basis")
        amps = _renormalised(np.asarray(amplitudes, dtype=complex).reshape(1, -1),
                             "bipartite state vector")[0]
        if amps.size != len(self.left_labels) * len(self.right_labels):
            raise DimensionMismatch(
                f"expected {len(self.left_labels) * len(self.right_labels)} "
                f"amplitudes, got {amps.size}")
        self.amplitudes = _frozen(amps)

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.left_labels), len(self.right_labels))

    def to_pure_state(self) -> PureState:
        """Flatten to a single-system state over product basis labels "l*r"."""
        labels = [f"{l}*{r}" for l in self.left_labels for r in self.right_labels]
        return PureState(labels, self.amplitudes)

    def __repr__(self) -> str:
        return f"BipartiteState(dims={self.dims})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    def __init__(self, matrix) -> None:
        m = _square(matrix, "density matrix", "must be square")
        if not _within_eps(m, m.conj().T):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.real(np.trace(m)) - 1.0) > EPS_NORM:
            raise ValueError(f"trace {np.real(np.trace(m))!r} is not 1")
        if np.linalg.eigvalsh(m).min() < -EPS_NORM:
            raise ValueError("density matrix has a negative eigenvalue")
        self.matrix = _frozen(m.copy())

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "matrix": _complex_to_json(self.matrix)}


class Distribution:
    """Ordered probabilities over outcome labels.

    Ordering follows the source PVM and is significant for serialization.
    The empty distribution is allowed; it represents frequencies over a
    protocol stage that produces no outcomes.
    """

    __slots__ = ("labels", "_probabilities")

    def __init__(self, entries: Sequence[tuple[str, float]]) -> None:
        self.labels = _check_unique([label for label, _ in entries], "distribution")
        probs = np.asarray([p for _, p in entries], dtype=float)
        self._probabilities = tuple(_checked_rows(probs[None])[0].tolist() if probs.size else ())

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.labels, self._probabilities))

    @property
    def probabilities(self) -> np.ndarray:
        return np.array(self._probabilities)

    def probability(self, label: str) -> float:
        if label in self.labels:
            return self._probabilities[self.labels.index(label)]
        raise KeyError(f"no outcome {label!r} in {self.labels}")

    def __iter__(self):
        return zip(self.labels, self._probabilities)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}: {p:.6f}" for l, p in self)
        return f"Distribution({{{inner}}})"

    def to_json_dict(self) -> dict:
        return {"entries": [{"label": l, "probability": p} for l, p in self]}


def _checked_rows(probs: np.ndarray) -> np.ndarray:
    """Each nonempty row of probs checked as a Distribution checks it, then clipped."""
    total = probs.sum(axis=1)  # one test for the whole array; a nan fails each comparison
    if not (probs.min(initial=0.0) >= -EPS_NORM and probs.max(initial=1.0) <= 1.0 + EPS_NORM
            and np.abs(total - 1.0).max(initial=0.0) <= EPS_NORM):
        finite = np.isfinite(probs).all(axis=1)
        outside = (probs.min(axis=1) < -EPS_NORM) | (probs.max(axis=1) > 1.0 + EPS_NORM)
        k = np.flatnonzero(~finite | outside | (np.abs(total - 1.0) > EPS_NORM))[0]
        raise ValueError(f"non-finite probabilities: {probs[k]}" if not finite[k] else
                         f"probabilities outside [0, 1]: {probs[k]}" if outside[k] else
                         f"probabilities sum to {float(total[k])!r}, not 1")
    return probs.clip(0.0, 1.0)


def total_variation(p: Distribution, q: Distribution) -> float:
    """Half the L1 distance between two distributions over the same labels."""
    if set(p.labels) != set(q.labels):
        raise ValueError(f"label mismatch: {p.labels} vs {q.labels}")
    return 0.5 * sum(abs(prob - q.probability(label)) for label, prob in p)


# Intermediate-stage vocabulary shared by the protocol and analysis layers.

@dataclass(frozen=True)
class MeasureStage:
    """A projective measurement happens at the intermediate time; all of its
    outcome branches continue to the final measurement."""
    pvm: ProjectiveMeasurement


@dataclass(frozen=True)
class UnitaryStage:
    """A unitary is applied at the intermediate time; nothing is recorded."""
    unitary: UnitaryOp


@dataclass(frozen=True)
class FilterStage:
    """An absorbing element: measure, let one outcome branch continue, and
    absorb every other branch.

    Absorbed trials never reach the final measurement apparatus; they are
    recorded under the final outcome named by ``absorb_label`` (a polarizer
    works this way: a photon stopped in mid-flight counts as blocked at the
    final screen).
    """
    pvm: ProjectiveMeasurement
    pass_label: str
    absorb_label: str

    def __post_init__(self) -> None:
        self.pvm.index(self.pass_label)  # raises KeyError if absent


Stage = MeasureStage | UnitaryStage | FilterStage | None


def stage_to_json(stage: Stage) -> dict | None:
    if stage is None:
        return None
    if isinstance(stage, MeasureStage):
        return {"kind": "measure", "pvm": stage.pvm.to_json_dict()}
    if isinstance(stage, UnitaryStage):
        return {"kind": "unitary", "unitary": stage.unitary.to_json_dict()}
    if isinstance(stage, FilterStage):
        return {"kind": "filter", "pvm": stage.pvm.to_json_dict(),
                "pass_label": stage.pass_label,
                "absorb_label": stage.absorb_label}
    raise TypeError(f"not a stage: {stage!r}")


def stage_from_json(data: dict | None) -> Stage:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ValueError("intermediate stage must be a JSON object or null, "
                         f"got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "measure":
        return MeasureStage(ProjectiveMeasurement.from_json_dict(data["pvm"]))
    if kind == "unitary":
        return UnitaryStage(UnitaryOp.from_json_dict(data["unitary"]))
    if kind == "filter":
        return FilterStage(ProjectiveMeasurement.from_json_dict(data["pvm"]),
                           data["pass_label"], data["absorb_label"])
    raise ValueError(f"unknown stage kind {kind!r}")


class Protocol:
    """The full timeline of one experiment: prepare, optional stage, measure.

    ``selection`` names the final outcome used when conditioning the
    ensemble afterwards; it does not affect sampling.
    """

    def __init__(self, preparation: PureState, post_pvm: ProjectiveMeasurement,
                 intermediate: Stage = None,
                 pre_to_t: UnitaryOp | None = None,
                 t_to_post: UnitaryOp | None = None,
                 selection: str | None = None) -> None:
        dim = preparation.dim
        if post_pvm.dim != dim:
            raise ValueError(f"final measurement dim {post_pvm.dim} != {dim}")
        if isinstance(intermediate, (MeasureStage, FilterStage)):
            if intermediate.pvm.dim != dim:
                raise ValueError(f"intermediate dim {intermediate.pvm.dim} != {dim}")
        elif not isinstance(intermediate, (UnitaryStage, type(None))):
            raise TypeError(f"not an intermediate stage: {intermediate!r}")
        if isinstance(intermediate, FilterStage):
            post_pvm.index(intermediate.absorb_label)  # KeyError if absent
        stage_u = intermediate.unitary if isinstance(intermediate, UnitaryStage) else None
        for u in (pre_to_t, stage_u, t_to_post):
            if u is not None and u.dim != dim:
                raise ValueError(f"unitary dim {u.dim} != {dim}")
        if selection is not None:
            post_pvm.index(selection)  # KeyError if absent
        self.preparation = preparation
        self.post_pvm = post_pvm
        self.intermediate = intermediate
        self.pre_to_t = pre_to_t if pre_to_t is not None else UnitaryOp.identity(dim)
        self.t_to_post = t_to_post if t_to_post is not None else UnitaryOp.identity(dim)
        self.selection = selection

    @property
    def dim(self) -> int:
        return self.preparation.dim

    @property
    def intermediate_labels(self) -> tuple[str, ...]:
        """Outcome labels the intermediate stage can record; empty when none."""
        if isinstance(self.intermediate, (MeasureStage, FilterStage)):
            return self.intermediate.pvm.labels
        return ()

    def __repr__(self) -> str:
        return (f"Protocol(dim={self.dim}, intermediate={self.intermediate!r}, "
                f"selection={self.selection!r})")

    def to_json_dict(self) -> dict:
        def unitary_or_null(u: UnitaryOp) -> dict | None:
            # Identity evolution is the default; keep the echo compact.
            if np.array_equal(u.matrix, np.eye(u.dim)):
                return None
            return u.to_json_dict()

        return {
            "preparation": self.preparation.to_json_dict(),
            "intermediate": stage_to_json(self.intermediate),
            "pre_to_t": unitary_or_null(self.pre_to_t),
            "t_to_post": unitary_or_null(self.t_to_post),
            "post_pvm": self.post_pvm.to_json_dict(),
            "selection": self.selection,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Protocol":
        def unitary_or_none(key: str) -> UnitaryOp | None:
            raw = data.get(key)
            return None if raw is None else UnitaryOp.from_json_dict(raw)

        if not isinstance(data, dict):
            raise ValueError(f"protocol must be a JSON object, got {type(data).__name__}")
        selection = data.get("selection")
        if selection is not None and type(selection) is not str:
            raise ValueError("selection must be a string or null, "
                             f"got {json.dumps(selection, default=repr)}")
        return cls(
            PureState.from_json_dict(data["preparation"]),
            ProjectiveMeasurement.from_json_dict(data["post_pvm"]),
            intermediate=stage_from_json(data.get("intermediate")),
            pre_to_t=unitary_or_none("pre_to_t"),
            t_to_post=unitary_or_none("t_to_post"),
            selection=selection,
        )


# Operations.

def _require_same_dim(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionMismatch(f"{what}: {a} != {b}")


def _born_rows(x: np.ndarray, pvm: ProjectiveMeasurement) -> np.ndarray:
    """<x|P|x> per state row x and projector P, floored as max(0.0, v) is."""
    _require_same_dim(x.shape[1], pvm.dim, "state vs measurement")
    v = (x.conj()[:, None, None, :] @ pvm.stack @ x[:, None, :, None])[..., 0, 0].real
    return np.where(v > 0.0, v, 0.0)


def _projected(a: np.ndarray, pvm: ProjectiveMeasurement, which) -> np.ndarray:
    """Rows P_j a / sqrt(<P_j a|P_j a>) for the outcome indices j in ``which``."""
    x = pvm.stack[which] @ a
    weights = (x.conj()[:, None, :] @ x[:, :, None])[:, 0, 0].real
    for j in np.flatnonzero(weights <= EPS_PROB)[:1]:
        raise ZeroProbabilityOutcome(
            f"outcome {pvm.labels[which[j]]!r} has probability {float(weights[j])!r}")
    return x / np.sqrt(weights)[:, None]


def born_distribution(state: PureState, pvm: ProjectiveMeasurement) -> Distribution:
    """Outcome probabilities <psi|P|psi>, stacked over ``pvm.stack``; bit-identical
    to v.conj() @ p @ v per projector where BLAS runs the same gemv/dot kernels."""
    return Distribution(list(zip(pvm.labels, _born_rows(state.amplitudes[None], pvm)[0])))


def collapse(state: PureState, pvm: ProjectiveMeasurement,
             outcome_label: str) -> PureState:
    """Project onto an outcome branch and renormalize.

    Raises ZeroProbabilityOutcome when the branch carries no weight; there
    is no state to collapse onto in that case.
    """
    which = [pvm.index(outcome_label)]
    _require_same_dim(state.dim, pvm.dim, "state vs measurement")
    return PureState(state.basis_labels, _projected(state.amplitudes, pvm, which)[0])


def evolve(state: PureState, u: UnitaryOp) -> PureState:
    _require_same_dim(state.dim, u.dim, "state vs unitary")
    return PureState(state.basis_labels, u.matrix @ state.amplitudes)


def _evolved(x: np.ndarray, u: UnitaryOp) -> np.ndarray:
    """evolve's amplitudes for each row of x: no PureState is built."""
    _require_same_dim(x.shape[1], u.dim, "state vs unitary")
    return _renormalised((u.matrix @ x[:, :, None])[:, :, 0], "state vector")


def _branches(a: np.ndarray, pvm, u, post) -> tuple[np.ndarray, np.ndarray]:
    """(p, rows) of stage_branches for the state a measured by ``pvm``."""
    p = _checked_rows(_born_rows(a[None], pvm))[0]
    live = (p > EPS_PROB).nonzero()[0]
    x = _evolved(_renormalised(_projected(a, pvm, live), "state vector"), u)
    rows = np.zeros((len(p), len(post.stack)))
    rows[live] = _checked_rows(_born_rows(x, post))
    return p, rows


def stage_branches(protocol: Protocol, stage: Stage
                   ) -> tuple[tuple[str | None, ...], np.ndarray, np.ndarray]:
    """The joint table of ``stage`` run in ``protocol``'s timeline, in place
    of the protocol's own intermediate stage.

    Returns (labels, p, rows): the branch labels, each branch j's Born weight
    p[j], and rows[j], the Born distribution of protocol.post_pvm once the
    state has collapsed onto branch j and evolved to the final time. The
    path weight through outcome j to final outcome k is p[j] * rows[j, k]
    (Aharonov, Bergmann & Lebowitz). No stage or a UnitaryStage is the one
    branch None of weight 1.0; a MeasureStage or FilterStage has a branch
    per outcome of its PVM. A branch with p[j] <= EPS_PROB is not collapsed
    and gets a zero row; a filter's absorbed branches end at absorb_label.

    Stacked matmuls over all live branches, bit-identical to chaining
    born_distribution, collapse, evolve and born_distribution per branch
    where BLAS runs the same kernels for both forms and the norms use the
    strided views (see _renormalised). Each check is one test of a stacked
    array; only a failing test walks its rows, to raise what the chain would.
    """
    at_t = _evolved(protocol.preparation.amplitudes[None], protocol.pre_to_t)
    post = protocol.post_pvm
    if stage is None or isinstance(stage, UnitaryStage):
        if stage is not None:
            at_t = _evolved(at_t, stage.unitary)
        final = _evolved(at_t, protocol.t_to_post)
        return (None,), np.array([1.0]), _checked_rows(_born_rows(final, post))
    p, rows = _branches(at_t[0], stage.pvm, protocol.t_to_post, post)
    if isinstance(stage, FilterStage):
        absorbed = np.arange(len(p)) != stage.pvm.index(stage.pass_label)
        rows[absorbed] = np.eye(len(post.labels))[post.index(stage.absorb_label)]
    return stage.pvm.labels, p, rows


def reduced_density(bi: BipartiteState, side: Side) -> DensityMatrix:
    """Partial trace over the other side."""
    dl, dr = bi.dims
    table = bi.amplitudes.reshape(dl, dr)
    if side == "left":
        rho = table @ table.conj().T
    else:
        rho = table.T @ table.conj()
    return DensityMatrix(rho)


def axis_pvm(angle: float) -> ProjectiveMeasurement:
    """Two-dimensional PVM along a rotated axis, labeled pass/block.

    The pass projector points along (cos a, sin a), block along the
    orthogonal direction.
    """
    c, s = np.cos(angle), np.sin(angle)
    return ProjectiveMeasurement.from_eigenvectors(
        ("pass", "block"), np.array([[c, -s], [s, c]]))


def embed_pvm(pvm: ProjectiveMeasurement, side: Side,
              other_dim: int) -> ProjectiveMeasurement:
    """Lift a single-system PVM to one side of a product space.

    Left embedding maps P to P (x) 1, right embedding to 1 (x) P; outcome
    labels are preserved.
    """
    eye = np.eye(other_dim)
    if side == "left":
        outs = [(label, np.kron(p, eye)) for label, p in pvm.outcomes]
    else:
        outs = [(label, np.kron(eye, p)) for label, p in pvm.outcomes]
    return ProjectiveMeasurement(outs)
