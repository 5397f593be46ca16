"""Finite-dimensional complex state algebra for projective measurements.

States, projective measurements (PVMs), unitaries, bipartite composition,
and the Born/projection primitives the rest of the package builds on.

All types validate their invariants at construction time and are immutable
afterwards; every operation is a pure function, so values can be shared
freely between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
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

Side = Literal["left", "right"]


class DimensionMismatch(ValueError):
    """Operands describe systems of different dimension."""


class ZeroProbabilityOutcome(ValueError):
    """Collapse was requested onto an outcome of numerically zero probability."""


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [_complex_pair(z) for z in v]


def _matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_pair(z) for z in row] for row in m]


def _vector_from_json(data: Sequence[Sequence[float]]) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data], dtype=complex)


def _matrix_from_json(data: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data],
                    dtype=complex)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _within_eps(a, b, axis=None):
    """max|a - b| <= EPS_NORM, over ``axis``; for finite input this is
    np.allclose(a, b, atol=EPS_NORM, rtol=0)."""
    return np.abs(a - b).max(axis=axis, initial=0.0) <= EPS_NORM


def _unit_vector(raw, what: str) -> np.ndarray:
    v = np.asarray(raw, dtype=complex).reshape(-1).copy()
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} has non-finite amplitudes")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORM_REPAIR:
        raise ValueError(f"{what} has norm {norm!r}, expected 1")
    return v / norm


def _check_unique(labels: Sequence[str], what: str) -> tuple[str, ...]:
    out = tuple(str(l) for l in labels)
    if len(set(out)) != len(out):
        raise ValueError(f"{what} labels must be unique, got {out}")
    return out


class PureState:
    """Unit vector over a labeled orthonormal basis."""

    def __init__(self, basis_labels: Sequence[str], amplitudes) -> None:
        labels = _check_unique(basis_labels, "basis")
        amps = _unit_vector(amplitudes, "state vector")
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
            "amplitudes": _vector_to_json(self.amplitudes),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PureState":
        state = cls(data["basis_labels"], _vector_from_json(data["amplitudes"]))
        if "dim" in data and int(data["dim"]) != state.dim:
            raise ValueError(f"declared dim {data['dim']} != {state.dim}")
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
        if faults or not _within_eps(stack.sum(0), np.eye(dim)):
            raise ValueError((faults or ["projectors do not sum to the identity"])[0])
        self.outcomes = tuple(zip(labels, _frozen(stack)))
        self._index = {label: k for k, (label, _) in enumerate(self.outcomes)}

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].shape[0]

    @property
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
            "outcomes": [{"label": label, "projector": _matrix_to_json(p)}
                         for label, p in self.outcomes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProjectiveMeasurement":
        pvm = cls([(o["label"], _matrix_from_json(o["projector"]))
                   for o in data["outcomes"]])
        if "dim" in data and int(data["dim"]) != pvm.dim:
            raise ValueError(f"declared dim {data['dim']} != {pvm.dim}")
        return pvm


class UnitaryOp:
    """Unitary evolution operator on a single system."""

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if not np.isfinite(m).all():
            raise ValueError("unitary matrix has non-finite entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("unitary matrix must be square")
        if m.size == 0:
            raise ValueError("unitary matrix is empty (0x0)")
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
        return {"dim": self.dim, "matrix": _matrix_to_json(self.matrix)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "UnitaryOp":
        u = cls(_matrix_from_json(data["matrix"]))
        if "dim" in data and int(data["dim"]) != u.dim:
            raise ValueError(f"declared dim {data['dim']} != {u.dim}")
        return u


class BipartiteState:
    """Pure state of a two-part system, amplitudes in row-major (left, right) order."""

    def __init__(self, left_labels: Sequence[str], right_labels: Sequence[str],
                 amplitudes) -> None:
        self.left_labels = _check_unique(left_labels, "left basis")
        self.right_labels = _check_unique(right_labels, "right basis")
        amps = _unit_vector(amplitudes, "bipartite state vector")
        if amps.size != len(self.left_labels) * len(self.right_labels):
            raise DimensionMismatch(
                f"expected {len(self.left_labels) * len(self.right_labels)} "
                f"amplitudes, got {amps.size}")
        self.amplitudes = _frozen(amps)

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.left_labels), len(self.right_labels))

    def to_pure_state(self, separator: str = "*") -> PureState:
        """Flatten to a single-system state over product basis labels."""
        labels = [f"{l}{separator}{r}"
                  for l in self.left_labels for r in self.right_labels]
        return PureState(labels, self.amplitudes)

    def __repr__(self) -> str:
        return f"BipartiteState(dims={self.dims})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    def __init__(self, matrix) -> None:
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
        self.matrix = _frozen(m.copy())

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "matrix": _matrix_to_json(self.matrix)}


class Distribution:
    """Ordered probabilities over outcome labels.

    Ordering follows the source PVM and is significant for serialization.
    The empty distribution is allowed; it represents frequencies over a
    protocol stage that produces no outcomes.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[tuple[str, float]]) -> None:
        labels = _check_unique([label for label, _ in entries], "distribution")
        probs = np.asarray([p for _, p in entries], dtype=float)
        if not np.all(np.isfinite(probs)):
            raise ValueError(f"non-finite probabilities: {probs}")
        if probs.size:
            if probs.min() < -EPS_NORM or probs.max() > 1.0 + EPS_NORM:
                raise ValueError(f"probabilities outside [0, 1]: {probs}")
            if abs(probs.sum() - 1.0) > EPS_NORM:
                raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
            probs = np.clip(probs, 0.0, 1.0)
        self.entries = tuple(zip(labels, (float(p) for p in probs)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.entries])

    def probability(self, label: str) -> float:
        for l, p in self.entries:
            if l == label:
                return p
        raise KeyError(f"no outcome {label!r} in {self.labels}")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}: {p:.6f}" for l, p in self.entries)
        return f"Distribution({{{inner}}})"

    def to_json_dict(self) -> dict:
        return {"entries": [{"label": l, "probability": p}
                            for l, p in self.entries]}


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


# Operations.

def _require_same_dim(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionMismatch(f"{what}: {a} != {b}")


def born_distribution(state: PureState, pvm: ProjectiveMeasurement) -> Distribution:
    """Outcome probabilities <psi|P|psi> for a projective measurement."""
    _require_same_dim(state.dim, pvm.dim, "state vs measurement")
    v = state.amplitudes
    probs = [max(0.0, float(np.real(v.conj() @ p @ v))) for _, p in pvm.outcomes]
    return Distribution(list(zip(pvm.labels, probs)))


def collapse(state: PureState, pvm: ProjectiveMeasurement,
             outcome_label: str) -> PureState:
    """Project onto an outcome branch and renormalize.

    Raises ZeroProbabilityOutcome when the branch carries no weight; there
    is no state to collapse onto in that case.
    """
    _require_same_dim(state.dim, pvm.dim, "state vs measurement")
    p = pvm.projector(outcome_label)
    projected = p @ state.amplitudes
    weight = float(np.real(np.vdot(projected, projected)))
    if weight <= EPS_PROB:
        raise ZeroProbabilityOutcome(
            f"outcome {outcome_label!r} has probability {weight!r}")
    return PureState(state.basis_labels, projected / np.sqrt(weight))


def evolve(state: PureState, u: UnitaryOp) -> PureState:
    _require_same_dim(state.dim, u.dim, "state vs unitary")
    return PureState(state.basis_labels, u.matrix @ state.amplitudes)


def branch_distributions(state: PureState, pvm: ProjectiveMeasurement,
                         u: UnitaryOp, post: ProjectiveMeasurement
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Born weights of ``pvm``'s outcomes and what follows each of them.

    Returns (p, rows): p[j] is the Born weight of outcome j in ``state``, and
    rows[j] the Born distribution of ``post`` once the state has collapsed
    onto outcome j and evolved by ``u``. Outcomes with p[j] <= EPS_PROB are
    not collapsed and get a zero row. The path weight through outcome j to
    final outcome k is p[j] * rows[j, k] (Aharonov, Bergmann & Lebowitz).
    """
    p = born_distribution(state, pvm).probabilities
    rows = np.zeros((len(p), len(post.labels)))
    for j, label in enumerate(pvm.labels):
        if p[j] > EPS_PROB:
            branch = evolve(collapse(state, pvm, label), u)
            rows[j] = born_distribution(branch, post).probabilities
    return p, rows


def tensor(left: PureState, right: PureState) -> BipartiteState:
    """Product state, row-major in (left, right) subsystem order."""
    return BipartiteState(left.basis_labels, right.basis_labels,
                          np.kron(left.amplitudes, right.amplitudes))


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
