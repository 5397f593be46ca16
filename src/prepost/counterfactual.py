"""Executable semantics for claims about measurements that never happened.

A statement packages an actual experimental run (preparation, optionally an
actually-performed intermediate measurement, and a post-selected final
outcome) together with a hypothetical query measurement at the intermediate
time. Two inequivalent readings of "had the query been measured, the
conditional probabilities would have held" are implemented, both read off
the query's joint (query outcome, final outcome) table, core.stage_branches:

- single antecedent: the hypothetical world keeps only the preparation and
  inserts the query. The final outcome is not re-imposed, so the world is
  the table's p, the query's Born weights from the evolved preparation.

- compound antecedent: the hypothetical world inserts the query and is
  additionally required to end in the same final outcome. Conditioning the
  table on that outcome is the claim itself (the ABL rule, by one routine),
  so this reading is true by construction: max_deviation is exactly 0.0.

The cotenability report quantifies whether inserting the query disturbs
the distribution over final outcomes at all. A compound reading whose
insertion leaves that background untouched is true in a substantive sense;
one that silently changes the background is true only by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import abl
from .core import (EPS_COTEN, EPS_NORM, Distribution, FilterStage, MeasureStage,
                   ProjectiveMeasurement, Protocol, Stage, _checked_rows, stage_branches,
                   total_variation)


class Flavor(str, Enum):
    SINGLE = "single"
    COMPOUND = "compound"


class Classification(str, Enum):
    FALSE = "FALSE"
    TRIVIALLY_TRUE = "TRIVIALLY_TRUE"
    NONTRIVIALLY_TRUE = "NONTRIVIALLY_TRUE"
    TRUE_BY_COINCIDENCE = "TRUE_BY_COINCIDENCE"


class CounterfactualStatement:
    """An actual run plus a hypothetical query and a reading of it.

    The actual run's intermediate stage must be nothing or a projective
    measurement of some other observable; the hypothetical world always
    substitutes the query for whatever was actually there.
    """

    def __init__(self, base_protocol: Protocol, query: ProjectiveMeasurement,
                 flavor: Flavor) -> None:
        if base_protocol.selection is None:
            raise ValueError("the actual run must fix a post-selected outcome")
        if base_protocol.intermediate is not None and not isinstance(
                base_protocol.intermediate, MeasureStage):
            raise ValueError(
                "the actual intermediate stage must be nothing or a measurement")
        if query.dim != base_protocol.dim:
            raise ValueError(
                f"query dim {query.dim} != protocol dim {base_protocol.dim}")
        self.base_protocol = base_protocol
        self.query = query
        self.flavor = Flavor(flavor)

    def __repr__(self) -> str:
        return (f"CounterfactualStatement(flavor={self.flavor.value!r}, "
                f"query={self.query.labels})")

    def to_json_dict(self) -> dict:
        return {
            "base_protocol": self.base_protocol.to_json_dict(),
            "query": self.query.to_json_dict(),
            "flavor": self.flavor.value,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CounterfactualStatement":
        return cls(Protocol.from_json_dict(data["base_protocol"]),
                   ProjectiveMeasurement.from_json_dict(data["query"]),
                   Flavor(data["flavor"]))


@dataclass(frozen=True, slots=True)
class CotenabilityReport:
    """Does inserting the query change what happens at the final measurement?"""
    undisturbed: Distribution
    disturbed: Distribution
    tvd: float
    delta_selected: float
    cotenable: bool

    def to_json_dict(self) -> dict:
        return {
            "undisturbed": self.undisturbed.to_json_dict(),
            "disturbed": self.disturbed.to_json_dict(),
            "tvd": self.tvd,
            "delta_selected": self.delta_selected,
            "cotenable": self.cotenable,
        }


@dataclass(frozen=True, slots=True)
class Verdict:
    flavor: Flavor
    claimed: Distribution
    counterfactual_world: Distribution
    max_deviation: float
    cotenable: bool
    classification: Classification

    def to_json_dict(self) -> dict:
        return {
            "flavor": self.flavor.value,
            "claimed": self.claimed.to_json_dict(),
            "counterfactual_world": self.counterfactual_world.to_json_dict(),
            "max_deviation": self.max_deviation,
            "cotenable": self.cotenable,
            "classification": self.classification.value,
        }


def cotenability_report(base_protocol: Protocol,
                        query: ProjectiveMeasurement | Stage) -> CotenabilityReport:
    """Compare final-outcome distributions with and without the query inserted.

    The undisturbed side keeps whatever the actual run did at the
    intermediate time; the disturbed side substitutes the query. The query
    may be a bare PVM (non-absorbing measurement) or a FilterStage for
    absorbing elements such as polarizers.
    """
    p = base_protocol
    if p.selection is None:
        raise ValueError("the protocol must fix a selected outcome")
    inserted = MeasureStage(query) if isinstance(query, ProjectiveMeasurement) else query
    if not isinstance(inserted, (MeasureStage, FilterStage)):
        raise TypeError(f"cannot insert {query!r} as an intervening stage")
    undisturbed = abl.final_distribution(p)
    disturbed = abl._mixture(p, inserted, stage_branches(p, inserted))
    tvd, cotenable = _disturbance(undisturbed.probabilities[None], disturbed.probabilities[None])
    delta = disturbed.probability(p.selection) - undisturbed.probability(p.selection)
    return CotenabilityReport(undisturbed, disturbed, float(tvd[0]), delta, bool(cotenable[0]))


def _disturbance(undisturbed: np.ndarray, disturbed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row pair's total_variation, added in label order, and whether it is cotenable."""
    tvd = 0.5 * np.add.accumulate(np.abs(undisturbed - disturbed), axis=1)[:, -1]
    return tvd, tvd <= EPS_COTEN


def _verdicts(p: np.ndarray, rows: np.ndarray, k: np.ndarray, undisturbed: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The verdict rule over B queries' tables, core._branches' (p, rows), given
    selected final outcomes k (B,) and final distributions without the query
    (B, m): abl._abl's claimed rows (B, n) and denominators (B,), and the
    _disturbance of the query's mixture, made as _mixture's Distribution is."""
    conditional, denominator = abl._abl(p, rows, k[:, None])
    disturbed = _checked_rows(np.add.accumulate(p[:, :, None] * rows, axis=1)[:, -1])
    return (conditional[:, 0], denominator[:, 0], *_disturbance(undisturbed, disturbed))


def evaluate(stmt: CounterfactualStatement) -> Verdict:
    """Judge the statement: compare the claim with its hypothetical world.

    The claimed distribution is the conditional (ABL) distribution of query
    outcomes given both selections. The world is the query's Born weights
    from the evolved preparation (single) or the claim itself (compound).
    Both and the cotenable flag come from the query's table by _verdicts,
    for a batch of one. Classification:

    - single antecedent: FALSE when the world deviates from the claim,
      TRUE_BY_COINCIDENCE when it happens to match (commuting cases).
    - compound antecedent: always true by construction, NONTRIVIALLY_TRUE
      when the insertion is cotenable with the selection, TRIVIALLY_TRUE
      otherwise.
    """
    p = stmt.base_protocol
    labels, weights, rows = stage_branches(p, MeasureStage(stmt.query))
    claimed, denominator, _, cotenable = _verdicts(
        weights[None], rows[None], np.array([p.post_pvm.index(p.selection)]),
        abl.final_distribution(p).probabilities[None])
    abl._reachable(p.selection, denominator[0])
    claimed = Distribution(list(zip(labels, claimed[0])))
    world = (Distribution(list(zip(labels, weights)))
             if stmt.flavor is Flavor.SINGLE else claimed)
    deviation = total_variation(claimed, world)
    if stmt.flavor is Flavor.SINGLE:
        classification = (Classification.TRUE_BY_COINCIDENCE
                          if deviation <= EPS_NORM else Classification.FALSE)
    else:
        classification = (Classification.NONTRIVIALLY_TRUE if cotenable[0]
                          else Classification.TRIVIALLY_TRUE)
    return Verdict(stmt.flavor, claimed, world, deviation, bool(cotenable[0]),
                   classification)
