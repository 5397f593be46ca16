"""Simulation and analysis of pre- and post-selected quantum ensembles.

The package computes conditional probabilities for systems selected at both
ends of a time interval, cross-checks them against seeded Monte Carlo
ensembles, and mechanically judges counterfactual claims about measurements
that were never performed.
"""
from __future__ import annotations

from .abl import (
    ImpossiblePostSelection,
    SelectionContext,
    abl_distribution,
    post_outcome_distribution,
)
from .core import (
    EPS_COTEN,
    EPS_NORM,
    EPS_PROB,
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
    axis_pvm,
    born_distribution,
    collapse,
    embed_pvm,
    evolve,
    reduced_density,
    total_variation,
)
from .counterfactual import (
    Classification,
    CotenabilityReport,
    CounterfactualStatement,
    Flavor,
    Verdict,
    cotenability_report,
    evaluate,
)
from .ensemble import (
    AgreementReport,
    EmpiricalDistribution,
    EmptySelection,
    EnsembleStats,
    agreement_check,
    conditional_frequencies,
    run_ensemble,
    trial_outcome_labels,
)
from .scenarios import (
    ScenarioInfo,
    ScenarioReport,
    UnknownScenario,
    available_scenarios,
    run_scenario,
)
from .verify import SuiteResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "EPS_COTEN",
    "EPS_NORM",
    "EPS_PROB",
    "AgreementReport",
    "BipartiteState",
    "Classification",
    "CotenabilityReport",
    "CounterfactualStatement",
    "DensityMatrix",
    "DimensionMismatch",
    "Distribution",
    "EmpiricalDistribution",
    "EmptySelection",
    "EnsembleStats",
    "FilterStage",
    "Flavor",
    "ImpossiblePostSelection",
    "MeasureStage",
    "ProjectiveMeasurement",
    "Protocol",
    "PureState",
    "ScenarioInfo",
    "ScenarioReport",
    "SelectionContext",
    "SuiteResult",
    "UnitaryOp",
    "UnitaryStage",
    "UnknownScenario",
    "Verdict",
    "VerificationReport",
    "ZeroProbabilityOutcome",
    "abl_distribution",
    "agreement_check",
    "available_scenarios",
    "axis_pvm",
    "born_distribution",
    "collapse",
    "conditional_frequencies",
    "cotenability_report",
    "embed_pvm",
    "evaluate",
    "evolve",
    "post_outcome_distribution",
    "reduced_density",
    "run_ensemble",
    "run_scenario",
    "run_verification",
    "total_variation",
    "trial_outcome_labels",
]
