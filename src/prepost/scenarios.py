"""Worked scenario catalogue.

Each scenario binds a concrete physical setup to protocols, analytic
expectations, one seeded Monte Carlo run, statistical agreement gates, and
(where a counterfactual claim is at stake) verdicts for both readings. The
produced reports are self-contained: every analytic number in a report is
accompanied by the simulation evidence for it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .abl import abl_distribution, final_distribution, sequence_probability
from .core import (
    EPS_NORM,
    BipartiteState,
    DensityMatrix,
    Distribution,
    FilterStage,
    MeasureStage,
    ProjectiveMeasurement,
    Protocol,
    PureState,
    UnitaryOp,
    UnitaryStage,
    axis_pvm,
    born_distribution,
    embed_pvm,
    reduced_density,
    total_variation,
)
from .counterfactual import (
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
    outcome_count_histogram,
    run_ensemble,
)

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)


class UnknownScenario(ValueError):
    """The requested scenario name is not in the catalogue."""


@dataclass
class ScenarioReport:
    """Everything one scenario run produced, ready for serialization."""
    name: str
    params: dict
    trials: int
    seed: int
    analytic: dict = field(default_factory=dict)
    monte_carlo: dict = field(default_factory=dict)
    agreements: dict[str, AgreementReport] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    verdicts: dict[str, Verdict] = field(default_factory=dict)
    cotenability: dict[str, CotenabilityReport] = field(default_factory=dict)
    narrative: tuple[str, ...] = ()

    @property
    def all_gates_passed(self) -> bool:
        return (all(r.passed for r in self.agreements.values())
                and all(self.checks.values()))

    def ensembles(self) -> dict[str, EnsembleStats]:
        return {k: v for k, v in self.monte_carlo.items()
                if isinstance(v, EnsembleStats)}

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "trials": self.trials,
            "seed": self.seed,
            "all_gates_passed": self.all_gates_passed,
            "analytic": {k: _jsonify(v) for k, v in self.analytic.items()},
            "monte_carlo": {k: _jsonify(v) for k, v in self.monte_carlo.items()},
            "agreements": {k: v.to_json_dict() for k, v in self.agreements.items()},
            "checks": dict(self.checks),
            "verdicts": {k: v.to_json_dict() for k, v in self.verdicts.items()},
            "cotenability": {k: v.to_json_dict()
                             for k, v in self.cotenability.items()},
            "narrative": list(self.narrative),
        }

    def to_text(self) -> str:
        lines = [f"scenario: {self.name}"]
        if self.params:
            rendered = ", ".join(f"{k}={v}" for k, v in self.params.items())
            lines.append(f"params: {rendered}")
        lines += [f"trials: {self.trials}  seed: {self.seed}",
                  f"all gates passed: {_fmt(self.all_gates_passed)}"]

        def section(title: str, items: dict, render: Callable) -> None:
            if items:
                lines.extend(["", title])
                for key, value in items.items():
                    render(key, value)

        def plain(key: str, value) -> None:
            lines.append(f"  {key}: {_fmt(value)}")

        section("ANALYTIC", self.analytic, plain)
        section("MONTE CARLO", self.monte_carlo, plain)

        def render_agreement(key: str, rep: AgreementReport) -> None:
            status = "pass" if rep.passed else "FAIL"
            lines.append(f"  {key}: {status} (z={rep.z:g}, n={rep.sample_size})")
            for e in rep.entries:
                mark = "ok" if e.passed else "FAIL"
                lines.append(
                    f"    {e.label}: freq {e.frequency:.6f} vs p {e.probability:.6f}"
                    f" within {e.tolerance:.6f}: {mark}")

        section("AGREEMENT", self.agreements, render_agreement)
        section("CHECKS", self.checks, plain)

        def render_verdict(key: str, v: Verdict) -> None:
            lines.append(
                f"  {key}: {v.classification.value} "
                f"(max_deviation {v.max_deviation:.6f}, "
                f"cotenable {_fmt(v.cotenable)})")
            lines.append(f"    claimed: {_fmt(v.claimed)}")
            lines.append(f"    world:   {_fmt(v.counterfactual_world)}")

        section("VERDICTS", self.verdicts, render_verdict)

        def render_coten(key: str, r: CotenabilityReport) -> None:
            lines.append(
                f"  {key}: tvd {r.tvd:.6f}, delta_selected "
                f"{r.delta_selected:+.6f}, cotenable {_fmt(r.cotenable)}")
            lines.append(f"    undisturbed: {_fmt(r.undisturbed)}")
            lines.append(f"    disturbed:   {_fmt(r.disturbed)}")

        section("COTENABILITY", self.cotenability, render_coten)
        section("NOTES", dict(enumerate(self.narrative)),
                lambda _, note: lines.append(f"  - {note}"))
        return "\n".join(lines) + "\n"


def _jsonify(value):
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, Distribution):
        return ", ".join(f"{l}: {p:.6f}" for l, p in value) or "(empty)"
    if isinstance(value, EmpiricalDistribution):
        return f"{_fmt(value.distribution)} (n={value.sample_size})"
    if isinstance(value, EnsembleStats):
        inner = "; ".join(
            f"{'' if m is None else m}/{f}: {c}"
            for (m, f), c in sorted(value.counts.items(),
                                    key=lambda kv: (str(kv[0][0]), kv[0][1])))
        return f"{value.trials} trials, seed {value.seed} [{inner}]"
    if isinstance(value, DensityMatrix):
        rows = "; ".join(
            " ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row)
            for row in value.matrix)
        return f"[{rows}]"
    return str(value)


# Shared small builders.

def _z_plus() -> PureState:
    return PureState(("z+", "z-"), [1.0, 0.0])


def _sigma_z() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(("z+", "z-"), np.eye(2))


def _sigma_x() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(
        ("x+", "x-"), np.array([[S2, S2], [S2, -S2]]))


def _subseed(seed: int, index: int) -> int:
    # Stable derived stream for a sub-experiment; independent of numpy's
    # global state and reproducible across platforms.
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def _sample(report: ScenarioReport, key: str, protocol: Protocol, workers: int | None,
            stream: int | None = None, gate: str | None = None) -> EnsembleStats:
    """Run ``protocol`` into report.monte_carlo[key], on the report's seed or
    its sub-stream ``stream``; with a ``gate`` name, also gate the final
    marginal against the protocol's analytic final distribution."""
    seed = report.seed if stream is None else _subseed(report.seed, stream)
    stats = run_ensemble(protocol, report.trials, seed, workers=workers)
    report.monte_carlo[key] = stats
    if gate is not None:
        report.agreements[gate] = agreement_check(stats.final_frequencies(),
                                                  final_distribution(protocol))
    return stats


def _scenario_aad_dispersion_free(report: ScenarioReport, workers) -> None:
    pre, post = _z_plus(), _sigma_x()
    base = Protocol(pre, post, selection="x+")

    report.analytic["abl_query_z"] = abl_distribution(base, _sigma_z())
    report.analytic["abl_query_x"] = abl_distribution(base, post)
    single_world = born_distribution(pre, _sigma_x())
    report.analytic["single_world_query_x"] = single_world

    probed = Protocol(pre, post, intermediate=MeasureStage(_sigma_x()),
                      selection="x+")
    stats = _sample(report, "ensemble", probed, workers)
    unfiltered = stats.intermediate_frequencies()
    report.monte_carlo["unfiltered_query_frequencies"] = unfiltered
    report.agreements["unfiltered_vs_single_world"] = agreement_check(
        unfiltered, single_world)
    try:
        conditional = conditional_frequencies(stats, "x+")
    except EmptySelection:
        report.checks["conditional_query_certain"] = False
    else:
        report.monte_carlo["conditional_query_frequencies"] = conditional
        report.agreements["conditional_vs_claimed"] = agreement_check(
            conditional, report.analytic["abl_query_x"])
        report.checks["conditional_query_certain"] = (
            conditional.distribution.probability("x+") == 1.0)

    for key, query in (("query_x", post), ("query_z", _sigma_z())):
        for flavor in Flavor:
            stmt = CounterfactualStatement(base, query, flavor)
            report.verdicts[f"{flavor.value}_{key}"] = evaluate(stmt)
        report.cotenability[key] = cotenability_report(base, query)

    report.narrative = (
        "Prepared z+ and post-selected on x+, both conditional probabilities "
        "are 1: each queried observable is dispersion-free between the "
        "selections.",
        "The single-antecedent reading fails for the x query: actually "
        "measuring it without re-imposing the post-selection gives x+ only "
        "half the time (deviation 0.5).",
        "The compound reading is true by construction; the x query commutes "
        "with the final measurement, so it is cotenable and the truth is "
        "nontrivial here.",
    )


def _scenario_three_box(report: ScenarioReport, workers) -> None:
    box = report.params["query_box"]
    labels = ("A", "B", "C")
    a = PureState(labels, [S3, S3, S3])
    b = PureState(labels, [S3, S3, -S3])
    post = ProjectiveMeasurement.binary_from_state(b, "b", "not_b")
    base = Protocol(a, post, selection="b")

    def box_query(which: str) -> ProjectiveMeasurement:
        proj = np.zeros((3, 3), dtype=complex)
        proj[labels.index(which), labels.index(which)] = 1.0
        return ProjectiveMeasurement(
            [(f"in_{which}", proj), (f"not_{which}", np.eye(3) - proj)])

    report.analytic["abl_box_A"] = abl_distribution(base, box_query("A"))
    report.analytic["abl_box_B"] = abl_distribution(base, box_query("B"))
    report.analytic["post_selection_probability"] = born_distribution(
        a, post).probability("b")

    query = box_query(box)
    proto = Protocol(a, post, intermediate=MeasureStage(query), selection="b")
    stats = _sample(report, "ensemble", proto, workers,
                    gate="final_marginal_vs_analytic")
    try:
        conditional = conditional_frequencies(stats, "b")
    except EmptySelection:
        report.checks["post_selected_trials_exist"] = False
        report.checks["conditional_exact_unity"] = False
    else:
        report.monte_carlo["conditional_box_frequencies"] = conditional
        report.agreements["conditional_vs_claimed"] = agreement_check(
            conditional, report.analytic[f"abl_box_{box}"])
        report.checks["post_selected_trials_exist"] = conditional.sample_size >= 1
        report.checks["conditional_exact_unity"] = (
            conditional.distribution.probability(f"in_{box}") == 1.0)

    for flavor in Flavor:
        report.verdicts[flavor.value] = evaluate(
            CounterfactualStatement(base, query, flavor))
    report.cotenability[f"box_{box}"] = cotenability_report(base, query)

    report.narrative = (
        "Between these selections the particle is found in box A with "
        "probability 1 if box A is opened, and in box B with probability 1 "
        "if box B is opened instead.",
        "Only one box measurement happens in any single run; the two unity "
        "claims describe alternative experiments, never one joint record.",
        "Conditioned on the post-selection, every simulated trial shows the "
        "queried box occupied: the opposite branch has exactly zero weight "
        "to reach the final outcome.",
        "The single-antecedent reading is false (deviation 2/3): without "
        "re-imposing the post-selection the box holds the particle only one "
        "third of the time.",
    )


def _raffle_flip() -> UnitaryOp:
    # ready -> (heads + tails)/sqrt(2); completion on the orthogonal
    # complement is fixed once and for all so runs are reproducible.
    return UnitaryOp(np.array([
        [0.0, 0.0, 1.0],
        [S2, S2, 0.0],
        [S2, -S2, 0.0],
    ]))


def _scenario_quantum_raffle(report: ScenarioReport, workers) -> None:
    n_coins, held = report.params["n_coins"], report.params["raffle_held"]
    trials = report.trials
    ready = PureState(("ready", "heads", "tails"), [1.0, 0.0, 0.0])
    heads_proj = np.zeros((3, 3), dtype=complex)
    heads_proj[1, 1] = 1.0
    heads_pvm = ProjectiveMeasurement(
        [("heads", heads_proj), ("noheads", np.eye(3) - heads_proj)])
    proto = Protocol(ready, heads_pvm, intermediate=UnitaryStage(_raffle_flip()) if held else None)

    coin_distribution = final_distribution(proto)
    p_heads = coin_distribution.probability("heads")
    report.analytic["p_heads_per_coin"] = p_heads
    m_labels = [str(k) for k in range(n_coins + 1)]
    pmf = [math.comb(n_coins, k) * p_heads**k * (1 - p_heads)**(n_coins - k)
           for k in range(n_coins + 1)]
    m_distribution = Distribution(list(zip(m_labels, pmf)))
    report.analytic["m_distribution"] = m_distribution
    report.analytic["p_no_winner"] = m_distribution.probability("0")

    # Each entrant's coin is an independent system with its own stream.
    m_hist, first_coin = outcome_count_histogram(
        proto, "heads", trials,
        [_subseed(report.seed, coin) for coin in range(n_coins)], workers)
    m_frequencies = EmpiricalDistribution(Distribution(
        [(label, int(n) / trials) for label, n in zip(m_labels, m_hist)]), trials)
    report.monte_carlo["m_frequencies"] = m_frequencies
    report.monte_carlo["first_coin_ensemble"] = first_coin

    report.agreements["m_vs_binomial"] = agreement_check(m_frequencies, m_distribution)
    report.agreements["first_coin_vs_analytic"] = agreement_check(
        first_coin.final_frequencies(), coin_distribution)
    if not held:
        report.checks["no_winner_in_every_trial"] = int(m_hist[0]) == trials
    report.monte_carlo["winner_frequency"] = int(trials - m_hist[0]) / trials

    report.narrative = (
        "Each entrant holds a three-level coin prepared ready; holding the "
        "raffle applies a flip that sends ready to an equal superposition "
        "of heads and tails.",
        "An unheld raffle leaves every coin orthogonal to heads, so the "
        "recorded number of winners M is exactly zero in every trial."
        if not held else
        "With the flip applied, each coin shows heads with probability 1/2 "
        "independently, so M is binomial and nobody wins with probability "
        f"2^-{n_coins} = {2.0**-n_coins:.6f}.",
        "A winner exists exactly when M > 0; how a winner would be chosen "
        "is outside the model.",
    )


def _scenario_crossed_polarizers(report: ScenarioReport, workers) -> None:
    theta = report.params["theta"]
    photon = PureState(("x", "y"), [1.0, 0.0])
    final = axis_pvm(math.pi / 2)
    middle = axis_pvm(theta)
    base = Protocol(photon, final, selection="pass")

    report.analytic["direct_pass_probability"] = sequence_probability(base, None)
    report.analytic["inserted_pass_probability"] = sequence_probability(
        base, (middle, "pass"))
    report.analytic["abl_query"] = abl_distribution(base, middle)
    report.analytic["single_world_query"] = born_distribution(photon, middle)

    direct_stats = _sample(report, "direct_ensemble", base, workers)
    report.checks["no_pass_without_intermediate"] = (
        direct_stats.counts[(None, "pass")] == 0)

    filter_stage = FilterStage(middle, "pass", "block")
    inserted = Protocol(photon, final, intermediate=filter_stage,
                        selection="pass")
    _sample(report, "inserted_ensemble", inserted, workers, stream=1,
            gate="inserted_final_vs_analytic")

    report.cotenability["inserted_polarizer"] = cotenability_report(
        base, filter_stage)
    report.cotenability["query_measurement"] = cotenability_report(base, middle)
    for flavor in Flavor:
        report.verdicts[flavor.value] = evaluate(
            CounterfactualStatement(base, middle, flavor))

    report.narrative = (
        "A photon polarized along x never passes a second polarizer crossed "
        "at 90 degrees: the direct transition probability is exactly zero.",
        "Inserting an oblique polarizer in between opens a path; a fraction "
        "cos^2(theta) sin^2(theta) of photons now emerges from the pair "
        f"({math.cos(theta)**2 * math.sin(theta)**2:.6f} at this angle).",
        "The inserted element absorbs what it blocks, so it changes the "
        "final-outcome distribution itself: the original background "
        "condition (no photon passes) is not cotenable with the insertion.",
        "Between the selections the conditional distribution of the oblique "
        "query is even; at theta = pi/4 an unfiltered measurement happens "
        "to reproduce it, so the single reading holds only by coincidence.",
    )


def _scenario_epr_no_signaling(report: ScenarioReport, workers) -> None:
    pair = BipartiteState(("z+", "z-"), ("z+", "z-"), [0.0, S2, -S2, 0.0])
    rho_left = reduced_density(pair, "left")
    rho_right = reduced_density(pair, "right")
    report.analytic["reduced_density_left"] = rho_left
    report.analytic["reduced_density_right"] = rho_right
    report.checks["reduced_density_is_maximally_mixed"] = bool(
        np.abs(rho_left.matrix - np.eye(2) / 2).max() <= EPS_NORM
        and np.abs(rho_right.matrix - np.eye(2) / 2).max() <= EPS_NORM)

    joint = pair.to_pure_state()
    bob = embed_pvm(_sigma_z(), "right", 2)
    settings = {name: Protocol(joint, bob, intermediate=stage) for name, stage in (
        ("alice_sigma_z", MeasureStage(embed_pvm(_sigma_z(), "left", 2))),
        ("alice_sigma_x", MeasureStage(embed_pvm(_sigma_x(), "left", 2))),
        ("alice_none", None))}

    analytic_marginals = {name: final_distribution(proto) for name, proto in settings.items()}
    report.analytic["bob_marginals"] = analytic_marginals
    names = list(settings)
    report.checks["analytic_marginals_identical"] = all(
        total_variation(analytic_marginals[x], analytic_marginals[y]) <= EPS_NORM
        for i, x in enumerate(names) for y in names[i + 1:])

    empirical = {name: _sample(report, f"ensemble_{name}", proto, workers, stream=idx,
                               gate=f"bob_marginal_{name}").final_frequencies()
                 for idx, (name, proto) in enumerate(settings.items())}

    # Two independent frequencies of a p ~ 1/2 outcome differ by at most
    # z * sqrt(2 p (1-p) / n) up to the usual analytic slack.
    tvd_gate = 5.0 * math.sqrt(2.0 * 0.25 / report.trials) + EPS_NORM
    max_tvd = max(
        total_variation(empirical[x].distribution, empirical[y].distribution)
        for i, x in enumerate(names) for y in names[i + 1:])
    report.monte_carlo["max_pairwise_marginal_tvd"] = max_tvd
    report.monte_carlo["tvd_gate"] = tvd_gate
    report.checks["no_signaling_within_gate"] = max_tvd <= tvd_gate

    z_stats = report.monte_carlo["ensemble_alice_sigma_z"]
    report.checks["same_axis_outcomes_anticorrelated"] = (
        z_stats.counts[("z+", "z+")] == 0 and z_stats.counts[("z-", "z-")] == 0)

    report.narrative = (
        "Each side of the anticorrelated pair looks maximally mixed on its "
        "own: the reduced density matrix is the identity over 2.",
        "Bob's outcome frequencies are the same whether the other side was "
        "measured along z, along x, or not at all; nothing Alice chooses is "
        "visible in Bob's marginal.",
        "When both sides are measured along the same axis the outcomes "
        "disagree in every single trial: equal-outcome joint events carry "
        "exactly zero amplitude.",
    )


def _scenario_epr_timelike_detection(report: ScenarioReport, workers) -> None:
    pre, post = _z_plus(), _sigma_z()
    idle = Protocol(pre, post)
    probed = Protocol(pre, post, intermediate=MeasureStage(_sigma_x()))

    report.analytic["idle_final_distribution"] = final_distribution(idle)
    probed_dist = final_distribution(probed)
    report.analytic["probed_final_distribution"] = probed_dist
    report.analytic["detection_probability"] = probed_dist.probability("z-")

    idle_stats = _sample(report, "idle_ensemble", idle, workers)
    report.checks["flip_never_happens_when_idle"] = idle_stats.counts[(None, "z-")] == 0
    _sample(report, "probed_ensemble", probed, workers, stream=1,
            gate="probed_final_vs_analytic")

    report.cotenability["probe"] = cotenability_report(
        Protocol(pre, post, selection="z-"), _sigma_x())

    report.narrative = (
        "Prepared z+ and left alone, the later z measurement shows z+ in "
        "every trial; the record can never flip on its own.",
        "If a noncommuting measurement happens in between, the later record "
        "flips half the time. Seeing z- therefore certifies that the "
        "intermediate measurement occurred.",
        "The probe is maximally non-cotenable with the original background: "
        "inserting it moves the final distribution from certainty to an "
        "even split.",
    )


# Each parameter kind: the type a JSON value must have, and its name in errors.
_KINDS = {bool: (bool, "true or false"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a real number"), str: (str, "a string")}


@dataclass(frozen=True)
class Param:
    """One scenario parameter: `prepost list` text, kind, default and range.

    ``kind`` is bool, int, float or str, and the value is converted to it.
    JSON true and false count only as bool, and a float must be finite.
    ``rule`` is a range check on the converted value and the message it raises.
    """
    name: str
    kind: type
    default: object
    doc: str
    rule: tuple[Callable[[object], bool], str] | None = None

    def checked(self, value):
        abstract, what = _KINDS[self.kind]
        if (not isinstance(value, abstract)
                or isinstance(value, bool) != (self.kind is bool)):
            raise ValueError(f"{self.name} must be {what}, got {value!r}")
        try:
            value = self.kind(value)
        except OverflowError:
            raise ValueError(f"{self.name} is too large for a float") from None
        if self.kind is float and not math.isfinite(value):
            raise ValueError(f"{self.name} must be finite, got {value!r}")
        if self.rule is not None and not self.rule[0](value):
            raise ValueError(self.rule[1])
        return value


@dataclass(frozen=True)
class ScenarioInfo:
    name: str
    description: str
    runner: Callable[[ScenarioReport, int | None], None]
    params: tuple[Param, ...] = ()

    @property
    def params_doc(self) -> dict[str, str]:
        """The `prepost list` text of each parameter, read off the table."""
        return {p.name: p.doc for p in self.params}


_CATALOGUE: dict[str, ScenarioInfo] = {
    info.name: info for info in (
        ScenarioInfo(
            "aad_dispersion_free",
            "Two noncommuting observables, each with a dispersion-free "
            "conditional value between the selections.",
            _scenario_aad_dispersion_free),
        ScenarioInfo(
            "three_box",
            "A particle certain to be in box A if A is opened, and certain "
            "to be in box B if B is opened instead.",
            _scenario_three_box,
            (Param("query_box", str, "A",
                   "which box to open in the simulated run: A or B (default A)",
                   (lambda box: box in ("A", "B"), "query_box must be 'A' or 'B'")),)),
        ScenarioInfo(
            "quantum_raffle",
            "Independent three-level coins; the number of heads M decides "
            "whether the raffle has a winner.",
            _scenario_quantum_raffle,
            (Param("n_coins", int, 3, "number of entrants (default 3)",
                   (lambda n: 1 <= n <= 20, "n_coins must be between 1 and 20")),
             Param("raffle_held", bool, True,
                   "whether the flip evolution is applied (default true)"))),
        ScenarioInfo(
            "crossed_polarizers",
            "Crossed polarizers block everything until an oblique one is "
            "inserted between them.",
            _scenario_crossed_polarizers,
            (Param("theta", float, math.pi / 4,
                   "angle of the inserted polarizer in radians (default pi/4)",
                   (lambda t: abs(math.sin(t) * math.cos(t)) >= 1e-9,
                    "theta must not be aligned with either polarizer")),)),
        ScenarioInfo(
            "epr_no_signaling",
            "An anticorrelated pair: local marginals are maximally mixed "
            "and independent of the distant setting.",
            _scenario_epr_no_signaling),
        ScenarioInfo(
            "epr_timelike_detection",
            "A later measurement on one system detects with certainty that "
            "a noncommuting measurement happened earlier.",
            _scenario_epr_timelike_detection),
    )
}


def available_scenarios() -> list[ScenarioInfo]:
    return list(_CATALOGUE.values())


def run_scenario(name: str, params: dict | None = None, trials: int = 100_000,
                 seed: int = 0, workers: int | None = None) -> ScenarioReport:
    """Run one catalogue scenario and return its self-contained report, whose
    params hold every value as the scenario's table checked and converted it."""
    if name not in _CATALOGUE:
        known = ", ".join(sorted(_CATALOGUE))
        raise UnknownScenario(f"unknown scenario {name!r}; available: {known}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    info = _CATALOGUE[name]
    given = dict(params or {})
    accepted = sorted(info.params_doc)
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        raise ValueError(f"unknown parameters {unknown}; accepted: {accepted}")
    report = ScenarioReport(name, {p.name: p.checked(given.get(p.name, p.default))
                                   for p in info.params}, trials, seed)
    info.runner(report, workers)
    return report
