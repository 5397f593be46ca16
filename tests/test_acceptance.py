"""Acceptance gate: one test per criterion, full Monte Carlo scale.

Each test prints one pass/fail line under `pytest -v`. Statistical gates use
z = 5 at N = 10^5 trials; analytic identities use a 1e-10 tolerance. Seeds
are fixed, so every run of this file checks the same numbers.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from helpers import random_pvm_projectors, random_unit_vector
from prepost.abl import (
    ImpossiblePostSelection,
    SelectionContext,
    abl_distribution,
    final_distribution,
)
from prepost.core import (
    BipartiteState,
    FilterStage,
    MeasureStage,
    ProjectiveMeasurement,
    PureState,
    axis_pvm,
    embed_pvm,
    reduced_density,
    total_variation,
)
from prepost.counterfactual import (
    EPS_COTEN,
    Classification,
    CounterfactualStatement,
    Flavor,
    cotenability_report,
    evaluate,
)
from prepost.ensemble import Protocol, conditional_frequencies, run_ensemble
from prepost.scenarios import available_scenarios, run_scenario
from prepost.verify import run_verification

N = 100_000
Z = 5.0
TOL = 1e-10
S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)


def gate(p: float, n: int = N) -> float:
    return Z * math.sqrt(p * (1.0 - p) / n) + 1e-10


def z_plus() -> PureState:
    return PureState(("z+", "z-"), [1.0, 0.0])


def sigma_z() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(("z+", "z-"), np.eye(2))


def sigma_x() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(
        ("x+", "x-"), np.array([[S2, S2], [S2, -S2]]))


def three_box_setup():
    labels = ("A", "B", "C")
    a = PureState(labels, [S3, S3, S3])
    b = PureState(labels, [S3, S3, -S3])
    post = ProjectiveMeasurement.binary_from_state(b, "b", "not_b")
    return labels, a, post


def box_query(labels, which: str) -> ProjectiveMeasurement:
    proj = np.zeros((3, 3), dtype=complex)
    proj[labels.index(which), labels.index(which)] = 1.0
    return ProjectiveMeasurement(
        [(f"in_{which}", proj), (f"not_{which}", np.eye(3) - proj)])


def test_criterion_1_dispersion_free_certainty():
    ctx = SelectionContext(z_plus(), sigma_x(), "x+")
    assert abs(abl_distribution(ctx, sigma_z()).probability("z+") - 1.0) <= TOL
    assert abs(abl_distribution(ctx, sigma_x()).probability("x+") - 1.0) <= TOL


def test_criterion_2_three_box_unity():
    labels, a, post = three_box_setup()
    ctx = SelectionContext(a, post, "b")
    assert abs(abl_distribution(ctx, box_query(labels, "A"))
               .probability("in_A") - 1.0) <= TOL
    assert abs(abl_distribution(ctx, box_query(labels, "B"))
               .probability("in_B") - 1.0) <= TOL
    for which in ("A", "B"):
        query = box_query(labels, which)
        proto = Protocol(a, post, intermediate=MeasureStage(query),
                         selection="b")
        stats = run_ensemble(proto, N, 42)
        conditional = conditional_frequencies(stats, "b")
        assert conditional.sample_size >= 1
        assert conditional.distribution.probability(f"in_{which}") == 1.0


def test_criterion_3_single_antecedent_falsity():
    base = Protocol(z_plus(), sigma_x(), selection="x+")
    verdict = evaluate(CounterfactualStatement(base, sigma_x(), Flavor.SINGLE))
    assert abs(verdict.max_deviation - 0.5) <= TOL
    assert verdict.classification is Classification.FALSE

    probed = Protocol(z_plus(), sigma_x(), intermediate=MeasureStage(sigma_x()))
    stats = run_ensemble(probed, N, 43)
    freq = stats.intermediate_frequencies().distribution.probability("x+")
    assert abs(freq - 0.5) <= gate(0.5)


def test_criterion_4_compound_statements_never_deviate():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        dim = 2 + checked % 2
        labels = tuple(str(k) for k in range(dim))
        pre = PureState(labels, random_unit_vector(rng, dim))
        post_parts = random_pvm_projectors(rng, dim, allow_degenerate=False)
        post = ProjectiveMeasurement(
            [(f"b{i}", p) for i, p in enumerate(post_parts)])
        selection = f"b{int(rng.integers(len(post_parts)))}"
        query_parts = random_pvm_projectors(rng, dim)
        query = ProjectiveMeasurement(
            [(f"q{i}", p) for i, p in enumerate(query_parts)])
        base = Protocol(pre, post, selection=selection)
        try:
            verdict = evaluate(
                CounterfactualStatement(base, query, Flavor.COMPOUND))
        except ImpossiblePostSelection:
            continue
        assert verdict.max_deviation <= TOL
        nontrivial = verdict.classification is Classification.NONTRIVIALLY_TRUE
        cotenable = cotenability_report(base, query).tvd <= EPS_COTEN
        assert nontrivial == cotenable
        checked += 1


def test_criterion_5_crossed_polarizers():
    photon = PureState(("x", "y"), [1.0, 0.0])
    final = axis_pvm(math.pi / 2)
    middle = axis_pvm(math.pi / 4)
    ctx = SelectionContext(photon, final, "pass")
    assert abs(final_distribution(ctx).probability("pass")) <= 1e-12

    base = Protocol(photon, final, selection="pass")
    direct = run_ensemble(base, N, 9)
    assert sum(c for (_, f), c in direct.counts.items() if f == "pass") == 0

    filter_stage = FilterStage(middle, "pass", "block")
    inserted = Protocol(photon, final, intermediate=filter_stage,
                        selection="pass")
    stats = run_ensemble(inserted, N, 10)
    freq = stats.final_frequencies().distribution.probability("pass")
    assert abs(freq - 0.25) <= gate(0.25)

    report = cotenability_report(base, filter_stage)
    assert not report.cotenable
    assert abs(report.delta_selected - 0.25) <= TOL


def test_criterion_6_epr_marginals_and_timelike_detection():
    pair = BipartiteState(("z+", "z-"), ("z+", "z-"), [0.0, S2, -S2, 0.0])
    for side in ("left", "right"):
        rho = reduced_density(pair, side)
        assert np.abs(rho.matrix - np.eye(2) / 2).max() <= TOL

    joint = pair.to_pure_state()
    bob = embed_pvm(sigma_z(), "right", 2)
    settings = {
        "sigma_z": MeasureStage(embed_pvm(sigma_z(), "left", 2)),
        "sigma_x": MeasureStage(embed_pvm(sigma_x(), "left", 2)),
        "none": None,
    }
    marginals = {}
    for idx, (name, stage) in enumerate(settings.items()):
        stats = run_ensemble(Protocol(joint, bob, intermediate=stage),
                             N, 100 + idx)
        marginals[name] = stats.final_frequencies().distribution
    names = list(marginals)
    tvd_gate = Z * math.sqrt(0.5 / N) + 1e-10
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            assert total_variation(marginals[x], marginals[y]) <= tvd_gate

    probed = run_ensemble(
        Protocol(z_plus(), sigma_z(), intermediate=MeasureStage(sigma_x())),
        N, 44)
    detected = probed.final_frequencies().distribution.probability("z-")
    assert abs(detected - 0.5) <= gate(0.5)

    idle = run_ensemble(Protocol(z_plus(), sigma_z()), N, 45)
    assert sum(c for (_, f), c in idle.counts.items() if f == "z-") == 0


def test_criterion_7_quantum_raffle():
    unheld = run_scenario("quantum_raffle",
                          {"n_coins": 3, "raffle_held": False}, 10_000, 7)
    assert unheld.checks["no_winner_in_every_trial"]
    assert unheld.monte_carlo["m_frequencies"].distribution.probability("0") == 1.0

    held = run_scenario("quantum_raffle",
                        {"n_coins": 3, "raffle_held": True}, N, 7)
    freq = held.monte_carlo["m_frequencies"].distribution.probability("0")
    assert abs(freq - 0.125) <= gate(0.125)


def test_criterion_8_randomized_identity_suites():
    report = run_verification(instances=500, compound_instances=200,
                              trials=20_000, seed=1)
    by_name = {s.name: s for s in report.suites}
    for name in ("abl_sum_to_one", "time_symmetry", "born_marginalization",
                 "oracle_equivalence"):
        suite = by_name[name]
        assert suite.instances >= 500
        assert suite.failures == 0
        assert suite.max_error <= TOL
    assert by_name["compound_triviality"].failures == 0
    assert report.all_passed


def test_criterion_9_byte_identical_reports():
    for info in available_scenarios():
        auto = run_scenario(info.name, None, N, 5)
        single = run_scenario(info.name, None, N, 5, workers=1)
        assert (json.dumps(auto.to_json_dict())
                == json.dumps(single.to_json_dict())), info.name

    auto = run_verification(instances=60, compound_instances=30,
                            trials=N, seed=5)
    single = run_verification(instances=60, compound_instances=30,
                              trials=N, seed=5, workers=1)
    assert json.dumps(auto.to_json_dict()) == json.dumps(single.to_json_dict())
