"""Scenario catalogue tests at reduced trial counts."""
from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from prepost.core import EPS_NORM
from prepost.counterfactual import Classification
from prepost.ensemble import CHUNK, run_ensemble
from prepost.scenarios import (
    ScenarioReport,
    UnknownScenario,
    available_scenarios,
    run_scenario,
)

N = 20000
# Working set of one sampler chunk: variates and index arrays, under 64 B a
# trial.
CHUNK_BYTES = 64 * CHUNK


class TestDispatch:
    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            run_scenario("warp_drive", {}, 100, 1)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("three_box", {"boxes": 4}, 100, 1)

    def test_catalogue_lists_six_scenarios(self):
        names = {info.name for info in available_scenarios()}
        assert names == {
            "aad_dispersion_free", "three_box", "quantum_raffle",
            "crossed_polarizers", "epr_no_signaling", "epr_timelike_detection",
        }

    def test_reports_are_deterministic(self):
        a = run_scenario("three_box", {}, 2000, 7)
        b = run_scenario("three_box", {}, 2000, 7)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_worker_count_does_not_change_the_report(self):
        a = run_scenario("aad_dispersion_free", {}, 60000, 5)
        b = run_scenario("aad_dispersion_free", {}, 60000, 5, workers=1)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


class TestParameterTable:
    @pytest.mark.parametrize("info", available_scenarios(), ids=lambda info: info.name)
    def test_documented_names_are_the_checked_names(self, info):
        report = run_scenario(info.name, None, 1, 0)
        assert list(info.params_doc) == list(report.params)
        for name, value in report.params.items():
            assert run_scenario(info.name, {name: value}, 1, 0).params == report.params
        with pytest.raises(ValueError, match="unknown parameters"):
            run_scenario(info.name, {"undocumented": 1}, 1, 0)

    def test_real_parameter_is_converted_to_float(self):
        theta = run_scenario("crossed_polarizers", {"theta": 1}, 1, 0).params["theta"]
        assert type(theta) is float and theta == 1.0


@pytest.fixture(scope="module")
def aad_report() -> ScenarioReport:
    return run_scenario("aad_dispersion_free", {}, N, 42)


@pytest.fixture(scope="module")
def three_box_report() -> ScenarioReport:
    return run_scenario("three_box", {}, N, 42)


@pytest.fixture(scope="module")
def polarizer_report() -> ScenarioReport:
    return run_scenario("crossed_polarizers", {}, N, 9)


@pytest.fixture(scope="module")
def epr_report() -> ScenarioReport:
    return run_scenario("epr_no_signaling", {}, N, 11)


@pytest.fixture(scope="module")
def timelike_report() -> ScenarioReport:
    return run_scenario("epr_timelike_detection", {}, N, 11)


class TestAadDispersionFree:
    @pytest.fixture
    def report(self, aad_report) -> ScenarioReport:
        return aad_report

    def test_both_queries_are_certain_between_selections(self, report):
        assert report.analytic["abl_query_z"].probability("z+") == pytest.approx(1.0, abs=1e-10)
        assert report.analytic["abl_query_x"].probability("x+") == pytest.approx(1.0, abs=1e-10)

    def test_gates_pass(self, report):
        assert report.all_gates_passed

    def test_verdicts(self, report):
        assert report.verdicts["single_query_x"].classification is Classification.FALSE
        assert report.verdicts["single_query_x"].max_deviation == pytest.approx(0.5, abs=1e-10)
        assert report.verdicts["compound_query_x"].classification is Classification.NONTRIVIALLY_TRUE
        assert report.verdicts["single_query_z"].classification is Classification.TRUE_BY_COINCIDENCE

    def test_post_selection_pins_the_record_exactly(self, report):
        assert report.checks["conditional_query_certain"]


class TestThreeBox:
    @pytest.fixture
    def report(self, three_box_report) -> ScenarioReport:
        return three_box_report

    def test_unity_in_both_boxes(self, report):
        assert report.analytic["abl_box_A"].probability("in_A") == pytest.approx(1.0, abs=1e-10)
        assert report.analytic["abl_box_B"].probability("in_B") == pytest.approx(1.0, abs=1e-10)

    def test_conditional_frequency_is_exactly_one(self, report):
        assert report.checks["conditional_exact_unity"]
        assert report.checks["post_selected_trials_exist"]

    def test_gates_pass(self, report):
        assert report.all_gates_passed

    def test_verdicts(self, report):
        assert report.verdicts["single"].classification is Classification.FALSE
        assert report.verdicts["single"].max_deviation == pytest.approx(2 / 3, abs=1e-10)
        assert report.verdicts["compound"].classification is Classification.NONTRIVIALLY_TRUE

    def test_alternative_box_parameter(self):
        report = run_scenario("three_box", {"query_box": "B"}, 2000, 3)
        assert report.all_gates_passed
        assert report.params["query_box"] == "B"

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("three_box", {"query_box": "C"}, 100, 1)


class TestQuantumRaffle:
    def test_unheld_raffle_never_finds_heads(self):
        report = run_scenario("quantum_raffle",
                              {"n_coins": 3, "raffle_held": False}, 5000, 7)
        assert report.checks["no_winner_in_every_trial"]
        assert report.monte_carlo["m_frequencies"].distribution.probability("0") == 1.0
        assert report.all_gates_passed

    @pytest.mark.parametrize("held, digest", [(True, "4f0cc488efd4818c"),
                                              (False, "df3c109db00ec38f")])
    def test_twenty_coin_m_frequencies_match_pinned_digest(self, held, digest):
        # Pinned from the sampler that drew all variates at once; the trial
        # count crosses three 2^16-trial chunk boundaries.
        report = run_scenario("quantum_raffle",
                              {"n_coins": 20, "raffle_held": held},
                              3 * (1 << 16) + 5, 7)
        m_json = report.monte_carlo["m_frequencies"].to_json_dict()
        assert hashlib.sha256(
            json.dumps(m_json).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("held, digest", [(True, "4f0cc488efd4818c"),
                                              (False, "df3c109db00ec38f")])
    def test_pinned_digest_holds_for_every_worker_count(self, held, digest, workers):
        # Four chunks, so up to four workers each draw their own run of coins.
        report = run_scenario("quantum_raffle",
                              {"n_coins": 20, "raffle_held": held},
                              3 * CHUNK + 5, 7, workers=workers)
        m_json = report.monte_carlo["m_frequencies"].to_json_dict()
        assert hashlib.sha256(
            json.dumps(m_json).encode()).hexdigest()[:16] == digest

    @staticmethod
    def peak_bytes(trials: int, workers: int) -> int:
        tracemalloc.start()
        try:
            run_scenario("quantum_raffle", {"n_coins": 20}, trials, 3,
                         workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_does_not_grow_with_trials(self, workers):
        small = self.peak_bytes(4 * CHUNK, workers)
        large = self.peak_bytes(32 * CHUNK, workers)
        assert abs(large - small) <= CHUNK_BYTES
        assert large <= 4 * CHUNK_BYTES

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("held", [True, False])
    def test_first_coin_ensemble_equals_its_own_run(self, held, workers):
        # Coin 0 is tallied in the same pass as the histogram; a separate
        # run_ensemble of its stream must give the same counts.
        report = run_scenario("quantum_raffle", {"n_coins": 4, "raffle_held": held},
                              3 * CHUNK + 5, 7, workers=workers)
        first = report.monte_carlo["first_coin_ensemble"]
        again = run_ensemble(first.protocol, first.trials, first.seed, workers=1)
        assert first.counts == again.counts

    def test_held_raffle_matches_binomial(self):
        report = run_scenario("quantum_raffle",
                              {"n_coins": 3, "raffle_held": True}, N, 7)
        assert report.analytic["p_no_winner"] == pytest.approx(0.125, abs=1e-12)
        assert report.all_gates_passed
        m_dist = report.analytic["m_distribution"]
        assert m_dist.probability("0") == pytest.approx(1 / 8, abs=1e-12)
        assert m_dist.probability("2") == pytest.approx(3 / 8, abs=1e-12)

    def test_coin_count_validation(self):
        with pytest.raises(ValueError):
            run_scenario("quantum_raffle", {"n_coins": 0}, 100, 1)


class TestCrossedPolarizers:
    @pytest.fixture
    def report(self, polarizer_report) -> ScenarioReport:
        return polarizer_report

    def test_nothing_passes_the_crossed_pair(self, report):
        assert report.analytic["direct_pass_probability"] == pytest.approx(0.0, abs=1e-12)
        assert report.checks["no_pass_without_intermediate"]

    def test_inserted_polarizer_opens_a_quarter_path(self, report):
        assert report.analytic["inserted_pass_probability"] == pytest.approx(0.25, abs=1e-10)
        assert report.all_gates_passed

    def test_cotenability_of_the_physical_insertion(self, report):
        rep = report.cotenability["inserted_polarizer"]
        assert not rep.cotenable
        assert rep.delta_selected == pytest.approx(0.25, abs=1e-10)

    def test_verdicts_at_the_symmetric_angle(self, report):
        assert report.verdicts["single"].classification is Classification.TRUE_BY_COINCIDENCE
        assert report.verdicts["compound"].classification is Classification.TRIVIALLY_TRUE

    def test_single_reading_fails_off_the_symmetric_angle(self):
        report = run_scenario("crossed_polarizers", {"theta": math.pi / 3}, 2000, 3)
        assert report.analytic["inserted_pass_probability"] == pytest.approx(3 / 16, abs=1e-10)
        assert report.verdicts["single"].classification is Classification.FALSE

    def test_degenerate_angle_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("crossed_polarizers", {"theta": 0.0}, 100, 1)


class TestEprNoSignaling:
    @pytest.fixture
    def report(self, epr_report) -> ScenarioReport:
        return epr_report

    def test_reduced_densities_are_maximally_mixed(self, report):
        assert report.checks["reduced_density_is_maximally_mixed"]
        rho = report.analytic["reduced_density_left"]
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=EPS_NORM)

    def test_distant_marginals_do_not_depend_on_the_setting(self, report):
        assert report.checks["analytic_marginals_identical"]
        assert report.checks["no_signaling_within_gate"]
        assert report.all_gates_passed

    def test_same_axis_outcomes_are_anticorrelated(self, report):
        assert report.checks["same_axis_outcomes_anticorrelated"]


class TestEprTimelikeDetection:
    @pytest.fixture
    def report(self, timelike_report) -> ScenarioReport:
        return timelike_report

    def test_idle_intermediate_never_flips_the_record(self, report):
        assert report.checks["flip_never_happens_when_idle"]

    def test_probed_run_flips_half_the_time(self, report):
        assert report.analytic["detection_probability"] == pytest.approx(0.5, abs=1e-12)
        assert report.all_gates_passed

    def test_probe_is_not_cotenable(self, report):
        assert not report.cotenability["probe"].cotenable


class TestReportRendering:
    def test_text_output_mentions_name_and_sections(self):
        report = run_scenario("three_box", {}, 2000, 1)
        text = report.to_text()
        assert "three_box" in text
        assert "ANALYTIC" in text and "VERDICTS" in text

    def test_json_is_serializable_and_complete(self):
        report = run_scenario("crossed_polarizers", {}, 2000, 1)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["name"] == "crossed_polarizers"
        assert data["all_gates_passed"] is True
        assert "verdicts" in data and "cotenability" in data
