"""Randomized invariant suites and the aggregate verification report."""
from __future__ import annotations

import concurrent.futures
import json
import multiprocessing

import pytest

from prepost import verify
from prepost.ensemble import MAX_WORKERS
from prepost.verify import VerificationReport, run_verification

SUITE_NAMES = {
    "abl_sum_to_one",
    "time_symmetry",
    "born_marginalization",
    "oracle_equivalence",
    "compound_triviality",
}


@pytest.fixture(scope="module")
def report() -> VerificationReport:
    return run_verification(instances=120, compound_instances=60,
                            trials=4000, seed=3)


class TestSuites:
    def test_all_suites_present_and_green(self, report):
        assert {s.name for s in report.suites} == SUITE_NAMES
        for suite in report.suites:
            assert suite.failures == 0, suite.name
            assert suite.passed

    def test_requested_instance_counts_are_honored(self, report):
        by_name = {s.name: s for s in report.suites}
        for name in SUITE_NAMES - {"compound_triviality"}:
            assert by_name[name].instances == 120
        assert by_name["compound_triviality"].instances == 60

    def test_identity_errors_stay_inside_tolerance(self, report):
        for suite in report.suites:
            assert suite.max_error <= suite.tolerance

    def test_aggregate_flag(self, report):
        assert report.all_passed


class TestScenarioGates:
    def test_catalogue_is_fully_covered(self, report):
        assert set(report.scenario_gates) == {
            "aad_dispersion_free", "three_box", "quantum_raffle",
            "crossed_polarizers", "epr_no_signaling", "epr_timelike_detection",
        }
        assert all(report.scenario_gates.values())


class TestDeterminism:
    def test_same_seed_gives_identical_json(self):
        a = run_verification(instances=40, compound_instances=20,
                             trials=1500, seed=9)
        b = run_verification(instances=40, compound_instances=20,
                             trials=1500, seed=9)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_forced_single_thread_matches(self):
        a = run_verification(instances=40, compound_instances=20,
                             trials=1500, seed=9)
        b = run_verification(instances=40, compound_instances=20,
                             trials=1500, seed=9, workers=1)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_different_seed_changes_the_numbers(self):
        a = run_verification(instances=40, compound_instances=20,
                             trials=1500, seed=9)
        b = run_verification(instances=40, compound_instances=20,
                             trials=1500, seed=10)
        assert json.dumps(a.to_json_dict()) != json.dumps(b.to_json_dict())


class TestRendering:
    def test_text_lists_every_suite(self, report):
        text = report.to_text()
        for name in SUITE_NAMES:
            assert name in text
        assert "pass" in text

    def test_json_round_trips(self, report):
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["all_passed"] is True
        assert len(data["suites"]) == len(SUITE_NAMES)
        assert data["seed"] == 3


class TestValidation:
    def test_instances_must_be_positive(self):
        with pytest.raises(ValueError):
            run_verification(instances=0, trials=100, seed=1)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_verification(instances=10, trials=0, seed=1)


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, MAX_WORKERS + 1])
    def test_worker_count_is_checked_before_any_suite_runs(self, monkeypatch, workers):
        def suite_ran(*args):
            raise AssertionError("a suite ran")
        monkeypatch.setattr(verify, "_suite", suite_ran)
        with pytest.raises(ValueError, match=f"workers must be between 1 and {MAX_WORKERS}"):
            run_verification(instances=10, compound_instances=5, trials=100,
                             seed=1, workers=workers)

    def test_pool_is_bounded_and_no_process_outlives_the_run(self, monkeypatch):
        pools = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                super().__init__(max_workers, **kwargs)
                pools.append((self, max_workers))  # kept alive past the run
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        run_verification(instances=10, compound_instances=5, trials=500,
                         seed=1, workers=MAX_WORKERS)
        assert [n for _, n in pools] == [5]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_suite_error_reaches_the_caller(self, monkeypatch, workers):
        monkeypatch.setattr(verify, "MAX_RESAMPLES", 0)
        with pytest.raises(RuntimeError, match="^could not draw a usable instance$"):
            run_verification(instances=10, compound_instances=5, trials=500,
                             seed=1, workers=workers)
        assert multiprocessing.active_children() == []
