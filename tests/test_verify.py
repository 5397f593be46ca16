"""Randomized invariant suites and the aggregate verification report."""
from __future__ import annotations

import json
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

import prepost
from prepost import abl, core, counterfactual, verify
from prepost.core import EPS_PROB
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

    @pytest.mark.parametrize("workers", [1, 2, MAX_WORKERS])
    def test_no_process_is_started(self, monkeypatch, workers):
        def started(*args, **kwargs):
            raise AssertionError("a process was started")
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", started)
        monkeypatch.setattr(os, "fork", started)
        report = run_verification(instances=10, compound_instances=5, trials=500,
                                  seed=1, workers=workers)
        assert report.all_passed
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_suite_error_reaches_the_caller(self, monkeypatch, workers):
        monkeypatch.setattr(verify, "MAX_RESAMPLES", 0)
        with pytest.raises(RuntimeError, match="^could not draw a usable instance$"):
            run_verification(instances=10, compound_instances=5, trials=500,
                             seed=1, workers=workers)
        assert multiprocessing.active_children() == []


def _fault_column_zero(p, rows, k):
    """Conditions on final outcome 0 whatever the selection."""
    return REAL_ABL(p, rows, np.zeros_like(k))


def _fault_scaled_denominator(p, rows, k):
    """Divides the path weights by 1.001 times their sum."""
    conditional, denominator = REAL_ABL(p, rows, k)
    return conditional / 1.001, denominator * 1.001


def _fault_negated_cotenable(p, rows, k, undisturbed):
    """Reports every query as cotenable exactly when it is not."""
    claimed, denominator, tvd, cotenable = REAL_VERDICTS(p, rows, k, undisturbed)
    return claimed, denominator, tvd, ~cotenable


def _fault_conjugated_evolution(x, u):
    """Evolves by conj(U) instead of U."""
    return REAL_EVOLVED(x, u.conj())


REAL_ABL = abl._abl
REAL_VERDICTS = counterfactual._verdicts
REAL_EVOLVED = core._evolved
FAULTS = {
    "column_zero": (_fault_column_zero,
                    {"born_marginalization", "oracle_equivalence"}),
    "scaled_denominator": (_fault_scaled_denominator,
                           {"abl_sum_to_one", "born_marginalization",
                            "oracle_equivalence", "compound_triviality"}),
    "negated_cotenable": (_fault_negated_cotenable, {"compound_triviality"}),
    "conjugated_evolution": (_fault_conjugated_evolution,
                             {"born_marginalization", "oracle_equivalence"}),
}
# The routine each fault stands in for, by its name in the package's modules.
REPLACED = {"_abl": REAL_ABL, "_verdicts": REAL_VERDICTS, "_evolved": REAL_EVOLVED}
TARGET = {"negated_cotenable": "_verdicts", "conjugated_evolution": "_evolved"}


class TestFaultsAreCaught:
    """A wrong conditioning, verdict or evolution is failed by count, on every
    instance of each suite named for it, and no suite raises."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_named_suites_fail_every_instance(self, monkeypatch, fault):
        wrong, named = FAULTS[fault]
        target = TARGET.get(fault, "_abl")
        for module in (prepost, abl, core, counterfactual, verify):
            if getattr(module, target, None) is REPLACED[target]:
                monkeypatch.setattr(module, target, wrong)
        results = {r.name: r for r in (suite(60, 2) for suite in verify._SUITES)}
        for name in named:
            assert results[name].failures == results[name].instances == 60, name


def _peaks(run) -> list[int]:
    """run's tracemalloc peak at 12 and at 96 blocks of instances."""
    run(40, 0)  # one-time allocations
    peaks = []
    for blocks in (12, 96):
        tracemalloc.start()
        try:
            result = run(blocks * verify.BLOCK, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.failures == 0
    return peaks


class TestMemory:
    def test_working_memory_does_not_grow_with_instances(self):
        # At 12 blocks each dimension-3 and -4 group of abl_sum_to_one is one
        # block; at 96 blocks it is eight.
        peaks = _peaks(verify._suite_sum_to_one)
        assert peaks[1] < 1.25 * peaks[0], peaks

    def test_compound_working_memory_does_not_grow_with_instances(self):
        # At 12 blocks each group of compound_triviality is three blocks or
        # six; at 96 blocks eight times as many.
        peaks = _peaks(verify._suite_compound_triviality)
        assert peaks[1] < 1.25 * peaks[0], peaks


class TestCotenableDraws:
    def test_each_classification_holds_two_fifths(self, monkeypatch):
        flags = []

        def recorded(p, rows, k, undisturbed):
            out = REAL_VERDICTS(p, rows, k, undisturbed)
            flags.extend(out[3][out[1] > EPS_PROB])
            return out
        monkeypatch.setattr(verify, "_verdicts", recorded)
        assert verify._suite_compound_triviality(200, 0).failures == 0
        assert len(flags) == 200
        assert 0.4 * len(flags) <= sum(flags) <= 0.6 * len(flags)
