"""Command-line interface tests."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prepost.cli import MAX_INSTANCES, MAX_SEED, MAX_TRIALS, MAX_WORKERS, build_parser, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv) -> tuple[int, str, str]:
    """The command in a fresh interpreter, so stderr holds everything a user
    would see there, Python's warnings included."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from prepost.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv], env=env, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


class TestList:
    def test_text_lists_the_catalogue(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in ("aad_dispersion_free", "three_box", "quantum_raffle",
                     "crossed_polarizers", "epr_no_signaling",
                     "epr_timelike_detection"):
            assert name in out

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert {entry["name"] for entry in data} == {
            "aad_dispersion_free", "three_box", "quantum_raffle",
            "crossed_polarizers", "epr_no_signaling", "epr_timelike_detection",
        }
        assert all("description" in entry and "params" in entry
                   for entry in data)

    def test_csv_is_not_offered(self, capsys):
        code, _, err = run_cli(capsys, "list", "--format", "csv")
        assert code == 2
        assert err


class TestScenario:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "three_box",
                               "--trials", "2000", "--seed", "7")
        assert code == 0
        assert "three_box" in out and "VERDICTS" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "three_box",
                               "--trials", "2000", "--seed", "7",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["name"] == "three_box"
        assert data["all_gates_passed"] is True

    def test_json_output_is_byte_identical_across_runs(self, capsys):
        args = ("scenario", "aad_dispersion_free", "--trials", "2500",
                "--seed", "5", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_workers_flag_does_not_change_output(self, capsys):
        base = ("scenario", "three_box", "--trials", "2000", "--seed", "7",
                "--format", "json")
        _, auto, _ = run_cli(capsys, *base)
        _, single, _ = run_cli(capsys, *base, "--workers", "1")
        assert auto == single

    def test_csv_emits_ensemble_tables(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "three_box",
                               "--trials", "2000", "--seed", "7",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ensemble,intermediate_outcome,final_outcome,count"
        assert len(lines) > 1
        assert all(line.count(",") == 3 for line in lines[1:])
        _, again, _ = run_cli(capsys, "scenario", "three_box",
                              "--trials", "2000", "--seed", "7",
                              "--format", "csv")
        assert out == again

    def test_csv_leaves_a_missing_intermediate_blank(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "crossed_polarizers",
                               "--trials", "1000", "--format", "csv")
        assert code == 0
        direct = [line for line in out.splitlines()
                  if line.startswith("direct_ensemble,")]
        assert direct
        assert all(line.startswith("direct_ensemble,,") for line in direct)
        assert sum(int(line.rsplit(",", 1)[1]) for line in direct) == 1000

    def test_params_are_forwarded(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "three_box",
                               "--params", '{"query_box": "B"}',
                               "--trials", "2000", "--seed", "3")
        assert code == 0
        assert "query_box=B" in out

    def test_gate_failure_exits_one_but_still_reports(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "three_box",
                               "--trials", "1", "--seed", "1")
        assert code == 1
        assert "all gates passed: false" in out

    def test_unknown_scenario_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "warp_drive")
        assert code == 2
        assert "warp_drive" in err

    def test_invalid_params_json(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "three_box",
                               "--params", "{not json")
        assert code == 2
        assert err

    def test_non_object_params(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "three_box",
                               "--params", "[1, 2]")
        assert code == 2
        assert err

    @pytest.mark.parametrize("name, params", [
        ("quantum_raffle", '{"raffle_held": "false"}'),
        ("quantum_raffle", '{"n_coins": 2.7}'),
        ("crossed_polarizers", '{"theta": "nan"}'),
        ("crossed_polarizers", '{"theta": NaN}'),
        pytest.param("crossed_polarizers", '{"theta": 1%s}' % ("0" * 399),
                     id="crossed_polarizers-400_digit_theta"),
        ("three_box", '{"query_box": 1}'),
    ])
    def test_mistyped_param_is_an_input_error(self, capsys, name, params):
        code, out, err = run_cli(capsys, "scenario", name, "--params", params,
                                 "--trials", "100")
        assert code == 2
        assert json.loads(params).popitem()[0] in err
        assert out == ""

    def test_unknown_param_key(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "three_box",
                               "--params", '{"boxes": 4}', "--trials", "100")
        assert code == 2
        assert "query_box" in err

    def test_deeply_nested_params_are_an_input_error(self, capsys):
        deep = '{"a": %s%s}' % ("[" * 40_000, "]" * 40_000)
        code, out, err = run_cli(capsys, "scenario", "three_box", "--params", deep)
        assert code == 2
        assert "nested too deeply" in err
        assert out == ""


class TestEvaluate:
    def test_shipped_config_is_judged_false(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--config",
                               str(CONFIG_DIR / "aad_single.json"))
        assert code == 0
        assert "FALSE" in out
        assert "0.500000" in out

    def test_json_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--config",
                               str(CONFIG_DIR / "aad_single.json"),
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["classification"] == "FALSE"
        assert data["max_deviation"] == pytest.approx(0.5, abs=1e-10)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--config",
                               "/no/such/file.json")
        assert code == 2
        assert err

    def test_malformed_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"flavor\": \"single\"}")
        code, _, err = run_cli(capsys, "evaluate", "--config", str(bad))
        assert code == 2
        assert err

    def test_deeply_nested_config_prints_one_line(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "evaluate", "--config", str(deep))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "nested too deeply" in err

    def test_nan_amplitude_is_an_input_error(self, capsys, tmp_path):
        data = json.loads((CONFIG_DIR / "aad_single.json").read_text())
        data["base_protocol"]["preparation"]["amplitudes"][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))  # written as the bare token NaN
        code, out, err = run_cli(capsys, "evaluate", "--config", str(bad))
        assert code == 2
        assert "non-finite" in err
        assert out == ""

    def test_nan_in_unitary_is_an_input_error(self, capsys, tmp_path):
        data = json.loads((CONFIG_DIR / "aad_single.json").read_text())
        data["base_protocol"]["pre_to_t"] = {
            "dim": 2,
            "matrix": [[[float("nan"), 0.0], [0.0, 0.0]],
                       [[0.0, 0.0], [1.0, 0.0]]]}
        bad = tmp_path / "nan_unitary.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(bad))
        assert code == 2
        assert "non-finite" in err
        assert out == ""

    @pytest.mark.parametrize("stage", [[1], "measure"])
    def test_stage_that_is_not_an_object_is_an_input_error(self, capsys,
                                                           tmp_path, stage):
        data = json.loads((CONFIG_DIR / "aad_single.json").read_text())
        data["base_protocol"]["intermediate"] = stage
        bad = tmp_path / "bad_stage.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(bad))
        assert code == 2
        assert "intermediate stage must be a JSON object or null" in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""

    @pytest.mark.parametrize("path, value, named", [
        (("base_protocol", "preparation", "amplitudes"), [[1], [0, 0]], "amplitudes[0]"),
        (("base_protocol", "preparation", "amplitudes"), None, "amplitudes must be a list"),
        (("query", "outcomes", 0, "projector"), None, "outcome 'x+' projector"),
        (("base_protocol", "preparation", "amplitudes"), [["1", 0], [0, 0]],
         "amplitudes[0]"),
        (("query", "outcomes", 0, "projector"), [[[1, 0], [0, 0]], [[0, 0]]],
         "outcome 'x+' projector[1] has 1 entries, not 2"),
        (("query", "outcomes", 0), {"projector": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
         'outcomes[0] needs a "label"'),
        (("base_protocol", "preparation", "amplitudes"), [[True, 0], [0, 0]],
         "amplitudes[0] must be a [re, im] pair of numbers, got [true, 0]"),
        (("base_protocol", "preparation", "amplitudes"), [[10**400, 0], [0, 0]],
         "amplitudes[0] holds a number too large for a float"),
        (("query", "outcomes", 0, "projector"), [[[1, 0], [0, -10**400]], [[0, 0], [0, 0]]],
         "outcome 'x+' projector[0][1] holds a number too large for a float"),
        (("base_protocol", "preparation", "dim"), 2.9, "declared dim 2.9 != 2"),
        (("base_protocol", "preparation", "dim"), "2", 'declared dim "2" != 2'),
        (("query", "dim"), 2.5, "declared dim 2.5 != 2"),
        (("base_protocol", "post_pvm", "dim"), [2], "declared dim [2] != 2"),
        (("base_protocol", "preparation", "basis_labels"), "ab",
         'basis_labels must be a list of strings, got "ab"'),
        (("base_protocol", "preparation", "basis_labels"), 7,
         "basis_labels must be a list of strings, got 7"),
        (("base_protocol", "selection"), ["x+"],
         'selection must be a string or null, got ["x+"]'),
        (("query", "outcomes", 0, "label"), 7, "outcomes[0] label must be a string, got 7"),
        (("query", "outcomes", 0, "label"), None,
         "outcomes[0] label must be a string, got null"),
    ], ids=["short_pair", "null_amplitudes", "null_projector", "string_entry",
            "ragged_projector", "missing_label", "boolean_entry", "huge_amplitude",
            "huge_projector_entry", "float_dim", "string_dim", "half_dim_on_pvm",
            "list_dim", "string_basis_labels", "number_basis_labels", "list_selection",
            "number_label", "null_label"])
    def test_malformed_field_is_named_on_one_line(self, capsys, tmp_path, path,
                                                  value, named):
        data = json.loads((CONFIG_DIR / "aad_single.json").read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad_field.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(bad))
        assert code == 2
        assert named in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""

    # Finite entries whose products overflow: each is rejected by the check
    # that reads the product, and nothing else may reach stderr.
    @pytest.mark.parametrize("path, value, named", [
        (("base_protocol", "preparation", "amplitudes"), [[1e308, 1e308], [0, 0]],
         "state vector has norm inf, expected 1"),
        (("base_protocol", "pre_to_t"), {"matrix": [[[1e308, 0], [1e308, 0]]] * 2},
         "matrix is not unitary"),
        (("query", "outcomes", 0, "projector"), [[[1e308, 0], [1e308, 0]]] * 2,
         "projector for 'x+' is not idempotent"),
    ], ids=["state_norm", "unitary_product", "projector_product"])
    def test_overflowing_product_prints_one_line(self, tmp_path, path, value, named):
        data = json.loads((CONFIG_DIR / "aad_single.json").read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli_process("evaluate", "--config", str(bad))
        assert code == 2
        assert err.splitlines() == [f"error: invalid statement config: {named}"]
        assert out == ""

    def test_csv_is_not_offered(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--config",
                               str(CONFIG_DIR / "aad_single.json"),
                               "--format", "csv")
        assert code == 2
        assert err


# sha256 prefixes of whole reports, pinned so that a change to how results
# are stored or rendered cannot move a byte unnoticed.
SMALL_VERIFY = ["verify", "--instances", "30", "--compound-instances", "12",
                "--trials", "1500", "--seed", "3"]
PINNED_REPORTS = {
    **{f"scenario-{name}": (["scenario", name, "--trials", "2000", "--seed", "7",
                             "--format", "json"], digest)
       for name, digest in [("aad_dispersion_free", "1051222d3bad20ac"),
                            ("three_box", "250075e4e85eca1d"),
                            ("quantum_raffle", "9e436a85fe788dad"),
                            ("crossed_polarizers", "b0dd1c51d9e72e1b"),
                            ("epr_no_signaling", "af124bfacf4920cc"),
                            ("epr_timelike_detection", "bbd043df9b05b368")]},
    "verify-json": (SMALL_VERIFY + ["--format", "json"], "0abcc86e1af7e04b"),
    "verify-text": (SMALL_VERIFY + ["--format", "text"], "10242395e3c0edcf"),
    "evaluate-json": (["evaluate", "--config", str(CONFIG_DIR / "aad_single.json"),
                       "--format", "json"], "1468b497ff3ff517"),
    "evaluate-text": (["evaluate", "--config", str(CONFIG_DIR / "aad_single.json"),
                       "--format", "text"], "6bc02de2939acac3"),
    "list-text": (["list"], "79d8188389f8bde1"),
    "list-json": (["list", "--format", "json"], "ea1cd43248406ed4"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(capsys, name):
    argv, digest = PINNED_REPORTS[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("workers", ["1", "2", "3", "5"])
def test_verify_digest_does_not_depend_on_workers(capsys, workers):
    argv, digest = PINNED_REPORTS["verify-json"]
    code, out, _ = run_cli(capsys, *argv, "--workers", workers)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--instances", "30",
                               "--compound-instances", "12",
                               "--trials", "1500", "--seed", "3")
        assert code == 0
        assert "overall: pass" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--instances", "12",
                               "--compound-instances", "8",
                               "--trials", "800", "--seed", "3",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True

    def test_csv_is_not_offered(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--format", "csv")
        assert code == 2
        assert err


class TestOutputAndUsage:
    def test_output_goes_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "scenario", "three_box",
                               "--trials", "2000", "--seed", "7",
                               "--format", "json", "--output", str(target))
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(capsys, "scenario", "three_box",
                               "--trials", "2000", "--seed", "7",
                               "--format", "json")
        assert target.read_text() == direct

    def test_no_command_is_a_usage_error(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_missing_scenario_name_is_a_usage_error(self, capsys):
        assert run_cli(capsys, "scenario")[0] == 2

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "three_box",
                               "--trials", "0")
        assert code == 2

    # Out-of-range sizes are rejected while parsing, so these cases start no
    # run and no threads.
    @pytest.mark.parametrize("command", ["scenario three_box", "verify"])
    @pytest.mark.parametrize("flag, limit", [("--trials", MAX_TRIALS),
                                             ("--workers", MAX_WORKERS)])
    def test_sizes_above_their_bound_rejected(self, capsys, command, flag, limit):
        code, out, err = run_cli(capsys, *command.split(), flag, str(limit + 1))
        assert code == 2
        assert f"must be at most {limit}" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--instances", "--compound-instances"])
    def test_instance_counts_above_their_bound_rejected(self, capsys, flag):
        code, out, err = run_cli(capsys, "verify", flag, str(MAX_INSTANCES + 1))
        assert code == 2
        assert err.splitlines() == [f"error: argument {flag}: must be at most {MAX_INSTANCES}"]
        assert out == ""

    def test_instance_bounds_themselves_are_accepted(self):
        ns = build_parser().parse_args(
            ["verify", "--instances", str(MAX_INSTANCES),
             "--compound-instances", str(MAX_INSTANCES)])
        assert (ns.instances, ns.compound_instances) == (MAX_INSTANCES, MAX_INSTANCES)

    def test_bounds_themselves_are_accepted(self):
        ns = build_parser().parse_args(
            ["scenario", "three_box", "--trials", str(MAX_TRIALS),
             "--workers", str(MAX_WORKERS)])
        assert (ns.trials, ns.workers) == (MAX_TRIALS, MAX_WORKERS)

    # The sampler keys Philox streams by the seed; the widest key is accepted.
    @pytest.mark.parametrize("command", [
        ["scenario", "three_box", "--trials", "500"],
        ["verify", "--instances", "2", "--compound-instances", "2", "--trials", "500"]])
    def test_largest_seed_runs(self, capsys, command):
        assert MAX_SEED == 2**128 - 1
        code, out, err = run_cli(capsys, *command, "--seed", str(MAX_SEED))
        assert (code, err) == (0, "")
        assert str(MAX_SEED) in out

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
