"""Command-line entry point.

Four subcommands: run a catalogue scenario, evaluate a counterfactual
statement from a JSON config, run the verification suites, or list the
catalogue. Exit status is 0 on success with all gates passing, 1 when a
statistical gate fails, 2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .abl import ImpossiblePostSelection
from .counterfactual import CounterfactualStatement, Verdict, evaluate
from .ensemble import MAX_WORKERS
from .scenarios import ScenarioReport, UnknownScenario, available_scenarios, run_scenario
from .verify import run_verification


class CliError(Exception):
    """Input or usage problem; maps to exit status 2."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors print one stderr line, newlines
    escaped, as every other exit 2 does; subparsers share the class."""

    def error(self, message: str):
        self.exit(2, "error: " + message.replace("\n", "\\n") + "\n")


# Upper bound on --trials; larger values are input errors (exit 2), like
# --workers above ensemble.MAX_WORKERS. Sampling time grows with the trials.
MAX_TRIALS = 10**9
# Upper bound on --instances and --compound-instances: at about 10 us an
# instance per suite, minutes of work, in memory bounded by verify.BLOCK.
MAX_INSTANCES = 10**7
# Upper bound on --seed: the sampler keys Philox streams by it, 128 bits wide.
MAX_SEED = 2**128 - 1


def _positive_int(text: str, limit: int | None = None) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    if limit is not None and value > limit:
        raise argparse.ArgumentTypeError(f"must be at most {limit}")
    return value


def _trial_count(text: str) -> int:
    return _positive_int(text, MAX_TRIALS)


def _instance_count(text: str) -> int:
    return _positive_int(text, MAX_INSTANCES)


def _worker_count(text: str) -> int:
    return _positive_int(text, MAX_WORKERS)


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"must be between 0 and {MAX_SEED}")
    return value


def _json_object(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise argparse.ArgumentTypeError("JSON is nested too deeply") from exc
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError("must be a JSON object")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prepost",
        description="Simulate and analyze pre- and post-selected quantum "
                    "systems: conditional probabilities, seeded ensembles, "
                    "and counterfactual verdicts.")
    render = argparse.ArgumentParser(add_help=False)
    render.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")
    render.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    runtime = argparse.ArgumentParser(add_help=False)
    runtime.add_argument("--trials", type=_trial_count, default=100_000,
                         help=f"Monte Carlo trials (default 100000, at most "
                              f"{MAX_TRIALS})")
    runtime.add_argument("--seed", type=_seed, default=0,
                         help="random seed (default 0, below 2**128; runs are reproducible)")
    runtime.add_argument("--workers", type=_worker_count, default=None,
                         help=f"sampler threads, at most {MAX_WORKERS}; results "
                              "do not depend on this")

    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser(
        "scenario", parents=[render, runtime],
        help="run one catalogue scenario and report gates and verdicts")
    p_scenario.add_argument("name", help="scenario name; see `prepost list`")
    p_scenario.add_argument("--params", type=_json_object, default=None,
                            metavar="JSON",
                            help='scenario parameters, e.g. \'{"theta": 0.5}\'')

    p_evaluate = sub.add_parser(
        "evaluate", parents=[render],
        help="judge a counterfactual statement loaded from a JSON config")
    p_evaluate.add_argument("--config", required=True, metavar="PATH",
                            help="statement config: base_protocol, query, flavor")

    p_verify = sub.add_parser(
        "verify", parents=[render, runtime],
        help="run randomized invariant suites and all scenario gates")
    p_verify.add_argument("--instances", type=_instance_count, default=500,
                          help=f"instances per identity suite (default 500, at "
                               f"most {MAX_INSTANCES})")
    p_verify.add_argument("--compound-instances", type=_instance_count,
                          default=200, dest="compound_instances",
                          help="instances for the compound-verdict suite "
                               f"(default 200, at most {MAX_INSTANCES})")

    sub.add_parser("list", parents=[render],
                   help="list the scenario catalogue and its parameters")
    return parser


def _json_payload(data: dict | list) -> str:
    return json.dumps(data, indent=2) + "\n"


def _scenario_csv(report: ScenarioReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ensemble", "intermediate_outcome", "final_outcome",
                     "count"])
    for name, stats in report.ensembles().items():
        for mid, final in stats.ordered_keys():
            writer.writerow([name, "" if mid is None else mid, final,
                             stats.counts.get((mid, final), 0)])
    return buf.getvalue()


def _verdict_text(verdict: Verdict) -> str:
    lines = [
        f"flavor: {verdict.flavor.value}",
        f"classification: {verdict.classification.value}",
        f"max_deviation: {verdict.max_deviation:.6f}",
        f"cotenable: {'true' if verdict.cotenable else 'false'}",
        "claimed:",
        *(f"  {label}: {p:.6f}" for label, p in verdict.claimed),
        "counterfactual_world:",
        *(f"  {label}: {p:.6f}" for label, p in verdict.counterfactual_world),
    ]
    return "\n".join(lines) + "\n"


def _list_text() -> str:
    lines = []
    for info in available_scenarios():
        lines.append(info.name)
        lines.append(f"  {info.description}")
        if info.params_doc:
            lines.append("  parameters:")
            for key, doc in info.params_doc.items():
                lines.append(f"    {key}: {doc}")
        else:
            lines.append("  parameters: none")
        lines.append("")
    return "\n".join(lines)


def _require_tabular(args: argparse.Namespace) -> None:
    if args.format == "csv":
        raise CliError("csv output is only available for scenario reports")


def _dispatch_scenario(args: argparse.Namespace) -> tuple[int, str]:
    try:
        report = run_scenario(args.name, args.params, args.trials, args.seed,
                              workers=args.workers)
    except (UnknownScenario, ValueError) as exc:
        raise CliError(str(exc)) from exc
    status = 0 if report.all_gates_passed else 1
    if args.format == "json":
        return status, _json_payload(report.to_json_dict())
    if args.format == "csv":
        return status, _scenario_csv(report)
    return status, report.to_text()


def _dispatch_evaluate(args: argparse.Namespace) -> tuple[int, str]:
    _require_tabular(args)
    try:
        with open(args.config, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliError("config JSON is nested too deeply") from exc
    try:
        statement = CounterfactualStatement.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid statement config: {exc}") from exc
    try:
        verdict = evaluate(statement)
    except ImpossiblePostSelection as exc:
        raise CliError(str(exc)) from exc
    if args.format == "json":
        return 0, _json_payload(verdict.to_json_dict())
    return 0, _verdict_text(verdict)


def _dispatch_verify(args: argparse.Namespace) -> tuple[int, str]:
    _require_tabular(args)
    report = run_verification(instances=args.instances,
                              compound_instances=args.compound_instances,
                              trials=args.trials, seed=args.seed,
                              workers=args.workers)
    status = 0 if report.all_passed else 1
    if args.format == "json":
        return status, _json_payload(report.to_json_dict())
    return status, report.to_text()


def _dispatch_list(args: argparse.Namespace) -> tuple[int, str]:
    _require_tabular(args)
    if args.format == "json":
        return 0, _json_payload([
            {"name": info.name, "description": info.description,
             "params": dict(info.params_doc)}
            for info in available_scenarios()
        ])
    return 0, _list_text()


def dispatch(args: argparse.Namespace) -> tuple[int, str]:
    """Run one parsed command; returns (exit status, rendered report)."""
    handler = {
        "scenario": _dispatch_scenario,
        "evaluate": _dispatch_evaluate,
        "verify": _dispatch_verify,
        "list": _dispatch_list,
    }[args.command]
    return handler(args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status, payload = dispatch(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
