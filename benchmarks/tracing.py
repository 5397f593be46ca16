"""Spans around calls into prepost's public functions, recorded from outside.

The tracer replaces each listed callable with a timing wrapper. A function
is rebound in every ``prepost`` module namespace that holds it, because
``from .core import born_distribution`` leaves a second binding inside
``prepost.abl`` that would otherwise bypass the wrapper. Constructors and
classmethods are replaced on the class itself, which every caller shares.

Spans are (name, start, end, parent span id, op id, exception name) tuples
kept in memory and written out once the run ends. Every wrapped callable is
entered from the caller's thread: the sampler's worker threads only run
private chunk kernels, so one span stack suffices.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

# (span name, module, class or None, attribute). Order is the report order.
TARGETS = (
    ("core.pvm_init", "core", "ProjectiveMeasurement", "__init__"),
    ("core.state_init", "core", "PureState", "__init__"),
    ("core.born", "core", None, "born_distribution"),
    ("core.collapse", "core", None, "collapse"),
    ("core.evolve", "core", None, "evolve"),
    ("abl.abl_distribution", "abl", None, "abl_distribution"),
    ("abl.post_outcome_distribution", "abl", None, "post_outcome_distribution"),
    ("counterfactual.from_json", "counterfactual", "CounterfactualStatement",
     "from_json_dict"),
    ("counterfactual.evaluate", "counterfactual", None, "evaluate"),
    ("counterfactual.cotenability_report", "counterfactual", None,
     "cotenability_report"),
    ("ensemble.run_ensemble", "ensemble", None, "run_ensemble"),
    ("ensemble.trial_outcome_labels", "ensemble", None, "trial_outcome_labels"),
    ("ensemble.conditional_frequencies", "ensemble", None,
     "conditional_frequencies"),
    ("ensemble.agreement_check", "ensemble", None, "agreement_check"),
    ("scenarios.run_scenario", "scenarios", None, "run_scenario"),
    ("verify.run_verification", "verify", None, "run_verification"),
    ("cli.main", "cli", None, "main"),
)

SAMPLERS = ("ensemble.run_ensemble", "ensemble.trial_outcome_labels")


def _prepost_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "prepost" or name.startswith("prepost."))]


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self.sampled_trials = 0
        self.conditioned_trials = 0
        self.matched_trials = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op, error)
                if observe is not None:
                    observe(args, kwargs, None if error else result)
            return result
        return traced

    def _observer(self, name: str, fn):
        if name in SAMPLERS:
            sig = inspect.signature(fn)

            def count_trials(args, kwargs, _result):
                self.sampled_trials += sig.bind(*args, **kwargs).arguments["trials"]
            return count_trials
        if name == "ensemble.conditional_frequencies":
            def count_matched(args, kwargs, result):
                stats = args[0] if args else kwargs["stats"]
                self.conditioned_trials += stats.trials
                if result is not None:
                    self.matched_trials += result.sample_size
            return count_matched
        return None

    def install(self, pkg) -> None:
        modules = _prepost_modules()
        for name, module, cls_name, attr in TARGETS:
            owner_module = sys.modules[f"{pkg.__name__}.{module}"]
            if cls_name is not None:
                cls = getattr(owner_module, cls_name)
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                traced = self._wrap(name, fn, self._observer(name, fn))
                setattr(cls, attr,
                        classmethod(traced) if isinstance(raw, classmethod) else traced)
                self._restore.append((cls, attr, raw))
                continue
            fn = getattr(owner_module, attr)
            traced = self._wrap(name, fn, self._observer(name, fn))
            for m in modules:
                if getattr(m, attr, None) is fn:
                    setattr(m, attr, traced)
                    self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures, each normalized to one pass of the workload."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        impossible = 0
        for sid, (name, start, end, _, _, error) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start) - child_time[sid]
            if name == "abl.abl_distribution" and error == "ImpossiblePostSelection":
                impossible += 1

        def n_calls(name):
            return (calls.get(name, 0) / passes, "count")

        def self_s(name):
            return (own.get(name, 0.0) / passes, "s")

        def us_per_call(name):
            n = calls.get(name, 0)
            return (total.get(name, 0.0) / n * 1e6 if n else 0.0, "us")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        sampler_time = sum(total.get(n, 0.0) for n in SAMPLERS)
        return {
            "core.pvm_init.calls": n_calls("core.pvm_init"),
            "core.pvm_init.self_s": self_s("core.pvm_init"),
            "core.pvm_init.us_per_call": us_per_call("core.pvm_init"),
            "core.state_init.calls": n_calls("core.state_init"),
            "core.state_init.self_s": self_s("core.state_init"),
            "core.born.calls": n_calls("core.born"),
            "core.born.self_s": self_s("core.born"),
            "core.collapse.calls": n_calls("core.collapse"),
            "core.evolve.calls": n_calls("core.evolve"),
            "abl.abl_distribution.calls": n_calls("abl.abl_distribution"),
            "abl.abl_distribution.self_s": self_s("abl.abl_distribution"),
            "abl.abl_distribution.us_per_call": us_per_call("abl.abl_distribution"),
            "abl.post_outcome_distribution.calls": n_calls("abl.post_outcome_distribution"),
            "abl.post_outcome_distribution.self_s": self_s("abl.post_outcome_distribution"),
            "abl.impossible_ratio": ratio(impossible, calls.get("abl.abl_distribution", 0)),
            "counterfactual.from_json.self_s": self_s("counterfactual.from_json"),
            "counterfactual.evaluate.calls": n_calls("counterfactual.evaluate"),
            "counterfactual.evaluate.self_s": self_s("counterfactual.evaluate"),
            "counterfactual.evaluate.us_per_call": us_per_call("counterfactual.evaluate"),
            "counterfactual.cotenability_report.calls": n_calls("counterfactual.cotenability_report"),
            "counterfactual.cotenability_report.self_s": self_s("counterfactual.cotenability_report"),
            "ensemble.run_ensemble.calls": n_calls("ensemble.run_ensemble"),
            "ensemble.run_ensemble.self_s": self_s("ensemble.run_ensemble"),
            "ensemble.trial_outcome_labels.calls": n_calls("ensemble.trial_outcome_labels"),
            "ensemble.trial_outcome_labels.self_s": self_s("ensemble.trial_outcome_labels"),
            "ensemble.trials": (self.sampled_trials / passes, "count"),
            "ensemble.trials_per_s": (
                self.sampled_trials / sampler_time if sampler_time else 0.0, "1/s"),
            "ensemble.postselected_ratio": ratio(self.matched_trials,
                                                 self.conditioned_trials),
            "ensemble.agreement_check.calls": n_calls("ensemble.agreement_check"),
            "scenarios.run_scenario.calls": n_calls("scenarios.run_scenario"),
            "scenarios.run_scenario.self_s": self_s("scenarios.run_scenario"),
            "verify.run_verification.self_s": self_s("verify.run_verification"),
            "cli.main.self_s": self_s("cli.main"),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, span in enumerate(self.spans):
                handle.write(json.dumps([sid, *span]) + "\n")
