"""The exit-code contract under mutated input, through the command line.

A valid `evaluate --config` document and valid `scenario --params` objects
are mutated with wrong JSON types, NaN, infinities, huge integers, empty or
ragged matrices and mismatched dimensions; flags and subcommands are
misspelled or out of range. Every run must exit 0 or 2: never 1, and never
with an exception escaping `main`, which a user would see as a traceback.
An exit 2 prints exactly one stderr line and no report; an exit 0 prints
nothing to stderr. Warnings are recorded, since outside the tests Python
prints them to stderr.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepost.cli import main
from prepost.scenarios import available_scenarios

CONFIG = json.loads((Path(__file__).resolve().parent.parent / "configs"
                     / "aad_single.json").read_text())


def _paths(node, prefix=()):
    """Every position in a JSON tree, the root () included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, prefix + (key,))


PATHS = tuple(_paths(CONFIG))


def _pair(x):
    return [x, 0.0]


# Values no field accepts in this position, or accepts only at another size.
BAD_VALUES = st.one_of(
    st.sampled_from([
        None, True, False, "", "x+", "measure", {}, [], [[]], [[[]]],
        float("nan"), float("inf"), float("-inf"), 10**400, -10**400, 2**63,
        [[1.0, 0.0], [0.0]],                                   # ragged pairs
        [[_pair(1.0), _pair(0.0)], [_pair(0.0)]],              # ragged matrix
        [_pair(1.0), _pair(0.0), _pair(0.0)],                  # three amplitudes
        [[_pair(float(i == j)) for j in range(3)] for i in range(3)],  # 3x3
        [[_pair(1e308), _pair(1e308)], [_pair(1e308), _pair(1e308)]],
        {"matrix": [[_pair(0.0), _pair(1.0)], [_pair(1.0), _pair(0.0)]]},
        {"kind": "unitary", "unitary": {"matrix": [[_pair(1.0)]]}},
        {"kind": "measure", "pvm": {"outcomes": []}},
        {"kind": "filter"},
    ]),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
)


def _run(*argv: str) -> tuple[int, str, str, list]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _assert_contract(code: int, out: str, err: str, caught: list) -> None:
    assert code in (0, 2), (code, err)
    assert caught == []
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert out == ""
    else:
        assert err == ""


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(PATHS), BAD_VALUES),
                          min_size=1, max_size=3))
def test_mutated_config_exits_0_or_2_with_one_line(tmp_path_factory, mutations):
    doc = copy.deepcopy(CONFIG)
    for path, value in mutations:
        value = copy.deepcopy(value)  # a later mutation may write into it; the strategy shares it
        if not path:
            doc = value
            continue
        target = doc
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed this position
    config = tmp_path_factory.mktemp("config") / "statement.json"
    config.write_text(json.dumps(doc))
    _assert_contract(*_run("evaluate", "--config", str(config)))


SCENARIOS = tuple(info.name for info in available_scenarios())
PARAM_NAMES = tuple(sorted({p.name for info in available_scenarios()
                            for p in info.params})) + ("", "boxes")


# No arbitrary finite numbers here: a valid theta or n_coins runs the
# scenario's statistical gates, whose failure (exit 1) is not an input error.
PARAM_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "A", "B", "C", [], {}, [1.0], {"theta": 1.0},
                     float("nan"), float("inf"), float("-inf"), 10**400, -10**400, 2**63,
                     -1, 0, 1, 2, 20, 21, 0.0, -0.0, 1e-300, 1.5707963267948966, 2.5]),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(SCENARIOS),
       params=st.dictionaries(st.sampled_from(PARAM_NAMES), PARAM_VALUES, max_size=3))
def test_mutated_params_exit_0_or_2_with_one_line(name, params):
    _assert_contract(*_run("scenario", name, "--params", json.dumps(params),
                           "--trials", "500"))


@pytest.mark.parametrize("argv", [
    ("scenario", "three_box", "--params", "[1]"),
    ("scenario", "three_box", "--params", "{"),
    ("scenario", "three_box", "--trials", "0"),
    ("scenario", "three_box", "--trials", "-5"),
    ("scenario", "three_box", "--trials", "abc"),
    ("verify", "--workers", "65"),
    ("list", "--bogus"),
    ("list", "--bogus\nline"),
    ("bogus",),
    (),
])
def test_usage_error_exits_2_with_one_line(argv):
    code, out, err, caught = _run(*argv)
    assert code == 2
    _assert_contract(code, out, err, caught)


@pytest.mark.parametrize("command", [(), ("scenario",), ("evaluate",), ("verify",), ("list",)])
def test_help_prints_the_usage_block(command):
    code, out, err, caught = _run(*command, "--help")
    assert (code, err, caught) == (0, "", [])
    assert out.startswith(f"usage: prepost {' '.join(command)}".rstrip() + " ")
