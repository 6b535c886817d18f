"""One input boundary.  Every object of a problem file refuses a key it does
not know with a `validation` error at the key's path; the five rules on the
coordinates an input may depend on are one `sode.check_dependence`, with
their messages unchanged; and `push` names the sample where the
automorphism's 1-jet map or Jacobian cannot be evaluated."""

import inspect
import json
import re

import numpy as np
import pytest

from chernsode import classify, cli, sode
from chernsode.cli import Problem, main
from chernsode.expressions import VarSet, parse
from chernsode.natjets import VerticalAutomorphism, prolong_vertical_field
from chernsode.riemann import MetricField
from chernsode.sode import SodeSystem

V1 = VarSet.default(1)
XY = VarSet("t", ("x1", "y"), ("v1", "w"))
BASE = {"dimension": 1, "F": ["-x1 - v1"],
        "samples": {"mode": "random", "count": 4, "seed": 7}}
VARIABLES = {"time": "t", "positions": ["x1"], "velocities": ["v1"]}


def _run(tmp_path, capsys, task, raw):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(raw))
    code = main([task, str(path)])
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


UNKNOWN_KEYS = [
    ("analyze", dict(BASE, metrik=[["1"]]), "metrik"),
    ("analyze", dict(BASE, variables=dict(VARIABLES, x=1)), "variables.x"),
    ("analyze", dict(BASE, samples=dict(BASE["samples"], cout=4)),
     "samples.cout"),
    ("analyze", dict(BASE, samples=dict(BASE["samples"],
                                        box={"times": [0, 1]})),
     "samples.box.times"),
    ("push", dict(BASE, automorphism={"phi": ["x1 + t"], "psi": ["x1 - t"]}),
     "automorphism.psi"),
    ("analyze", dict(BASE, tolerances={"x": 1e-9}), "tolerances.x"),
]


@pytest.mark.parametrize("task, raw, location", UNKNOWN_KEYS,
                         ids=[loc for _, _, loc in UNKNOWN_KEYS])
def test_unknown_key_is_refused_at_its_path(tmp_path, capsys, task, raw,
                                            location):
    code, out = _run(tmp_path, capsys, task, raw)
    assert code == 2
    key = location.rsplit(".", 1)[-1]
    assert out["error"] == {"kind": "validation",
                            "message": f"unknown key {key!r}",
                            "location": location}


def test_unknown_tolerance_is_an_unknown_key():
    with pytest.raises(cli.CliInputError) as info:
        Problem(dict(BASE, tolerances={"oracle": 1e-10, "x": 1e-9}))
    assert (info.value.kind, str(info.value), info.value.location) == (
        "validation", "unknown key 'x'", "tolerances.x")


def test_parameters_keep_their_own_location(tmp_path, capsys):
    raw = dict(BASE, variables=dict(VARIABLES, parameters=["mu"]))
    code, out = _run(tmp_path, capsys, "analyze", raw)
    assert code == 2
    assert out["error"]["location"] == "variables.parameters"
    # an empty parameter list declares none, as before
    assert Problem(dict(BASE, variables=dict(VARIABLES, parameters=[]))).n == 1


@pytest.mark.parametrize("samples", [
    {"mode": "random", "seed": 7, "count": 2, "points": [[0, 0.5, 0]]},
    {"mode": "explicit", "seed": 7, "count": 2, "points": [[0, 0.5, 0]]},
], ids=["points-in-random-mode", "seed-in-explicit-mode"])
def test_keys_of_the_other_sampling_mode_are_accepted(samples):
    problem = Problem(dict(BASE, samples=samples))
    assert len(problem.points) == (2 if samples["mode"] == "random" else 1)


def test_null_objects_read_as_absent_below_the_top_level():
    problem = Problem(dict(BASE, variables=None, tolerances=None,
                           automorphism=None, metric=None, U=None, tasks=None,
                           samples=dict(BASE["samples"], box=None)))
    assert problem.tolerances == cli.DEFAULT_TOLERANCES
    assert (problem.automorphism, problem.metric, problem.U,
            problem.tasks, problem.box) == (None, None, None, None, {})


@pytest.mark.parametrize("raw", [None, [], 3])
def test_top_level_must_be_an_object(raw):
    with pytest.raises(cli.CliInputError) as info:
        Problem(raw)
    assert (str(info.value), info.value.location) == (
        "top level must be an object", None)


@pytest.mark.parametrize("spec", [3, ["x1 + t"], {"inverse": ["x1 - t"]}])
def test_automorphism_without_phi_keeps_its_message(spec):
    with pytest.raises(cli.CliInputError) as info:
        Problem(dict(BASE, automorphism=spec))
    assert (str(info.value), info.value.location) == (
        "automorphism needs a phi list", "automorphism")


def test_problem_reads_objects_and_lists_through_one_reader_each():
    """`Problem` itself makes no dict or list check: `_object` and `_list`
    do."""
    source = inspect.getsource(Problem)
    assert not re.search(r"isinstance\([^)]*\b(dict|list)\b", source)


# --------------------------------------------------------------------------
# the coordinates an input may depend on
# --------------------------------------------------------------------------

def _e(text):
    return parse(text, V1)


DEPENDENCE = [
    (lambda: SodeSystem(vars=V1, F=(parse("y", XY),)),
     "undeclared variables in F: ['y']"),
    (lambda: MetricField(vars=V1, g=((_e("1 + v1^2"),),)),
     "metric entries depend on positions only: ['v1']"),
    (lambda: classify._check_tx([[_e("t*v1")]], V1),
     "U must depend on (t, x) only; found ['v1']"),
    (lambda: VerticalAutomorphism(vars=V1, phi=(_e("x1 + v1"),)),
     "automorphism components depend on (t, x) only: ['v1']"),
    (lambda: prolong_vertical_field((_e("x1*v1"),), V1),
     "vertical fields depend on (t, x) only: ['v1']"),
]


@pytest.mark.parametrize("build, message", DEPENDENCE,
                         ids=["F", "metric", "U", "automorphism",
                              "vertical-field"])
def test_dependence_messages_are_unchanged(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_dependence_check_names_every_extra_variable_sorted():
    with pytest.raises(ValueError, match=r"^only: \['v1', 'x1'\]$"):
        sode.check_dependence([_e("t"), _e("v1 + x1")], ["t"], "only: ")
    sode.check_dependence([_e("t"), 2.0], ["t"], "only: ")


# --------------------------------------------------------------------------
# an automorphism undefined at a sample
# --------------------------------------------------------------------------

PUSH_UNDEFINED = [
    ({"phi": ["x1 + x1^3*sqrt(x1)"]}, [0.5, -0.5, 0.3]),
    ({"phi": ["x1 + sqrt(x1)"]}, [0.5, 0, 0.3]),
    ({"phi": ["x1 + sqrt(t)"], "inverse": ["x1 - sqrt(t)"]}, [0, 0.5, 0.3]),
]


@pytest.mark.parametrize("automorphism, point", PUSH_UNDEFINED,
                         ids=["sqrt-negative", "sqrt-zero", "sqrt-time"])
def test_push_names_the_sample_where_the_automorphism_is_undefined(
        tmp_path, capsys, automorphism, point):
    raw = {"dimension": 1, "F": ["v1^2"], "automorphism": automorphism,
           "samples": {"mode": "explicit", "points": [point]}}
    code, out = _run(tmp_path, capsys, "push", raw)
    assert code == 2
    assert out["error"]["kind"] == "DomainError"
    assert out["error"]["location"] == "samples.points[0]"


def test_push_names_the_later_sample():
    raw = {"dimension": 1, "F": ["v1^2"],
           "automorphism": {"phi": ["x1 + sqrt(x1)"]},
           "samples": {"mode": "explicit",
                       "points": [[0.5, 1, 0.3], [0.5, 0, 0.3]]}}
    problem = Problem(raw)
    with pytest.raises(cli.CliInputError) as info:
        cli.task_push(problem)
    assert (info.value.kind, info.value.location) == (
        "DomainError", "samples.points[1]")


# --------------------------------------------------------------------------
# one numeric-rank helper
# --------------------------------------------------------------------------

def test_first_prolongation_ranks_with_numeric_rank(monkeypatch):
    calls = []

    def counted(rows, *args):
        calls.append(len(rows))
        return sode.numeric_rank(rows, *args)

    monkeypatch.setattr(classify, "numeric_rank", counted)
    monkeypatch.setattr(np.linalg, "matrix_rank", None)
    assert [classify.first_prolongation_dim(n) for n in range(1, 5)] \
        == [0, 0, 0, 0]
    assert len(calls) == 4
