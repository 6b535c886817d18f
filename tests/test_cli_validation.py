"""Malformed problem files: each exits 2 with a validation report that names
the offending field, and nothing reaches stderr."""

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from chernsode.cli import CliInputError, Problem, main
from chernsode.sode import JetPoints

BASE = {"dimension": 1, "F": ["-x1 - 1.0*v1"],
        "samples": {"mode": "random", "count": 4, "seed": 7}}


def _with(path, value):
    """BASE with the field at `path` (a tuple of keys) set to value."""
    raw = copy.deepcopy(BASE)
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return raw


def _explicit(points):
    return _with(("samples",), {"mode": "explicit", "points": points})


MALFORMED = [
    # (problem, location)
    (_with(("samples",), 3), "samples"),
    (_with(("samples", "box"), 3), "samples.box"),
    (_with(("samples", "box"), {"time": 5}), "samples.box.time"),
    (_with(("samples", "seed"), None), "samples.seed"),
    (_with(("samples", "count"), None), "samples.count"),
    (_with(("tolerances",), 3), "tolerances"),
    (_with(("tolerances",), {"oracle": None}), "tolerances.oracle"),
    (_with(("tasks",), 3), "tasks"),
    (_with(("metric",), [[1]]), "metric[0][0]"),
    (_with(("U",), [[1]]), "U[0][0]"),
    (_with(("automorphism",), {"phi": [1]}), "automorphism.phi[0]"),
    (_explicit([[0, None, 0]]), "samples.points[0]"),
    (_explicit([5]), "samples.points[0]"),
    (_explicit([[0, "a", 0]]), "samples.points[0]"),
    (_explicit([[0, 0.5, 0], [0, math.inf, 0]]), "samples.points[1]"),
    (_with(("samples", "seed"), "a"), "samples.seed"),
    (_with(("samples", "box"), {"time": [0, "a"]}), "samples.box.time"),
    # booleans where an integer is expected
    (_with(("dimension",), True), "dimension"),
    (_with(("samples", "seed"), True), "samples.seed"),
    (_with(("samples", "count"), False), "samples.count"),
    # tolerances that are not a finite number >= 0
    (_with(("tolerances",), {"oracle": -1e-9}), "tolerances.oracle"),
    (_with(("tolerances",), {"rank": "1e-8"}), "tolerances.rank"),
    (_with(("tolerances",), {"identity": True}), "tolerances.identity"),
    # variables declaring more coordinates than the dimension
    (_with(("variables",), {"time": "s", "positions": ["q", "r"],
                            "velocities": ["p", "w"]}), "variables"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("raw, location", MALFORMED,
                         ids=[loc for _, loc in MALFORMED])
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, raw,
                                                  location):
    path = tmp_path / "problem.json"
    # json writes math.inf as the literal Infinity, which json.load reads back
    path.write_text(json.dumps(raw))
    assert main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)["error"]
    assert report["kind"] == "validation"
    assert report["location"] == location


def test_overflowing_point_literal_names_the_point(tmp_path, capsys):
    # 1e400 parses as an infinite float
    text = json.dumps(_explicit([[0, 0.5, 0]])).replace("0.5", "1e400")
    path = tmp_path / "problem.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["error"]["location"] == "samples.points[0]"


def test_explicit_points_are_one_jet_points_batch():
    problem = Problem(_explicit([[0, 0.5, 0.25], [1, -2, 3]]))
    assert isinstance(problem.points, JetPoints)
    assert [p.row for p in problem.points] == [[0.0, 0.5, 0.25],
                                               [1.0, -2.0, 3.0]]


# --------------------------------------------------------------------------
# arbitrary JSON in every field
# --------------------------------------------------------------------------

EXPR_TEXTS = st.sampled_from(["x1", "t*v1", "1/0", "-x1 - v1", "x1^2", "v1^",
                              "sin(x1)", "0"])
LEAVES = (st.none() | st.booleans() | st.integers(-5, 60)
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.text(max_size=20) | EXPR_TEXTS)
KEYS = st.sampled_from(["mode", "seed", "count", "box", "time", "points",
                        "phi", "oracle", "positions"])
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5) | KEYS, inner, max_size=3),
    max_leaves=10)


# valid problems, one per sampling mode, exercising every field Problem reads
VALID = [
    {"dimension": 1, "F": ["-x1 - v1"], "metric": [["1 + x1^2"]],
     "U": [["1"]], "automorphism": {"phi": ["x1 + t"], "inverse": ["x1 - t"]},
     "samples": {"mode": "random", "seed": 3, "count": 5,
                 "box": {"time": [0, 1], "position": [-1, 1],
                         "velocity": [-1, 1]}},
     "tolerances": {"identity": 1e-9, "oracle": 1e-10, "rank": 1e-8},
     "tasks": ["analyze", "push"]},
    {"dimension": 1, "F": ["-x1 - v1"],
     "samples": {"mode": "explicit", "points": [[0, 0.5, 0.1], [1, 2, 3]]}},
]
# fields, as key paths, that a drawn problem replaces with arbitrary JSON
FIELDS = [
    ("dimension",), ("variables",), ("F",), ("F", 0), ("metric",),
    ("metric", 0), ("metric", 0, 0), ("U", 0, 0), ("automorphism",),
    ("automorphism", "phi"), ("automorphism", "phi", 0),
    ("automorphism", "inverse"), ("samples",), ("samples", "mode"),
    ("samples", "seed"), ("samples", "count"), ("samples", "box"),
    ("samples", "box", "time"), ("samples", "box", "position", 1),
    ("samples", "points"), ("samples", "points", 0),
    ("samples", "points", 1, 2), ("tolerances",), ("tolerances", "oracle"),
    ("tasks",), ("tasks", 0),
]


@st.composite
def problems(draw):
    """A valid problem with one to three of its fields replaced by
    arbitrary JSON."""
    raw = copy.deepcopy(draw(st.sampled_from(VALID)))
    for path in draw(st.lists(st.sampled_from(FIELDS), min_size=1,
                              max_size=3, unique=True)):
        node = raw
        for key in path[:-1]:
            node = node[key] if isinstance(node, (dict, list)) \
                and _has(node, key) else None
        if isinstance(node, dict) or (isinstance(node, list)
                                      and _has(node, path[-1])):
            node[path[-1]] = draw(JSON)
    return raw


def _has(node, key):
    if isinstance(node, dict):
        return key in node
    return isinstance(key, int) and key < len(node)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_problem_raises_only_input_errors(raw):
    try:
        problem = Problem(raw)
    except CliInputError:
        return
    assert isinstance(problem.points, JetPoints) and len(problem.points)


@pytest.mark.parametrize("task, field", [("classify", "U"),
                                         ("riemann", "metric")])
def test_indefinite_matrix_names_its_field(tmp_path, capsys, task, field):
    """x1 < 0 at some sample: the error names the input the matrix came
    from, in its location and in its message."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_with((field,), [["x1"]])))
    assert main([task, str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)["error"]
    assert report["kind"] == "NotPositiveDefinite"
    assert report["location"] == field
    assert report["message"].startswith(f"{field} not positive definite at ")
