"""An inverse automorphism of the wrong length, variable lists given as
strings or objects, and a U that depends on the velocities: each exits 2 with
a validation error at its field, and nothing reaches stderr."""

import json

import pytest

from chernsode.cli import main


def _run(tmp_path, capsys, task, raw):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(raw))
    code = main([task, str(path)])
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


def _problem(n, **fields):
    return dict({"dimension": n,
                 "F": [f"-x{i + 1} - v{i + 1}" for i in range(n)],
                 "samples": {"mode": "random", "count": 4, "seed": 7}},
                **fields)


@pytest.mark.parametrize("n", [1, 2])
def test_empty_inverse_names_the_automorphism(tmp_path, capsys, n):
    phi = ["x1 + t"] + [f"x{i + 1}" for i in range(1, n)]
    raw = _problem(n, automorphism={"phi": phi, "inverse": []})
    code, out = _run(tmp_path, capsys, "push", raw)
    assert code == 2
    assert out["error"] == {"kind": "validation",
                            "message": f"automorphism needs {n} components",
                            "location": "automorphism"}


@pytest.mark.parametrize("variables", [
    {"time": "t", "positions": "xy", "velocities": ["u", "w"]},
    {"time": "t", "positions": ["x", "y"], "velocities": "uw"},
    {"time": "t", "positions": {"x": 0, "y": 0}, "velocities": ["u", "w"]},
], ids=["positions-string", "velocities-string", "positions-object"])
def test_variable_lists_must_be_lists(tmp_path, capsys, variables):
    raw = _problem(2, variables=variables, F=["-x", "-y"])
    code, out = _run(tmp_path, capsys, "verify", raw)
    assert code == 2
    assert out["error"]["kind"] == "validation"
    assert out["error"]["location"] == "variables"


@pytest.mark.parametrize("task", ["classify", "analyze"])
def test_velocity_dependent_U_names_U(tmp_path, capsys, task):
    code, out = _run(tmp_path, capsys, task, _problem(1, U=[["1 + v1^2"]]))
    assert code == 2
    assert out["error"] == {
        "kind": "validation",
        "message": "U must depend on (t, x) only; found ['v1']",
        "location": "U"}
