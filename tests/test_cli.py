import json
import subprocess
import sys

import pytest

from chernsode.cli import emit_json, main, run, serialize_report


def write(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


OSC = {
    "dimension": 1,
    "F": ["-x1 - 1.0*v1"],
    "samples": {"mode": "random", "count": 6, "seed": 7},
}


class TestEmitJson:
    def test_floats_17g(self):
        assert emit_json(0.1) == "0.10000000000000001"
        assert emit_json(0.75) == "0.75"
        assert emit_json(0.0) == "0"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            emit_json(float("nan"))

    def test_nesting(self):
        text = emit_json({"a": [1, 2.5], "b": {"c": True, "d": None}})
        assert json.loads(text) == {"a": [1, 2.5], "b": {"c": True, "d": None}}


class TestRun:
    def test_analyze_flat(self, tmp_path):
        payload = {"dimension": 1, "F": ["0"],
                   "samples": {"mode": "random", "count": 5, "seed": 1}}
        report = run(write(tmp_path, payload), "analyze")
        assert report["pass"] is True
        for key in ("P", "T", "A", "B", "R"):
            flat = json.loads(json.dumps(report["components"][key]))
            stack = [flat]
            while stack:
                node = stack.pop()
                if isinstance(node, list):
                    stack.extend(node)
                else:
                    assert node == 0

    def test_analyze_oscillator(self, tmp_path):
        report = run(write(tmp_path, OSC), "analyze")
        assert report["pass"] is True
        p_values = report["components"]["P"][0][0]
        assert all(abs(v - 0.75) < 1e-14 for v in p_values)
        assert report["kosambi"]["charpoly_symbolic"] == ["1", "3/4"]

    def test_explicit_points(self, tmp_path):
        payload = dict(OSC)
        payload["samples"] = {"mode": "explicit",
                              "points": [[0.0, 1.0, 0.5], [0.2, -0.3, 0.1]]}
        report = run(write(tmp_path, payload), "verify")
        assert report["pass"] is True
        assert report["points"] == 2

    def test_task_whitelist(self, tmp_path):
        payload = dict(OSC)
        payload["tasks"] = ["analyze"]
        from chernsode.cli import CliInputError
        with pytest.raises(CliInputError):
            run(write(tmp_path, payload), "verify")

    def test_unknown_task_in_list(self, tmp_path):
        payload = dict(OSC)
        payload["tasks"] = ["analyze", "frobnicate"]
        from chernsode.cli import CliInputError
        with pytest.raises(CliInputError):
            run(write(tmp_path, payload), "analyze")

    def test_missing_seed(self, tmp_path):
        payload = dict(OSC)
        payload["samples"] = {"mode": "random", "count": 3}
        from chernsode.cli import CliInputError
        with pytest.raises(CliInputError) as err:
            run(write(tmp_path, payload), "analyze")
        assert err.value.location == "samples.seed"


class TestMainExitCodes:
    def test_ok(self, tmp_path, capsys):
        assert main(["analyze", write(tmp_path, OSC)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["pass"] is True

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        bad = dict(OSC)
        bad["F"] = ["x1*"]
        assert main(["analyze", write(tmp_path, bad)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "syntax"
        assert err["location"] == "F[0]"
        assert "position" in err["message"]

    def test_unknown_identifier_exit_2(self, tmp_path, capsys):
        bad = dict(OSC)
        bad["F"] = ["x3"]
        assert main(["analyze", write(tmp_path, bad)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "syntax"

    def test_missing_file_exit_2(self, capsys):
        assert main(["analyze", "/nonexistent/nope.json"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "io"

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "json"

    def test_unknown_task_exit_2(self, tmp_path, capsys):
        assert main(["explode", write(tmp_path, OSC)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "validation"

    def test_violation_exit_1(self, tmp_path, capsys):
        # force a failing check with an absurd tolerance
        payload = dict(OSC)
        payload["F"] = ["v1^3"]
        payload["tolerances"] = {"identity": 1e-30, "oracle": 1e-30}
        assert main(["verify", write(tmp_path, payload)]) == 1

    def test_push_needs_automorphism(self, tmp_path, capsys):
        assert main(["push", write(tmp_path, OSC)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["location"] == "automorphism"

    def test_constant_division_by_zero_exit_2(self, tmp_path, capsys):
        bad = dict(OSC)
        bad["F"] = ["1/0 + x1"]
        assert main(["analyze", write(tmp_path, bad)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "DomainError"

    def test_custom_variable_names(self, tmp_path):
        payload = {
            "dimension": 1,
            "variables": {"time": "s", "positions": ["q"],
                          "velocities": ["qdot"]},
            "F": ["-q - 1.0*qdot"],
            "samples": {"mode": "random", "count": 4, "seed": 2},
        }
        report = run(write(tmp_path, payload), "analyze")
        assert report["pass"] is True
        assert all(abs(v - 0.75) < 1e-14
                   for v in report["components"]["P"][0][0])

    def test_parameters_rejected(self, tmp_path, capsys):
        payload = {
            "dimension": 1,
            "variables": {"time": "t", "positions": ["x1"],
                          "velocities": ["v1"], "parameters": ["mu"]},
            "F": ["-mu*x1"],
            "samples": {"mode": "random", "count": 2, "seed": 2},
        }
        assert main(["analyze", write(tmp_path, payload)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["location"] == "variables.parameters"

    @pytest.mark.parametrize("task", ["jets", "classify"])
    def test_zero_sample_count_exit_2(self, tmp_path, capsys, task):
        payload = dict(OSC)
        payload["samples"] = {"mode": "random", "count": 0, "seed": 7}
        assert main([task, write(tmp_path, payload)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "validation"
        assert err["location"] == "samples.count"

    @pytest.mark.parametrize("variables", ["abc", ["t", "x1", "v1"]])
    def test_non_object_variables_exit_2(self, tmp_path, capsys, variables):
        payload = dict(OSC, variables=variables)
        assert main(["analyze", write(tmp_path, payload)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "validation"
        assert err["location"] == "variables"

    def test_analyze_dense_n2(self, tmp_path, capsys, dense2_F):
        # its Kosambi coefficients and their compiled sums run to 3375 terms
        payload = {"dimension": 2, "F": dense2_F,
                   "samples": {"mode": "random", "count": 20, "seed": 5}}
        assert main(["analyze", write(tmp_path, payload)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True


def test_byte_identical_reports(tmp_path):
    spec = write(tmp_path, OSC)
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "chernsode.cli", "analyze", spec],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_report_is_valid_json(tmp_path):
    report = run(write(tmp_path, OSC), "classify")
    parsed = json.loads(serialize_report(report))
    assert parsed["task"] == "classify"
    assert parsed["unimodular"]["status"] == "symbolic-zero"


SQRT_F = {"dimension": 1, "F": ["sqrt(x1)*v1^2"]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_outside_domain_is_quiet(tmp_path):
    """Values that are not finite read null in the report; numpy's warnings
    about them stay off stderr."""
    path = write(tmp_path, {**SQRT_F, "samples": {"mode": "random",
                                                  "count": 6, "seed": 1}})
    proc = subprocess.run([sys.executable, "-m", "chernsode.cli", "verify",
                           path], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout == serialize_report(run(path, "verify"))
    assert all(r["residual"] is None
               for r in json.loads(proc.stdout)["residuals"].values())


def test_push_domain_error_names_sample(tmp_path, capsys):
    path = write(tmp_path, {
        **SQRT_F,
        "automorphism": {"phi": ["x1 + t^2"], "inverse": ["x1 - t^2"]},
        "samples": {"mode": "explicit",
                    "points": [[0.3, 0.5, 0.2], [0.3, -0.5, 0.2]]}})
    assert main(["push", path]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "DomainError"
    assert err["location"] == "samples.points[1]"


LOG_F = {"dimension": 1, "F": ["log(x1)*v1^3"],
         "samples": {"mode": "random", "count": 6, "seed": 1}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("task", ["analyze", "classify"])
def test_non_finite_curvature_fails_with_a_report(tmp_path, task):
    """Curvature that is not finite at a sample is a failed check (exit 1)
    with a full report, not an unusable input."""
    path = write(tmp_path, LOG_F)
    proc = subprocess.run([sys.executable, "-m", "chernsode.cli", task, path],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert "error" not in report
    assert report["task"] == task and report["pass"] is False
    assert proc.stdout == serialize_report(run(path, task))
    if task == "classify":
        assert report["holonomy_span_dim"] is None
    else:
        assert None in report["holonomy_span_per_point"]
        assert None in report["components"]["P"][0][0]
        assert all(c["residual"] is None for c in report["checks"].values())


HUGE_F = {"dimension": 1, "F": ["10^400*v1^2"],
          "samples": {"mode": "random", "count": 6, "seed": 1}}


@pytest.mark.parametrize("task, code", [
    ("analyze", 1), ("verify", 1), ("classify", 1), ("jets", 2),
])
def test_constant_beyond_float_range_is_quiet(tmp_path, task, code):
    """A constant too large for a float evaluates as inf: the checks fail
    with null residuals, jets cannot use the input, and no traceback shows."""
    path = write(tmp_path, HUGE_F)
    proc = subprocess.run([sys.executable, "-m", "chernsode.cli", task, path],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, "")
    report = json.loads(proc.stdout)
    if code == 2:
        assert report["error"]["kind"] == "LinAlgError"
        return
    assert report["pass"] is False
    if task == "classify":
        assert report["holonomy_span_dim"] is None
    else:
        checks = report["checks" if task == "analyze" else "residuals"]
        assert all(c["residual"] is None for c in checks.values()), checks
