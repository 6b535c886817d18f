"""The one residual path: the NaN-aware fold, the witness of the reducer,
and the report entries that carry a non-finite residual as a failure."""

import json
import math

import numpy as np
import pytest

from chernsode import cli
from chernsode.expressions import VarSet, parse
from chernsode.natjets import infinitesimal_equivariance, random_polynomial_field
from chernsode.sode import (
    JetPoint1, SodeSystem, point_batch, reduce_residual, worst_abs,
)


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


def write(tmp_path, payload):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return str(path)


# x1 = -0.5 lies outside the domain of sqrt(x1)
HALF_DOMAIN = {"mode": "explicit", "points": [[0.3, 0.5, 0.2], [0.3, -0.5, 0.2]]}


class TestWorstAbs:
    def test_empty(self):
        assert worst_abs() == 0.0 and worst_abs([]) == 0.0
        assert worst_abs(np.zeros(0), []) == 0.0

    def test_finite(self):
        assert worst_abs([0.5, -3.25, 1.0]) == 3.25
        assert worst_abs(2.0, np.array([[-1.0], [2.5]])) == 2.5

    def test_nan(self):
        assert math.isnan(worst_abs([1.0, float("nan")]))
        assert math.isnan(worst_abs([float("nan"), 1.0]))
        assert math.isnan(worst_abs(5.0, [float("nan")]))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_inf(self, bad):
        assert math.isnan(worst_abs([1.0, bad]))
        assert math.isnan(worst_abs(bad))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestReduceResidualWitness:
    S = make(1, "0")
    PTS = [JetPoint1(0.0, (x,), (0.5,)) for x in (0.25, -1.0, 0.5, -1.0)]

    def reduce(self, *blocks):
        arrays = [(label, [parse(e, self.S.vars) for e in entries])
                  for label, entries in blocks]
        return reduce_residual(arrays, self.S,
                               point_batch(self.S.vars, self.PTS))

    def test_signed_worst_and_first_tie(self):
        r = self.reduce(("a", ["x1", "2*x1"]), ("b", ["-2*x1"]))
        assert (r.worst, r.label, r.entry, r.point, r.value) == \
            (2.0, "a", 1, 1, -2.0)
        assert r.nonfinite == 0

    def test_constant_entry(self):
        r = self.reduce(("a", ["x1"]), ("c", ["-3"]))
        assert (r.worst, r.label, r.entry, r.point, r.value) == \
            (3.0, "c", 0, 0, -3.0)

    def test_non_finite_ranks_first(self):
        r = self.reduce(("a", ["100*x1"]), ("b", ["x1", "sqrt(x1)"]),
                        ("c", ["log(x1)"]))
        assert math.isnan(r.worst) and math.isnan(r.value)
        assert (r.label, r.entry, r.point, r.nonfinite) == ("b", 1, 1, 4)

    def test_empty(self):
        r = self.reduce()
        assert r.worst == 0.0 and r.label is None and r.point is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_equivariance_nan_outside_domain():
    s = make(1, "sqrt(x1)*v1^2")
    u = random_polynomial_field(s.vars, seed=9000, degree=3)
    res_p, res_t = infinitesimal_equivariance(
        s, u, JetPoint1(0.3, (-0.5,), (0.2,)))
    assert math.isnan(res_p) and math.isnan(res_t)
    assert infinitesimal_equivariance(
        s, u, JetPoint1(0.3, (0.5,), (0.2,)))[0] < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestReports:
    def test_jets_nan_equivariance_fails(self, tmp_path, capsys):
        path = write(tmp_path, {"dimension": 1, "F": ["sqrt(x1)*v1^2"],
                                "samples": HALF_DOMAIN})
        assert cli.main(["jets", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["equivariance"] == {"residual": None, "pass": False}
        assert report["pass"] is False

    def test_classify_non_finite_u_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, {"dimension": 1, "F": ["-x1"],
                                "U": [["sqrt(x1) + 1"]],
                                "samples": HALF_DOMAIN})
        assert cli.main(["classify", path]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "NotPositiveDefinite"
        assert "not finite" in err["message"] and "-0.5" in err["message"]

    def test_residual_entry(self):
        assert cli._residual_entry(1e-12, 1e-9, tolerance=1e-9) == \
            {"residual": 1e-12, "tolerance": 1e-9, "pass": True}
        assert cli._residual_entry(float("nan"), 1e-9) == \
            {"residual": None, "pass": False}
        assert cli._residual_entry(float("inf"), 1e-9)["pass"] is False

    def test_unserialisable_report_exit_2(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setitem(cli.TASK_RUNNERS, "analyze",
                            lambda problem: {"stray": float("nan"),
                                             "pass": True})
        path = write(tmp_path, {"dimension": 1, "F": ["-x1"],
                                "samples": HALF_DOMAIN})
        assert cli.main(["analyze", path]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert "non-finite" in err["message"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_non_finite_every_residual_null(tmp_path, capsys):
    path = write(tmp_path, {"dimension": 1, "F": ["sqrt(x1)*v1^2"],
                            "samples": {"mode": "random", "count": 6,
                                        "seed": 1}})
    assert cli.main(["verify", path]) == 1
    report = json.loads(capsys.readouterr().out)
    residuals = report["residuals"]
    assert "eigenstructure" in residuals
    assert all(r["residual"] is None and r["pass"] is False
               for r in residuals.values()), residuals
    assert report["pass"] is False


def test_reduce_skips_zero_entries(monkeypatch):
    """ZERO entries are not compiled, and the witness still counts them."""
    from chernsode import sode
    from chernsode.expressions import ZERO
    compiled, real = [], sode.compile_expr
    monkeypatch.setattr(sode, "compile_expr",
                        lambda e, names: compiled.append(e) or real(e, names))
    case = TestReduceResidualWitness
    two_x = parse("2*x1", case.S.vars)
    r = reduce_residual([("a", [ZERO, ZERO]), ("b", [ZERO, two_x, ZERO])],
                        case.S, point_batch(case.S.vars, case.PTS))
    assert (r.worst, r.label, r.entry, r.point) == (2.0, "b", 1, 1)
    assert compiled == [two_x]
