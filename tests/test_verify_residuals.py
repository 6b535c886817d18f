"""`chernsode verify` has one residual set, `chern.verify_residuals`, and one
gate per residual key, `cli.residual_limit`: the CLI, the selftest's C2/C3
and `tools/oracle_probe.py` read them.  Also the spectral-gap rule that
`jets` and C7 share, `natjets.svd_gap`, and the scalar readers of
`cli.Problem`."""

import collections
import importlib.util
import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from chernsode import chern, cli, natjets, selftest
from chernsode.chern import (
    curvature_oracle_residual, eigenstructure_residual,
    verify_characterization, verify_residuals, verify_structure_identities,
)
from chernsode.cli import CliInputError, DEFAULT_TOLERANCES, Problem
from chernsode.expressions import VarSet, compile_expr, evaluate, parse
from chernsode.natjets import svd_gap
from chernsode.sode import SodeSystem, random_polynomial_sode, sample_points

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "tools" / "oracle_probe.py"
VARS = VarSet.default(2)
ORACLE_NAMES = ("verify_structure_identities", "verify_characterization",
                "torsion_oracle_residual", "curvature_oracle_residual",
                "eigenstructure_residual")


def _system(*texts):
    return SodeSystem(vars=VARS, F=tuple(parse(t, VARS) for t in texts))


SYSTEMS = {
    "polynomial": random_polynomial_sode(2, seed=61),
    "trig": _system("sin(x1)*v2^2 + cos(t)*v1", "exp(x2)*v1*v2 - sin(v1)"),
    "sqrt": _system("sqrt(x1)*v1^2", "x2*v1"),
}


def _bits(x):
    return repr(float(x))


def _direct(s, pts):
    """The residuals of `verify`, each from its own oracle call."""
    char = verify_characterization(s, pts)
    out = dict(verify_structure_identities(s, pts),
               torsion_oracle=char["torsion_match"],
               curvature_oracle=curvature_oracle_residual(s, pts))
    out.update((f"characterization_{k}", v) for k, v in char.items())
    out["eigenstructure"] = eigenstructure_residual(s, pts)
    return out


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_keys_order_and_bits_match_verify(name):
    s = SYSTEMS[name]
    pts = sample_points(s.vars, 6, seed=11)
    with np.errstate(all="ignore"):
        got = verify_residuals(s, pts)
        report = cli.task_verify(types.SimpleNamespace(
            system=s, points=pts, tolerances=dict(DEFAULT_TOLERANCES)))
        direct = _direct(s, pts)
    assert list(got) == list(report["residuals"]) == list(direct)
    assert [_bits(v) for v in got.values()] == \
        [_bits(v) for v in direct.values()]
    for key, val in got.items():
        entry = report["residuals"][key]
        assert entry["residual"] == (val if math.isfinite(val) else None)
    if name == "sqrt":
        assert all(math.isnan(v) for v in got.values())
        assert report["pass"] is False
    else:
        assert report["pass"] is True


def test_identity_battery_reads_verify_residuals():
    c2, c3 = selftest.criterion_identity_battery(count=1, points_per=5)
    assert list(c2["details"]) == [
        "eq_As", "eq_3T", "torsion_oracle", "curvature_oracle",
        "flow_parallel", "eigenstructure_parallel", "swap_parallel",
        "torsion_match"]
    s = selftest.battery_systems(1)[0]
    res = verify_residuals(s, sample_points(s.vars, 5, seed=500))
    for key, val in c2["details"].items():
        full = key if key in res else f"characterization_{key}"
        assert val == abs(res[full])
    assert c3["details"] == {"eigen_residual": res["eigenstructure"]}


def test_residual_limit_gives_the_oracle_tolerance_to_the_oracles():
    tol = {"identity": 1.0, "oracle": 2.0, "rank": 3.0}
    s = random_polynomial_sode(1, seed=5)
    pts = sample_points(s.vars, 3, seed=1)
    analyze = cli.task_analyze(types.SimpleNamespace(
        system=s, points=pts, tolerances=dict(DEFAULT_TOLERANCES)))
    keys = [*verify_residuals(s, pts), *analyze["checks"]]
    assert {k: cli.residual_limit(k, tol) for k in keys} == {
        k: 2.0 if k in ("torsion_oracle", "curvature_oracle") else 1.0
        for k in keys}


def test_analyze_gates_eigenstructure_with_the_identity_tolerance(
        monkeypatch):
    s = random_polynomial_sode(1, seed=5)
    pts = sample_points(s.vars, 3, seed=1)
    monkeypatch.setattr(cli, "eigenstructure_residual", lambda s, pts: 0.5)
    tol = dict(DEFAULT_TOLERANCES, identity=1.0)
    checks = cli.task_analyze(types.SimpleNamespace(
        system=s, points=pts, tolerances=tol))["checks"]
    assert checks["eigenstructure"] == {"residual": 0.5, "pass": True}


def _probe():
    """tools/oracle_probe.py as a module, imported without running main."""
    spec = importlib.util.spec_from_file_location("oracle_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_probe_times_the_oracles_of_verify_residuals(monkeypatch):
    called = []
    for name in ORACLE_NAMES:
        original = getattr(chern, name)

        def wrapper(*args, _name=name, _original=original):
            called.append(_name)
            return _original(*args)

        monkeypatch.setattr(chern, name, wrapper)
    s = random_polynomial_sode(2, seed=61)
    verify_residuals(s, sample_points(s.vars, 3, seed=2))
    assert [name for name, _ in _probe().ORACLES] == called


def test_probe_prints_the_verify_residuals_keys():
    # a subprocess: the probe's main rebinds expressions._plan and _Program
    done = subprocess.run([sys.executable, str(PROBE), "--n", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    labels = [line.split()[9] for line in done.stdout.splitlines()
              if not line.startswith("total")]
    s = random_polynomial_sode(1, seed=3000)
    keys = verify_residuals(s, sample_points(s.vars, 50, 1))
    assert collections.Counter(labels) == collections.Counter(list(keys))


@pytest.mark.parametrize("svals", [[4.0, 2.0, 0.0], [4.0, 2.0]],
                         ids=["zero", "missing"])
def test_svd_gap_stand_in_serialises(svals):
    gap = svd_gap(np.array(svals), 2)
    assert gap == 1e18 and type(gap) is float
    assert cli.serialize_report({"gap": gap}) == '{\n  "gap": 1e+18\n}\n'


def test_svd_gap_is_the_ratio_after_rank():
    assert svd_gap(np.array([8.0, 4.0, 1e-3]), 2) == 4.0 / 1e-3


def test_jet_ranks_report_a_rank_deficient_span(monkeypatch):
    def span(n, s, p, seed):
        rank = 11 if n == 1 else 44
        return rank, np.array([1.0] * rank + [0.0])

    monkeypatch.setattr(selftest, "distribution_span", span)
    c7 = selftest.criterion_jet_ranks()
    assert c7["details"]["gap_n1"] == c7["details"]["gap_n2"] == 1e18
    assert json.loads(cli.serialize_report(c7))["details"]["gap_n1"] == 1e18


def test_jets_and_c7_share_the_gap_rule(monkeypatch):
    seen = []

    def gap(svals, rank):
        seen.append(rank)
        return 1.0

    monkeypatch.setattr(natjets, "svd_gap", gap)
    monkeypatch.setattr(selftest, "svd_gap", gap)
    assert selftest.criterion_jet_ranks()["details"]["gap_n1"] == 1.0
    problem = Problem({"dimension": 1, "F": ["-x1 - 1.0*v1"],
                       "samples": {"mode": "random", "count": 2, "seed": 7}})
    report = cli.task_jets(problem)
    assert report["distribution_rank"]["svd_gap"] == 1.0
    assert seen == [11, 44, 11]


@pytest.mark.parametrize("value", [2, 2.5])
def test_evaluating_a_number_names_its_type(value):
    message = f"cannot evaluate {type(value).__name__}"
    with pytest.raises(TypeError, match=message):
        evaluate(value, {"x1": 1.0})
    with pytest.raises(TypeError, match=message):
        compile_expr(value, ["x1"])([1.0])


BASE = {"dimension": 1, "F": ["-x1 - 1.0*v1"],
        "samples": {"mode": "random", "count": 4, "seed": 7}}


@pytest.mark.parametrize("samples, message, location", [
    ({"mode": "random", "seed": 7, "box": {"time": [0, True]}},
     "samples.box.time must be two finite numbers [lo, hi]",
     "samples.box.time"),
    ({"mode": "explicit", "points": [[0, 0.5, 0], [0, True, 0]]},
     "point 1 entries must be finite numbers", "samples.points[1]"),
], ids=["box", "point"])
def test_json_true_is_not_a_number(samples, message, location):
    with pytest.raises(CliInputError) as info:
        Problem(dict(BASE, samples=samples))
    assert (info.value.kind, str(info.value), info.value.location) == \
        ("validation", message, location)
