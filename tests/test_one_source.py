"""One source for a system's arrays: the classifiers, the Riemann bridge and
`chernsode verify` read `chern.connection`, and a metric has one geodesic
spray, kept in its instance dict and freed with it.

The builder counts are taken through `cli.main` by wrapping each builder in
every module that bound it."""

import gc
import json
import weakref

import pytest

from chernsode import chern, classify, cli, riemann, sode
from chernsode.chern import (
    connection, torsion_oracle_residual, verify_characterization,
)
from chernsode.expressions import VarSet, parse
from chernsode.riemann import MetricField, geodesic_spray, sphere_metric
from chernsode.sode import SodeSystem, random_polynomial_sode, sample_points

PROBLEM = {"dimension": 2, "F": ["v1^3 - x2*v2 + t*v1", "x1*v1*v2 - v2^2"],
           "samples": {"mode": "random", "count": 5, "seed": 3},
           "metric": [["1", "0"], ["0", "1 + x1^2"]]}

BUILDERS = ("splitting_curvature", "curvature_components", "frame_symbolic",
            "coframe_symbolic", "_torsion_deltas", "reduce_residual",
            "geodesic_spray")

# builder -> calls per task; "sprays" counts the distinct systems that
# `geodesic_spray` returns.  `holonomy_spans` builds its own curvature table
# (analyze, classify), and `sode.endomorphism_E` its own frame and coframe
# (verify).
EXPECTED = {
    "verify": {"_torsion_deltas": 1, "reduce_residual": 7,
               "splitting_curvature": 1, "curvature_components": 1,
               "frame_symbolic": 2, "coframe_symbolic": 2},
    "analyze": {"splitting_curvature": 1, "curvature_components": 2},
    "classify": {"splitting_curvature": 1, "curvature_components": 2},
    "riemann": {"splitting_curvature": 1, "curvature_components": 1,
                "sprays": 1},
}


def _count_builders(monkeypatch):
    """Wrap every builder in each module that bound it; returns the call
    counts and the list of returned sprays."""
    calls, sprays = dict.fromkeys(BUILDERS, 0), []
    modules = (sode, chern, classify, riemann, cli)
    for name in BUILDERS:
        original = next(vars(m)[name] for m in modules if name in vars(m))

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            out = _original(*args, **kwargs)
            if _name == "geodesic_spray":
                sprays.append(out)
            return out

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls, sprays


@pytest.mark.parametrize("task", sorted(EXPECTED))
def test_task_builds_from_one_source(tmp_path, capsys, monkeypatch, task):
    calls, sprays = _count_builders(monkeypatch)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM))
    assert cli.main([task, str(path)]) == 0
    capsys.readouterr()
    calls["sprays"] = len({id(s) for s in sprays})
    got = {name: calls[name] for name in EXPECTED[task]}
    assert got == EXPECTED[task]


@pytest.mark.parametrize("s", [
    random_polynomial_sode(2, seed=k) for k in range(3)] + [
    SodeSystem(vars=VarSet.default(2), F=(
        parse("sin(x1)*v1^2 + t*v2", VarSet.default(2)),
        parse("exp(x2)*v1*v2 - v2^3", VarSet.default(2))))],
    ids=["poly0", "poly1", "poly2", "trig"])
def test_torsion_match_is_the_torsion_oracle(s):
    """What `verify` reports as torsion_oracle: the same reduction, bit for
    bit."""
    pts = sample_points(s.vars, 20, seed=5)
    assert verify_characterization(s, pts)["torsion_match"] \
        == torsion_oracle_residual(s, pts)


def test_one_spray_per_metric_object():
    metric = sphere_metric(VarSet.default(2))
    twin = sphere_metric(VarSet.default(2))
    assert metric == twin
    spray = geodesic_spray(metric)
    assert geodesic_spray(metric) is spray
    assert geodesic_spray(twin) is not spray
    assert geodesic_spray(twin) == spray


def test_spray_and_connection_go_with_the_metric():
    vs = VarSet.default(2)
    metric = MetricField(vars=vs, g=[[parse("1 + x1^2", vs), parse("0", vs)],
                                     [parse("0", vs), parse("1", vs)]])
    riemann.cross_check(metric, count=4)
    spray = geodesic_spray(metric)
    assert "curvature" in vars(connection(spray))
    refs = [weakref.ref(x) for x in (metric, spray, connection(spray))]
    del metric, spray
    gc.collect()
    assert all(ref() is None for ref in refs)
