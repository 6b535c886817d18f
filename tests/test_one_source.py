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


def test_torsion_oracles_share_the_connection_deltas(monkeypatch):
    """`torsion_oracle_residual` and `verify_characterization` read the
    connection's torsion deltas: one build for both, the same residual."""
    calls, _ = _count_builders(monkeypatch)
    s = random_polynomial_sode(2, seed=9)
    pts = sample_points(s.vars, 20, seed=9)
    oracle = torsion_oracle_residual(s, pts)
    match = verify_characterization(s, pts)["torsion_match"]
    assert calls["_torsion_deltas"] == 1
    assert float(oracle).hex() == float(match).hex()
    deltas = connection(s).torsion_deltas
    assert all(not delta.flags.writeable for _, delta in deltas)


def test_riemann_builds_one_christoffel_array(tmp_path, capsys, monkeypatch):
    """The spray and the metric curvature of one `riemann` task read one
    Christoffel array, kept with the metric."""
    original, calls = riemann.christoffel, []

    def counted(metric):
        calls.append(metric)
        return original(metric)

    monkeypatch.setattr(riemann, "christoffel", counted)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM))
    assert cli.main(["riemann", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    assert not vars(calls[0])["_christoffel"].flags.writeable


def test_splitting_curvature_is_the_torsion_record():
    """One (P, T) record: the splitting curvature is the connection's
    `TorsionTensor`, and the connection keeps the record it returns."""
    s = random_polynomial_sode(2, seed=11)
    sc = sode.splitting_curvature(s, check="none")
    assert isinstance(sc, chern.TorsionTensor)
    assert sode.TorsionTensor is chern.TorsionTensor
    assert type(connection(s).torsion) is chern.TorsionTensor


@pytest.mark.parametrize("name", ["torsion", "curvature"])
def test_checked_tensors_are_the_connection_fields(name):
    s = random_polynomial_sode(2, seed=12)
    assert getattr(chern, name)(s, check="numeric") \
        is getattr(connection(s), name)


def test_torsion_check_and_oracle_build_once(monkeypatch):
    """`torsion(s, "numeric")` checks the connection's torsion deltas, so the
    torsion oracle after it builds nothing again."""
    calls, _ = _count_builders(monkeypatch)
    s = random_polynomial_sode(2, seed=13)
    pts = sample_points(s.vars, 10, seed=13)
    chern.torsion(s, "numeric")
    torsion_oracle_residual(s, pts)
    assert calls["splitting_curvature"] == 1
    assert calls["_torsion_deltas"] == 1
