"""One connection per system: `chern.connection`.

Each field of a system's `Connection` is built once, on first use, by the
module-level builder of its name, and is frozen read-only; the oracles of
one `chernsode verify` or `analyze` share them.  The system holds its
connection, which goes with it; an equal but distinct system has its own."""

import gc
import json
import weakref

import pytest

from chernsode import chern, cli
from chernsode.chern import (
    Connection, connection, frame_christoffels, verify_characterization,
)
from chernsode.expressions import ZERO, VarSet, parse
from chernsode.sode import (
    SodeSystem, random_polynomial_sode, sample_points, splitting_curvature,
)

ARRAY_FIELDS = ("frame", "coframe", "gamma", "structure_functions",
                "torsion_array", "curvature_array")


def _fields(conn):
    """(name, array) for every array the connection holds."""
    out = [(name, getattr(conn, name)) for name in ARRAY_FIELDS]
    out += [(f"torsion.{k}", getattr(conn.torsion, k)) for k in "PT"]
    out += [(f"curvature.{k}", getattr(conn.curvature, k)) for k in "ABR"]
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_every_field_is_read_only(n):
    s = random_polynomial_sode(n, seed=3)
    conn = connection(s)
    for name, arr in _fields(conn):
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = ZERO


def test_one_connection_per_system_object():
    s = random_polynomial_sode(1, seed=3)
    twin = random_polynomial_sode(1, seed=3)
    assert s == twin
    assert isinstance(connection(s), Connection)
    assert connection(s) is connection(s)
    assert connection(twin) is not connection(s)
    assert connection(s).system is s


def test_a_connection_without_its_system_says_so():
    conn = connection(random_polynomial_sode(1, seed=3))
    gc.collect()
    with pytest.raises(ReferenceError):
        conn.gamma


def test_fields_are_built_once_and_builders_stay_fresh():
    s = random_polynomial_sode(2, seed=61)
    conn = connection(s)
    assert conn.gamma is conn.gamma and conn.torsion is conn.torsion
    gamma = frame_christoffels(s)
    assert gamma is not conn.gamma and gamma.flags.writeable
    assert all(a is b for a, b in zip(gamma.flat, conn.gamma.flat))
    P = splitting_curvature(s, check="none").P
    assert P is not conn.torsion.P and P.flags.writeable
    curv = chern.curvature_components(s)
    assert curv.A is not conn.curvature.A and curv.A.flags.writeable


PROBLEM = {"dimension": 2, "F": ["v1^3 - x2*v2 + t*v1", "x1*v1*v2 - v2^2"],
           "samples": {"mode": "random", "count": 5, "seed": 3}}


@pytest.mark.parametrize("task", ["verify", "analyze"])
def test_task_builds_each_array_once(tmp_path, capsys, monkeypatch, task):
    """One call of every builder behind the connection per task run."""
    calls = {}

    def counted(name):
        original = getattr(chern, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(chern, name, wrapper)

    names = ("_structure_functions", "_curvature_array", "_torsion_array",
             "frame_christoffels", "frame_symbolic", "coframe_symbolic",
             "splitting_curvature", "curvature_components")
    for name in names:
        counted(name)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM))
    assert cli.main([task, str(path)]) == 0
    capsys.readouterr()
    assert calls == dict.fromkeys(names, 1)


def test_connection_goes_with_its_system():
    s = random_polynomial_sode(1, seed=3)
    pts = sample_points(s.vars, 4, seed=1)
    chern.verify_structure_identities(s, pts)
    verify_characterization(s, pts)
    assert "curvature_array" in vars(connection(s))
    system_ref, conn_ref = weakref.ref(s), weakref.ref(connection(s))
    del s
    gc.collect()
    assert system_ref() is None and conn_ref() is None


def test_shifted_gamma_is_never_shared():
    """A w_shift call builds its Gamma for itself: the unshifted call after
    it reads the values of a system that never saw a shift."""
    pts = sample_points(VarSet.default(2), 10, seed=3)
    s = random_polynomial_sode(2, seed=300)
    shifted = verify_characterization(s, pts, w_shift=1)
    plain = verify_characterization(s, pts)
    assert plain == verify_characterization(
        random_polynomial_sode(2, seed=300), pts)
    assert shifted == verify_characterization(
        random_polynomial_sode(2, seed=300), pts, w_shift=1)
    assert shifted["torsion_match"] >= 0.5
    assert all(v <= 1e-10 for v in plain.values()), plain
    assert all(a is b for a, b in zip(connection(s).gamma.flat,
                                      frame_christoffels(s).flat))


def test_definitions_read_the_connection_arrays():
    """The definition paths without gamma return fresh arrays holding the
    nodes of the connection's torsion and curvature arrays."""
    vs = VarSet.default(1)
    s = SodeSystem(vars=vs, F=(parse("sin(x1)*v1^2 + t*v1", vs),))
    conn = connection(s)
    for got, want in [
            (chern.torsion_definition(s, 0, 1), conn.torsion_array[0, 1]),
            (chern.torsion_definition(s, 1, 0), -conn.torsion_array[0, 1]),
            (chern.curvature_definition(s, 1, 2, 1),
             conn.curvature_array[1, 2, 1]),
            (chern.curvature_definition(s, 2, 1, 1),
             -conn.curvature_array[1, 2, 1])]:
        assert got.flags.writeable
        assert all(a is b for a, b in zip(got, want))


def test_verify_builds_lie_derivative_J_once(tmp_path, capsys, monkeypatch):
    """The characterization and the eigenstructure residual of one `verify`
    read the connection's frozen L_X J."""
    calls, build = [], chern.lie_derivative_J

    def counted(s):
        calls.append(s)
        return build(s)

    monkeypatch.setattr(chern, "lie_derivative_J", counted)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM))
    assert cli.main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    L = connection(calls[0]).lie_derivative_J
    assert not L.flags.writeable
    assert all(a is b for a, b in zip(L.flat, build(calls[0]).flat))
