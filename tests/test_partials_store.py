"""One store for the partials of F: `sode.F_partials` builds F_v, F_x, F_vv,
F_xv and F_vvv once per system object, and the connection builds dP/dv once
(`Connection.dP`).

The call counts are taken through `cli.main` by wrapping `_jacobian` in
every module that bound it."""

import json
import weakref

import numpy as np
import pytest

from chernsode import chern, classify, cli, natjets, riemann, selftest, sode
from chernsode.chern import connection
from chernsode.sode import (
    F_partials, SodeSystem, _jacobian, random_polynomial_sode,
)

PROBLEM = {"dimension": 2, "F": ["v1^3 - x2*v2 + t*v1", "x1*v1*v2 - v2^2"],
           "samples": {"mode": "random", "count": 5, "seed": 3}}

ROLES = ("v", "x", "vv", "xv", "vvv")


def _count_jacobians(monkeypatch):
    """Wrap `_jacobian` in each module that bound it; returns the list of
    (array argument, coordinates) of every call."""
    calls = []

    def counted(X, coords):
        calls.append((X, tuple(coords)))
        return _jacobian(X, coords)

    for module in (sode, chern, classify, riemann, selftest, natjets):
        if vars(module).get("_jacobian") is _jacobian:
            monkeypatch.setattr(module, "_jacobian", counted)
    return calls


def _verify(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM))
    assert cli.main(["verify", str(path)]) == 0
    capsys.readouterr()


def test_verify_differentiates_F_along_the_velocities_once(
        tmp_path, capsys, monkeypatch):
    calls = _count_jacobians(monkeypatch)
    systems = []
    post_init = SodeSystem.__post_init__

    def recorded(self):
        post_init(self)
        systems.append(self)

    monkeypatch.setattr(SodeSystem, "__post_init__", recorded)
    _verify(tmp_path, capsys)
    assert systems
    along_v = [X for X, coords in calls if coords == ("v1", "v2")
               and any(X is s.F for s in systems)]
    assert len(along_v) == 1


def test_verify_differentiates_P_once(tmp_path, capsys, monkeypatch):
    calls = _count_jacobians(monkeypatch)
    built = []
    splitting_P = sode.splitting_P

    def recorded(s):
        built.append(splitting_P(s))
        return built[-1]

    monkeypatch.setattr(sode, "splitting_P", recorded)
    _verify(tmp_path, capsys)
    assert len(built) == 1
    assert [coords for X, coords in calls if X is built[0]] == [("v1", "v2")]


@pytest.mark.parametrize("roles", ROLES)
def test_each_partial_is_built_once_and_read_only(roles):
    s = random_polynomial_sode(2, seed=61)
    arr = F_partials(s, roles)
    assert F_partials(s, roles) is arr
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    shorter = F_partials(s, roles[:-1]) if len(roles) > 1 else s.F
    axis = s.vars.velocities if roles[-1] == "v" else s.vars.positions
    fresh = _jacobian(shorter, axis)
    assert arr.shape == fresh.shape == (s.n,) * (len(roles) + 1)
    assert all(a is b for a, b in zip(arr.flat, fresh.flat))


def test_an_equal_system_keeps_its_own_partials():
    s, twin = (random_polynomial_sode(2, seed=61) for _ in range(2))
    assert s == twin
    assert F_partials(s, "v") is not F_partials(twin, "v")


def test_connection_dP_is_the_jacobian_of_P():
    s = random_polynomial_sode(2, seed=61)
    conn = connection(s)
    assert conn.dP is conn.dP and not conn.dP.flags.writeable
    fresh = _jacobian(conn.torsion.P, s.vars.velocities)
    assert all(a is b for a, b in zip(conn.dP.flat, fresh.flat))


def test_kept_partials_go_with_their_system():
    """No reference cycle: the system and its arrays are freed on `del`,
    without a garbage collection."""
    s = random_polynomial_sode(2, seed=61)
    arrays = [F_partials(s, roles) for roles in ROLES]
    arrays.append(connection(s).dP)
    chern.curvature_components(s)
    refs = [weakref.ref(s)] + [weakref.ref(a) for a in arrays]
    del s, arrays
    assert all(ref() is None for ref in refs)


def test_builders_read_the_store():
    """The closed formulas read the kept arrays: W and V of
    `connection_data` and R of the curvature table are halves of them, and
    a fresh build of each stays writable."""
    s = random_polynomial_sode(2, seed=61)
    data = chern.connection_data(s)
    curv = chern.curvature_components(s)
    for got, roles in ((data.W, "v"), (data.V, "vv"), (curv.R, "vvv")):
        assert got.flags.writeable
        want = sode.HALF * F_partials(s, roles)
        assert all(a is b for a, b in zip(np.ravel(got), np.ravel(want)))
