"""natjets from one source: `verify_functoriality` reads (P, T) from the
system's connection and takes the automorphism's Jacobian from the 1-jet
map's Jacobian, the total derivatives of the prolongation differentiate
only along the coordinates their expression contains, and
`orthogonal_residual` evaluates U and its curvature blocks in one walk."""

import numpy as np
import pytest

from chernsode import chern, classify, cli, natjets, riemann, selftest, sode
from chernsode.expressions import VarSet, add, free_variables, mul, var
from chernsode.natjets import (
    _equivariance_lhs_exprs, generic_prolongation, random_automorphism,
    verify_functoriality,
)
from chernsode.sode import (
    HALF, eval_array, random_polynomial_sode, sample_points, worst_abs,
)

MODULES = (sode, chern, classify, natjets, riemann, cli, selftest)


def _system_and_auto(n=2, seed=4):
    s = random_polynomial_sode(n, seed=seed)
    return s, random_automorphism(s.vars, seed=seed)


def _u(s):
    x = [var(name) for name in s.vars.positions]
    return np.array([[add(2, mul(x[i], x[j])) if i == j
                      else mul(HALF, x[i], x[j]) for j in range(s.n)]
                     for i in range(s.n)], dtype=object)


def test_functoriality_builds_torsion_once(monkeypatch):
    """Two calls on one system object build (P, T) once, through the
    connection, wherever `splitting_curvature` is bound."""
    calls = []
    original = sode.splitting_curvature

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in MODULES:
        if vars(module).get("splitting_curvature") is original:
            monkeypatch.setattr(module, "splitting_curvature", counted)
    s, auto = _system_and_auto()
    pts = sample_points(s.vars, 2, seed=1)
    first = verify_functoriality(auto, s, pts)
    assert verify_functoriality(auto, s, pts) == first
    assert calls == [s]
    assert "splitting_curvature" not in vars(natjets)


def test_functoriality_evaluates_twelve_arrays_per_point(monkeypatch):
    """The 1-jet map's Jacobian dM is evaluated once per point and gives the
    automorphism's Jacobian as a block; no separate Jacobian evaluation."""
    s, auto = _system_and_auto()
    pts = sample_points(s.vars, 3, seed=2)
    arrays = []
    real = natjets.eval_array

    def record(M, names, values):
        arrays.append(M)
        return real(M, names, values)

    monkeypatch.setattr(natjets, "eval_array", record)
    verify_functoriality(auto, s, pts)
    assert len(arrays) == 12 * len(pts)
    jac = auto.jacobian()
    assert not any(np.shape(M) == jac.shape and all(
        a is b for a, b in zip(np.ravel(M), jac.flat)) for M in arrays)


def test_jacobian_block_is_the_automorphism_jacobian():
    s, auto = _system_and_auto()
    n = s.n
    dM = natjets._chain_rule_exprs(auto, s)[4]
    jac = auto.jacobian()
    assert all(a is b for a, b in zip(dM[1:1 + n, 1:1 + n].flat, jac.flat))
    p = sample_points(s.vars, 1, seed=3)[0]
    assert np.array_equal(eval_array(dM, s.vars.names, p.row)[1:1 + n, 1:1 + n],
                          eval_array(jac, s.vars.names, p.row))


@pytest.mark.parametrize("build", [generic_prolongation, _equivariance_lhs_exprs],
                         ids=["generic_prolongation", "equivariance_lhs"])
def test_prolongation_differentiates_along_free_coordinates(build, monkeypatch):
    seen = []
    real = natjets.directional

    def record(field, coords, f):
        seen.append((tuple(coords), f))
        return real(field, coords, f)

    monkeypatch.setattr(natjets, "directional", record)
    build.__wrapped__(VarSet.default(2))
    assert seen
    bad = [(coords, f) for coords, f in seen
           if not set(coords) <= free_variables(f)]
    assert not bad, bad[:3]


def test_orthogonal_residual_makes_one_eval_array_call(monkeypatch):
    s = random_polynomial_sode(2, seed=7)
    calls = []
    real = classify.eval_array

    def record(M, names, values):
        calls.append(np.shape(M))
        return real(M, names, values)

    monkeypatch.setattr(classify, "eval_array", record)
    classify.orthogonal_residual(s, _u(s), sample_points(s.vars, 4, seed=1),
                                 check_spd=False)
    assert len(calls) == 1


def _old_uabr(s, U, points):
    """The per-block evaluation that the one walk replaced."""
    n = s.n
    comp = chern.connection(s).curvature
    batch = sode.point_batch(s.vars, points)
    u_vals = eval_array(U, s.vars.names, batch)
    out = {}
    for label, blocks in (
            ("eq_UABR_A", [comp.A[:, :, j] for j in range(n)]),
            ("eq_UABR_B", [comp.B[:, i, j, :] for i in range(n)
                           for j in range(i + 1, n)]),
            ("eq_UABR_R", [comp.R[:, i, j, :] for i in range(n)
                           for j in range(i, n)])):
        deltas = []
        for M in blocks:
            m_vals = eval_array(M, s.vars.names, batch)
            for k in range(len(points)):
                u, m = u_vals[:, :, k], m_vals[:, :, k]
                deltas.append(u @ m + m.T @ u)
        out[label] = worst_abs(*deltas)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_uabr_blocks_equal_the_per_block_walks(n):
    s = random_polynomial_sode(n, seed=11)
    pts = sample_points(s.vars, 5, seed=3)
    got = classify.orthogonal_residual(s, _u(s), pts, check_spd=False)
    want = _old_uabr(s, _u(s), pts)
    assert {key: got[key] for key in want} == want
    assert list(got)[-3:] == list(want)
