"""One way to build arrays of partial derivatives: `sode._jacobian`.

Every array of partials in `sode`, `chern`, `classify`, `riemann` and
`selftest` is built by `_jacobian`.  Nodes are interned, so an array that
holds the same expressions as the index loops it replaced holds the same
node objects; each array is checked with `is` against a test-local copy of
those loops (written with `sode._diff`, as the removed `f_*` helpers were)."""

import numpy as np
import pytest

from chernsode import chern, classify, natjets, riemann, selftest, sode
from chernsode.expressions import VarSet, add, mul, parse, simplify, var
from chernsode.sode import (
    HALF, QUARTER, SodeSystem, _diff, _jacobian, expr_array,
    random_polynomial_sode, sample_points,
)


def _trig2():
    vs = VarSet.default(2)
    return SodeSystem(vars=vs, F=(
        parse("3/4*sin(x2)*v1^2 + 1/2*exp(-1/3*t)*v2 + 5/8*cos(x1)*v1*v2", vs),
        parse("-1/2*cos(x2)*v2^2 + 3/8*sin(x1)*v1 + 1/4*exp(t)*v1*v2", vs)))


SYSTEMS = [random_polynomial_sode(1, seed=3), random_polynomial_sode(2, seed=61),
           random_polynomial_sode(3, seed=3000), _trig2()]
IDS = ["poly1", "poly2", "poly3", "trig2"]


def _same(new, old):
    """Same shape and, entry by entry, the same node object."""
    new, old = np.asarray(new, dtype=object), np.asarray(old, dtype=object)
    assert new.shape == old.shape
    bad = [idx for idx in np.ndindex(old.shape) if new[idx] is not old[idx]]
    assert not bad, f"{len(bad)} entries differ, first at {bad[0]}"


# --------------------------------------------------------------------------
# the removed helpers and the loops that called them
# --------------------------------------------------------------------------

def f_v(s, i, j):
    return _diff(s.F[i], s.vars.velocities[j])


def f_x(s, i, j):
    return _diff(s.F[i], s.vars.positions[j])


def f_vv(s, i, j, k):
    return _diff(f_v(s, i, j), s.vars.velocities[k])


def f_xv(s, i, a, b):
    return _diff(f_x(s, i, a), s.vars.velocities[b])


def f_vvv(s, i, a, b, c):
    return _diff(f_vv(s, i, a, b), s.vars.velocities[c])


def _old_connection_data(s):
    n = s.n
    W, V = expr_array((n, n)), expr_array((n, n, n))
    for i in range(n):
        for j in range(n):
            W[i, j] = mul(HALF, f_v(s, i, j))
            for k in range(n):
                V[i, j, k] = mul(HALF, f_vv(s, i, j, k))
    return W, V


def _old_curvature_components(s):
    n = s.n
    sc = sode.splitting_curvature(s, check="none")
    A, B, R = expr_array((n,) * 3), expr_array((n,) * 4), expr_array((n,) * 4)
    vels = s.vars.velocities
    for h in range(n):
        for k in range(n):
            for j in range(n):
                A[h, k, j] = mul(HALF, add(
                    sc.T[h, j, k],
                    mul(-1, _diff(sc.P[h, k], vels[j])),
                    mul(-1, _diff(sc.P[h, j], vels[k]))))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    B[h, i, j, k] = mul(-1, _diff(sc.T[h, i, j], vels[k]))
                    R[h, i, j, k] = mul(HALF, f_vvv(s, h, i, j, k))
    return A, B, R


def _old_structure_blocks(s):
    n = s.n
    sc = sode.splitting_curvature(s, check="none")
    vels = s.vars.velocities
    R = chern._curvature_array(s, chern.frame_christoffels(s))
    res_a, res_t = expr_array((n, n, n)), expr_array((n, n, n))
    for j in range(n):
        for k in range(n):
            for h in range(n):
                res_a[h, k, j] = add(
                    mul(2, R[0, 1 + j, 1 + k, 1 + h]), mul(-1, sc.T[h, j, k]),
                    _diff(sc.P[h, k], vels[j]), _diff(sc.P[h, j], vels[k]))
    for i in range(n):
        for k in range(n):
            for j in range(n):
                res_t[i, k, j] = add(
                    mul(3, sc.T[i, k, j]),
                    mul(-1, _diff(sc.P[i, j], vels[k])),
                    _diff(sc.P[i, k], vels[j]))
    return res_a, res_t


def _old_frame(s):
    n = s.n
    M = expr_array((2 * n + 1, 2 * n + 1))
    M[:, 0] = sode.dynamical_flow(s)
    for i in range(n):
        M[1 + i, 1 + i] = sode.const(1)
        for j in range(n):
            M[1 + n + j, 1 + i] = mul(HALF, f_v(s, j, i))
        M[1 + n + i, 1 + n + i] = sode.const(1)
    return M


def _old_coframe(s):
    n = s.n
    M = expr_array((2 * n + 1, 2 * n + 1))
    M[0, 0] = sode.const(1)
    for i in range(n):
        M[1 + i, 0] = mul(-1, var(s.vars.velocities[i]))
        M[1 + i, 1 + i] = sode.const(1)
        wv = add(*[mul(HALF, f_v(s, i, j), var(s.vars.velocities[j]))
                   for j in range(n)])
        M[1 + n + i, 0] = add(mul(-1, s.F[i]), wv)
        for j in range(n):
            M[1 + n + i, 1 + j] = mul(-HALF, f_v(s, i, j))
        M[1 + n + i, 1 + n + i] = sode.const(1)
    return M


def _old_lie_derivative_J(s):
    n = s.n
    M = expr_array((2 * n + 1, 2 * n + 1))
    for i in range(n):
        M[1 + i, 0] = var(s.vars.velocities[i])
        M[1 + i, 1 + i] = sode.const(-1)
    for j in range(n):
        row = 1 + n + j
        M[row, 0] = add(*[mul(var(s.vars.velocities[i]), f_v(s, j, i))
                          for i in range(n)], mul(-1, s.F[j]))
        for i in range(n):
            M[row, 1 + i] = mul(-1, f_v(s, j, i))
        M[row, row] = sode.const(1)
    return M


def _old_splitting_P(s):
    n = s.n
    P = expr_array((n, n))
    for i in range(n):
        for j in range(n):
            quad = [mul(QUARTER, f_v(s, k, j), f_v(s, i, k)) for k in range(n)]
            P[i, j] = add(mul(HALF, sode.flow_derivative(s, f_v(s, i, j))),
                          mul(-1, f_x(s, i, j)),
                          *[mul(-1, q) for q in quad])
    return P


def _old_splitting_T(s):
    n = s.n
    T = expr_array((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                quad = []
                for h in range(n):
                    quad.append(mul(QUARTER, f_v(s, h, i), f_vv(s, k, h, j)))
                    quad.append(mul(-QUARTER, f_v(s, h, j), f_vv(s, k, h, i)))
                val = add(mul(HALF, f_xv(s, k, i, j)),
                          mul(-HALF, f_xv(s, k, j, i)), *quad)
                T[k, i, j] = val
                T[k, j, i] = mul(-1, val)
    return T


def _old_splitting_oracle_expected(s, P):
    """The expected [X, X_j] vectors of the splitting oracle."""
    n = s.n
    frame = sode.frame_symbolic(s)
    X_cols = [frame[:, 1 + i] for i in range(n)]
    out = []
    for j in range(n):
        expected = expr_array(2 * n + 1)
        for k in range(n):
            coef = mul(-HALF, f_v(s, k, j))
            for r in range(2 * n + 1):
                expected[r] = add(expected[r], mul(coef, X_cols[k][r]))
            expected[1 + n + k] = add(expected[1 + n + k], P[k, j])
        out.append(sode.bracket(frame[:, 0], X_cols[j], s.coords) - expected)
    return out


# --------------------------------------------------------------------------
# sode and chern
# --------------------------------------------------------------------------

@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_connection_data_same_nodes(s):
    data = chern.connection_data(s)
    W, V = _old_connection_data(s)
    _same(data.W, W)
    _same(data.V, V)


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_curvature_components_same_nodes(s):
    comp = chern.curvature_components(s)
    A, B, R = _old_curvature_components(s)
    _same(comp.A, A)
    _same(comp.B, B)
    _same(comp.R, R)


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_frames_and_lie_derivative_same_nodes(s):
    _same(sode.frame_symbolic(s), _old_frame(s))
    _same(sode.coframe_symbolic(s), _old_coframe(s))
    _same(sode.lie_derivative_J(s), _old_lie_derivative_J(s))


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_splitting_curvature_same_nodes(s, monkeypatch):
    P, T = _old_splitting_P(s), _old_splitting_T(s)
    _same(sode.splitting_P(s), P)
    _same(sode.splitting_T(s), T)
    seen = []
    monkeypatch.setattr(sode, "check_residual",
                        lambda blocks, *args: seen.extend(blocks))
    sc = sode.splitting_curvature(s, check="numeric")
    _same(sc.P, P)
    _same(sc.T, T)
    flow_blocks = [arr for label, arr in seen if label.startswith(
        "splitting oracle [X, ")]
    assert len(flow_blocks) == s.n
    for new, old in zip(flow_blocks, _old_splitting_oracle_expected(s, P)):
        _same(new, old)


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_structure_identity_blocks_same_nodes(s, monkeypatch):
    """The blocks that `verify_structure_identities` reduces, captured
    through `reduce_residual` as `tests/test_shared_eval.py` does."""
    seen = {}

    def record(blocks, s_, batch):
        for label, arr in blocks:
            seen[label] = arr
        return sode.Residual(0.0, None, 0, None, None, None)

    monkeypatch.setattr(chern, "reduce_residual", record)
    chern.verify_structure_identities(s, sample_points(s.vars, 2, 1))
    res_a, res_t = _old_structure_blocks(s)
    _same(seen["eq_As"], res_a)
    _same(seen["eq_3T"], res_t)


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

def _old_ecuacion2_blocks(s, U):
    n = s.n
    data = chern.connection_data(s)
    blocks = []
    for k in range(n):
        UV = U @ data.V[:, :, k]
        mat = expr_array((n, n))
        for i in range(n):
            for j in range(n):
                mat[i, j] = add(_diff(sode.as_expr(U[i, j]), s.vars.positions[k]),
                                sode.as_expr(UV[i, j]), sode.as_expr(UV[j, i]))
        blocks.append(mat)
    return blocks


def _old_unimodular_named(s):
    """Both condition lists of `unimodular_test`, as the loops built them."""
    n = s.n
    vels, poss, time = s.vars.velocities, s.vars.positions, s.vars.time
    D = add(*[_diff(s.F[h], vels[h]) for h in range(n)])
    F_i = [simplify(_diff(D, vels[i])) for i in range(n)]
    F_0 = simplify(add(D, *[mul(-1, F_i[i], var(vels[i])) for i in range(n)]))
    affine = [(f"d2D/dv[{i}]dv[{j}]", _diff(F_i[i], vels[j]))
              for i in range(n) for j in range(n)]
    closed = []
    for i in range(n):
        for j in range(i + 1, n):
            closed.append((f"dF_{j}/dx[{i}] - dF_{i}/dx[{j}]",
                           add(_diff(F_i[j], poss[i]),
                               mul(-1, _diff(F_i[i], poss[j])))))
    for j in range(n):
        closed.append((f"dF_{j}/dt - dF_0/dx[{j}]",
                       add(_diff(F_i[j], time), mul(-1, _diff(F_0, poss[j])))))
    return [affine, closed]


QUADRATIC = {
    1: ["t*sin(x1)*v1^2 + exp(t)*x1*v1 - x1^3"],
    2: ["t*sin(x2)*v1^2 + x1^2*v1*v2 + exp(t)*x2*v1 - t*x2",
        "cos(x1)*x2*v2^2 - x1*v1*v2 + t*x1*v2 + x1*x2"],
    3: ["t*sin(x2)*v1^2 + x3*v1*v2 + exp(t)*x2*v1 - t*x2",
        "cos(x1)*x3*v2^2 - x1*v1*v3 + t*x1*v2 + x1*x3",
        "x1*x2*v3^2 + t^2*v1*v3 - x3*v3 + x2"],
}


def _quadratic(n):
    """A system quadratic in the velocities, so its divergence is affine and
    `unimodular_test` reaches its closedness conditions."""
    vs = VarSet.default(n)
    return SodeSystem(vars=vs, F=tuple(parse(text, vs) for text in QUADRATIC[n]))


@pytest.mark.parametrize("s", SYSTEMS + [_quadratic(1), _quadratic(2),
                                         _quadratic(3)],
                         ids=IDS + ["quad1", "quad2", "quad3"])
def test_unimodular_conditions_same_nodes(s, monkeypatch):
    seen, real = [], classify._condition

    def record(named, *args):
        seen.append(list(named))
        return real(named, *args)

    monkeypatch.setattr(classify, "_condition", record)
    classify.unimodular_test(s, mode="numeric")
    old = _old_unimodular_named(s)
    assert 1 <= len(seen) <= 2
    for new, want in zip(seen, old):
        assert [label for label, _ in new] == [label for label, _ in want]
        assert all(a is b for (_, a), (_, b) in zip(new, want))


def test_quadratic_systems_reach_the_closedness_conditions(monkeypatch):
    calls = []
    real = classify._condition
    monkeypatch.setattr(classify, "_condition",
                        lambda named, *args: calls.append(1) or real(named, *args))
    for n in (1, 2, 3):
        calls.clear()
        classify.unimodular_test(_quadratic(n), mode="numeric")
        assert len(calls) == 2


@pytest.mark.parametrize("s", SYSTEMS[:3], ids=IDS[:3])
def test_orthogonal_residual_blocks_same_nodes(s, monkeypatch):
    n = s.n
    x = [var(name) for name in s.vars.positions]
    U = np.array([[add(2, mul(x[i], x[j])) if i == j else mul(HALF, x[i], x[j])
                   for j in range(n)] for i in range(n)], dtype=object)
    seen = {}
    real = classify.reduce_residual

    def record(blocks, s_, batch):
        blocks = list(blocks)
        seen[blocks[0][0]] = [arr for _, arr in blocks]
        return real(blocks, s_, batch)

    monkeypatch.setattr(classify, "reduce_residual", record)
    classify.orthogonal_residual(s, U, sample_points(s.vars, 3, 5),
                                 check_spd=False)
    for new, old in zip(seen[0], _old_ecuacion2_blocks(s, U)):
        _same(new, old)
    assert len(seen[0]) == n


# --------------------------------------------------------------------------
# riemann and selftest
# --------------------------------------------------------------------------

def _old_christoffel(metric):
    n = metric.n
    m = metric.matrix()
    inv = riemann._inverse(metric)
    xs = metric.vars.positions
    gamma = expr_array((n, n, n))
    for h in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = []
                for k in range(n):
                    combo = add(_diff(sode.as_expr(m[k, i]), xs[j]),
                                _diff(sode.as_expr(m[j, k]), xs[i]),
                                mul(-1, _diff(sode.as_expr(m[j, i]), xs[k])))
                    terms.append(mul(HALF, inv[h, k], combo))
                gamma[h, i, j] = gamma[h, j, i] = simplify(add(*terms))
    return gamma


def _old_riemann_tensor(metric):
    n = metric.n
    gamma = _old_christoffel(metric)
    xs = metric.vars.positions
    R = expr_array((n, n, n, n))
    for h in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    terms = [_diff(sode.as_expr(gamma[h, j, k]), xs[i]),
                             mul(-1, _diff(sode.as_expr(gamma[h, i, k]), xs[j]))]
                    for r in range(n):
                        terms.append(mul(gamma[h, i, r], gamma[r, j, k]))
                        terms.append(mul(-1, gamma[h, j, r], gamma[r, i, k]))
                    R[h, k, i, j] = add(*terms)
    return R


def _metrics():
    v2 = VarSet.default(2)
    poly = riemann.MetricField(vars=v2, g=[
        [parse("1 + x1^2", v2), parse("1/2*x1*x2", v2)],
        [parse("1/2*x1*x2", v2), parse("2 + x2^2", v2)]])
    return [riemann.sphere_metric(v2), poly, riemann.flat_metric(VarSet.default(3))]


@pytest.mark.parametrize("metric", _metrics(), ids=["sphere", "poly2", "flat3"])
def test_christoffel_and_riemann_tensor_same_nodes(metric):
    _same(riemann.christoffel(metric), _old_christoffel(metric))
    _same(riemann.riemann_tensor(metric), _old_riemann_tensor(metric))


def test_expression_pool_same_nodes_in_order():
    """C11 draws from this pool by position, so its order must not move."""
    want = []
    for k in range(8):
        s = random_polynomial_sode(2, seed=5000 + k)
        want.extend(s.F)
        for f in s.F:
            for name in s.coords:
                want.append(_diff(f, name))
        sc = sode.splitting_curvature(s, check="none")
        comp = chern.curvature_components(s)
        want.extend(sc.P.reshape(-1))
        want.extend(sc.T.reshape(-1))
        want.extend(comp.A.reshape(-1))
    sph = riemann.geodesic_spray(riemann.sphere_metric(VarSet.default(2)))
    want.extend(sph.F)
    for f in sph.F:
        for name in sph.coords:
            want.append(_diff(f, name))
    want = [e for e in want if sode.free_variables(e)]
    got = selftest._expression_pool()
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


# --------------------------------------------------------------------------
# one path
# --------------------------------------------------------------------------

def test_jacobian_layout_and_scalar_input():
    s = random_polynomial_sode(2, seed=61)
    J = _jacobian(s.F, s.coords)
    assert J.shape == (2, 5)
    assert all(J[i, c] is _diff(s.F[i], name)
               for i in range(2) for c, name in enumerate(s.coords))
    d = _jacobian(s.F[0], s.vars.velocities)
    assert d.shape == (2,) and d[1] is _diff(s.F[0], "v2")


def test_one_jacobian_and_no_scalar_partial_helpers():
    assert natjets._jacobian is sode._jacobian
    for name in ("f_v", "f_x", "f_vv", "f_xv", "f_vvv"):
        assert not hasattr(sode, name)
    for module in (chern, classify, riemann, selftest):
        assert not hasattr(module, "_diff"), module.__name__
