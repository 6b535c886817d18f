"""One jet builder and whole-array evaluation in natjets and the holonomy
span: the array helpers and batched evaluations against test-local copies of
the per-entry and per-point code they replaced, and evaluation overflow as a
DomainError."""

import json
import subprocess
import sys

import numpy as np
import pytest

from chernsode import classify
from chernsode.classify import (
    curvature_span_matrices, holonomy_span, holonomy_spans,
)
from chernsode.expressions import (
    DomainError, VarSet, add, compile_expr, evaluate, mul, parse, substitute,
    to_string, var,
)
from chernsode.natjets import (
    SodeJet2, _chain_rule_exprs, _equivariance_lhs_exprs, _jacobian,
    _prolong1_exprs, _push_value_exprs, _total_time, curvature_kernel_dim,
    curvature_mapping, curvature_mapping_exprs, infinitesimal_equivariance,
    jet2_of, jet_space, push_sode_symbolic, pushed_jet2, random_automorphism,
    random_polynomial_field,
)
from chernsode.sode import (
    JetPoint1, SodeSystem, as_expr, eval_array, expr_array, flow_derivative,
    monomials, numeric_rank, random_polynomial_sode, sample_points, _diff,
)


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


TRIG2 = make(2, "sin(x2)*v1^2 + exp(3/8*t)*v2 + cos(x1)*v1*v2",
             "cos(x1)*v2^2 + sin(t)*x2*v1 + exp(1/4*x1)*v2")
SYSTEMS = [random_polynomial_sode(1, seed=501),
           random_polynomial_sode(2, seed=502),
           random_polynomial_sode(3, seed=503),
           TRIG2]
IDS = ["poly1", "poly2", "poly3", "trig2"]


def _points(s):
    return sample_points(s.vars, 5, seed=600 + s.n)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# the per-entry code this replaced
# --------------------------------------------------------------------------

def _old_jet2_of(s, p):
    n = s.n
    coords = s.coords
    values = p.row
    F = np.zeros(n)
    D1 = np.zeros((n, 2 * n + 1))
    D2 = np.zeros((n, 2 * n + 1, 2 * n + 1))
    for i in range(n):
        F[i] = compile_expr(s.F[i], s.vars.names)(values)
        for c1, d1 in enumerate(coords):
            first = _diff(s.F[i], d1)
            D1[i, c1] = compile_expr(first, s.vars.names)(values)
            for c2 in range(c1, len(coords)):
                val = compile_expr(_diff(first, coords[c2]), s.vars.names)(values)
                D2[i, c1, c2] = D2[i, c2, c1] = val
    return SodeJet2(point=p, F=F, D1=D1, D2=D2)


def _old_chain_rule_exprs(auto, s):
    coords = s.coords
    G = _push_value_exprs(auto, s)
    M = _prolong1_exprs(auto)
    dG = tuple(tuple(_diff(g, c) for c in coords) for g in G)
    hG = tuple(tuple(tuple(_diff(dg, c2) for c2 in coords) for dg in row)
               for row in dG)
    dM = tuple(tuple(_diff(as_expr(m), c) for c in coords) for m in M)
    hM = tuple(tuple(tuple(_diff(dm, c2) for c2 in coords) for dm in row)
               for row in dM)
    return G, M, dG, hG, dM, hM


def _old_pushed_jet2(auto, s, p):
    n = s.n
    names, values = s.vars.names, p.row
    G, M, dG, hG, dM, hM = _old_chain_rule_exprs(auto, s)

    def ev(e):
        return compile_expr(as_expr(e), names)(values)

    dim = 2 * n + 1
    g_val = np.array([ev(g) for g in G])
    dg = np.array([[ev(dG[h][c]) for c in range(dim)] for h in range(n)])
    hg = np.array([[[ev(hG[h][c1][c2]) for c2 in range(dim)]
                    for c1 in range(dim)] for h in range(n)])
    jmat = np.array([[ev(dM[r][c]) for c in range(dim)] for r in range(dim)])
    hm = np.array([[[ev(hM[r][c1][c2]) for c2 in range(dim)]
                    for c1 in range(dim)] for r in range(dim)])
    jinv = np.linalg.inv(jmat)
    d1 = dg @ jinv
    d2 = np.zeros((n, dim, dim))
    for h in range(n):
        corrected = hg[h] - np.tensordot(d1[h], hm, axes=(0, 0))
        d2[h] = jinv.T @ corrected @ jinv
        d2[h] = (d2[h] + d2[h].T) / 2.0
    m_val = np.array([ev(m) for m in M])
    p_prime = JetPoint1(m_val[0], tuple(m_val[1:1 + n]), tuple(m_val[1 + n:]))
    return SodeJet2(point=p_prime, F=g_val, D1=d1, D2=d2)


def _old_infinitesimal_equivariance(s, u, p):
    n = s.n
    js = jet_space(s.vars)
    ujet, lhs_P, lhs_T = _equivariance_lhs_exprs(s.vars)
    j2 = _old_jet2_of(s, p)
    base_env = p.env(s.vars)
    names = js.all_coords + tuple(ujet.names)
    values = j2.row + ujet.values_for(u, base_env)

    def field_apply(lhs):
        return compile_expr(as_expr(lhs), names)(values)

    yv = curvature_mapping(j2, s.vars)
    u_x = np.zeros((n, n))
    for i in range(n):
        for r in range(n):
            u_x[i, r] = evaluate(_diff(u[i], s.vars.positions[r]), base_env)
    delta_p = [field_apply(lhs_P[i, j])
               - sum(u_x[i, r] * yv.y_P[r, j] - u_x[r, j] * yv.y_P[i, r]
                     for r in range(n))
               for i in range(n) for j in range(n)]
    delta_t = [field_apply(lhs_T[k, i, j])
               - sum(u_x[k, r] * yv.y_T[r, i, j]
                     - u_x[r, i] * yv.y_T[k, r, j]
                     - u_x[r, j] * yv.y_T[k, i, r]
                     for r in range(n))
               for k in range(n) for i in range(n) for j in range(i + 1, n)]
    return np.array(delta_p), np.array(delta_t)


def _old_kernel_rows(s, p):
    js = jet_space(s.vars)
    n = s.n
    y_P, y_T = curvature_mapping_exprs(s.vars)
    ys = [y_P[i, j] for i in range(n) for j in range(n)]
    ys += [y_T[k, i, j] for k in range(n) for i in range(n)
           for j in range(i + 1, n)]
    grads = []
    for y in ys:
        grad = expr_array(len(js.fiber))
        for c, name in enumerate(js.fiber):
            grad[c] = _diff(as_expr(y), name)
        grads.append(grad)
    values = _old_jet2_of(s, p).row
    return grads, [eval_array(g, js.all_coords, values) for g in grads]


def _old_holonomy_span(s, p, tol=1e-8):
    values = p.row
    rows = [eval_array(M, s.vars.names, values).reshape(-1)
            for _, M in curvature_span_matrices(s)]
    if not all(np.isfinite(r).all() for r in rows):
        return None
    rank, _ = numeric_rank(rows, tol)
    return rank


def _old_monomials(names, degree):
    out = [()]
    for _ in range(degree):
        out = out + [m + (name,) for m in out for name in names]
    return sorted({tuple(sorted(m)) for m in out})


# --------------------------------------------------------------------------
# numeric jets: bit-equal to the per-entry loops
# --------------------------------------------------------------------------

@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_jet2_of_equals_entry_loops(s):
    for p in _points(s):
        got, want = jet2_of(s, p), _old_jet2_of(s, p)
        for field in ("F", "D1", "D2"):
            _same(getattr(got, field), getattr(want, field))
        assert got.point == want.point


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_pushed_jet2_equals_entry_loops(s):
    auto = random_automorphism(s.vars, seed=700 + s.n)
    for p in _points(s):
        got, want = pushed_jet2(auto, s, p), _old_pushed_jet2(auto, s, p)
        for field in ("F", "D1", "D2"):
            _same(getattr(got, field), getattr(want, field))
        _same(got.point.row, want.point.row)


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_infinitesimal_equivariance_equals_entry_loops(s):
    for k, p in enumerate(_points(s)):
        u = random_polynomial_field(s.vars, seed=800 + k, degree=3)
        got = infinitesimal_equivariance(s, u, p)
        delta_p, delta_t = _old_infinitesimal_equivariance(s, u, p)
        want = [float(np.max(np.abs(d))) if d.size else 0.0
                for d in (delta_p, delta_t)]
        _same(np.array(got), np.array(want))


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_curvature_kernel_rows_equal_entry_loops(s):
    js = jet_space(s.vars)
    for p in _points(s)[:2]:
        grads, rows = _old_kernel_rows(s, p)
        y_P, y_T = curvature_mapping_exprs(s.vars)
        iu = np.triu_indices(s.n, 1)
        flat = list(y_P.ravel()) + list(y_T[:, iu[0], iu[1]].ravel())
        new = _jacobian(flat, js.fiber)
        assert [list(r) for r in new] == [list(g) for g in grads]
        _same(eval_array(new, js.all_coords, jet2_of(s, p).row), np.vstack(rows))
        rank, _ = numeric_rank(rows)
        assert curvature_kernel_dim(s, p) == len(js.fiber) - rank


# --------------------------------------------------------------------------
# symbolic helpers: the same trees as the loops they replaced
# --------------------------------------------------------------------------

@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_jacobian_equals_derivative_loops(s):
    n, vars = s.n, s.vars
    auto = random_automorphism(vars, seed=900 + n)
    J = auto.jacobian()
    assert J.shape == (n, n)
    for h in range(n):
        for i in range(n):
            assert J[h, i] == _diff(auto.phi[h], vars.positions[i])
    new, old = _chain_rule_exprs(auto, s), _old_chain_rule_exprs(auto, s)
    assert new[0] == old[0] and list(new[1]) == list(old[1])
    for got, want in zip(new[2:], old[2:]):
        assert got.shape == np.array(want, dtype=object).shape
        for idx in np.ndindex(got.shape):
            entry = want
            for k in idx:
                entry = entry[k]
            assert got[idx] == entry


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_total_time_equals_hand_written_copies(s):
    n, vars = s.n, s.vars
    t, xs, vs = vars.time, vars.positions, vars.velocities
    auto = random_automorphism(vars, seed=910 + n)
    for h in range(n):
        # the 1-jet map's velocity rows
        want = add(_diff(auto.phi[h], t),
                   *[mul(_diff(auto.phi[h], xs[i]), var(vs[i]))
                     for i in range(n)])
        got = _total_time(auto.phi[h], vars)
        assert got == want and to_string(got) == to_string(want)
        assert _prolong1_exprs(auto)[1 + n + h] == want
        # the inverse velocity substitution of the symbolic push
        psi = auto.inverse[h]
        want = add(_diff(psi, t), *[mul(_diff(psi, xs[j]), var(vs[j]))
                                    for j in range(n)])
        assert _total_time(psi, vars) == want
        # flow_phi of verify_functoriality
        for b in range(n):
            d_phi = _diff(auto.phi[h], xs[b])
            want = add(_diff(d_phi, t), *[mul(_diff(d_phi, xs[r]), var(vs[r]))
                                          for r in range(n)])
            got = _total_time(d_phi, vars)
            assert got == want and to_string(got) == to_string(want)


def test_symbolic_push_uses_the_total_time_substitution():
    s = SYSTEMS[1]
    auto = random_automorphism(s.vars, seed=921)
    vars = s.vars
    sub = {vars.positions[i]: auto.inverse[i] for i in range(s.n)}
    for i in range(s.n):
        sub[vars.velocities[i]] = add(
            _diff(auto.inverse[i], vars.time),
            *[mul(_diff(auto.inverse[i], vars.positions[j]),
                  var(vars.velocities[j])) for j in range(s.n)])
    want = tuple(substitute(g, sub) for g in _push_value_exprs(auto, s))
    assert push_sode_symbolic(auto, s).F == want


def test_orthogonal_transport_is_the_flow_derivative():
    s = random_polynomial_sode(3, seed=930)
    vars = s.vars
    entries = ["1 + 3/8*x2^2", "exp(1/4*x3)", "1 + 1/8*x1^2",
               "t*x1 + sin(x2)*t^2"]
    for text in entries:
        U = parse(text, vars)
        old = add(_diff(U, vars.time),
                  *[mul(var(vars.velocities[a]), _diff(U, vars.positions[a]))
                    for a in range(s.n)])
        new = flow_derivative(s, U)
        assert new == old and to_string(new) == to_string(old)


@pytest.mark.parametrize("names, degree", [
    (("v1",), 3), (("v1", "v2", "v3"), 3), (("x1", "x2"), 2), (("t",), 1),
    (("t", "x1", "x2"), 4), (("t", "x1"), 2), (("t",), 2), ((), 2),
])
def test_monomials_equal_the_enumeration_loops(names, degree):
    assert monomials(names, degree) == _old_monomials(names, degree)


# --------------------------------------------------------------------------
# holonomy span over a point batch
# --------------------------------------------------------------------------

SPAN_SYSTEMS = [random_polynomial_sode(2, seed=1234), TRIG2, make(1, "v1^3"),
                make(1, "0"), make(1, "sqrt(x1)*v1^2")]
SPAN_IDS = ["poly2", "trig2", "cubic", "flat", "sqrt"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("s", SPAN_SYSTEMS, ids=SPAN_IDS)
def test_holonomy_spans_equal_per_point_spans(s):
    pts = sample_points(s.vars, 8, seed=1001)
    want = [_old_holonomy_span(s, p) for p in pts]
    assert holonomy_spans(s, pts) == want
    assert [holonomy_span(s, p) for p in pts] == want
    if s is SPAN_SYSTEMS[-1]:
        assert None in want and any(w is not None for w in want)


def test_holonomy_spans_builds_curvature_components_once(monkeypatch):
    calls = []
    original = classify.curvature_components

    def counted(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(classify, "curvature_components", counted)
    s = SPAN_SYSTEMS[0]
    assert len(holonomy_spans(s, sample_points(s.vars, 6, seed=2))) == 6
    assert len(calls) == 1


def test_holonomy_spans_of_no_points():
    s = SPAN_SYSTEMS[0]
    assert holonomy_spans(s, sample_points(s.vars, 0, seed=2)) == []


# --------------------------------------------------------------------------
# float overflow in evaluate
# --------------------------------------------------------------------------

V1 = VarSet.default(1)


@pytest.mark.parametrize("text, x1", [("exp(1000*x1)", 1.0), ("x1^400", 10.0)])
def test_evaluate_overflow_is_a_domain_error(text, x1):
    with pytest.raises(DomainError):
        evaluate(parse(text, V1), {"t": 0.0, "x1": x1, "v1": 0.0})


def test_push_overflow_names_the_sample(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "dimension": 1, "F": ["exp(1000*x1)*v1"],
        "automorphism": {"phi": ["x1 + t^2"], "inverse": ["x1 - t^2"]},
        "samples": {"mode": "random", "count": 4, "seed": 1}}))
    proc = subprocess.run([sys.executable, "-m", "chernsode.cli", "push",
                           str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, "")
    err = json.loads(proc.stdout)["error"]
    assert err["kind"] == "DomainError"
    assert err["location"] == "samples.points[0]"


@pytest.mark.parametrize("task", ["analyze", "classify"])
def test_span_dividing_by_zero_at_a_sample_fails_with_a_report(tmp_path, task):
    """A curvature value that divides by zero at a sample is not finite
    there: the span is null and the task exits 1 with a full report, as for
    any other non-finite curvature."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "dimension": 1, "F": ["x1^(-1)*v1^3"],
        "samples": {"mode": "explicit",
                    "points": [[0.1, 0.0, 0.5], [0.2, 0.3, 0.4]]}}))
    proc = subprocess.run([sys.executable, "-m", "chernsode.cli", task,
                           str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    report = json.loads(proc.stdout)
    if task == "classify":
        assert report["holonomy_span_dim"] is None
    else:
        assert report["holonomy_span_per_point"][0] is None
        assert report["holonomy_span_per_point"][1] is not None
