"""One symbolic determinant: `sode._det`.

The Kosambi coefficients c_k of det(lambda I + P) are sums of the k x k
principal minors of P, each expanded by `sode._det`, the same Leibniz
expansion that builds the metric inverse's adjugate.  `simplify` is a normal
form for polynomials in its atoms, so the coefficients are the very nodes the
former Faddeev-LeVerrier trace recursion gave; each is checked with `is`
against a test-local copy of that recursion."""

from fractions import Fraction

import numpy as np
import pytest

from chernsode import riemann
from chernsode.classify import kosambi_invariants
from chernsode.expressions import (
    ONE, VarSet, add, const, mul, parse, pow_, simplify, var,
)
from chernsode.riemann import MetricField
from chernsode.sode import (
    SodeSystem, _det, as_expr, expr_array, random_polynomial_sode,
    splitting_curvature,
)


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


def _faddeev_leverrier(s):
    """The trace recursion M_k = K (M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k
    over K = -P, which `kosambi_invariants` used before."""
    n = s.n
    P = splitting_curvature(s, check="none").P
    K = expr_array((n, n))
    for idx in np.ndindex((n, n)):
        K[idx] = mul(-1, as_expr(P[idx]))
    coeffs = [const(1)]
    M = expr_array((n, n))
    for i in range(n):
        M[i, i] = const(1)
    Mk = M
    for k in range(1, n + 1):
        if k > 1:
            shifted = np.array(Mk, dtype=object, copy=True)
            for i in range(n):
                shifted[i, i] = add(shifted[i, i], coeffs[-1])
            Mk = K @ shifted
        else:
            Mk = K @ Mk
        trace = add(*[as_expr(Mk[i, i]) for i in range(n)])
        coeffs.append(simplify(mul(const(Fraction(-1, k)), trace)))
    return coeffs


SYSTEMS = {
    "poly1": lambda: random_polynomial_sode(1, seed=3),
    "poly2": lambda: random_polynomial_sode(2, seed=61),
    "trig2": lambda: make(
        2, "3/4*sin(x2)*v1^2 + 1/2*exp(-1/3*t)*v2 + 5/8*cos(x1)*v1*v2",
        "-1/2*cos(x2)*v2^2 + 3/8*sin(x1)*v1 + 1/4*exp(t)*v1*v2"),
    "rational2": lambda: make(2, "v1^2/(1+x1^2) + x2*v2",
                              "v2^3/(x1+x2+2) - v1*v2"),
    "opaque_power2": lambda: make(2, "(x1+v1)^2*(x1+v1)^(-1)*v2^2",
                                  "x1*v1*v2 - t*x2"),
    "sqrt_log_exp2": lambda: make(2, "sqrt(x1^2 + 1)*v1^2 + log(2 + x2)*v2",
                                  "exp(t - x1)*v1*v2 - x2*v1^3"),
    "sparse4": lambda: make(4, "x2*v1^2 + v2", "x3*v2^2 + v3",
                            "x4*v3^2 + v4", "x1*v4^2 + v1"),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_charpoly_nodes_match_trace_recursion(name):
    s = SYSTEMS[name]()
    charpoly = kosambi_invariants(s).charpoly
    expected = _faddeev_leverrier(s)
    assert len(charpoly) == len(expected) == s.n + 1
    for got, want in zip(charpoly, expected):
        assert got is want


def test_charpoly_nodes_match_trace_recursion_dense(dense2_F):
    vars = VarSet.default(2)
    s = SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in dense2_F))
    for got, want in zip(kosambi_invariants(s).charpoly,
                         _faddeev_leverrier(s)):
        assert got is want


@pytest.mark.parametrize("name", ["poly2", "sparse4"])
def test_ktilde_is_minus_p(name):
    s = SYSTEMS[name]()
    P = splitting_curvature(s, check="none").P
    K = kosambi_invariants(s).Ktilde
    assert K.shape == P.shape == (s.n, s.n)
    for idx in np.ndindex(P.shape):
        assert K[idx] is mul(-1, P[idx])


def test_det_of_empty_and_1x1():
    assert _det([]) is ONE
    assert _det(np.empty((0, 0), dtype=object)) is ONE
    e = add(var("x1"), mul(2, var("v1")))
    assert _det([[e]]) is e
    assert _det(np.array([[e]], dtype=object)) is e


def test_inverse_1x1_metric():
    vars = VarSet.default(1)
    g = parse("1 + x1^2", vars)
    inv = riemann._inverse(MetricField(vars=vars, g=[[g]]))
    assert inv.shape == (1, 1)
    assert inv[0, 0] is mul(const(1), pow_(_det([[g]]), -1))
    assert inv[0, 0] is pow_(g, -1)
