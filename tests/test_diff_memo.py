"""`expressions.diff` with one memo per outermost call.

The recursion passes a memo keyed by node through the module-level `diff`,
so a node that a DAG shares is differentiated once per call.  Nodes are
interned, so the memo cannot change a result: every derivative is checked
with `is` against a test-local copy of the tree-walking recursion, on the
arrays that tests/test_jacobian_arrays.py covers."""

import time
from fractions import Fraction

import pytest

from chernsode import expressions
from chernsode.chern import connection_data, curvature_components
from chernsode.expressions import (
    Add, Call, Const, Mul, ONE, Pow, Var, VarSet, ZERO, add, const, diff, div,
    mul, neg, parse, pow_,
)
from chernsode.sode import (
    SodeSystem, _jacobian, coframe_symbolic, frame_symbolic, lie_derivative_J,
    random_polynomial_sode, splitting_P, splitting_T,
)


def _old_diff(e, name):
    """The recursion before the memo: a walk over the tree."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return add(*[_old_diff(t, name) for t in e.terms])
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = _old_diff(f, name)
            if df is not ZERO:
                terms.append(mul(*e.factors[:i], df, *e.factors[i + 1:]))
        return add(*terms)
    if isinstance(e, Pow):
        db = _old_diff(e.base, name)
        if db is ZERO:
            return ZERO
        return mul(e.exponent, pow_(e.base, e.exponent - 1), db)
    if isinstance(e, Call):
        da = _old_diff(e.arg, name)
        if da is ZERO:
            return ZERO
        if e.func == "sin":
            outer = Call("cos", e.arg)
        elif e.func == "cos":
            outer = neg(Call("sin", e.arg))
        elif e.func == "exp":
            outer = e
        elif e.func == "log":
            outer = pow_(e.arg, -1)
        else:  # sqrt
            outer = div(const(Fraction(1, 2)), e)
        return mul(outer, da)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def _trig2():
    vs = VarSet.default(2)
    return SodeSystem(vars=vs, F=(
        parse("3/4*sin(x2)*v1^2 + 1/2*exp(-1/3*t)*v2 + 5/8*cos(x1)*v1*v2", vs),
        parse("-1/2*cos(x2)*v2^2 + 3/8*sin(x1)*v1 + 1/4*exp(t)*v1*v2", vs)))


SYSTEMS = [random_polynomial_sode(1, seed=3), random_polynomial_sode(2, seed=61),
           random_polynomial_sode(3, seed=3000), _trig2()]
IDS = ["poly1", "poly2", "poly3", "trig2"]


def _arrays(s):
    """F, its partials, the connection data, the frames, L_X J, P, T and,
    below n = 3 (where the tree walk takes seconds), the curvature table:
    the arrays test_jacobian_arrays.py checks."""
    data = connection_data(s)
    out = [s.F, _jacobian(s.F, s.vars.velocities),
           _jacobian(s.F, s.vars.positions), data.W, data.V,
           frame_symbolic(s), coframe_symbolic(s), lie_derivative_J(s),
           splitting_P(s), splitting_T(s)]
    if s.n < 3:
        comp = curvature_components(s)
        out += [comp.A, comp.B]
    return out


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_same_nodes_as_the_tree_walk(s):
    for arr in _arrays(s):
        for e in getattr(arr, "flat", arr):
            for name in s.coords:
                assert diff(e, name) is _old_diff(e, name)


def _chain(k):
    """e_0 = x1 and e_{j+1} = sin(e_j) + cos(e_j): 2^k paths, 3k + 1 nodes."""
    e = parse("x1", VarSet.default(1))
    for _ in range(k):
        e = add(Call("sin", e), Call("cos", e))
    return e


def test_shared_dag_is_linear():
    e = _chain(60)
    t0 = time.perf_counter()
    d = diff(e, "x1")
    assert time.perf_counter() - t0 < 1.0
    assert d is diff(e, "x1")
    small = _chain(8)
    assert diff(small, "x1") is _old_diff(small, "x1")


def test_recursion_reenters_through_the_module_name(monkeypatch):
    """Each distinct node is entered once through `expressions.diff`, and
    the memo of one call is not seen by the next."""
    entries = []
    original = expressions.diff

    def counted(e, name, *memo):
        entries.append(e)
        return original(e, name, *memo)

    monkeypatch.setattr(expressions, "diff", counted)
    e = _chain(10)
    expressions.diff(e, "x1")
    first = len(entries)
    assert first < 3 * 10 * 3
    assert len(set(map(id, entries))) == 3 * 10 + 1
    expressions.diff(e, "x1")
    assert len(entries) == 2 * first
