"""`expressions.diff` as a walk, and `pow_` without recursion.

The outermost `diff` call iterates `_postorder` and enters each distinct
node once through the module-level name, so no depth is limited: a chain
far deeper than the interpreter's recursion limit differentiates, through
`diff` and through the builders that call it (`sode._jacobian`,
`sode.directional`), where a test-local copy of the recursive `diff` that
the walk replaced raises RecursionError.  Nodes are interned, so every
result is checked with `is` against that copy, on chains and on the arrays
of one connection.  `pow_` unwraps a power base in place; it is checked
with `is` against a copy of the one-level recursion it replaced."""

import itertools
from fractions import Fraction

import pytest

from chernsode.chern import connection
from chernsode.expressions import (
    Add, Call, Const, Expr, Mul, ONE, Pow, Var, ZERO, add, const, diff, div,
    mul, neg, pow_, var,
)
from chernsode.sode import _jacobian, directional, random_polynomial_sode

DEPTH = 1500


def _recursive_diff(e, name, _memo=None):
    """`diff` before the walk: a recursion that passes one memo, keyed by
    node, from the outermost call down."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if _memo is None:
        _memo = {}
    else:
        out = _memo.get(e)
        if out is not None:
            return out
    if isinstance(e, Add):
        out = add(*[_recursive_diff(t, name, _memo) for t in e.terms])
    elif isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = _recursive_diff(f, name, _memo)
            if df is not ZERO:
                terms.append(mul(*e.factors[:i], df, *e.factors[i + 1:]))
        out = add(*terms)
    elif isinstance(e, Pow):
        db = _recursive_diff(e.base, name, _memo)
        out = ZERO if db is ZERO else \
            mul(e.exponent, pow_(e.base, e.exponent - 1), db)
    elif isinstance(e, Call):
        da = _recursive_diff(e.arg, name, _memo)
        if da is ZERO:
            out = ZERO
        else:
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
            out = mul(outer, da)
    else:
        raise TypeError(f"cannot differentiate {type(e).__name__}")
    _memo[e] = out
    return out


def _recursive_pow(base, exponent):
    """`pow_` before the in-place unwrapping: a Pow base recursed once."""
    base = base if isinstance(base, Expr) else const(base)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Const(base.value ** exponent)
    if isinstance(base, Pow):
        return _recursive_pow(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def _sin_chain(depth):
    """e_0 = sin(v1 + x1) and e_{j+1} = sin(e_j + v1), down to e_depth."""
    e = Call("sin", add(var("v1"), var("x1")))
    for _ in range(depth):
        e = Call("sin", add(e, var("v1")))
    return e


def _chain(k):
    """e_0 = x1 and e_{j+1} = sin(e_j) + cos(e_j): 2^k paths, 3k + 1 nodes."""
    e = var("x1")
    for _ in range(k):
        e = add(Call("sin", e), Call("cos", e))
    return e


# --------------------------------------------------------------------------
# depth
# --------------------------------------------------------------------------

def test_deep_chain_beyond_the_recursion_limit():
    """The recursion fails on the chain, the walk takes it."""
    e = _sin_chain(DEPTH)
    with pytest.raises(RecursionError):
        _recursive_diff(e, "x1")
    for name in ("x1", "v1"):
        d = diff(e, name)
        assert d is not ZERO
        assert d is diff(e, name)
    assert diff(e, "t") is ZERO


def test_deep_chain_through_the_derivative_builders():
    e = _sin_chain(DEPTH)
    coords = ("x1", "v1")
    jac = _jacobian([e], coords)
    assert jac.shape == (1, 2)
    assert jac[0, 0] is diff(e, "x1") and jac[0, 1] is diff(e, "v1")
    v1 = var("v1")
    assert directional((v1, ONE), coords, e) is \
        add(mul(v1, diff(e, "x1")), diff(e, "v1"))


# --------------------------------------------------------------------------
# same nodes as the recursion
# --------------------------------------------------------------------------

def test_same_nodes_as_the_recursion_on_chains():
    for e in (_sin_chain(300), _chain(8)):
        for name in ("x1", "v1", "t"):
            assert diff(e, name) is _recursive_diff(e, name)


def _connection_arrays(conn):
    """Gamma, the structure functions, the torsion blocks and array and the
    curvature table and array of a connection, as one list of entries."""
    arrays = [conn.gamma, conn.structure_functions, conn.torsion.P,
              conn.torsion.T, conn.torsion_array, conn.curvature.A,
              conn.curvature.B, conn.curvature.R, conn.curvature_array]
    return [e for arr in arrays for e in arr.flat]


def test_same_nodes_as_the_recursion_on_a_connection():
    s = random_polynomial_sode(2, seed=61)
    entries = _connection_arrays(connection(s))
    assert entries
    for e in entries:
        for name in s.coords:
            assert diff(e, name) is _recursive_diff(e, name)


# --------------------------------------------------------------------------
# pow_
# --------------------------------------------------------------------------

def _bases():
    x1, v1 = var("x1"), var("v1")
    return [x1, add(x1, v1), pow_(x1, 3), pow_(x1, -1), const(2)]


def test_pow_is_the_recursion():
    for base in _bases():
        for k, m in itertools.product(range(-3, 4), repeat=2):
            assert pow_(pow_(base, k), m) is \
                _recursive_pow(_recursive_pow(base, k), m)
        for k in range(-3, 4):
            assert pow_(base, k) is _recursive_pow(base, k)


def test_pow_unwraps_a_power_base():
    x1 = var("x1")
    assert pow_(pow_(x1, -1), -1) is x1
    assert pow_(pow_(x1, 3), 2) is Pow(x1, 6)
    assert pow_(pow_(x1, 2), 0) is ONE
    assert pow_(pow_(add(x1, var("v1")), 2), -1) is \
        Pow(add(x1, var("v1")), -2)
    with pytest.raises(ZeroDivisionError):
        pow_(const(0), -1)
