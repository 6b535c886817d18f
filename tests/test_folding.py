"""Constant folding in the smart constructors `add` and `mul`, and the bounded
compile cache.

`add` and `mul` fold constants without Fraction arithmetic where no two
non-trivial constants meet; they must build exactly the trees of the
Fraction-accumulating constructors they replaced, kept here as reference.
"""

import gc
import hashlib
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernsode import chern, expressions
from chernsode.expressions import (
    Add, Const, Mul, ONE, VarSet, ZERO, add, call, compile_expr, const, mul,
    parse, pow_, to_string, var,
)
from chernsode.sode import (
    SodeSystem, lie_derivative_J, random_polynomial_sode, splitting_curvature,
)

VARS = VarSet.default(2)


# -- the constructors as they were: one Fraction accumulator per call -------

def reference_add(*xs):
    terms = []
    c = Fraction(0)
    for x in map(const, xs):
        if isinstance(x, Const):
            c += x.value
        elif isinstance(x, Add):
            for t in x.terms:
                if isinstance(t, Const):
                    c += t.value
                else:
                    terms.append(t)
        else:
            terms.append(x)
    if c != 0:
        terms.append(Const(c))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def reference_mul(*xs):
    factors = []
    c = Fraction(1)
    for x in map(const, xs):
        if isinstance(x, Const):
            c *= x.value
        elif isinstance(x, Mul):
            for f in x.factors:
                if isinstance(f, Const):
                    c *= f.value
                else:
                    factors.append(f)
        else:
            factors.append(x)
    if c == 0:
        return ZERO
    if c != 1:
        factors.insert(0, Const(c))
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


# -- operands ---------------------------------------------------------------

def constants():
    """Zeros and ones both as the singletons and as fresh nodes, -1, pairs
    that cancel in a sum or a product, and other rationals."""
    return st.one_of(
        st.sampled_from([0, 1, -1]).map(Const),
        st.sampled_from([ZERO, ONE]),
        st.sampled_from([2, Fraction(1, 2), -2, Fraction(-1, 3), -3]).map(
            Const),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).map(Const),
    )


def nodes():
    """Trees with constant terms and factors at every level: built by the
    reference constructors, and as raw Add/Mul nodes that the constructors
    never build (several constants, zeros, ones)."""
    leaves = st.one_of(constants(),
                       st.sampled_from([var(n) for n in VARS.names]))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.lists(sub, max_size=4).map(lambda xs: reference_add(*xs)),
            st.lists(sub, max_size=4).map(lambda xs: reference_mul(*xs)),
            st.lists(sub, min_size=2, max_size=4).map(
                lambda xs: Add(tuple(xs))),
            st.lists(sub, min_size=2, max_size=4).map(
                lambda xs: Mul(tuple(xs))),
            st.tuples(sub, st.integers(-2, 3)).filter(
                lambda bk: not (isinstance(bk[0], Const)
                                and bk[0].value == 0 and bk[1] < 0)).map(
                lambda bk: pow_(*bk)),
            sub.map(lambda a: call("sin", a)),
        ),
        max_leaves=10,
    )


def operands():
    """What callers pass: nodes, constants, ints and floats."""
    return st.lists(st.one_of(
        nodes(), constants(), st.integers(-3, 3),
        st.floats(min_value=-4, max_value=4, allow_nan=False, width=32)),
        max_size=6)


def same_tree(got, want):
    assert got == want
    assert to_string(got) == to_string(want)
    assert type(got) is type(want)
    assert (got is ZERO) == (want is ZERO)
    if isinstance(want, (Add, Mul)):
        kids = got.terms if isinstance(want, Add) else got.factors
        ref = want.terms if isinstance(want, Add) else want.factors
        assert [type(k) for k in kids] == [type(k) for k in ref]


@settings(max_examples=400, deadline=None)
@given(operands())
def test_add_matches_reference(xs):
    same_tree(add(*xs), reference_add(*xs))


@settings(max_examples=400, deadline=None)
@given(operands())
def test_mul_matches_reference(xs):
    same_tree(mul(*xs), reference_mul(*xs))


def test_singletons_and_errors():
    x = var("x1")
    assert add() is ZERO and mul() is ONE
    assert mul(x, 0, var("v1")) is ZERO
    assert mul(x, Const(0)) is ZERO
    assert add(Const(0), 0, 0.0) is ZERO
    assert add(x, Const(2), Const(-2)) is x
    assert mul(Const(2), x, Fraction(1, 2)) is x
    lone = Const(Fraction(3, 7))
    assert add(x, lone).terms[-1] is lone
    assert mul(x, lone).factors[0] is lone
    # a bad operand raises even where the result is already known to be 0
    with pytest.raises(TypeError):
        mul(0, "x1")
    with pytest.raises(TypeError):
        add(x, None)


# -- pinned trees -------------------------------------------------------------

def _digest(s):
    """SHA-256 of to_string over the splitting curvature (P, T), every
    structure-equation torsion and curvature entry, and L_X J."""
    sc = splitting_curvature(s, check="none")
    gamma = chern.frame_christoffels(s)
    pairs = list(combinations(range(2 * s.n + 1), 2))
    arrays = [sc.P, sc.T, lie_derivative_J(s)]
    arrays += [chern.torsion_definition(s, a, b, gamma) for a, b in pairs]
    arrays += [chern.curvature_definition(s, a, b, c, gamma)
               for a, b in pairs for c in range(2 * s.n + 1)]
    text = "\n".join(to_string(e) for M in arrays for e in np.ravel(M))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("s, digest", [
    (random_polynomial_sode(2, seed=61),
     "414c5b7fccb34605586fb8d836c4c518b270f57f2938a77433c1b43413a8d64a"),
    (SodeSystem(vars=VARS, F=(parse("sin(x1)*v2^2 + exp(t)*v1", VARS),
                              parse("cos(x2)*v1*v2 - x1*v2^3", VARS))),
     "b6494f67583dbef68beb6f1c9903eb201bee5c6242a27dd89dc70dd9c115f9c2"),
], ids=["poly2", "trig2"])
def test_oracle_trees_pinned(s, digest):
    assert _digest(s) == digest


# -- the bounded compile cache -----------------------------------------------

def test_compile_cache_is_bounded():
    cache = expressions._compile
    bound = cache.cache_info().maxsize
    assert bound is not None
    names = VARS.names
    exprs = [add(mul(Fraction(k + 1, 3), var("x1"), var("v2")),
                 Fraction(1, k + 2)) for k in range(bound + 20)]
    rng = np.random.default_rng(8)
    batch = [rng.uniform(-1.5, 1.5, 9) for _ in names]
    first = compile_expr(exprs[0], names)(batch)
    for e in exprs[1:]:
        compile_expr(e, names)
    info = cache.cache_info()
    assert info.currsize <= bound
    again = compile_expr(exprs[0], names)(batch)
    assert cache.cache_info().misses == info.misses + 1    # evicted
    assert again.tobytes() == first.tobytes()


def test_small_number_operands_share_a_node():
    x, v = var("x1"), var("v1")
    assert mul(-1, x).factors[0] is mul(-1, v).factors[0]
    assert mul(2, x).factors[0] is mul(2.0, v).factors[0]
    assert add(x, 3).terms[-1] is add(v, 3).terms[-1]
    assert const(2) == Const(2) and to_string(const(-1)) == to_string(Const(-1))
    # the shared nodes are not the singletons, as fresh constants never were
    assert const(0) is not ZERO and const(0) == ZERO
    assert const(1) is not ONE and const(1) == ONE
    assert mul(x, 0) is ZERO and mul(x, 1) is x and add(x, 0) is x
    assert const(Fraction(1, 2)).value == Fraction(1, 2)
    with pytest.raises(ValueError):
        const(float("nan"))
    with pytest.raises(TypeError):
        mul(x, "2")


def test_evicted_kernel_is_freed_without_gc():
    names = VARS.names
    kernel = weakref.ref(compile_expr(mul(Fraction(1, 10007), var("t")), names))
    gc.disable()
    try:
        for k in range(expressions._compile.cache_info().maxsize):
            compile_expr(add(var("t"), Fraction(k + 1, 10009)), names)
        assert kernel() is None
    finally:
        gc.enable()
