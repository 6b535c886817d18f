import functools
import hashlib
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernsode.classify import kosambi_invariants
from chernsode.expressions import (
    Add, DomainError, ParseError, UnknownIdentifier, VarSet, add, call,
    compile_expr, const, diff, evaluate, fd_diff, free_variables,
    is_polynomial, mul, neg, parse, pow_, simplify, substitute, to_string,
    var,
)
from chernsode.sode import SodeSystem

VARS = VarSet(time="t", positions=("x1", "x2"), velocities=("v1", "v2"))


def env(**kw):
    base = {name: 0.0 for name in VARS.names}
    base.update(kw)
    return base


class TestParse:
    def test_product(self):
        e = parse("x1*v2", VARS)
        assert e == mul(var("x1"), var("v2"))

    def test_power_of_call(self):
        e = parse("sin(x1)^2", VARS)
        assert e == pow_(call("sin", var("x1")), 2)

    def test_unknown_identifier(self):
        small = VarSet(time="t", positions=("x1",), velocities=("v1",))
        with pytest.raises(UnknownIdentifier):
            parse("x3", small)

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse("tan(x1)", VARS)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1*", VARS)
        assert err.value.position == 3

    def test_precedence(self):
        assert evaluate(parse("2+3*4", VARS), env()) == 14.0
        assert evaluate(parse("2*3^2", VARS), env()) == 18.0
        assert evaluate(parse("-2^2", VARS), env()) == -4.0
        assert evaluate(parse("2-3-4", VARS), env()) == -5.0
        assert evaluate(parse("8/4/2", VARS), env()) == 1.0

    def test_integer_exponents_only(self):
        with pytest.raises(ParseError):
            parse("x1^v1", VARS)
        with pytest.raises(ParseError):
            parse("x1^1.5", VARS)
        assert evaluate(parse("2^(-2)", VARS), env()) == 0.25

    def test_decimal_literals_exact(self):
        e = parse("0.5*x1", VARS)
        assert evaluate(e, env(x1=3.0)) == 1.5

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse("x1 @ v1", VARS)
        with pytest.raises(ParseError):
            parse("(x1", VARS)


class TestDiff:
    def test_product_rule(self):
        assert simplify(diff(parse("x1*v2", VARS), "x1")) == var("v2")

    def test_chain_rule(self):
        got = simplify(diff(parse("sin(x1)^2", VARS), "x1"))
        expected = simplify(mul(2, call("sin", var("x1")), call("cos", var("x1"))))
        assert got == expected

    def test_third_derivative(self):
        e = parse("v1^3", VARS)
        assert simplify(diff(diff(diff(e, "v1"), "v1"), "v1")) == const(6)

    def test_quotient(self):
        e = parse("x1/v1", VARS)
        d = diff(e, "v1")
        assert abs(evaluate(d, env(x1=2.0, v1=3.0)) - (-2.0 / 9.0)) < 1e-15


class TestEvaluate:
    def test_values(self):
        assert evaluate(parse("x1*v2", VARS), env(x1=2.0, v2=3.0)) == 6.0
        assert evaluate(parse("sin(x1)", VARS), env(x1=0.0)) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/x1", VARS), env(x1=0.0))
        with pytest.raises(DomainError):
            evaluate(parse("log(x1)", VARS), env(x1=0.0))
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x1)", VARS), env(x1=-1.0))


class TestSimplify:
    def test_cancellation(self):
        assert simplify(parse("x1 - x1", VARS)) == const(0)

    def test_constant_folding(self):
        assert simplify(parse("0*v1 + 2*3", VARS)) == const(6)

    def test_collect_like_terms(self):
        got = simplify(parse("v1*x1 + x1*v1", VARS))
        assert got == simplify(parse("2*x1*v1", VARS))

    def test_polynomial_zero(self):
        e = parse("(x1+1)^2 - x1^2 - 2*x1 - 1", VARS)
        assert simplify(e) == const(0)

    def test_trig_atoms_collect(self):
        e = parse("cos(x1)*sin(x1) - sin(x1)*cos(x1)", VARS)
        assert simplify(e) == const(0)

    def test_sqrt_fold(self):
        assert simplify(parse("sqrt(9)", VARS)) == const(3)
        assert simplify(call("sqrt", const(Fraction(4, 9)))) == const(Fraction(2, 3))

    def test_is_polynomial(self):
        assert is_polynomial(parse("x1^3*v2 - 2", VARS))
        assert not is_polynomial(parse("sin(x1)", VARS))
        assert not is_polynomial(parse("1/x1", VARS))


# random expression strategy: polynomial-ish trees plus guarded calls
def leaf():
    return st.one_of(
        st.sampled_from([var(n) for n in VARS.names]),
        st.integers(-4, 4).map(const),
        st.fractions(min_value=-3, max_value=3, max_denominator=8).map(const),
    )


def exprs(max_leaves=12):
    return st.recursive(
        leaf(),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: add(*ab)),
            st.tuples(sub, sub).map(lambda ab: mul(*ab)),
            st.tuples(sub, st.integers(0, 3)).map(lambda bk: pow_(*bk)),
            sub.map(neg),
            sub.map(lambda a: call("sin", a)),
            sub.map(lambda a: call("cos", a)),
        ),
        max_leaves=max_leaves,
    )


def random_env(rng):
    return {name: rng.uniform(-1.5, 1.5) for name in VARS.names}


@settings(max_examples=150, deadline=None)
@given(exprs(), st.integers(0, 2 ** 32 - 1))
def test_fd_matches_diff(e, seed):
    rng = np.random.default_rng(seed)
    p = random_env(rng)
    for name in ("x1", "v2"):
        exact = evaluate(diff(e, name), p)
        approx = fd_diff(e, name, p, 1e-4)
        assert abs(approx - exact) <= 1e-6 * (1.0 + abs(exact))


@settings(max_examples=150, deadline=None)
@given(exprs(), st.integers(0, 2 ** 32 - 1))
def test_print_parse_roundtrip(e, seed):
    text = to_string(e)
    back = parse(text, VARS)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        p = random_env(rng)
        a, b = evaluate(e, p), evaluate(back, p)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


@settings(max_examples=150, deadline=None)
@given(exprs())
def test_simplify_idempotent(e):
    s = simplify(e)
    assert simplify(s) == s


@settings(max_examples=100, deadline=None)
@given(exprs(), st.integers(0, 2 ** 32 - 1))
def test_simplify_preserves_value(e, seed):
    rng = np.random.default_rng(seed)
    p = random_env(rng)
    a = evaluate(e, p)
    b = evaluate(simplify(e), p)
    assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


def test_fd_examples():
    assert abs(fd_diff(call("sin", var("x1")), "x1", env(x1=0.0), 1e-4) - 1.0) < 1e-8
    assert abs(fd_diff(parse("x1^2", VARS), "x1", env(x1=3.0), 1e-4) - 6.0) < 1e-8


def test_compile_matches_evaluate():
    e = parse("sin(x1)*v2 + x1^3 - exp(t)/2", VARS)
    fn = compile_expr(e, VARS.names)
    rng = np.random.default_rng(7)
    pts = [random_env(rng) for _ in range(20)]
    batch = [np.array([p[nm] for p in pts]) for nm in VARS.names]
    out = fn(batch)
    for i, p in enumerate(pts):
        assert abs(out[i] - evaluate(e, p)) < 1e-12


def test_substitute():
    e = parse("x1^2 + v1", VARS)
    got = substitute(e, {"x1": add(var("t"), const(1))})
    assert abs(evaluate(got, env(t=2.0, v1=5.0)) - 14.0) < 1e-12


def test_free_variables():
    assert free_variables(parse("x1*sin(v2) + t", VARS)) == {"x1", "v2", "t"}


def test_varset_validation():
    with pytest.raises(ValueError):
        VarSet(time="t", positions=("a", "a"), velocities=("b", "c"))
    with pytest.raises(ValueError):
        VarSet(time="sin", positions=("a",), velocities=("b",))
    vs = VarSet.default(2)
    assert vs.names == ("t", "x1", "x2", "v1", "v2")
    assert vs.role("v2") == "velocity"


def test_compile_wide_sum_left_to_right():
    # one emitted line per term would exceed the compiler's nesting limit
    names = VARS.names
    terms = [mul(const(Fraction(k % 13 - 6, k % 7 + 1)),
                 pow_(var(names[k % 5]), k % 4 + 1), var(names[(k + 2) % 5]))
             for k in range(5000)]
    rng = np.random.default_rng(3)
    batch = [rng.uniform(-1.5, 1.5, 16) for _ in names]
    got = compile_expr(add(*terms), names)(batch)
    want = functools.reduce(operator.add,
                            (compile_expr(t, names)(batch) for t in terms))
    assert np.array_equal(got, want)


def test_compile_wide_product_left_to_right():
    names = VARS.names
    factors = [add(const(1), mul(const(Fraction(k % 9 - 4, 4096)),
                                 var(names[k % 5])))
               for k in range(5000)]
    rng = np.random.default_rng(4)
    batch = [rng.uniform(-1.5, 1.5, 16) for _ in names]
    got = compile_expr(mul(*factors), names)(batch)
    want = functools.reduce(operator.mul,
                            (compile_expr(f, names)(batch) for f in factors))
    assert np.array_equal(got, want)


class TestNormalForm:
    """Pinned outputs of the canonical form, so that a change to it cannot
    reorder terms or rewrite coefficients unnoticed."""

    @pytest.mark.parametrize("text, expected", [
        ("sin(x1)^2*cos(x2) + 2*sin(x1)*v1 - cos(x2)*sin(x1)^2"
         " + exp(t)*x1*exp(t)",
         "exp(t)^2*x1 + 2*sin(x1)*v1"),
        ("cos(x1 + x2)*(sin(v1) - 1)^2 - sin(v1)^2*cos(x2 + x1)",
         "cos(x1 + x2) - 2*cos(x1 + x2)*sin(v1)"),
        ("(1 + x1^2)^(-2)*(2*x1 + 2*x1^3) + 3/(2*v1 + 4*x2)"
         " - v1/(x2 + 1/2*v1)",
         "2*(1 + x1^2)^(-2)*x1 + 2*(1 + x1^2)^(-2)*x1^3"
         " - 2*v1*(v1 + 2*x2)^(-1) + 3/2*(v1 + 2*x2)^(-1)"),
        ("(x1 + v1)^3*(x1 - v1)^(-1) - t/(2*x1^2*v1)^2",
         "-1/4*t*v1^(-2)*x1^(-4) - 3*v1*(v1 - x1)^(-1)*x1^2"
         " - 3*v1^2*(v1 - x1)^(-1)*x1 - v1^3*(v1 - x1)^(-1)"
         " - (v1 - x1)^(-1)*x1^3"),
        ("sqrt(4) + sqrt(9/4)*x1 + sqrt(2) + sqrt(x1^2 - x1^2 + 16)*v2"
         " + log(1) + exp(0)*v1 + cos(0) + sin(0)",
         "3 + sqrt(2) + v1 + 4*v2 + 3/2*x1"),
        ("sin((x1 + v1)^2 - x1^2 - v1^2) + sqrt(x2)^2 - exp(2*x1)/exp(x1 + x1)",
         "-1 + sin(2*v1*x1) + sqrt(x2)^2"),
        ("(t - 1/3)^4 - (t^2 - 2/3*t)^2",
         "1/81 - 4/27*t + 2/9*t^2"),
    ])
    def test_mixed(self, text, expected):
        assert to_string(simplify(parse(text, VARS))) == expected

    def test_dense_kosambi_charpoly(self, dense2_F):
        s = SodeSystem(vars=VARS, F=tuple(parse(f, VARS) for f in dense2_F))
        charpoly = kosambi_invariants(s).charpoly
        assert [len(c.terms) if isinstance(c, Add) else 1
                for c in charpoly] == [1, 270, 3375]
        text = "\n".join(to_string(c) for c in charpoly)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "5fb6317bb7dd52a2e0980324cfac765a35304b3fc011c46fb5f959676aec214a"
