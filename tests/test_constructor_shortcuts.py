"""The node constructors' short-cuts.

A constant of value 0 is ZERO or the table's const(0), and one of value 1 is
ONE or const(1), which the module keeps alive, so `add` and `mul` test those
values by identity, with no Fraction comparison.  The operator sugar returns
at once when an operand is ZERO: the node it returns is the node `add`,
`neg` and `mul` build."""

import fractions
import gc
import random
import sys
from fractions import Fraction

import pytest

from chernsode import expressions
from chernsode.expressions import (
    ONE, ZERO, Add, Call, Const, Mul, Pow, Var, VarSet, add, call, const, div,
    mul, neg, parse, pow_, simplify, var,
)

V2 = VarSet.default(2)


def _zeros():
    return [const(0), const(0.0), const(-0.0), const(Fraction(0, 7)),
            Const(0), Const(0.0), Const(Fraction(0)), parse("0", V2),
            parse("0.0", V2), parse("-0", V2), parse("3/4 - 0.75", V2),
            parse("0*x1", V2), add(const(2), -2), mul(0, var("x1")),
            simplify(parse("x1 - x1", V2))]


def _ones():
    return [const(1), const(1.0), const(Fraction(3, 3)), Const(1),
            Const(1.0), Const(Fraction(1)), parse("1", V2), parse("1.0", V2),
            parse("2/2", V2), parse("(1/2)*2", V2), mul(Fraction(1, 2), 2),
            pow_(const(1), 5), div(3, const(3)), parse("x1^0", V2),
            simplify(parse("x1/x1", V2))]


def test_zero_and_one_valued_constants_are_two_nodes_each():
    for e in _zeros():
        assert e is ZERO or e is const(0), e
    for e in _ones():
        assert e is ONE or e is const(1), e
    assert const(0) is not ZERO and const(1) is not ONE
    # the table's nodes stay alive: no collection makes a second one
    kept = id(const(0)), id(const(1))
    gc.collect()
    assert (id(const(0.0)), id(const(1.0))) == kept
    assert expressions._CONST_ZERO is const(0)
    assert expressions._CONST_ONE is const(1)


def _pool(seed, size=200):
    """Seeded nodes of every class, built by the constructors, plus the four
    zero- and one-valued constants and sums with their constant first, which
    `simplify` builds and `add` does not."""
    rng = random.Random(seed)
    leaves = [var(name) for name in V2.names] + [
        const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(6)]
    pool = leaves + [ZERO, ONE, const(0), const(1)]
    for _ in range(size):
        a, b = rng.choice(pool), rng.choice(pool)
        kind = rng.randrange(5)
        if kind == 0:
            e = add(a, b, rng.choice(leaves))
        elif kind == 1:
            e = mul(a, b)
        elif kind == 2:
            e = pow_(add(a, var("x1")), rng.choice((-2, -1, 2, 3)))
        elif kind == 3:
            e = call(rng.choice(expressions.FUNCTIONS), a)
        else:
            e = a - b
        pool.append(e)
    pool += [simplify(parse("x1 + 2", V2)), simplify(parse("3 - x2*v1", V2))]
    return pool


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zero_sugar_returns_the_constructor_node(seed):
    pool = _pool(seed)
    assert {type(x) for x in pool} == {Const, Var, Add, Mul, Pow, Call}
    for x in pool:
        assert x + ZERO is add(x, ZERO), x
        assert ZERO + x is add(ZERO, x), x
        assert x - ZERO is add(x, neg(ZERO)), x
        assert x * ZERO is mul(x, ZERO) is ZERO, x
        assert ZERO * x is mul(ZERO, x) is ZERO, x
        if type(x) is not Add:      # returned at once
            want = ZERO if x == ZERO else x
            assert x + ZERO is ZERO + x is x - ZERO is want, x
    assert const(0) + ZERO is ZERO + const(0) is const(0) - ZERO is ZERO


def test_sums_with_their_constant_first_are_rebuilt():
    """`simplify` puts the constant of a sum first and `add` puts it last, so
    x + ZERO runs `add` on a sum, which moves the constant."""
    x = simplify(parse("x1 + 2", V2))
    assert type(x.terms[0]) is Const
    assert x + ZERO is add(x, ZERO) is not x
    assert (x + ZERO).terms == x.terms[1:] + x.terms[:1]


def test_no_fraction_test_for_constants_that_do_not_fold(monkeypatch):
    """add and mul skip a zero term, a one factor or a zero product by node
    identity: with at most one constant other than those, they never ask a
    Fraction for its truth value or compare it."""
    x, y = var("x1"), call("sin", var("v2"))
    c, d = const(Fraction(3, 2)), const(-2)
    s, p = add(x, c), mul(d, x, y)
    cases = [
        (add, (x, c)), (add, (c, x, ZERO)), (add, (x, const(0), y)),
        (add, (s, ZERO)), (add, (s, const(0), y)), (add, (const(0), ZERO)),
        (add, (c,)), (add, ()),
        (mul, (x, d)), (mul, (d, ONE, y)), (mul, (x, const(1), y)),
        (mul, (p, ONE)), (mul, (p, const(1))), (mul, (x, ZERO)),
        (mul, (c, const(0), y)), (mul, (const(1), ONE)), (mul, ()),
    ]
    want = [f(*args) for f, args in cases]
    sugar = [(x, ZERO), (ZERO, x), (s, ZERO), (c, ZERO), (const(0), ZERO),
             (ONE, ZERO), (ZERO, const(1))]
    want_sugar = [(a + b, a - b, a * b) for a, b in sugar]
    # calls made by add and mul themselves: the node table may compare two
    # constants of equal hash (const(-1) and const(-2) hash alike)
    calls = []
    for name in ("__bool__", "__eq__"):
        real = getattr(Fraction, name)

        def counted(self, *other, name=name, real=real):
            caller = sys._getframe(1).f_code
            if caller in (add.__code__, mul.__code__):
                calls.append((name, caller.co_name))
            return real(self, *other)

        monkeypatch.setattr(fractions.Fraction, name, counted)
    got = [f(*args) for f, args in cases]
    got_sugar = [(a + b, a - b, a * b) for a, b in sugar]
    monkeypatch.undo()
    assert calls == []
    assert all(g is w for g, w in zip(got, want))
    assert all(g is w for gs, ws in zip(got_sugar, want_sugar)
               for g, w in zip(gs, ws))
