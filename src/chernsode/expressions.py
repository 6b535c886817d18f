"""Exact symbolic expression kernel.

Expression trees over a declared variable set: rational constants, sums,
products, integer powers, quotients and the unary functions sin, cos, exp,
log, sqrt.  Constants are kept as exact `Fraction`s so that polynomial
identities cancel to a literal zero under `simplify` and repeated runs are
bit-for-bit reproducible.

The numeric side lives here too: `compile_expr` and `evaluate` run one cached
program per expression, with numpy on point batteries or with `math` and
DomainError checks at one point; `fd_diff` is the finite-difference oracle
that cross-checks every symbolic derivative produced by `diff`.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import islice

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Pow", "Call",
    "VarSet", "ParseError", "UnknownIdentifier", "DomainError",
    "const", "var", "add", "mul", "pow_", "div", "neg", "call",
    "parse", "diff", "evaluate", "simplify", "fd_diff", "richardson",
    "to_string", "compile_expr", "run_programs", "free_variables", "substitute",
    "is_polynomial", "ZERO", "ONE",
]

FUNCTIONS = ("cos", "exp", "log", "sin", "sqrt")

# entries kept by each bounded memo (`simplify`, `_compile`, `sode._diff`),
# least recently used dropped first; one CLI task or one checked system
# reuses a few hundred
_CACHE_SIZE = 1024


class ParseError(Exception):
    """Syntax error with the 0-based offset of the offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(Exception):
    """Name that is neither a declared variable nor an allowed function."""

    def __init__(self, name, position=None):
        at = "" if position is None else f" (at position {position})"
        super().__init__(f"unknown identifier {name!r}{at}")
        self.name = name
        self.position = position


class DomainError(ArithmeticError):
    """Evaluation left the real domain (1/0, log(x<=0), sqrt(x<0)) or the
    float range."""


# --------------------------------------------------------------------------
# nodes
# --------------------------------------------------------------------------

class Expr:
    """Immutable expression node; subclasses set all fields at construction."""

    __slots__ = ("_hash",)

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other) or self._hash != other._hash:
            return False
        return self._key() == other._key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return to_string(self)

    # arithmetic sugar so numpy object arrays of Expr compose; NotImplemented
    # lets ndarray operands take over via their reflected operation
    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        return pow_(self, k)

    def __neg__(self):
        return neg(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value if isinstance(value, Fraction) else Fraction(value)
        self._hash = hash(("c", self.value))

    def _key(self):
        return self.value


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._hash = hash(("v", name))

    def _key(self):
        return self.name


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms
        self._hash = hash(("+",) + terms)

    def _key(self):
        return self.terms


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors
        self._hash = hash(("*",) + factors)

    def _key(self):
        return self.factors


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent
        self._hash = hash(("^", base, exponent))

    def _key(self):
        return (self.base, self.exponent)


class Call(Expr):
    __slots__ = ("func", "arg")

    def __init__(self, func, arg):
        self.func = func
        self.arg = arg
        self._hash = hash((func, arg))

    def _key(self):
        return (self.func, self.arg)


ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)
# shared nodes for the small numbers callers pass to add and mul, such as
# mul(-1, ...) and mul(2, ...); none of them is ZERO or ONE, so an `is ZERO`
# test reads the same as for a fresh Const
_SMALL_CONSTS = {k: Const(k) for k in range(-8, 9)}


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction, float)):
        c = _SMALL_CONSTS.get(x)
        return c if c is not None else Const(Fraction(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


# --------------------------------------------------------------------------
# smart constructors (cheap local folding only; canonical form is simplify's job)
# --------------------------------------------------------------------------

def const(value) -> Const:
    return _coerce(value)  # type: ignore[return-value]


def var(name: str) -> Var:
    return Var(name)


# add and mul fold every constant operand (and every constant term or factor
# of a flattened Add or Mul) into one: zeros in a sum and ones in a product are
# skipped, a lone constant passes through as it is, and Fraction arithmetic
# runs only where two other constants meet.  The folded constant goes last in
# a sum and first in a product.

def add(*xs) -> Expr:
    terms = []
    c = None                    # the nonzero constant so far
    for x in xs:
        tx = type(x)
        if tx is Add:
            parts = x.terms
        elif tx is Const:
            parts = (x,)
        elif isinstance(x, Expr):
            terms.append(x)
            continue
        else:
            parts = (_coerce(x),)
        for t in parts:
            if type(t) is not Const:
                terms.append(t)
            elif t.value:
                if c is None:
                    c = t
                else:
                    s = c.value + t.value
                    c = Const(s) if s else None
    if c is not None:
        terms.append(c)
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def mul(*xs) -> Expr:
    factors = []
    c = None                    # the constant other than 1 so far
    zero = False
    for x in xs:
        tx = type(x)
        if tx is Mul:
            parts = x.factors
        elif tx is Const:
            parts = (x,)
        elif isinstance(x, Expr):
            factors.append(x)
            continue
        else:
            parts = (_coerce(x),)
        for f in parts:
            if type(f) is not Const:
                factors.append(f)
            elif not f.value:
                zero = True
            elif f.value != 1:
                if c is None:
                    c = f
                else:
                    p = c.value * f.value
                    c = None if p == 1 else Const(p)
    if zero:
        return ZERO
    if c is not None:
        factors.insert(0, c)
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def pow_(base, exponent: int) -> Expr:
    base = _coerce(base)
    if not isinstance(exponent, int):
        raise TypeError("exponents must be integers")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Const(base.value ** exponent)
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def div(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("division by the constant 0")
        return mul(Const(1 / b.value), a)
    return mul(a, pow_(b, -1))


def neg(x) -> Expr:
    return mul(MINUS_ONE, _coerce(x))


def call(func: str, arg) -> Expr:
    if func not in FUNCTIONS:
        raise UnknownIdentifier(func)
    return Call(func, _coerce(arg))


# --------------------------------------------------------------------------
# variable sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VarSet:
    """Ordered variable names with roles: one time, n positions, n velocities."""

    time: str
    positions: tuple
    velocities: tuple
    parameters: tuple = ()

    def __post_init__(self):
        names = self.names
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"variable name {name!r} clashes with a function")

    @property
    def names(self):
        return (self.time,) + tuple(self.positions) + tuple(self.velocities) \
            + tuple(self.parameters)

    @property
    def n(self):
        return len(self.positions)

    @classmethod
    def default(cls, n: int) -> "VarSet":
        return cls(
            time="t",
            positions=tuple(f"x{i + 1}" for i in range(n)),
            velocities=tuple(f"v{i + 1}" for i in range(n)),
        )

    def role(self, name: str) -> str:
        if name == self.time:
            return "time"
        if name in self.positions:
            return "position"
        if name in self.velocities:
            return "velocity"
        if name in self.parameters:
            return "parameter"
        raise KeyError(name)


# --------------------------------------------------------------------------
# parser: precedence climbing over a small token stream
# --------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY_PREC = 3  # between * / and ^
_POW_PREC = 4
# calls, parentheses and unary signs open one level each; the parser recurses
# a few frames per level, so past this it raises ParseError, well before the
# interpreter's recursion limit
_MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse(text: str, vars: VarSet) -> Expr:
    """Parse an arithmetic expression over +, -, *, /, ^, the functions
    sin/cos/exp/log/sqrt and the names declared in `vars`.

    Precedence ^ > unary minus > * / > + -, binary operators left-associative;
    ^ takes a (possibly parenthesised, possibly signed) integer literal.
    Calls, parentheses and unary signs nest at most 100 levels deep.
    """
    tokens = _tokenize(text)
    idx = depth = 0

    def enter(pos):
        nonlocal depth
        depth += 1
        if depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", pos)

    def leave(e):
        nonlocal depth
        depth -= 1
        return e

    def peek():
        return tokens[idx]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def expect_op(symbol):
        kind, value, pos = advance()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)

    def parse_exponent():
        # integer literal, optionally signed, optionally parenthesised
        kind, value, pos = advance()
        sign = 1
        parenthesised = False
        if kind == "op" and value == "(":
            parenthesised = True
            kind, value, pos = advance()
        if kind == "op" and value == "-":
            sign = -1
            kind, value, pos = advance()
        if kind != "num" or not re.fullmatch(r"\d+", value):
            raise ParseError("exponent must be an integer literal", pos)
        if parenthesised:
            expect_op(")")
        return sign * int(value)

    def parse_atom():
        kind, value, pos = advance()
        if kind == "num":
            return Const(Fraction(Decimal(value)))
        if kind == "name":
            if peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise UnknownIdentifier(value, pos)
                advance()
                enter(pos)
                inner = parse_expr(0)
                expect_op(")")
                return leave(Call(value, inner))
            if value in vars.names:
                return Var(value)
            raise UnknownIdentifier(value, pos)
        if kind == "op" and value == "(":
            enter(pos)
            inner = parse_expr(0)
            expect_op(")")
            return leave(inner)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)

    def parse_unary():
        kind, value, pos = peek()
        if kind == "op" and value in ("-", "+"):
            advance()
            enter(pos)
            inner = parse_unary()
            return leave(neg(inner) if value == "-" else inner)
        return parse_power()

    def parse_power():
        base = parse_atom()
        while peek()[:2] == ("op", "^"):
            advance()
            base = pow_(base, parse_exponent())
        return base

    def parse_expr(min_prec):
        left = parse_unary()
        while True:
            kind, value, _ = peek()
            if kind != "op" or value not in _BIN_PREC or _BIN_PREC[value] < min_prec:
                return left
            advance()
            right = parse_expr(_BIN_PREC[value] + 1)
            if value == "+":
                left = add(left, right)
            elif value == "-":
                left = add(left, neg(right))
            elif value == "*":
                left = mul(left, right)
            else:
                left = div(left, right)

    result = parse_expr(0)
    kind, value, pos = peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", pos)
    return result


# --------------------------------------------------------------------------
# differentiation, and the finite-difference oracle that checks it
# --------------------------------------------------------------------------

def diff(e: Expr, name: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return add(*[diff(t, name) for t in e.terms])
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = diff(f, name)
            if df is not ZERO:
                terms.append(mul(*e.factors[:i], df, *e.factors[i + 1:]))
        return add(*terms)
    if isinstance(e, Pow):
        db = diff(e.base, name)
        if db is ZERO:
            return ZERO
        return mul(e.exponent, pow_(e.base, e.exponent - 1), db)
    if isinstance(e, Call):
        da = diff(e.arg, name)
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


def richardson(g, h: float):
    """Derivative at 0 of the function g of one offset: central differences
    D(e) = (g(e) - g(-e)) / (2e) with one Richardson extrapolation step,
    (4*D(h/2) - D(h)) / 3.  g may return scalars or numpy arrays."""

    def central(e):
        return (g(e) - g(-e)) / (2.0 * e)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def fd_diff(e: Expr, name: str, env, h: float = 1e-4) -> float:
    """Central-difference derivative with one Richardson extrapolation step
    (`richardson`).  Independent of `diff` by construction."""
    return richardson(lambda step: evaluate(e, {**env, name: env[name] + step}),
                      h)


# --------------------------------------------------------------------------
# canonical form
# --------------------------------------------------------------------------
#
# Normal form: a rational-monomial expansion.  A term is a Fraction times a
# monomial in "atoms" (variables, function applications, or multi-term
# polynomials raised to negative powers, kept opaque).  Products and
# non-negative integer powers are expanded, so any polynomial expression that
# is identically zero collapses to the literal 0.  Term order: atoms sorted by
# canonical string, monomials lexicographically by their (atom, exponent)
# sequence, then total degree -- fixed so golden outputs are stable.
#
# Working form, alive for one simplify/is_polynomial call: a polynomial is a
# pair (terms, den) mapping each monomial to a nonzero integer numerator over
# one positive common denominator; Fractions are built only by from_poly.  A
# monomial is a tuple of (atom key, exponent) pairs sorted by key, the key of
# an atom being its canonical string.  An _Expansion maps the keys back to
# atoms and expands each compound node once.

@lru_cache(maxsize=_CACHE_SIZE)
def simplify(e: Expr) -> Expr:
    """Canonical form of e; memoised in a bounded LRU cache
    (`simplify.cache_info()`)."""
    expansion = _Expansion()
    return expansion.from_poly(expansion.to_poly(e))


_POLY_ONE = ({(): 1}, 1)


def _reduced(terms, den):
    """Cancel the common factor of all numerators and the denominator."""
    g = math.gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {m: c // g for m, c in terms.items()}, den // g


def _poly_add(acc, terms, scale):
    """acc += scale * terms, in place; monomials that cancel are dropped."""
    for m, c in terms.items():
        s = acc.get(m, 0) + scale * c
        if s:
            acc[m] = s
        else:
            del acc[m]


def _mono_mul(m1, m2):
    """Merge two monomials, each sorted by atom key."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a[0] < b[0]:
            out.append(a)
            i += 1
        elif b[0] < a[0]:
            out.append(b)
            j += 1
        else:
            exp = a[1] + b[1]
            if exp:
                out.append((a[0], exp))
            i += 1
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def _poly_mul(p, q):
    (pt, pd), (qt, qd) = p, q
    out = {}
    for m1, c1 in pt.items():
        for m2, c2 in qt.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out, pd * qd


def _poly_pow(p, k):
    out = _POLY_ONE
    base = p
    while k:
        if k & 1:
            out = _poly_mul(out, base)
        k >>= 1
        if k:
            base = _poly_mul(base, base)
    return out


def _inverse_power(c, den, k):
    """(den/c)^k, the value of (c/den)^(-k), as (numerator, denominator > 0)."""
    num, d = den ** k, c ** k
    return (-num, -d) if d < 0 else (num, d)


class _Expansion:
    """State of one simplify/is_polynomial call: the atom behind each
    monomial key, and the polynomial of every compound node expanded so far
    (subtrees shared by several parents are expanded once)."""

    __slots__ = ("atoms", "memo")

    def __init__(self):
        self.atoms = {}
        self.memo = {}

    def key(self, atom):
        """The monomial key of atom (its canonical string), registered."""
        key = to_string(atom)
        self.atoms.setdefault(key, atom)
        return key

    def atom_mono(self, atom, exp=1):
        return {((self.key(atom), exp),): 1}, 1

    def to_poly(self, e):
        if isinstance(e, Const):
            v = e.value
            return ({(): v.numerator} if v else {}), v.denominator
        if isinstance(e, Var):
            return self.atom_mono(e)
        out = self.memo.get(e)
        if out is None:
            out = self.memo[e] = self._expand(e)
        return out

    def _expand(self, e):
        if isinstance(e, Add):
            polys = [self.to_poly(t) for t in e.terms]
            den = math.lcm(*(d for _, d in polys))
            acc = {}
            for terms, d in polys:
                _poly_add(acc, terms, den // d)
            return _reduced(acc, den)
        if isinstance(e, Mul):
            out = _POLY_ONE
            for f in e.factors:
                out = _poly_mul(out, self.to_poly(f))
            return _reduced(*out)
        if isinstance(e, Pow):
            terms, den = self.to_poly(e.base)
            if e.exponent >= 0:
                return _reduced(*_poly_pow((terms, den), e.exponent))
            if not terms:
                raise ZeroDivisionError("simplify: division by an identically-zero base")
            if len(terms) == 1:
                ((m, c),) = terms.items()
                inv_m = tuple((key, x * e.exponent) for key, x in m)
                num, d = _inverse_power(c, den, -e.exponent)
                return _reduced({inv_m: num}, d)
            # normalise by the leading coefficient so scalar multiples of the
            # same denominator polynomial share one atom
            lead = min(terms, key=_mono_sort_key)
            c0 = terms[lead]
            sign = 1 if c0 > 0 else -1
            monic = self.from_poly(({m: sign * c for m, c in terms.items()},
                                    sign * c0))
            num, d = _inverse_power(c0, den, -e.exponent)
            return _reduced({((self.key(monic), e.exponent),): num}, d)
        if isinstance(e, Call):
            arg = self.from_poly(self.to_poly(e.arg))
            folded = _fold_call(e.func, arg)
            if folded is not None:
                return self.to_poly(folded)
            return self.atom_mono(Call(e.func, arg))
        raise TypeError(f"cannot simplify {type(e).__name__}")

    def from_poly(self, p) -> Expr:
        terms, den = p
        if not terms:
            return ZERO
        out = []
        for mono in sorted(terms, key=_mono_sort_key):
            c = Fraction(terms[mono], den)
            factors = [pow_(self.atoms[key], exp) for key, exp in mono]
            if not factors:
                out.append(Const(c))
            elif c == 1:
                out.append(mul(*factors) if len(factors) > 1 else factors[0])
            else:
                out.append(mul(Const(c), *factors))
        if len(out) == 1:
            return out[0]
        return Add(tuple(out))


def _fold_call(func, arg):
    if not isinstance(arg, Const):
        return None
    v = arg.value
    if func == "sin" and v == 0:
        return ZERO
    if func == "cos" and v == 0:
        return ONE
    if func == "exp" and v == 0:
        return ONE
    if func == "log" and v == 1:
        return ZERO
    if func == "sqrt" and v >= 0:
        num = math.isqrt(v.numerator)
        den = math.isqrt(v.denominator)
        if num * num == v.numerator and den * den == v.denominator:
            return Const(Fraction(num, den))
    return None


def _mono_sort_key(mono):
    return (mono, sum(exp for _, exp in mono))


def is_polynomial(e: Expr) -> bool:
    """True when e expands to a polynomial (no function atoms, no negative
    powers) in its variables."""
    expansion = _Expansion()
    try:
        terms, _ = expansion.to_poly(e)
    except ZeroDivisionError:
        return False
    return all(exp > 0 and isinstance(expansion.atoms[key], Var)
               for mono in terms for key, exp in mono)


# --------------------------------------------------------------------------
# utilities
# --------------------------------------------------------------------------

def free_variables(e: Expr) -> frozenset:
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return frozenset(out)


def substitute(e: Expr, mapping) -> Expr:
    """Replace variables by expressions (mapping name -> Expr)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Add):
        return add(*[substitute(t, mapping) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[substitute(f, mapping) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, mapping))
    raise TypeError(f"cannot substitute in {type(e).__name__}")


# --------------------------------------------------------------------------
# printing (re-parseable)
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _render(e):
    # returns (text, precedence of outermost construct)
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            return (str(v.numerator), _PREC_ATOM if v >= 0 else _PREC_UNARY)
        return (f"{v.numerator}/{v.denominator}", _PREC_MUL if v >= 0 else _PREC_UNARY)
    if isinstance(e, Var):
        return (e.name, _PREC_ATOM)
    if isinstance(e, Call):
        return (f"{e.func}({_render(e.arg)[0]})", _PREC_ATOM)
    if isinstance(e, Pow):
        base, prec = _render(e.base)
        if prec < _PREC_ATOM:
            base = f"({base})"
        if e.exponent < 0:
            return (f"{base}^(-{-e.exponent})", _PREC_POW)
        return (f"{base}^{e.exponent}", _PREC_POW)
    if isinstance(e, Mul):
        factors = e.factors
        prefix = ""
        if factors and isinstance(factors[0], Const) and factors[0].value == -1 \
                and len(factors) > 1:
            prefix = "-"
            factors = factors[1:]
        parts = []
        for f in factors:
            text, prec = _render(f)
            parts.append(f"({text})" if prec < _PREC_MUL else text)
        return (prefix + "*".join(parts), _PREC_UNARY if prefix else _PREC_MUL)
    if isinstance(e, Add):
        out = []
        for i, t in enumerate(e.terms):
            text, prec = _render(t)
            if i == 0:
                out.append(f"({text})" if prec < _PREC_ADD else text)
            elif text.startswith("-"):
                out.append(" - " + text[1:])
            else:
                out.append(" + " + text)
        return ("".join(out), _PREC_ADD)
    raise TypeError(f"cannot print {type(e).__name__}")


def to_string(e: Expr) -> str:
    return _render(e)[0]


# --------------------------------------------------------------------------
# evaluation: one program per expression, run with one of two tables
# --------------------------------------------------------------------------
#
# A program gives each distinct node of an expression a register: constants
# (floats, and the integer exponents of powers) and variables first, then one
# flat instruction (opcode, operand count, operand registers...) per compound
# node in post-order.  _run executes them with a table of operations, without
# recursion; run_programs runs the programs of one call over one memo, so
# that a value they share is computed once per call.

def _fail(message):
    raise DomainError(message)


_OPCODE = {Add: 0, Mul: 1, Pow: 2, **{f: 3 + k for k, f in enumerate(FUNCTIONS)}}
_SUM, _PRODUCT = partial(reduce, operator.add), partial(reduce, operator.mul)
# (load of a variable's value, operation per opcode); sums and products fold
# one iterable of operands left to right, as `a + b + c` does, or by fsum
_BATCH = (lambda v: v, (_SUM, _PRODUCT, operator.pow,
                        np.cos, np.exp, np.log, np.sin, np.sqrt))
_SCALAR = (float, (
    math.fsum, _PRODUCT,
    lambda b, k: _fail("division by zero") if k < 0 and b == 0.0 else b ** k,
    math.cos, math.exp,
    lambda a: _fail("log of a non-positive value") if a <= 0.0 else math.log(a),
    math.sin,
    lambda a: _fail("sqrt of a negative value") if a < 0.0 else math.sqrt(a)))


def _run(consts, loads, code, values, table=_BATCH, memo=None, keys=()):
    """The program's value.  With a memo, `keys` numbers the value of each
    instruction: one found in the memo is read from it, and every value
    computed is stored there under its number."""
    load, ops = table
    regs = [*consts, *[load(values[i]) for i in loads]]
    reg, it, keys = regs.__getitem__, iter(code), iter(keys)
    for op in it:                       # opcode, count, operands
        args = map(reg, islice(it, next(it)))
        if memo is not None:
            key = next(keys)
            if key in memo:
                regs.append(memo[key])
                for _ in args:          # skip the operands
                    pass
                continue
        value = ops[op](args) if op < 2 else ops[op](*args)  # 0, 1: Add, Mul
        if memo is not None:
            memo[key] = value
        regs.append(value)
    return regs[-1]


def _numbering(programs):
    """Number the instructions of the programs alike exactly when they apply
    one operation to operands numbered alike (constants by value, variables by
    position), so that alike means equal values; return each program's
    numbers, and the numbers whose last program is each program."""
    number, keys = {}, []
    for program in programs:
        consts, loads, code = program.args
        regs = [number.setdefault((type(c), c), len(number)) for c in consts]
        regs += [number.setdefault(("v", i), len(number)) for i in loads]
        own = len(regs)
        reg, it = regs.__getitem__, iter(code)
        for op in it:
            regs.append(number.setdefault(
                (op, *map(reg, islice(it, next(it)))), len(number)))
        keys.append(regs[own:])
    last = {}
    for k, own in enumerate(keys):
        last.update(dict.fromkeys(own, k))
    dead = [[] for _ in programs]
    for key, k in last.items():
        dead[k].append(key)
    return keys, dead


def run_programs(programs, values, table=_BATCH):
    """Run programs on one batch in order and yield the value of each.  They
    share one memo, so a value that several of them compute is computed once
    per call, and it is dropped after the last program that needs it.  At a
    single point (no value with a batch axis) each program runs alone: there
    an operation costs less than numbering it."""
    if not any(isinstance(v, np.ndarray) and v.ndim for v in values):
        for program in programs:
            yield program(values, table)
        return
    keys, dead = _numbering(programs)
    memo = {}
    for program, own, gone in zip(programs, keys, dead):
        yield program(values, table, memo, own)
        for key in gone:
            del memo[key]


def _operands(node):
    t = type(node)
    return (node.terms if t is Add else node.factors if t is Mul
            else (node.base, node.exponent) if t is Pow
            else (node.arg,) if t is Call else ())


def _float(q):
    """q as a float; a magnitude beyond the float range reads as +-inf."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def evaluate(e: Expr, env) -> float:
    """Evaluate at a point given as a mapping name -> real.  Raises DomainError
    for division by zero, log of a non-positive value, sqrt of a negative or
    a value beyond the float range.  Runs the program that
    `compile_expr(e, tuple(env))` returns."""
    try:
        return _compile(e, tuple(env))(tuple(env.values()), _SCALAR)
    except OverflowError:
        raise DomainError("value beyond the float range") from None


def compile_expr(e: Expr, names):
    """Compile to f(values) where values is a sequence (scalars or numpy
    arrays) aligned with `names`.  No domain checking: the vectorised path is
    for well-sampled batteries; use `evaluate` when DomainError matters.
    Programs are memoised in a bounded LRU cache: `_compile.cache_info()`."""
    return _compile(e, tuple(names))


@lru_cache(maxsize=_CACHE_SIZE)
def _compile(e: Expr, names: tuple):
    index = {name: i for i, name in enumerate(names)}
    consts, reads, nodes = [], [], []       # each in post-order
    first, alias = {}, {}   # node -> first equal node met; id of each met -> that
    stack = [(e, None)]
    while stack:
        node, args = stack.pop()
        if args is None:
            if id(node) in alias:
                continue
            alias[id(node)] = same = first.setdefault(node, node)
            if same is not node:
                continue
            args = _operands(node)
            if args:                        # operands first, left to right
                stack.append((node, args))
                stack.extend((a, None) for a in reversed(args))
                continue
        (nodes if args else reads if type(node) is Var else consts).append(node)
    slot = {id(node): k for k, node in enumerate(consts + reads + nodes)}
    code = array("i")
    for node in nodes:
        args = _operands(node)
        code.extend((_OPCODE[node.func if type(node) is Call else type(node)],
                     len(args), *[slot[id(alias[id(a)])] for a in args]))
    return partial(_run, tuple(_float(c.value) if type(c) is Const else c
                               for c in consts),
                   tuple(index[v.name] for v in reads), code)
