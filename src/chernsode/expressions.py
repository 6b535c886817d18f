"""Exact symbolic expression kernel.

Expression trees over a declared variable set: rational constants, sums,
products, integer powers, quotients and the unary functions sin, cos, exp,
log, sqrt.  Constants are kept as exact `Fraction`s so that polynomial
identities cancel to a literal zero under `simplify` and repeated runs are
bit-for-bit reproducible.

The numeric side lives here too: `compile_expr` and `evaluate` run one cached
program per expression, and `run_programs` the programs of one call in one
walk over their shared DAG, with numpy on point batteries or with `math` and
DomainError checks at one point; `fd_diff` is the finite-difference oracle
that cross-checks every symbolic derivative produced by `diff`.

Every pass over a DAG iterates one walk, `_postorder`, which yields each
distinct node once after its operands, without recursion.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from _weakref import _remove_dead_weakref
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

# entries kept by each memo (`simplify`, `_compile`, `sode._diff` and the
# natjets caches), least recently used dropped first; one CLI task or one
# checked system reuses a few hundred
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
    """Immutable, interned expression node.  Building a node equal to a live
    one returns that node, so equal nodes are one object and `==` is `is`;
    constants alone compare by value (see Const).  The hash is structural,
    never by identity or by the order nodes were built in."""

    __slots__ = ("_hash", "__weakref__")

    def __new__(cls, *fields):
        key = (cls, *fields)
        entry = _NODES.get(key)
        node = None if entry is None else entry()
        if node is None:
            if cls is Const:    # found by the value as given, kept exact
                value, = fields
                fields = (value if isinstance(value, Fraction)
                          else Fraction(value),)
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                setattr(node, name, value)
            node._hash = hash(cls._hashed(*fields))
            entry = _NODES[key] = _Entry(node, _drop)
            entry.key = key
        return node

    def __hash__(self):
        return self._hash

    def __reduce__(self):       # copies and unpickled nodes are interned too
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        return to_string(self)

    # arithmetic sugar so numpy object arrays of Expr compose; NotImplemented
    # lets ndarray operands take over via their reflected operation.  With a
    # ZERO operand the sugar returns at once the node add or mul would build:
    # x * ZERO is ZERO, and x + ZERO is x (ZERO for a zero constant) unless x
    # is a sum, which add rebuilds with its constant last
    def __add__(self, other):
        if other is ZERO and type(self) is not Add:
            return ZERO if self is _CONST_ZERO else self
        if self is ZERO and isinstance(other, Expr) and type(other) is not Add:
            return ZERO if other is _CONST_ZERO else other
        if isinstance(other, np.ndarray):
            return NotImplemented
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        if other is ZERO and type(self) is not Add:
            return ZERO if self is _CONST_ZERO else self
        if isinstance(other, np.ndarray):
            return NotImplemented
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        if (other is ZERO or self is ZERO) and isinstance(other, Expr):
            return ZERO
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


# the live node of each (class, *fields), held weakly: an entry goes when its
# node dies.  Constant fields compare by value, so a node over ZERO and one
# over const(0) are one node.
_NODES = {}


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _drop(entry, nodes=_NODES, remove=_remove_dead_weakref):
    # bound as defaults: nodes may die while the interpreter clears globals
    remove(nodes, entry.key)


class Const(Expr):
    """Rational constant.  Constants compare by value: const(0) == ZERO,
    though they are two nodes."""

    __slots__ = ("value",)
    _hashed = staticmethod(lambda value: ("c", value))

    def __eq__(self, other):
        return self is other or (type(other) is Const
                                 and self.value == other.value)

    __hash__ = Expr.__hash__


class Var(Expr):
    __slots__ = ("name",)
    _hashed = staticmethod(lambda name: ("v", name))


class Add(Expr):
    __slots__ = ("terms",)
    _hashed = staticmethod(lambda terms: ("+",) + terms)


class Mul(Expr):
    __slots__ = ("factors",)
    _hashed = staticmethod(lambda factors: ("*",) + factors)


class Pow(Expr):
    __slots__ = ("base", "exponent")
    _hashed = staticmethod(lambda base, exponent: ("^", base, exponent))


class Call(Expr):
    __slots__ = ("func", "arg")
    _hashed = staticmethod(lambda func, arg: (func, arg))


# ZERO and ONE stay out of the table: a constant built later is never one of
# them, so `e is ZERO` means zero by construction, while const(0) == ZERO.
# The table's const(0) and const(1) are kept alive beside them, so a constant
# of value 0 is ZERO or _CONST_ZERO and one of value 1 is ONE or _CONST_ONE:
# add and mul test those values by identity
ZERO, ONE = Const(0), Const(1)
del _NODES[Const, 0], _NODES[Const, 1]
_CONST_ZERO, _CONST_ONE = Const(0), Const(1)
MINUS_ONE = Const(-1)


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction, float)):
        return Const(x)
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
            elif t is not ZERO and t is not _CONST_ZERO:
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
            elif f is ZERO or f is _CONST_ZERO:
                zero = True
            elif f is not ONE and f is not _CONST_ONE:
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
    if isinstance(base, Pow):   # (b^k)^m is b^(k m); a Pow base is never a Pow
        base, exponent = base.base, base.exponent * exponent
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Const(base.value ** exponent)
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
        return (self.time,) + tuple(self.positions) + tuple(self.velocities)

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
        raise KeyError(name)


# --------------------------------------------------------------------------
# parser: recursive descent over a small token stream
# --------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)

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
                inner = parse_sum()
                expect_op(")")
                return leave(Call(value, inner))
            if value in vars.names:
                return Var(value)
            raise UnknownIdentifier(value, pos)
        if kind == "op" and value == "(":
            enter(pos)
            inner = parse_sum()
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
        base = parse_atom()
        while peek()[:2] == ("op", "^"):
            advance()
            base = pow_(base, parse_exponent())
        return base

    # a sum or product is read into one list and built by one add or mul:
    # their exact constant folding gives the nodes a left fold of binary
    # add/mul calls would, in time linear in the operand count
    def parse_product():
        factors = [parse_unary()]
        while peek()[:2] in (("op", "*"), ("op", "/")):
            if advance()[1] == "*":
                factors.append(parse_unary())
            else:
                factors.append(div(ONE, parse_unary()))
        return factors[0] if len(factors) == 1 else mul(*factors)

    def parse_sum():
        terms = [parse_product()]
        while peek()[:2] in (("op", "+"), ("op", "-")):
            if advance()[1] == "+":
                terms.append(parse_product())
            else:
                terms.append(neg(parse_product()))
        return terms[0] if len(terms) == 1 else add(*terms)

    result = parse_sum()
    kind, value, pos = peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", pos)
    return result


# --------------------------------------------------------------------------
# differentiation, and the finite-difference oracle that checks it
# --------------------------------------------------------------------------

def diff(e: Expr, name: str, _table=None) -> Expr:
    """d e / d name.  A constant or variable is answered at once; otherwise
    the outermost call walks `_postorder` and enters each distinct node once
    through the module-level name, `diff(node, name, table)`, which applies
    the rule of that node to its operands' derivatives in the table, keyed
    by id, of this one call.  So a node that the DAG shares is
    differentiated once per call, the time is linear in the distinct nodes,
    and no depth is limited."""
    t = type(e)
    if t is Const:
        return ZERO
    if t is Var:
        return ONE if e.name == name else ZERO
    if _table is None:
        table = {}
        for node, _ in _postorder(e, table):
            table[id(node)] = diff(node, name, table)
        return table[id(e)]
    if t is Add:
        return add(*[d for a in e.terms if (d := _table[id(a)]) is not ZERO])
    if t is Mul:
        terms = []
        factors = e.factors
        for i, f in enumerate(factors):
            df = _table[id(f)]
            if df is not ZERO:
                terms.append(mul(*factors[:i], df, *factors[i + 1:]))
        return add(*terms)
    if t is Pow:
        db = _table[id(e.base)]
        return ZERO if db is ZERO else \
            mul(e.exponent, pow_(e.base, e.exponent - 1), db)
    if t is Call:
        da = _table[id(e.arg)]
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
    raise TypeError(f"cannot differentiate {t.__name__}")


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
# atoms and expands each distinct node once.

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


def _const_poly(v):
    return ({(): v.numerator} if v else {}), v.denominator


def _inverse_power(c, den, k):
    """(den/c)^k, the value of (c/den)^(-k), as (numerator, denominator > 0)."""
    num, d = den ** k, c ** k
    return (-num, -d) if d < 0 else (num, d)


class _Expansion:
    """State of one simplify/is_polynomial call: the atom behind each
    monomial key, and the rendered text of each node under an atom."""

    __slots__ = ("atoms", "texts")

    def __init__(self):
        self.atoms = {}
        self.texts = {}

    def key(self, atom):
        """The monomial key of atom (its canonical string), registered.  A
        node rendered for an earlier key is not rendered again.  Its id stays
        valid, as it lies under an atom kept in `atoms`: nodes are interned
        and keys canonical, so the atoms of one key are one node."""
        key = _text(atom, self.texts)
        self.atoms.setdefault(key, atom)
        return key

    def atom_mono(self, atom):
        return {((self.key(atom), 1),): 1}, 1

    def to_poly(self, e):
        """The polynomial of e; each distinct node is expanded once."""
        polys = {}
        for node, args in _postorder(e, polys):
            polys[id(node)] = self._expand(node, [polys[id(a)] for a in args])
        return polys[id(e)]

    def _expand(self, e, polys):
        """The polynomial of e from those of its operands."""
        if isinstance(e, Const):
            return _const_poly(e.value)
        if isinstance(e, Var):
            return self.atom_mono(e)
        if isinstance(e, Add):
            den = math.lcm(*(d for _, d in polys))
            acc = {}
            for terms, d in polys:
                _poly_add(acc, terms, den // d)
            return _reduced(acc, den)
        if isinstance(e, Mul):
            return _reduced(*reduce(_poly_mul, polys, _POLY_ONE))
        if isinstance(e, Pow):
            (terms, den), = polys
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
            arg = self.from_poly(polys[0])
            folded = _fold_call(e.func, arg)
            if folded is not None:      # a constant built here, not walked
                return _const_poly(folded.value)
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

def _postorder(e, seen):
    """Yield (node, operands) once for each node under e, e included, whose
    id is not in the dict `seen`: a node's operands, left to right, before
    the node.  The walk marks an id with None when it first reaches it, and
    the caller stores the node's value there."""
    stack = [(None, (), iter((e,)))]
    while stack:
        node, args, it = stack[-1]
        for a in it:
            if id(a) not in seen:
                seen[id(a)] = None
                t = type(a)
                sub = (a.terms if t is Add else a.factors if t is Mul else
                       (a.base,) if t is Pow else (a.arg,) if t is Call else ())
                if sub:
                    stack.append((a, sub, iter(sub)))
                    break
                yield a, sub
        else:
            stack.pop()
            if stack:
                yield node, args


def free_variables(e: Expr) -> frozenset:
    """Names of the variables in e; each distinct node is visited once."""
    return frozenset(node.name for node, _ in _postorder(e, {})
                     if type(node) is Var)


def substitute(e: Expr, mapping) -> Expr:
    """Replace variables by expressions (mapping name -> Expr); each distinct
    node is rebuilt once."""
    out = {}
    for node, args in _postorder(e, out):
        t, args = type(node), [out[id(a)] for a in args]
        if t is Const:
            new = node
        elif t is Var:
            new = mapping.get(node.name, node)
        elif t is Add:
            new = add(*args)
        elif t is Mul:
            new = mul(*args)
        elif t is Pow:
            new = pow_(args[0], node.exponent)
        elif t is Call:
            new = Call(node.func, args[0])
        else:
            raise TypeError(f"cannot substitute in {t.__name__}")
        out[id(node)] = new
    return out[id(e)]


# --------------------------------------------------------------------------
# printing (re-parseable)
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _render(e, args):
    """(text, precedence of the outermost construct) of e, from those of its
    operands."""
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            return (str(v.numerator), _PREC_ATOM if v >= 0 else _PREC_UNARY)
        return (f"{v.numerator}/{v.denominator}", _PREC_MUL if v >= 0 else _PREC_UNARY)
    if isinstance(e, Var):
        return (e.name, _PREC_ATOM)
    if isinstance(e, Call):
        return (f"{e.func}({args[0][0]})", _PREC_ATOM)
    if isinstance(e, Pow):
        (base, prec), = args
        if prec < _PREC_ATOM:
            base = f"({base})"
        if e.exponent < 0:
            return (f"{base}^(-{-e.exponent})", _PREC_POW)
        return (f"{base}^{e.exponent}", _PREC_POW)
    if isinstance(e, Mul):
        prefix = ""
        if len(args) > 1 and isinstance(e.factors[0], Const) \
                and e.factors[0].value == -1:
            prefix = "-"
            args = args[1:]
        parts = [f"({text})" if prec < _PREC_MUL else text for text, prec in args]
        return (prefix + "*".join(parts), _PREC_UNARY if prefix else _PREC_MUL)
    if isinstance(e, Add):
        out = []
        for i, (text, prec) in enumerate(args):
            if i == 0:
                out.append(f"({text})" if prec < _PREC_ADD else text)
            elif text.startswith("-"):
                out.append(" - " + text[1:])
            else:
                out.append(" + " + text)
        return ("".join(out), _PREC_ADD)
    raise TypeError(f"cannot print {type(e).__name__}")


def _text(e, texts):
    """The text of e, rendering each node under e whose id is not yet in
    the dict `texts` and storing its (text, precedence) there."""
    for node, args in _postorder(e, texts):
        texts[id(node)] = _render(node, [texts[id(a)] for a in args])
    return texts[id(e)][0]


def to_string(e: Expr) -> str:
    """Re-parseable text of e; each distinct node is rendered once."""
    return _text(e, {})


# --------------------------------------------------------------------------
# evaluation: one walk per call over the DAG of its expressions
# --------------------------------------------------------------------------
#
# A walk gives each distinct node of the union DAG of its roots a register:
# first the leaves (constants as floats, the integer exponents of powers and
# the variables' values), then one per instruction, which computes a
# compound node from its operands' registers; instructions come in
# post-order, root by root, so a node that several roots share is computed
# once, and a sum or product of one operand is its operand's register.  _run
# executes instructions with a table of operations, without recursion;
# _walk yields each root's value and then drops every value that no later
# root reads.  A walk on arrays with the batch table (`run_programs`) runs
# the `_INTO` operations: a sum or product folds in place into the array its
# first pair makes, and a value that an instruction reads for the last time,
# as its operand 0 or 1 and only once, lends its array to the instruction's
# result unless it is a root; input columns, constants and the values
# yielded are never written.

def _fail(message):
    raise DomainError(message)


_OPCODE = {Add: 0, Mul: 1, Pow: 2, **{f: 3 + k for k, f in enumerate(FUNCTIONS)}}
_F64 = np.dtype(np.float64)


def _fold(ufunc, binary):
    """ufunc folded left to right over an iterable of two or more operands,
    as `a + b + c` does: the first pair goes into `out`, or through
    `binary`, the operator of ufunc, into a new value, and when that is a
    float array each later operand goes into it in place, with the same
    bits."""
    def fold(args, out=None):
        args = iter(args)
        if out is None:
            out = binary(next(args), next(args))
            if type(out) is not np.ndarray or out.dtype is not _F64:
                return reduce(binary, args, out)
        else:
            ufunc(next(args), next(args), out)
        for a in args:
            ufunc(out, a, out)
        return out
    return fold


_SUM, _PRODUCT = partial(reduce, operator.add), partial(reduce, operator.mul)
# (load of a variable's value, operation per opcode); sums and products fold
# one iterable of operands left to right, as `a + b + c` does, or by fsum.
# The batch table loads a lone value as a numpy float, so a single point
# overflows or divides by zero to inf/nan as a batch does
_BATCH = (lambda v: v if isinstance(v, np.ndarray) else np.float64(v),
          (_SUM, _PRODUCT, operator.pow,
           np.cos, np.exp, np.log, np.sin, np.sqrt))
# the batch table's operations in a walk on arrays: sums and products fold
# in place, and all but the power take the array of a value to write into
_INTO = (_fold(np.add, operator.add), _fold(np.multiply, operator.mul),
         *_BATCH[1][2:])
_SCALAR = (float, (
    math.fsum, _PRODUCT,
    lambda b, k: _fail("division by zero") if k < 0 and b == 0.0 else b ** k,
    math.cos, math.exp,
    lambda a: _fail("log of a non-positive value") if a <= 0.0 else math.log(a),
    math.sin,
    lambda a: _fail("sqrt of a negative value") if a < 0.0 else math.sqrt(a)))


def _plan(roots, names):
    """(leaves, loads, code, segments) of one walk over the union DAG of
    `roots`, which visits each distinct node once.  The first registers are
    the leaves: `leaves` holds the constants and None for each variable,
    whose register and index in `values` follow each other in `loads`.
    Every instruction of `code` appends a register: opcode + 8 * (lent
    register + 1) when it lends, operand count, operand registers.  Segment
    k (instruction count, root register, registers to drop) computes the
    nodes that root k is the first to reach and drops the values that no
    later segment reads."""
    index = {name: i for i, name in enumerate(names)}
    slot, leaves, loads = {}, [], []    # node id -> register, ~j for result j
    code, segments, reads, results = [], [], {}, 0
    for k, root in enumerate(roots):
        first = results
        for node, args in _postorder(root, slot):
            t = type(node)
            if t is Var:
                slot[id(node)] = len(leaves)
                loads += (len(leaves), index[node.name])
                leaves.append(None)
                continue
            if t is Const:
                slot[id(node)] = len(leaves)
                leaves.append(_float(node.value))
                continue
            regs = [slot[id(a)] for a in args]
            if t is Pow:                    # the exponent is a leaf too
                if id(node.exponent) not in slot:
                    slot[id(node.exponent)] = len(leaves)
                    leaves.append(node.exponent)
                regs.append(slot[id(node.exponent)])
            elif len(regs) == 1 and t is not Call:
                slot[id(node)] = regs[0]    # a sum or product of one term
                continue
            at = len(code), k               # where each operand is read last
            for r in regs:
                reads[r] = at
            slot[id(node)], results = ~results, results + 1
            op = _OPCODE.get(node.func if t is Call else t)
            if op is None:
                raise TypeError(f"cannot evaluate {t.__name__}")
            code += (op, len(regs), *regs)
        segments.append((results - first, slot[id(root)]))
        reads[slot[id(root)]] = None, k     # read as the segment ends
    n = len(leaves)                         # result j gets register n + j
    code = [c if c >= 0 else n + ~c for c in code]
    kept = {top for _, top in segments}
    gone = [[] for _ in segments[1:]]       # the walk ends after the last
    for r, (at, k) in reads.items():
        if r >= 0:
            continue
        reg = n + ~r
        if k < len(gone):
            gone[k].append(reg)
        if r in kept:
            continue
        # lend where read for the last time: once, by a call, or once and as
        # one of the first two operands of a sum or product
        op = code[at]
        if op < 2 and reg in (code[at + 2], code[at + 3]) \
                and code[at + 2:at + 2 + code[at + 1]].count(reg) == 1 \
                or 2 < op < 8 and code[at + 2] == reg:
            code[at] = op + ((reg + 1) << 3)
    return (tuple(leaves), tuple(loads), array("i", code),
            tuple((count, top if top >= 0 else n + ~top, tuple(drop))
                  for (count, top), drop in zip(segments, gone + [()])))


def _registers(plan, values, load):
    """The leaf registers of a plan, each variable loaded from `values`."""
    leaves, loads = plan[:2]
    regs, it = list(leaves), iter(loads)
    for r in it:
        regs[r] = load(values[next(it)])
    return regs


def _run(regs, it, count, ops):
    """Run the next `count` instructions of the code iterator `it` with
    `ops`, appending each value to `regs`.  With the `_INTO` operations an
    instruction writes into the float array it is lent."""
    reg, append, lending = regs.__getitem__, regs.append, ops is _INTO
    for op in islice(it, count):
        args = map(reg, islice(it, next(it)))
        if op > 7:
            lent, op = (op >> 3) - 1, op & 7
            if lending and type(regs[lent]) is np.ndarray \
                    and regs[lent].dtype is _F64:
                append(ops[op](args, regs[lent]) if op < 2
                       else ops[op](*args, regs[lent]))
                continue
        append(ops[op](args) if op < 2 else ops[op](*args))


def _walk(plan, values, load, ops):
    """Run a plan on `values` (aligned with the names it was made over) and
    yield the value of each root; a value is dropped after the yield of the
    last segment that reads it."""
    regs, it = _registers(plan, values, load), iter(plan[2])
    for count, top, gone in plan[3]:
        _run(regs, it, count, ops)
        yield regs[top]
        for r in gone:
            regs[r] = None


def run_programs(programs, values, table=_BATCH):
    """Run programs, compiled over the names that `values` follows, on one
    batch in order and yield the value of each.  On a batch they run as one
    walk over the union DAG of their expressions, which computes a node
    they share once and drops its value after the yield of the last program
    that reads it; at a single point (no value with a batch axis) each
    program runs alone, as there an operation costs less than its share of
    the plan."""
    if not any(isinstance(v, np.ndarray) and v.ndim for v in values):
        for program in programs:
            yield program(values, table)
        return
    if not programs:
        return
    names = programs[0].names
    if any(p.names != names for p in programs):
        raise ValueError("programs compiled over different names")
    load, ops = table
    yield from _walk(_plan([p.expr for p in programs], names), values, load,
                     _INTO if table is _BATCH else ops)


class _Program:
    """What `compile_expr` returns: program(values, table=_BATCH) evaluates
    its expression on `values` aligned with `names`.  It plans its own walk
    on its first call; `run_programs` reads only its expression."""

    __slots__ = ("expr", "names", "_plan", "__weakref__")

    def __init__(self, expr, names):
        self.expr, self.names, self._plan = expr, names, None

    def __call__(self, values, table=_BATCH):
        if self._plan is None:
            self._plan = _plan((self.expr,), self.names)
        # one segment: what _walk does, without the cost of its generator
        load, ops = table
        regs = _registers(self._plan, values, load)
        (count, top, _), = self._plan[3]
        _run(regs, iter(self._plan[2]), count, ops)
        return regs[top]


def _float(q):
    """q as a float; a magnitude beyond the float range reads as +-inf."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def evaluate(e: Expr, env) -> float:
    """Evaluate at a point given as a mapping name -> real.  Raises DomainError
    for division by zero, log of a non-positive value, sqrt of a negative, a
    value beyond the float range, sin or cos of an infinity and inf - inf.
    Runs the program that `compile_expr(e, tuple(env))` returns."""
    values = tuple(map(float, env.values()))
    try:
        return _compile(e, tuple(env))(values, _SCALAR)
    except OverflowError:
        raise DomainError("value beyond the float range") from None
    except ValueError:      # math.sin/cos of +-inf, inf - inf in math.fsum
        raise DomainError("sin or cos of an infinity, or inf - inf") from None


def compile_expr(e: Expr, names):
    """Compile to f(values) where values is a sequence (scalars or numpy
    arrays) aligned with `names`.  No domain checking: the vectorised path is
    for well-sampled batteries; use `evaluate` when DomainError matters.
    Programs are memoised in a bounded LRU cache: `_compile.cache_info()`."""
    return _compile(e, tuple(names))


@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _compile(e: Expr, names: tuple):
    return _Program(e, names)
