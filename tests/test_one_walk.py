"""One walk behind the expression passes: `free_variables`, `substitute`,
`to_string`, `simplify`/`is_polynomial` and the evaluation planner `_plan`
iterate `expressions._postorder`, which yields each distinct node once after
its operands, without recursion.  They take chains deeper than the
interpreter's recursion limit, and every node, string and plan is the one
that the recursive passes they replaced give: test-local copies of those
passes are the reference."""

import math
import time
from array import array
from fractions import Fraction

import numpy as np
import pytest

from chernsode import chern, expressions
from chernsode.chern import connection_data, curvature_components
from chernsode.expressions import (
    Add, Call, Const, Mul, Pow, Var, VarSet, ZERO, _OPCODE, _POLY_ONE, _float,
    _fold_call, _inverse_power, _mono_sort_key, _poly_add, _poly_mul,
    _poly_pow, _reduced, add, call, free_variables, is_polynomial, mul, parse,
    pow_, simplify, substitute, to_string, var,
)
from chernsode.natjets import (
    VerticalAutomorphism, prolong_vertical_field, push_sode_symbolic,
    random_automorphism,
)
from chernsode.sode import (
    SodeSystem, _jacobian, coframe_symbolic, frame_symbolic, lie_derivative_J,
    random_polynomial_sode, sample_points, splitting_P, splitting_T,
)

X, V, T = var("x1"), var("v1"), var("t")

# --------------------------------------------------------------------------
# the recursive passes the walk replaced
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _old_render(e):
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            return (str(v.numerator), _PREC_ATOM if v >= 0 else _PREC_UNARY)
        return (f"{v.numerator}/{v.denominator}",
                _PREC_MUL if v >= 0 else _PREC_UNARY)
    if isinstance(e, Var):
        return (e.name, _PREC_ATOM)
    if isinstance(e, Call):
        return (f"{e.func}({_old_render(e.arg)[0]})", _PREC_ATOM)
    if isinstance(e, Pow):
        base, prec = _old_render(e.base)
        if prec < _PREC_ATOM:
            base = f"({base})"
        if e.exponent < 0:
            return (f"{base}^(-{-e.exponent})", _PREC_POW)
        return (f"{base}^{e.exponent}", _PREC_POW)
    if isinstance(e, Mul):
        factors = e.factors
        prefix = ""
        if factors and isinstance(factors[0], Const) \
                and factors[0].value == -1 and len(factors) > 1:
            prefix = "-"
            factors = factors[1:]
        parts = []
        for f in factors:
            text, prec = _old_render(f)
            parts.append(f"({text})" if prec < _PREC_MUL else text)
        return (prefix + "*".join(parts), _PREC_UNARY if prefix else _PREC_MUL)
    if isinstance(e, Add):
        out = []
        for i, t in enumerate(e.terms):
            text, prec = _old_render(t)
            if i == 0:
                out.append(f"({text})" if prec < _PREC_ADD else text)
            elif text.startswith("-"):
                out.append(" - " + text[1:])
            else:
                out.append(" + " + text)
        return ("".join(out), _PREC_ADD)
    raise TypeError(f"cannot print {type(e).__name__}")


def _old_to_string(e):
    return _old_render(e)[0]


def _old_substitute(e, mapping):
    memo = {}

    def walk(node):
        out = memo.get(id(node))
        if out is None:
            t = type(node)
            if t is Const:
                out = node
            elif t is Var:
                out = mapping.get(node.name, node)
            elif t is Add:
                out = add(*map(walk, node.terms))
            elif t is Mul:
                out = mul(*map(walk, node.factors))
            elif t is Pow:
                out = pow_(walk(node.base), node.exponent)
            elif t is Call:
                out = Call(node.func, walk(node.arg))
            memo[id(node)] = out
        return out

    return walk(e)


def _old_free_variables(e):
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Const):
        return set()
    args = (e.terms if isinstance(e, Add) else e.factors if isinstance(e, Mul)
            else (e.base,) if isinstance(e, Pow) else (e.arg,))
    return set().union(*map(_old_free_variables, args))


class _OldExpansion:
    def __init__(self):
        self.atoms = {}
        self.memo = {}

    def key(self, atom):
        key = _old_to_string(atom)
        self.atoms.setdefault(key, atom)
        return key

    def atom_mono(self, atom):
        return {((self.key(atom), 1),): 1}, 1

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
                raise ZeroDivisionError("division by an identically-zero base")
            if len(terms) == 1:
                ((m, c),) = terms.items()
                inv_m = tuple((key, x * e.exponent) for key, x in m)
                num, d = _inverse_power(c, den, -e.exponent)
                return _reduced({inv_m: num}, d)
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

    def from_poly(self, p):
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


def _old_simplify(e):
    expansion = _OldExpansion()
    return expansion.from_poly(expansion.to_poly(e))


def _old_is_polynomial(e):
    expansion = _OldExpansion()
    try:
        terms, _ = expansion.to_poly(e)
    except ZeroDivisionError:
        return False
    return all(exp > 0 and isinstance(expansion.atoms[key], Var)
               for mono in terms for key, exp in mono)


def _old_plan(roots, names):
    index = {name: i for i, name in enumerate(names)}
    slot, leaves, loads = {}, [], []
    code, segments, last, final, results = [], [], {}, {}, 0

    def visit(node):
        t = type(node)
        if t is Add:
            return node.terms
        if t is Mul:
            return node.factors
        if t is Pow:
            return node.base, node.exponent
        if t is Call:
            return (node.arg,)
        slot[id(node)] = len(leaves)
        if t is Var:
            loads.extend((len(leaves), index[node.name]))
        leaves.append(None if t is Var else _float(node.value)
                      if t is Const else node)
        return ()

    for k, root in enumerate(roots):
        first = results
        args = () if id(root) in slot else visit(root)
        stack = [(root, args, iter(args))] if args else []
        while stack:
            node, args, it = stack[-1]
            for a in it:
                if id(a) not in slot and (sub := visit(a)):
                    stack.append((a, sub, iter(sub)))
                    break
            else:
                stack.pop()
                regs = [slot[id(a)] for a in args]
                if len(regs) == 1 and type(node) is not Call:
                    slot[id(node)] = regs[0]
                    continue
                for r in regs:
                    last[r], final[r] = len(code), k
                slot[id(node)], results = ~results, results + 1
                code += (_OPCODE[node.func if type(node) is Call
                                 else type(node)], len(regs), *regs)
        segments.append((results - first, slot[id(root)]))
        final[slot[id(root)]] = k
    n = len(leaves)
    code = [c if c >= 0 else n + ~c for c in code]
    kept = {top for _, top in segments}
    for r, at in last.items():
        operands = code[at + 2:at + 2 + code[at + 1]]
        if r < 0 and r not in kept and code[at] < 8 \
                and code[at] != _OPCODE[Pow] and operands.count(n + ~r) == 1 \
                and n + ~r in operands[:2]:
            code[at] += (n + ~r + 1) << 3
    gone = [[] for _ in segments[1:]]
    for r, k in final.items():
        if r < 0 and k < len(gone):
            gone[k].append(n + ~r)
    return (tuple(leaves), tuple(loads), array("i", code),
            tuple((count, top if top >= 0 else n + ~top, tuple(drop))
                  for (count, top), drop in zip(segments, gone + [()])))


# --------------------------------------------------------------------------
# chains deeper than the recursion limit
# --------------------------------------------------------------------------

def _deep(depth, v=V):
    """e_0 = sin(v + x1) and e_{j+1} = sin(e_j + v): two nodes per level,
    each sum in canonical order when v is v1."""
    e = call("sin", add(v, X))
    for _ in range(depth):
        e = call("sin", add(e, v))
    return e


def test_expansions_take_chains_past_the_recursion_limit():
    deep = _deep(400)
    with pytest.raises(RecursionError):
        _old_simplify(deep)
    assert simplify(deep) is deep
    assert not is_polynomial(deep)
    assert is_polynomial(substitute(deep, {"x1": ZERO, "v1": ZERO}))


def test_passes_take_chains_past_the_recursion_limit():
    deep = _deep(5000)
    with pytest.raises(RecursionError):
        _old_substitute(deep, {"v1": T})
    assert free_variables(deep) == {"x1", "v1"}
    moved = substitute(deep, {"v1": T})
    assert moved is _deep(5000, T)
    assert free_variables(moved) == {"t", "x1"}


def test_to_string_takes_a_chain_past_the_recursion_limit():
    # the text of every level is kept until the call returns, characters
    # quadratic in the depth, so this chain is shorter than the one above
    deep = _deep(1500)
    with pytest.raises(RecursionError):
        _old_to_string(deep)
    want = "sin(v1 + x1)"
    for _ in range(1500):
        want = f"sin({want} + v1)"
    assert to_string(deep) == want


# --------------------------------------------------------------------------
# the same nodes, strings and plans as the recursive passes
# --------------------------------------------------------------------------

def _trig2():
    vs = VarSet.default(2)
    return SodeSystem(vars=vs, F=(
        parse("3/4*sin(x2)*v1^2 + 1/2*exp(-1/3*t)*v2 + 5/8*cos(x1)*v1*v2", vs),
        parse("-1/2*cos(x2)*v2^2 + 3/8*sin(x1)*v1 + 1/4*exp(t)*v1*v2", vs)))


SYSTEMS = [random_polynomial_sode(1, seed=3), random_polynomial_sode(2, seed=61),
           random_polynomial_sode(3, seed=3000), _trig2()]
IDS = ["poly1", "poly2", "poly3", "trig2"]


def _arrays(s):
    """The arrays tests/test_jacobian_arrays.py covers: F, its partials, the
    connection data, the frames, L_X J, P, T and, below n = 3, A and B."""
    data = connection_data(s)
    out = [s.F, _jacobian(s.F, s.vars.velocities),
           _jacobian(s.F, s.vars.positions), data.W, data.V,
           frame_symbolic(s), coframe_symbolic(s), lie_derivative_J(s),
           splitting_P(s), splitting_T(s)]
    if s.n < 3:
        comp = curvature_components(s)
        out += [comp.A, comp.B]
    return [e for arr in out for e in np.asarray(arr, dtype=object).flat]


def _check_same(entries, mapping, expand=True):
    for e in entries:
        assert to_string(e) == _old_to_string(e)
        assert free_variables(e) == _old_free_variables(e)
        assert substitute(e, mapping) is _old_substitute(e, mapping)
        if expand:
            assert simplify.__wrapped__(e) is _old_simplify(e)
            assert is_polynomial(e) == _old_is_polynomial(e)


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_same_results_on_the_connection_arrays(s):
    mapping = {"x1": add(T, V), s.vars.velocities[-1]: mul(2, X),
               "t": call("exp", X)}
    entries = _arrays(s)
    # at n = 3 expanding every array takes seconds per pass, so only F and
    # its first partials are expanded there
    _check_same(entries, mapping, expand=s.n < 3)
    if s.n == 3:
        _check_same(entries[:3 + 9 + 9], mapping)


def test_same_results_on_pushed_systems_and_prolonged_fields():
    V1, V2 = VarSet.default(1), VarSet.default(2)
    pushed = push_sode_symbolic(random_automorphism(V2, seed=5),
                                random_polynomial_sode(2, seed=11)).F
    # these two DAGs print to 300k characters: their expansions take seconds
    _check_same(pushed, {"x1": add(T, V), "v2": pow_(X, -1)}, expand=False)
    entries = list(push_sode_symbolic(random_automorphism(V1, seed=5),
                                      random_polynomial_sode(1, seed=3)).F)
    entries += push_sode_symbolic(VerticalAutomorphism(
        vars=V1, phi=(parse("x1 + t^2", V1),),
        inverse=(parse("x1 - t^2", V1),)),
        SodeSystem(vars=V1, F=(parse("sin(x1)*v1^2 + exp(-t)*v1", V1),))).F
    for u in [(parse("t*x1^2", V1),),
              (parse("t^2*x1*x2 + x2^3", V2), parse("t*x1^2 - x2*x1", V2))]:
        entries += prolong_vertical_field(u, VarSet.default(len(u))) \
            .components.values()
    _check_same(entries, {"x1": add(T, V), "v1": pow_(X, -1)})


def test_plans_equal_on_the_n3_oracle_deltas(monkeypatch):
    s = random_polynomial_sode(3, seed=3000)
    plans, plan = [], expressions._plan

    def recorded(roots, names):
        out = plan(roots, names)
        plans.append((list(roots), names, out))
        return out

    monkeypatch.setattr(expressions, "_plan", recorded)
    points = sample_points(s.vars, 20, 7)
    chern.torsion_oracle_residual(s, points)
    chern.curvature_oracle_residual(s, points)
    monkeypatch.undo()
    assert len(plans) == 2
    for roots, names, got in plans:
        assert got == _old_plan(roots, names)


# --------------------------------------------------------------------------
# to_string renders each distinct node once
# --------------------------------------------------------------------------

def _chain(k):
    """e_0 = x1*v1 and e_{j+1} = sin(e_j) + cos(e_j): 2^k paths, 3k + 3
    distinct nodes."""
    e = mul(X, V)
    for _ in range(k):
        e = add(Call("sin", e), Call("cos", e))
    return e


def test_to_string_renders_each_distinct_node_once(monkeypatch):
    calls, render = [], expressions._render

    def counted(node, *args):
        calls.append(node)
        return render(node, *args)

    e = _chain(16)
    monkeypatch.setattr(expressions, "_render", counted)
    t0 = time.perf_counter()
    text = to_string(e)
    assert time.perf_counter() - t0 < 1.0
    assert len(calls) == len(set(map(id, calls))) == 3 * 16 + 3
    assert len(text) == 1_179_635
    small = _chain(6)
    assert to_string(small) == _old_to_string(small)
