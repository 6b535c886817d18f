"""The monomial keys of one simplify/is_polynomial call share one text
table: `_Expansion.key` renders a node only the first time an atom holding
it is keyed, so nested atoms cost time linear in the depth, with the same
nodes as keying every atom with a fresh `to_string`."""

import numpy as np

from chernsode import expressions
from chernsode.chern import connection_data, curvature_components
from chernsode.expressions import (
    Var, VarSet, _Expansion, add, call, is_polynomial, parse, simplify,
    to_string, var,
)
from chernsode.natjets import push_sode_symbolic, random_automorphism
from chernsode.sode import (
    SodeSystem, random_polynomial_sode, splitting_P, splitting_T,
)

X, V = var("x1"), var("v1")


class _FreshKeys(_Expansion):
    """Keys each atom with its own `to_string` walk, as before the table."""

    __slots__ = ()

    def key(self, atom):
        key = to_string(atom)
        self.atoms.setdefault(key, atom)
        return key


def _fresh_simplify(e):
    expansion = _FreshKeys()
    return expansion.from_poly(expansion.to_poly(e))


def _fresh_is_polynomial(e):
    expansion = _FreshKeys()
    try:
        terms, _ = expansion.to_poly(e)
    except ZeroDivisionError:
        return False
    return all(exp > 0 and isinstance(expansion.atoms[key], Var)
               for mono in terms for key, exp in mono)


def _nested(levels):
    """e_0 = x1 and e_{j+1} = sin(e_j + v1): 2 * levels + 2 distinct nodes,
    each sin an atom holding every one below it."""
    e = X
    for _ in range(levels):
        e = call("sin", add(e, V))
    return e


def test_nested_atoms_render_each_node_once(monkeypatch):
    want = _fresh_simplify(_nested(200))
    calls, render = [], expressions._render

    def counted(node, args):
        calls.append(node)
        return render(node, args)

    monkeypatch.setattr(expressions, "_render", counted)
    for levels in (200, 400):
        e = _nested(levels)
        calls.clear()
        simplify.__wrapped__(e)
        assert len(calls) == len(set(map(id, calls))) == 2 * levels + 2
        calls.clear()
        assert not is_polynomial(e)
        assert len(calls) == 2 * levels + 2
    assert simplify.__wrapped__(_nested(200)) is want


def _entries():
    """Atoms nested in sums, products, negative powers (monic atoms) and
    calls, some folded to constants, and the torsion and curvature arrays of
    a trigonometric system and a pushed system."""
    vs = VarSet.default(2)
    out = [parse(text, vs) for text in (
        "sin(x1 + v1)^2*cos(x1 + v1) - sin(x1 + v1)*cos(x1 + v1)^2",
        "(x1 + 2*x1*v2)^(-2)*exp(x1 + 2*x1*v2) + 1/(3*x1 + 6*x1*v2)",
        "sin(0*x1) + cos(x1 - x1)*sqrt(4 + 0*v1) + log(exp(x1)^0)",
        "exp(sin(x1*v1 + x2)^(-1) + sin(v1*x1 + x2)^(-1))*x2^3",
        "1/(x1^2 - v2^2) - 1/((x1 - v2)*(x1 + v2))",
    )]
    s = SodeSystem(vars=vs, F=(
        parse("3/4*sin(x2)*v1^2 + 1/2*exp(-1/3*t)*v2", vs),
        parse("cos(x1)*v1*v2 - t*x2", vs)))
    data = connection_data(s)
    arrays = [splitting_P(s), splitting_T(s), data.W,
              curvature_components(s).A]
    pushed = push_sode_symbolic(random_automorphism(VarSet.default(1), seed=5),
                                random_polynomial_sode(1, seed=3))
    arrays.append(pushed.F)
    return out + [e for arr in arrays
                  for e in np.asarray(arr, dtype=object).flat]


def test_same_nodes_as_fresh_keys():
    for e in _entries():
        assert simplify.__wrapped__(e) is _fresh_simplify(e)
        assert is_polynomial(e) == _fresh_is_polynomial(e)
