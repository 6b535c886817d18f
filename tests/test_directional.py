"""One directional derivative: `sode.directional`.

`flow_derivative`, the total derivatives D_beta of `generic_prolongation`
and the prolonged-field derivatives of `_equivariance_lhs_exprs` are built
by `directional`; only `natjets._total_time` keeps its own loop, because its
products put the partial first.  Nodes are interned, so each result is
checked with `is` against a test-local copy of the loop it replaced
(written with `sode._diff`)."""

import ast
import inspect
import itertools

import pytest

from chernsode import natjets, sode
from chernsode.expressions import (
    ONE, ZERO, VarSet, add, free_variables, mul, parse, var,
)
from chernsode.natjets import (
    UJet, _equivariance_lhs_exprs, curvature_mapping_exprs,
    generic_prolongation, jet_space,
)
from chernsode.sode import (
    SodeSystem, _diff, _jacobian, directional, flow_derivative,
    random_polynomial_sode,
)


def _trig2():
    vs = VarSet.default(2)
    return SodeSystem(vars=vs, F=(
        parse("3/4*sin(x2)*v1^2 + 1/2*exp(-1/3*t)*v2 + 5/8*cos(x1)*v1*v2", vs),
        parse("-1/2*cos(x2)*v2^2 + 3/8*sin(x1)*v1 + 1/4*exp(t)*v1*v2", vs)))


SYSTEMS = [random_polynomial_sode(1, seed=3), random_polynomial_sode(2, seed=61),
           random_polynomial_sode(3, seed=3000), _trig2()]
IDS = ["poly1", "poly2", "poly3", "trig2"]


# --------------------------------------------------------------------------
# the loops that `directional` replaced
# --------------------------------------------------------------------------

def _old_flow_derivative(s, f):
    terms = [_diff(f, s.vars.time)]
    for i in range(s.n):
        terms.append(mul(var(s.vars.velocities[i]),
                         _diff(f, s.vars.positions[i])))
        terms.append(mul(s.F[i], _diff(f, s.vars.velocities[i])))
    return add(*terms)


def _old_generic_prolongation(vars):
    js = jet_space(vars)
    ujet = UJet(vars)
    n = js.n
    t, xs, vs = js.dirs[0], js.dirs[1:1 + n], js.dirs[1 + n:]

    def D(f, d):
        terms = [_diff(f, d)]
        for i in range(n):
            terms.append(mul(var(js.first[(i, d)]), _diff(f, js.values[i])))
            for e in js.dirs:
                terms.append(mul(var(js.second_name(i, e, d)),
                                 _diff(f, js.first[(i, e)])))
        for name in sorted(free_variables(f)):
            if name in ujet.chain and d in ujet.chain[name]:
                terms.append(mul(var(ujet.chain[name][d]), _diff(f, name)))
        return add(*terms)

    comp = {}
    u = [ujet.placeholder(i) for i in range(n)]
    v_comp = []
    for i in range(n):
        comp[xs[i]] = u[i]
        vi = add(ujet.placeholder(i, (t,)),
                 *[mul(ujet.placeholder(i, (xs[h],)), var(vs[h]))
                   for h in range(n)])
        comp[vs[i]] = vi
        v_comp.append(vi)

    w = []
    for i in range(n):
        wi = add(
            ujet.placeholder(i, (t, t)),
            *[mul(2, ujet.placeholder(i, tuple(sorted((t, xs[h]),
                                                      key=js.base.index))),
                  var(vs[h])) for h in range(n)],
            *[mul(ujet.placeholder(i, tuple(sorted((xs[h], xs[k]),
                                                   key=js.base.index))),
                  var(vs[h]), var(vs[k])) for h in range(n) for k in range(n)],
            *[mul(ujet.placeholder(i, (xs[h],)), var(js.values[h]))
              for h in range(n)])
        comp[js.values[i]] = wi
        w.append(wi)

    def correction(coord, beta):
        terms = []
        for b in range(n):
            du = D(u[b], beta)
            if du is not ZERO:
                terms.append(mul(-1, var(coord(xs[b])), du))
            dv = D(v_comp[b], beta)
            if dv is not ZERO:
                terms.append(mul(-1, var(coord(vs[b])), dv))
        return terms

    w1 = {}
    for i in range(n):
        for d in js.dirs:
            w1[(i, d)] = add(D(w[i], d),
                             *correction(lambda y: js.first[(i, y)], d))
            comp[js.first[(i, d)]] = w1[(i, d)]

    for i in range(n):
        for c1, d1 in enumerate(js.dirs):
            for d2 in js.dirs[c1:]:
                second = correction(lambda y: js.second_name(i, d1, y), d2)
                comp[js.second[(i, d1, d2)]] = add(D(w1[(i, d1)], d2), *second)
    return comp


def _old_field_apply(js, generic, y):
    terms = []
    for name in js.all_coords:
        cf = generic.get(name)
        if cf is None or cf is ZERO:
            continue
        dy = _diff(y, name)
        if dy is not ZERO:
            terms.append(mul(cf, dy))
    return add(*terms)


# --------------------------------------------------------------------------
# the same nodes
# --------------------------------------------------------------------------

@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_flow_derivative_same_nodes_on_velocity_dependent_entries(s):
    """The F_v entries that `splitting_P` differentiates, F itself and the
    products F^i v^j depend on v, so the F^i d/dv^i terms take part."""
    entries = [*_jacobian(s.F, s.vars.velocities).flat, *s.F,
               *[mul(F, var(v)) for F in s.F for v in s.vars.velocities]]
    for f in entries:
        assert flow_derivative(s, f) is _old_flow_derivative(s, f)
    assert any(_diff(f, v) is not ZERO
               for f in entries for v in s.vars.velocities)


@pytest.mark.parametrize("n", [1, 2])
def test_generic_prolongation_same_nodes(n):
    vars = VarSet.default(n)
    _, comp = generic_prolongation(vars)
    old = _old_generic_prolongation(vars)
    assert list(comp) == list(old)
    bad = [name for name in old if comp[name] is not old[name]]
    assert not bad, bad


@pytest.mark.parametrize("n", [1, 2])
def test_equivariance_lhs_same_nodes(n):
    vars = VarSet.default(n)
    js = jet_space(vars)
    _, generic = generic_prolongation(vars)
    _, lhs_P, lhs_T = _equivariance_lhs_exprs(vars)
    y_P, y_T = curvature_mapping_exprs(vars)
    for lhs, y in ((lhs_P, y_P), (lhs_T, y_T)):
        assert lhs.shape == y.shape
        for idx in itertools.product(*map(range, y.shape)):
            assert lhs[idx] is _old_field_apply(js, generic, y[idx])


# --------------------------------------------------------------------------
# a ZERO component costs no derivative
# --------------------------------------------------------------------------

def _lookups():
    info = sode._diff.cache_info()
    return info.hits + info.misses


def test_zero_component_makes_no_diff_lookup():
    e = parse("x1^3*sin(x1*v1) + t*v1^2", VarSet.default(1))
    coords = ["t", "x1", "v1"]
    before = _lookups()
    got = directional([ZERO, ONE, ZERO], coords, e)
    assert _lookups() - before == 1
    assert got is _diff(e, "x1")
    before = _lookups()
    assert directional([ZERO, ZERO, ZERO], coords, e) is ZERO
    assert _lookups() == before


def test_int_zero_component_is_still_differentiated():
    e = parse("x1^3*sin(x1*v1) + t*v1^2", VarSet.default(1))
    before = _lookups()
    got = directional([0, 1, 0], ["t", "x1", "v1"], e)
    assert _lookups() - before == 3
    assert got is _diff(e, "x1")


# --------------------------------------------------------------------------
# where partials are taken
# --------------------------------------------------------------------------

def _diff_callers(module):
    """Qualified names of the functions and methods of `module` whose body
    calls `_diff` by name."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(c, ast.Call)
                        and isinstance(c.func, ast.Name)
                        and c.func.id == "_diff"
                        for c in ast.walk(child)):
                    out.add(name)
                if isinstance(child, ast.ClassDef):
                    visit(child, name + ".")

    visit(ast.parse(inspect.getsource(module)), module.__name__ + ".")
    return out


def test_diff_is_called_only_by_the_derivative_builders():
    callers = _diff_callers(sode) | _diff_callers(natjets)
    assert callers == {
        "chernsode.sode._jacobian", "chernsode.sode.directional",
        "chernsode.natjets._total_time", "chernsode.natjets.jet_substitution",
        "chernsode.natjets.UJet.substitution_for",
        "chernsode.natjets._push_value_exprs",
    }
