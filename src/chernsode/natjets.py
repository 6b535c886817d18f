"""Vertical automorphisms, jet prolongations and the curvature mapping.

The second-order jet space of SODE sections carries coordinates
(t, x, v, a_i, a_i-first-derivatives, a_i-second-derivatives) where a_i
stands for the equation value x''^i.  This module provides:

- prolongation of automorphisms (t, x) -> (t, phi(t, x)) to the 1-jet level
  and the induced push of a SODE, both pointwise (no inverse needed) and
  symbolic (inverse supplied);
- the 2-jet of a pushed system at a matched point, obtained by numerically
  inverting the chain rule (independent of the equivariance laws under test);
- prolongation of vertical vector fields u^i(t, x) d/dx^i to the second jet
  level via the total-derivative recursion
      w_{alpha beta} = D_beta(w_alpha) - a_{x_b, alpha} du^b/dbeta
                        - a_{v_b, alpha} dv^b/dbeta,
  the standard prolongation formulas being its closed-form expansion;
- the curvature mapping (jet of a system -> the splitting-curvature value,
  y_P = -P and y_T = -T), its infinitesimal equivariance laws, the rank of
  the prolonged-field distribution and the kernel rank of the mapping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .expressions import (
    Expr, ONE, ZERO, _CACHE_SIZE, add, const, evaluate, free_variables, mul,
    richardson, substitute, var,
)
from .sode import (
    HALF, QUARTER, JetPoint1, SodeSystem, TorsionTensor, as_expr,
    check_dependence, directional, eval_array, expr_array, monomials,
    numeric_rank, seeded, worst_abs, _diff, _jacobian,
)
from .chern import connection

__all__ = [
    "VerticalAutomorphism", "SodeJet2", "CurvatureValue", "ProlongedField",
    "JetSpace", "MissingInverse", "prolong1", "push_sode_value",
    "push_sode_symbolic", "pushed_jet2", "verify_functoriality",
    "curvature_mapping", "jet2_of", "prolong_vertical_field",
    "infinitesimal_equivariance", "compose",
    "random_automorphism", "curvature_kernel_dim", "svd_gap",
]


class MissingInverse(ValueError):
    """Operation needs the symbolic inverse of the automorphism."""


# --------------------------------------------------------------------------
# jet coordinates
# --------------------------------------------------------------------------

class JetSpace:
    """Coordinate bookkeeping for the 2-jet space of SODE sections over a
    variable set: base (t, x, v), values a_i and derivative coordinates named
    a{i}_<dirs> with directions written as the base-coordinate names."""

    def __init__(self, vars):
        self.vars = vars
        n = vars.n
        self.n = n
        self.base = vars.names
        self.dirs = self.base  # derivative directions, canonical order
        self.values = tuple(f"a{i + 1}" for i in range(n))
        self.first = {(i, d): f"a{i + 1}_{d}"
                      for i in range(n) for d in self.dirs}
        self.second = {}
        for i in range(n):
            for c1, c2 in itertools.combinations_with_replacement(self.dirs, 2):
                self.second[(i, c1, c2)] = f"a{i + 1}_{c1}{c2}"
        self.fiber = self.values + tuple(self.first.values()) \
            + tuple(self.second.values())
        self.all_coords = self.base + self.fiber
        if len(set(self.all_coords)) != len(self.all_coords):
            raise ValueError(
                "variable names make jet coordinate names collide; rename them")

    def second_name(self, i, d1, d2):
        if (i, d1, d2) in self.second:
            return self.second[(i, d1, d2)]
        return self.second[(i, d2, d1)]


@lru_cache(maxsize=_CACHE_SIZE)
def jet_space(vars) -> JetSpace:
    return JetSpace(vars)


def _total_time(f: Expr, vars) -> Expr:
    """Total time derivative d/dt f + v^i d/dx^i f of f(t, x)."""
    # not `directional`, which would give mul(v, df) for this mul(df, v)
    return add(_diff(f, vars.time),
               *[mul(_diff(f, x), var(v))
                 for x, v in zip(vars.positions, vars.velocities)])


def _at(X, env) -> np.ndarray:
    """`evaluate` of each entry of the object array X at env, in X's shape
    and in its flat order, so the first entry that raises DomainError is
    the first in that order; a number entry is taken as a constant."""
    X = np.asarray(X, dtype=object)
    return np.array([evaluate(as_expr(e), env)
                     for e in X.flat]).reshape(X.shape)


@dataclass(frozen=True)
class SodeJet2:
    """Numeric 2-jet of a system at a point: value F, gradient D1 over the
    base coordinates (t | x | v) and symmetric Hessian D2."""

    point: JetPoint1
    F: np.ndarray
    D1: np.ndarray
    D2: np.ndarray

    @property
    def n(self):
        return len(self.F)

    # velocity blocks of the base axis (t | x | v)
    @property
    def F_v(self):
        return self.D1[:, 1 + self.n:]

    @property
    def F_vv(self):
        return self.D2[:, 1 + self.n:, 1 + self.n:]

    @property
    def row(self) -> list:
        """Python floats in `jet_space(vars).all_coords` order: the base row,
        F, D1 row-major, then the upper triangle of each D2[i]."""
        upper = np.triu_indices(self.D2.shape[-1])
        return (self.point.row + self.F.tolist() + self.D1.ravel().tolist()
                + self.D2[:, upper[0], upper[1]].ravel().tolist())


@dataclass(frozen=True)
class CurvatureValue:
    """Value of the curvature mapping: y_P (n x n) and y_T (n x n x n,
    antisymmetric in the last two axes)."""

    y_P: np.ndarray
    y_T: np.ndarray


def jet2_of(s: SodeSystem, p: JetPoint1) -> SodeJet2:
    """All derivatives of F through order two, evaluated at p: the
    expressions of `jet_substitution(s)` in `jet_space(s.vars).fiber` order,
    whose second derivatives are the upper triangle of each D2[i]."""
    n, dim = s.n, 2 * s.n + 1
    sub = jet_substitution(s)
    vals = eval_array([sub[name] for name in jet_space(s.vars).fiber],
                      s.vars.names, p.row)
    upper = np.triu_indices(dim)
    D2 = np.zeros((n, dim, dim))
    D2[:, upper[0], upper[1]] = D2[:, upper[1], upper[0]] = \
        vals[n + n * dim:].reshape(n, -1)
    return SodeJet2(point=p, F=vals[:n], D1=vals[n:n + n * dim].reshape(n, dim),
                    D2=D2)


# --------------------------------------------------------------------------
# curvature mapping
# --------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_SIZE)
def curvature_mapping_exprs(vars):
    """Symbolic y-formulas over the jet coordinates; writing a[i,c] and
    a[i,c,d] for the first and second derivative coordinates of a_i:

    y_P[i][a] = -a[i,t,v_a]/2 - v^h a[i,x_h,v_a]/2 - a_h a[i,v_h,v_a]/2
                + a[i,x_a] + a[k,v_a] a[i,v_k]/4
    y_T[k][a][b] = -a[k,x_a,v_b]/2 + a[k,x_b,v_a]/2
                   - a[h,v_a] a[k,v_h,v_b]/4 + a[h,v_b] a[k,v_h,v_a]/4

    Composed with the jet of a system these give exactly (-P, -T)."""
    js = jet_space(vars)
    n = js.n
    t, xs, vs = js.dirs[0], js.dirs[1:1 + n], js.dirs[1 + n:]
    aval = [var(js.values[i]) for i in range(n)]

    def a1(i, d):
        return var(js.first[(i, d)])

    def a2(i, d1, d2):
        return var(js.second_name(i, d1, d2))

    y_P = expr_array((n, n))
    for i in range(n):
        for a in range(n):
            y_P[i, a] = add(
                mul(-HALF, a2(i, t, vs[a])),
                *[mul(-HALF, var(vs[h]), a2(i, xs[h], vs[a])) for h in range(n)],
                *[mul(-HALF, aval[h], a2(i, vs[h], vs[a])) for h in range(n)],
                a1(i, xs[a]),
                *[mul(QUARTER, a1(k, vs[a]), a1(i, vs[k])) for k in range(n)])
    y_T = expr_array((n, n, n))
    for k in range(n):
        for a in range(n):
            for b in range(a + 1, n):
                val = add(
                    mul(-HALF, a2(k, xs[a], vs[b])),
                    mul(HALF, a2(k, xs[b], vs[a])),
                    *[mul(-QUARTER, a1(h, vs[a]), a2(k, vs[h], vs[b]))
                      for h in range(n)],
                    *[mul(QUARTER, a1(h, vs[b]), a2(k, vs[h], vs[a]))
                      for h in range(n)])
                y_T[k, a, b] = val
                y_T[k, b, a] = mul(-1, val)
    return y_P, y_T


def curvature_mapping(j2: SodeJet2, vars) -> CurvatureValue:
    """Evaluate the curvature mapping at a 2-jet over `vars`."""
    js = jet_space(vars)
    y_P, y_T = curvature_mapping_exprs(vars)
    values = j2.row
    return CurvatureValue(
        y_P=eval_array(y_P, js.all_coords, values),
        y_T=eval_array(y_T, js.all_coords, values))


def jet_substitution(s: SodeSystem) -> dict:
    """Map jet coordinates to the concrete derivative expressions of s;
    composing the y-formulas with this map gives (-P, -T) symbolically."""
    js = jet_space(s.vars)
    out = {}
    for i in range(s.n):
        out[js.values[i]] = s.F[i]
        for d in js.dirs:
            out[js.first[(i, d)]] = _diff(s.F[i], d)
        for (k, d1, d2), name in js.second.items():
            if k == i:
                out[name] = _diff(_diff(s.F[i], d1), d2)
    return out


# --------------------------------------------------------------------------
# prolongation of vertical fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProlongedField:
    """Second-level prolongation of u^i(t, x) d/dx^i: coefficient expressions
    over the jet coordinates, keyed by target coordinate name."""

    vars: object
    u: tuple
    components: dict


class UJet:
    """Placeholder names for the derivatives of a vertical field u^i(t, x)
    through order 4 (the coefficient recursion never needs more): u1', u1_t',
    u1_x1x2', ...  No variable name contains the trailing ', so none is a
    placeholder's, and since ' sorts below every character of a name, the
    sorted order of the placeholders is the order of their unprimed names."""

    def __init__(self, vars):
        self.vars = vars
        base = (vars.time,) + tuple(vars.positions)
        self.names = []
        self.index = {}
        for i in range(vars.n):
            for k in range(5):
                for combo in itertools.combinations_with_replacement(base, k):
                    name = f"u{i + 1}{'_' if combo else ''}{''.join(combo)}'"
                    self.index[(i, combo)] = name
                    self.names.append(name)
        # derivative chain: placeholder -> placeholder, per base direction
        self.chain = {}
        for (i, combo), name in self.index.items():
            if len(combo) >= 4:
                continue
            for d in base:
                nxt = tuple(sorted(combo + (d,), key=base.index))
                self.chain.setdefault(name, {})[d] = self.index[(i, nxt)]

    def placeholder(self, i, combo=()):
        return var(self.index[(i, combo)])

    def values_for(self, u, env):
        """Numeric placeholder values for a concrete field at a base point."""
        return _at(list(self.substitution_for(u).values()), env).tolist()

    def random_values(self, count, seed, degree=4):
        """Placeholder values of `count` random centered polynomial fields
        u^i(y) = sum_{|alpha| <= degree} c_{i,alpha} (y - p)^alpha at the base
        point p, one row per field, drawn from one seeded stream.  The
        coefficients are integers in [-8, 8] over 8, as in
        random_polynomial_field; the (i, combo) entry is alpha! c_{i,alpha},
        and 0 where |alpha| > degree."""
        scale = np.array([
            math.prod(math.factorial(combo.count(d)) for d in set(combo))
            if len(combo) <= degree else 0
            for (_, combo) in self.index])
        kept = scale > 0
        width = int(kept.sum())
        out = np.zeros((count, len(scale)))
        out[:, kept] = seeded(seed, count * width).integers(
            -8, 9, size=(count, width)) / 8.0
        return out * scale

    def substitution_for(self, u):
        """Placeholder -> derivative expression of a concrete field."""
        out = {}
        for (i, combo), name in self.index.items():
            e = u[i]
            for d in combo:
                e = _diff(e, d)
            out[name] = e
        return out


@lru_cache(maxsize=_CACHE_SIZE)
def generic_prolongation(vars):
    """Coefficient expressions of the prolonged field over (jet coordinates,
    u-derivative placeholders): built once by the total-derivative recursion
    and specialised per field by substitution or numeric placeholder values.

        w_{alpha beta} = D_beta(w_alpha) - a_{x_b alpha} du^b/dbeta
                                         - a_{v_b alpha} dv^b/dbeta
    """
    js = jet_space(vars)
    ujet = UJet(vars)
    n = js.n
    t, xs, vs = js.dirs[0], js.dirs[1:1 + n], js.dirs[1 + n:]

    step = {d: {d: ONE} for d in js.dirs}
    for d, table in step.items():
        for i in range(n):
            table[js.values[i]] = var(js.first[(i, d)])
            table.update((js.first[(i, e)], var(js.second_name(i, e, d)))
                         for e in js.dirs)
        table.update((name, var(ujet.chain[name][d]))
                     for name in sorted(ujet.chain) if d in ujet.chain[name])

    def D(f, d):
        """Total derivative along step[d], built once per direction: the
        base partial, the jet chain (a_i -> a_{i,d}, a_{i,e} -> a_{i,ed}),
        then the placeholder chain in sorted name order, so that the term
        order (and float rounding downstream) is independent of hash
        seeding; only along the coordinates free in f."""
        free = free_variables(f)
        coords = [c for c in step[d] if c in free]
        return directional([step[d][c] for c in coords], coords, f)

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
        """-a_{x_b ...} du^b/dbeta - a_{v_b ...} dv^b/dbeta, where coord(y)
        names the jet coordinate of a_i differentiated further along y."""
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
    return ujet, comp


def prolong_vertical_field(u, vars) -> ProlongedField:
    """Coefficients of the prolonged field for a concrete u (expressions over
    (t, positions)): the generic recursion specialised by substitution."""
    js = jet_space(vars)
    check_dependence(u, js.dirs[:1 + js.n],
                     "vertical fields depend on (t, x) only: ")
    ujet, generic = generic_prolongation(vars)
    mapping = {name: e for name, e in ujet.substitution_for(u).items()}
    comp = {name: substitute(e, mapping) for name, e in generic.items()}
    return ProlongedField(vars=vars, u=tuple(u), components=comp)


@lru_cache(maxsize=_CACHE_SIZE)
def _equivariance_lhs_exprs(vars):
    """Directional derivatives of the y-formulas along the generic prolonged
    field, as expressions over (jet coordinates, u placeholders)."""
    js = jet_space(vars)
    ujet, generic = generic_prolongation(vars)
    y_P, y_T = curvature_mapping_exprs(vars)

    def field_apply(y):
        free = free_variables(y)
        coords = [c for c in js.all_coords if c in free]
        return directional([generic.get(c, ZERO) for c in coords], coords, y)

    n = js.n
    lhs_P = expr_array((n, n))
    lhs_T = expr_array((n, n, n))
    for i in range(n):
        for j in range(n):
            lhs_P[i, j] = field_apply(y_P[i, j])
            for k in range(n):
                lhs_T[i, j, k] = field_apply(y_T[i, j, k])
    return ujet, lhs_P, lhs_T


def infinitesimal_equivariance(s: SodeSystem, u, p: JetPoint1):
    """Residual pair of the two infinitesimal equivariance laws at the jet
    of s at p: the prolonged field applied to y_P[i][j] must equal
    u^i_{,r} y_P[r][j] - u^r_{,j} y_P[i][r], and applied to y_T[k][i][j] it
    must equal u^k_{,r} y_T[r][i][j] - u^r_{,i} y_T[k][r][j]
    - u^r_{,j} y_T[k][i][r].  Both laws are the derivative of the finite
    transformation (conjugation on the upper slot, inverse-Jacobian action
    on each lower slot); they are what the chain rule produces and what the
    order-of-convergence test against finite pushes confirms.  Both
    residuals are NaN when a jet value at p, of s or of u, is not finite:
    neither law is then evaluated, not even the T law at n = 1, which has
    no component."""
    n = s.n
    js = jet_space(s.vars)
    ujet, lhs_P, lhs_T = _equivariance_lhs_exprs(s.vars)
    j2 = jet2_of(s, p)
    base_env = p.env(s.vars)
    names = js.all_coords + tuple(ujet.names)
    u_values = dict(zip(ujet.names, ujet.values_for(u, base_env)))
    values = j2.row + list(u_values.values())
    if math.isnan(worst_abs(values)):
        return float("nan"), float("nan")
    field_P = eval_array(lhs_P, names, values)
    field_T = eval_array(lhs_T, names, values)
    yv = curvature_mapping(j2, s.vars)
    u_x = np.array([[u_values[ujet.index[(i, (x,))]] for x in s.vars.positions]
                    for i in range(n)])

    delta_p = [field_P[i, j]
               - sum(u_x[i, r] * yv.y_P[r, j] - u_x[r, j] * yv.y_P[i, r]
                     for r in range(n))
               for i in range(n) for j in range(n)]
    delta_t = [field_T[k, i, j]
               - sum(u_x[k, r] * yv.y_T[r, i, j]
                     - u_x[r, i] * yv.y_T[k, r, j]
                     - u_x[r, j] * yv.y_T[k, i, r]
                     for r in range(n))
               for k in range(n) for i in range(n) for j in range(i + 1, n)]
    return worst_abs(delta_p), worst_abs(delta_t)


# --------------------------------------------------------------------------
# ranks
# --------------------------------------------------------------------------

def random_polynomial_field(vars, seed, degree=4):
    """Random polynomial u^i(t, x) of total degree <= degree."""
    rng = seeded(seed)
    monos = monomials((vars.time,) + tuple(vars.positions), degree)
    u = []
    for _ in range(vars.n):
        terms = [mul(const(Fraction(int(rng.integers(-8, 9)), 8)),
                     *[var(nm) for nm in m]) for m in monos]
        u.append(add(*terms))
    return tuple(u)


def _field_jet_span(s: SodeSystem, p: JetPoint1, order, sample_count, seed,
                    degree):
    """numeric_rank of the matrix whose rows are the coefficients, on the
    coordinates `order`, of prolonged random fields (UJet.random_values) at
    the jet of s at p; one batched evaluation per coefficient."""
    js = jet_space(s.vars)
    ujet, generic = generic_prolongation(s.vars)
    draws = ujet.random_values(sample_count, seed, degree)
    coeffs = expr_array(len(order))
    for k, name in enumerate(order):
        coeffs[k] = generic.get(name, ZERO)
    values = jet2_of(s, p).row + list(draws.T)
    cols = eval_array(coeffs, js.all_coords + tuple(ujet.names), values)
    return numeric_rank(cols.T)


def distribution_span(n, s: SodeSystem, p: JetPoint1, sample_count=None,
                      seed=2024):
    """Singular values of the matrix whose rows are full coefficient vectors
    of prolonged vertical fields at the jet of s at p (the t-component is
    identically zero and omitted).  The fields are seeded random 4-jets:
    centered polynomial fields of degree 4 at the base point, whose
    derivatives enter the precompiled generic coefficients directly.  The
    `svd_gap` of a `jets` report is the ratio of two of these values."""
    order = jet_space(s.vars).all_coords[1:]  # drop t
    if sample_count is None:
        sample_count = len(order) + 10
    return _field_jet_span(s, p, order, sample_count, seed, 4)


def svd_gap(svals, rank) -> float:
    """svals[rank - 1] / svals[rank]; 1e18 when svals[rank] is missing or 0."""
    if len(svals) > rank and svals[rank] > 0:
        return float(svals[rank - 1] / svals[rank])
    return 1e18


def order0_distribution_rank(n, s: SodeSystem, p: JetPoint1) -> int:
    """Rank of the order-0 field components (x, v, value blocks only) of
    3n + 8 prolonged fields of degree 2 drawn with seed 2024; equals
    3n at generic points, so order-0 invariants are functions of t alone."""
    js = jet_space(s.vars)
    order = js.base[1:] + js.values
    rank, _ = _field_jet_span(s, p, order, len(order) + 8, 2024, degree=2)
    return rank


def curvature_kernel_dim(s: SodeSystem, p: JetPoint1) -> int:
    """Kernel dimension of the curvature mapping differential at the jet of
    s at p: number of fiber coordinates minus the rank of the y-Jacobian
    (`numeric_rank` at its relative tolerance 1e-8)."""
    js = jet_space(s.vars)
    n = s.n
    y_P, y_T = curvature_mapping_exprs(s.vars)
    ys = [y_P[i, j] for i in range(n) for j in range(n)]
    ys += [y_T[k, i, j] for k in range(n) for i in range(n)
           for j in range(i + 1, n)]
    rows = eval_array(_jacobian(ys, js.fiber), js.all_coords, jet2_of(s, p).row)
    rank, _ = numeric_rank(rows)
    return len(js.fiber) - rank


# --------------------------------------------------------------------------
# vertical automorphisms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VerticalAutomorphism:
    """(t, x) -> (t, phi(t, x)); optional symbolic inverse psi with
    phi(t, psi(t, x)) = x."""

    vars: object
    phi: tuple
    inverse: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(self.phi))
        if self.inverse is not None:
            object.__setattr__(self, "inverse", tuple(self.inverse))
            if len(self.inverse) != self.n:
                raise ValueError(f"automorphism needs {self.n} components")
        check_dependence(self.phi + (self.inverse or ()),
                         (self.vars.time, *self.vars.positions),
                         "automorphism components depend on (t, x) only: ")

    @property
    def n(self):
        return len(self.phi)

    def jacobian(self):
        return _jacobian(self.phi, self.vars.positions)

    def validate(self, points):
        """Raise DomainError at the first point where `evaluate` fails on the
        1-jet map or the Jacobian, and ValueError at the first point where
        |det| of the Jacobian is below 1e-8 or the inverse misses the round
        trip by more than 1e-10."""
        J = self.jacobian()
        for p in points:
            pushed = prolong1(self, p)
            env = p.env(self.vars)
            if abs(np.linalg.det(_at(J, env))) < 1e-8:
                raise ValueError(f"singular Jacobian at {p}")
            if self.inverse is not None:
                env.update(zip(self.vars.positions, pushed.x))
                back = _at(self.inverse, env)
                if not worst_abs(back - p.x) <= 1e-10:
                    raise ValueError(f"inverse fails round-trip at {p}")

    def inverted(self) -> "VerticalAutomorphism":
        if self.inverse is None:
            raise MissingInverse("no symbolic inverse available")
        return VerticalAutomorphism(vars=self.vars, phi=self.inverse,
                                    inverse=self.phi)


def identity_automorphism(vars) -> VerticalAutomorphism:
    xs = tuple(var(p) for p in vars.positions)
    return VerticalAutomorphism(vars=vars, phi=xs, inverse=xs)


def compose(outer: VerticalAutomorphism,
            inner: VerticalAutomorphism) -> VerticalAutomorphism:
    """outer after inner; inverses compose in the opposite order."""
    sub = dict(zip(outer.vars.positions, inner.phi))
    phi = tuple(substitute(c, sub) for c in outer.phi)
    inverse = None
    if outer.inverse is not None and inner.inverse is not None:
        sub_inv = dict(zip(inner.vars.positions, outer.inverse))
        inverse = tuple(substitute(c, sub_inv) for c in inner.inverse)
    return VerticalAutomorphism(vars=outer.vars, phi=phi, inverse=inverse)


def random_automorphism(vars, seed) -> VerticalAutomorphism:
    """Composition of two unipotent triangular polynomial shears (each
    component shifts x^i by a degree-<=2 polynomial in t and the earlier /
    later coordinates, with coefficients k/16 for k in [-4, 4]).  Triangular
    maps invert exactly by back-substitution, so the result is a global
    polynomial automorphism with a polynomial inverse and Jacobian
    determinant identically 1."""
    rng = seeded(seed)
    n = vars.n

    def poly(names):
        terms = [mul(const(Fraction(int(rng.integers(-4, 5)), 16)),
                     *[var(nm) for nm in m]) for m in monomials(names, 2)]
        return add(*terms)

    def shear(lower):
        order = range(n) if lower else range(n - 1, -1, -1)
        phi = [None] * n
        shift = {}
        for i in order:
            earlier = [vars.positions[j] for j in (range(i) if lower
                                                   else range(i + 1, n))]
            shift[i] = poly((vars.time,) + tuple(earlier))
            phi[i] = add(var(vars.positions[i]), shift[i])
        # back-substitution: psi^i = x^i - shift_i(t, psi^earlier)
        psi = [None] * n
        for i in order:
            sub = {vars.positions[j]: psi[j]
                   for j in (range(i) if lower else range(i + 1, n))}
            psi[i] = add(var(vars.positions[i]),
                         mul(-1, substitute(shift[i], sub)))
        return VerticalAutomorphism(vars=vars, phi=tuple(phi),
                                    inverse=tuple(psi))

    return compose(shear(lower=False), shear(lower=True))


# --------------------------------------------------------------------------
# prolongation of automorphisms and pushed systems
# --------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_SIZE)
def _prolong1_exprs(auto: VerticalAutomorphism) -> np.ndarray:
    """Symbolic components of the induced 1-jet map
    (t, x, v) -> (t, phi, phi_t + phi_x v)."""
    vars = auto.vars
    n = auto.n
    out = expr_array(2 * n + 1)
    out[0] = var(vars.time)
    for h in range(n):
        out[1 + h] = auto.phi[h]
        out[1 + n + h] = _total_time(auto.phi[h], vars)
    return out


def prolong1(auto: VerticalAutomorphism, p: JetPoint1) -> JetPoint1:
    env = p.env(auto.vars)
    m = _prolong1_exprs(auto)
    vals = _at(m, env).tolist()
    n = auto.n
    return JetPoint1(vals[0], tuple(vals[1:1 + n]), tuple(vals[1 + n:]))


@lru_cache(maxsize=_CACHE_SIZE)
def _push_value_exprs(auto: VerticalAutomorphism, s: SodeSystem) -> tuple:
    """G^h(t, x, v): the pushed right-hand side composed with the 1-jet map,
    phi_tt + 2 phi_tx v + phi_xx v v + phi_x F."""
    vars = s.vars
    n = s.n
    t, xs, vs = vars.time, vars.positions, vars.velocities
    out = []
    for h in range(n):
        phi_h = auto.phi[h]
        out.append(add(
            _diff(_diff(phi_h, t), t),
            *[mul(2, _diff(_diff(phi_h, t), xs[i]), var(vs[i])) for i in range(n)],
            *[mul(_diff(_diff(phi_h, xs[i]), xs[j]), var(vs[i]), var(vs[j]))
              for i in range(n) for j in range(n)],
            *[mul(_diff(phi_h, xs[i]), s.F[i]) for i in range(n)]))
    return tuple(out)


def push_sode_value(auto: VerticalAutomorphism, s: SodeSystem,
                    p: JetPoint1) -> np.ndarray:
    """Value of the pushed system at the pushed point; no inverse needed."""
    return _at(_push_value_exprs(auto, s), p.env(s.vars))


def push_sode_symbolic(auto: VerticalAutomorphism, s: SodeSystem) -> SodeSystem:
    """The pushed system as expressions, by substituting the inverse jet map
    into the pushed values."""
    if auto.inverse is None:
        raise MissingInverse("symbolic push needs the inverse components")
    vars = s.vars
    sub = dict(zip(vars.positions, auto.inverse))
    sub.update((v, _total_time(psi, vars))
               for v, psi in zip(vars.velocities, auto.inverse))
    F = tuple(substitute(g, sub) for g in _push_value_exprs(auto, s))
    return SodeSystem(vars=vars, F=F)


@lru_cache(maxsize=_CACHE_SIZE)
def _chain_rule_exprs(auto: VerticalAutomorphism, s: SodeSystem):
    """The pushed values G and the 1-jet map M with their gradients and
    Hessians over the base coordinates (last axes)."""
    G = _push_value_exprs(auto, s)
    M = _prolong1_exprs(auto)
    dG, dM = _jacobian(G, s.coords), _jacobian(M, s.coords)
    return G, M, dG, _jacobian(dG, s.coords), dM, _jacobian(dM, s.coords)


def pushed_jet2(auto: VerticalAutomorphism, s: SodeSystem,
                p: JetPoint1) -> SodeJet2:
    """2-jet of the pushed system at the pushed point, recovered by inverting
    the chain rule numerically (the 1-jet map's Jacobian is inverted as a
    matrix at the point, so no symbolic inverse of phi is required)."""
    n = s.n
    g_val, m_val, dg, hg, jmat, hm = (
        eval_array(X, s.vars.names, p.row) for X in _chain_rule_exprs(auto, s))

    dim = 2 * n + 1
    jinv = np.linalg.inv(jmat)
    d1 = dg @ jinv
    d2 = np.zeros((n, dim, dim))
    for h in range(n):
        corrected = hg[h] - np.tensordot(d1[h], hm, axes=(0, 0))
        d2[h] = jinv.T @ corrected @ jinv
        d2[h] = (d2[h] + d2[h].T) / 2.0

    p_prime = JetPoint1(m_val[0], tuple(m_val[1:1 + n]), tuple(m_val[1 + n:]))
    return SodeJet2(point=p_prime, F=g_val, D1=d1, D2=d2)


# --------------------------------------------------------------------------
# functoriality checks
# --------------------------------------------------------------------------

def _frame_matrices_from_jet(j2: SodeJet2):
    """Frame and coframe at the jet's base point from its first derivatives."""
    n = j2.n
    dim = 2 * n + 1
    W = 0.5 * j2.F_v
    frame = np.eye(dim)
    frame[0, 0] = 1.0
    frame[1:1 + n, 0] = j2.point.v
    frame[1 + n:, 0] = j2.F
    frame[1 + n:, 1:1 + n] = W
    coframe = np.eye(dim)
    coframe[1:1 + n, 0] = -np.asarray(j2.point.v)
    coframe[1 + n:, 0] = -j2.F + W @ np.asarray(j2.point.v)
    coframe[1 + n:, 1:1 + n] = -W
    return frame, coframe


def _fd_push_derivative(auto, s, p, jx_inv):
    """d(pushed F)/dV at the pushed point by central differences of step
    1e-4 along curves q_eps whose image moves only the V coordinate, with
    one Richardson step."""
    n = s.n

    def value(v):
        q = JetPoint1(p.t, p.x, tuple(v))
        return push_sode_value(auto, s, q)

    base_v = np.asarray(p.v)
    out = np.zeros((n, n))
    for i in range(n):
        step = jx_inv[:, i]
        out[:, i] = richardson(lambda eps: value(base_v + eps * step), 1e-4)
    return out


def verify_functoriality(auto: VerticalAutomorphism, s: SodeSystem,
                         points) -> dict:
    """Residual maxima over matched point pairs for: the first and second
    velocity-derivative transformation laws, the three frame pushforward
    laws, torsion equivariance on frame pairs, the curvature-mapping
    equivariance (conjugation of P, two-cotangent transformation of T) and
    invariance of the Kosambi characteristic polynomial."""
    n = s.n
    dim = 2 * n + 1
    vars = s.vars
    jac = auto.jacobian()
    flow_jac = np.array([_total_time(e, vars) for e in jac.flat],
                        dtype=object).reshape(n, n)
    hess = _jacobian(jac, vars.positions)
    sc = connection(s).torsion

    deltas = {k: [] for k in ("eq_partialF", "eq_Partial2F", "frame_push",
                              "torsion_equivariance", "curvature_equivariance",
                              "kosambi_match")}
    dM = _chain_rule_exprs(auto, s)[4]     # Jacobian of the 1-jet map
    for p in points:
        env, values = p.env(vars), p.row
        jmap = eval_array(dM, vars.names, values)
        jx = jmap[1:1 + n, 1:1 + n]          # the automorphism's Jacobian
        jx_inv = np.linalg.inv(jx)
        j2 = jet2_of(s, p)
        pushed = pushed_jet2(auto, s, p)

        # (i) first derivative law: fd oracle against the closed formula
        fd = _fd_push_derivative(auto, s, p, jx_inv)
        rhs1 = 2.0 * _at(flow_jac, env) @ jx_inv + jx @ j2.F_v @ jx_inv
        deltas["eq_partialF"].append(fd - rhs1)

        # (ii) second derivative law against the chain-rule jet
        lhs2 = pushed.F_vv
        phi_xx = _at(hess, env)
        # second v-derivative of the pushed-value expression: the quadratic
        # phi_xx v v term contributes twice
        rhs2 = 2.0 * np.einsum("hab,ai,bj->hij", phi_xx, jx_inv, jx_inv) \
            + np.einsum("ha,abc,cj,bi->hij", jx, j2.F_vv, jx_inv, jx_inv)
        deltas["eq_Partial2F"].append(lhs2 - rhs2)

        # (iii) frame pushforwards
        frame_p, _ = _frame_matrices_from_jet(j2)
        frame_q, coframe_q = _frame_matrices_from_jet(pushed)
        deltas["frame_push"].append(jmap @ frame_p[:, 0] - frame_q[:, 0])
        for i in range(n):
            target = sum(jx[h, i] * frame_q[:, 1 + h] for h in range(n))
            deltas["frame_push"].append(jmap @ frame_p[:, 1 + i] - target)
            target = sum(jx[h, i] * frame_q[:, 1 + n + h] for h in range(n))
            deltas["frame_push"].append(jmap @ frame_p[:, 1 + n + i] - target)

        # pushed splitting curvature from the pushed jet
        yv = curvature_mapping(pushed, vars)
        P_push, T_push = -yv.y_P, -yv.y_T
        P_here = eval_array(sc.P, vars.names, values)
        T_here = eval_array(sc.T, vars.names, values)

        # (iv) torsion equivariance on frame pairs
        tor_here, tor_push = TorsionTensor(P_here, T_here), TorsionTensor(P_push, T_push)
        for a in range(dim):
            for b in range(a + 1, dim):
                val = tor_here.apply(np.eye(dim)[a], np.eye(dim)[b])
                rhs = jmap @ (frame_p @ val)
                xa = coframe_q @ (jmap @ frame_p[:, a])
                xb = coframe_q @ (jmap @ frame_p[:, b])
                lhs = frame_q @ tor_push.apply(xa, xb)
                deltas["torsion_equivariance"].append(lhs - rhs)

        # (v) curvature-mapping equivariance
        conj = jx @ P_here @ jx_inv
        t_conj = np.einsum("mk,kab,ac,bd->mcd", jx, T_here, jx_inv, jx_inv)
        deltas["curvature_equivariance"] += [P_push - conj, T_push - t_conj]

        # np.poly refuses a non-finite matrix; the match then reads NaN
        finite = np.isfinite(P_here).all() and np.isfinite(P_push).all()
        deltas["kosambi_match"].append(
            np.poly(-P_here) - np.poly(-P_push) if finite else np.nan)
    return {key: worst_abs(*arrays) for key, arrays in deltas.items()}
