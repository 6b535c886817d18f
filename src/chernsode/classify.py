"""Pointwise and symbolic classifiers built on the curvature arrays.

Covers the three special-coordinate condition sets (first-degree in the
velocities / velocity-free / flat), the holonomy span rank, the traceless
(unimodular) divergence test, residuals of the orthogonal-holonomy system,
the Kosambi endomorphism with its characteristic polynomial (whose
coefficients are sums of principal minors of P, expanded by the one symbolic
determinant `sode._det`), and the first-prolongation nullity of the
structure-group algebra.  The classifiers read (P, T) and (A, B, R) from
the system's connection (`chern.connection`); `holonomy_spans` builds its
(A, B, R) once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .expressions import (
    add, const, is_polynomial, mul, simplify, var,
)
from .chern import (
    connection, connection_data, curvature_components, frame_christoffels,
    _frame_covariant,
)
from .sode import (
    JetPoint1, SodeSystem, as_expr, check_dependence, eval_array, expr_array,
    flow_derivative, numeric_rank, point_batch, reduce_residual,
    sample_points, worst_abs, zero_symbolically, F_partials, _det, _jacobian,
)

__all__ = [
    "ConditionResult", "ClassificationReport", "KosambiData",
    "SymbolicModeUnsupported", "NotPositiveDefinite",
    "special_coordinate_conditions", "holonomy_span", "holonomy_spans",
    "unimodular_test",
    "orthogonal_residual", "parallel_metric_residual", "kosambi_invariants",
    "first_prolongation_dim", "curvature_span_matrices",
]


class SymbolicModeUnsupported(Exception):
    """Symbolic zero-testing requested for a non-polynomial system."""


class NotPositiveDefinite(Exception):
    """Candidate metric matrix failed symmetry/positivity at a sample point."""


@dataclass(frozen=True)
class ConditionResult:
    status: str               # "symbolic-zero" | "numeric-zero" | "violated"
    witness: dict | None = None

    @property
    def holds(self):
        return self.status != "violated"


@dataclass(frozen=True)
class KosambiData:
    """Ktilde = -P and the coefficients of det(lambda*I - Ktilde), listed
    from lambda^n down (leading coefficient 1)."""

    Ktilde: np.ndarray
    charpoly: tuple


@dataclass(frozen=True)
class ClassificationReport:
    flags: dict
    holonomy_span_dim: int | None     # None when a point has no finite span
    unimodular: ConditionResult
    unimodular_decomposition: tuple | None
    orthogonal_residuals: dict | None


# --------------------------------------------------------------------------
# zero-testing helpers
# --------------------------------------------------------------------------

def _condition(named_exprs, s, mode, points):
    if mode == "symbolic":
        if not all(is_polynomial(f) for f in s.F):
            raise SymbolicModeUnsupported(
                "symbolic zero-testing needs polynomial right-hand sides")
        named_exprs = [(name, simplify(e)) for name, e in named_exprs
                       if not zero_symbolically(e)]
        if not named_exprs:
            return ConditionResult("symbolic-zero")
    if points is None:
        points = sample_points(s.vars, 8 if mode == "symbolic" else 25, seed=17)
    r = reduce_residual([(name, [e]) for name, e in named_exprs], s,
                        point_batch(s.vars, points))
    if r.worst <= (0.0 if mode == "symbolic" else 1e-10):
        if mode != "symbolic":
            return ConditionResult("numeric-zero")
        return ConditionResult("violated", {
            "component": named_exprs[0][0], "point": None, "value": None})
    return ConditionResult("violated", {
        "component": r.label, "point": points[r.point],
        "value": r.value if math.isfinite(r.worst) else None})


def _named(prefix, arr):
    arr = np.asarray(arr, dtype=object)
    return [(prefix + "".join(f"[{i}]" for i in idx), as_expr(arr[idx]))
            for idx in np.ndindex(arr.shape)]


# --------------------------------------------------------------------------
# special coordinate conditions
# --------------------------------------------------------------------------

def special_coordinate_conditions(s: SodeSystem, mode="symbolic",
                                  points=None) -> dict:
    """Necessary curvature conditions for the three special normal forms:

    - linearizable_necessary: B = 0 and R = 0 (right-hand side becomes a
      first-degree polynomial in the velocities);
    - affine_necessary:       A = 0 and R = 0 (becomes velocity-free);
    - trivializable_necessary: R = 0 and P = T = 0 (becomes zero).

    Necessary directions only; no coordinate construction is attempted.
    """
    conn = connection(s)
    comp, sc = conn.curvature, conn.torsion
    r_named = _named("R", comp.R)
    sets = {
        "linearizable_necessary": _named("B", comp.B) + r_named,
        "affine_necessary": _named("A", comp.A) + r_named,
        "trivializable_necessary":
            r_named + _named("P", sc.P) + _named("T", sc.T),
    }
    return {flag: _condition(exprs, s, mode, points)
            for flag, exprs in sets.items()}


# --------------------------------------------------------------------------
# holonomy span
# --------------------------------------------------------------------------

def curvature_span_matrices(s: SodeSystem):
    """The labelled n x n curvature endomorphisms spanning the candidate
    holonomy algebra: A_j, B_{ij} (i<j), R_{hk} (h<=k)."""
    return curvature_components(s).endomorphisms()


def holonomy_spans(s: SodeSystem, points, tol=1e-8) -> list:
    """Rank of the span of the curvature endomorphisms at each point, as
    vectors in n^2 space.  Rank n^2 certifies the full general linear algebra
    at a point; partial ranks are reported without further interpretation.
    None at a point where a curvature value is not finite: no rank is
    claimed there.  The matrices are built once and evaluated on the batch."""
    mats = np.stack([M for _, M in curvature_span_matrices(s)])
    vals = eval_array(mats, s.vars.names, point_batch(s.vars, points))
    rows = vals.reshape(len(mats), s.n ** 2, len(points))
    return [numeric_rank(rows[..., k], tol)[0]
            if np.isfinite(rows[..., k]).all() else None
            for k in range(len(points))]


def holonomy_span(s: SodeSystem, p: JetPoint1) -> int | None:
    """`holonomy_spans` at the one point p."""
    return holonomy_spans(s, [p])[0]


# --------------------------------------------------------------------------
# unimodular (traceless) test
# --------------------------------------------------------------------------

def unimodular_test(s: SodeSystem, mode="auto", points=None):
    """Divergence test for traceless curvature: sum_h dF^h/dv^h must be
    affine in the velocities, D = F_0 + F_i v^i with F_0, F_i velocity-free,
    and (F_0, F_i) must satisfy dF_j/dx^i = dF_i/dx^j and
    dF_j/dt = dF_0/dx^j.  Returns (ConditionResult, (F_0, (F_i,)) | None)."""
    if mode == "auto":
        mode = "symbolic" if all(is_polynomial(f) for f in s.F) else "numeric"
    n = s.n
    vels = s.vars.velocities
    D = add(*np.diagonal(F_partials(s, "v")))
    F_i = [simplify(e) for e in _jacobian(D, vels)]
    F_0 = simplify(add(D, *[mul(-1, F_i[i], var(vels[i])) for i in range(n)]))

    named = [(f"d2D/dv[{i}]dv[{j}]", e)
             for (i, j), e in np.ndenumerate(_jacobian(F_i, vels))]
    affine = _condition(named, s, mode, points)
    if not affine.holds:
        return affine, None

    # G[a, b] = dF_a/dy^b over F_0, F_1.. and y = (t, x): closed iff symmetric
    G = _jacobian((F_0, *F_i), (s.vars.time, *s.vars.positions))
    named = [(f"dF_{j}/dx[{i}] - dF_{i}/dx[{j}]",
              add(G[1 + j, 1 + i], mul(-1, G[1 + i, 1 + j])))
             for i in range(n) for j in range(i + 1, n)]
    named += [(f"dF_{j}/dt - dF_0/dx[{j}]", add(G[1 + j, 0], mul(-1, G[0, 1 + j])))
              for j in range(n)]
    closed = _condition(named, s, mode, points)
    if not closed.holds:
        return closed, None
    return closed, (F_0, tuple(F_i))


# --------------------------------------------------------------------------
# orthogonal holonomy residuals
# --------------------------------------------------------------------------

def _check_spd(U, s, points, name="U"):
    """Raise NotPositiveDefinite, naming the matrix `name`, at the first
    point where U is not finite, not symmetric within 1e-9 or not positive
    definite."""
    vals = eval_array(U, s.vars.names, point_batch(s.vars, points))
    for k, p in enumerate(points):
        m = vals[:, :, k]
        if not np.isfinite(m).all():
            raise NotPositiveDefinite(f"{name} not finite at {p}")
        if np.max(np.abs(m - m.T)) > 1e-9:
            raise NotPositiveDefinite(f"{name} not symmetric at {p}")
        if np.min(np.linalg.eigvalsh((m + m.T) / 2)) <= 0:
            raise NotPositiveDefinite(f"{name} not positive definite at {p}")


def _check_tx(U, vars):
    """Raise ValueError if an entry of U depends on more than (t, x)."""
    check_dependence(np.asarray(U, dtype=object).flat,
                     (vars.time, *vars.positions),
                     "U must depend on (t, x) only; found ")


def orthogonal_residual(s: SodeSystem, U, points, check_spd=True) -> dict:
    """Residual maxima of the orthogonal-holonomy system for a candidate
    matrix U(t, x): the transport equation eq_PDE, its space companion
    eq_ecuacion2, and the pointwise integrability blocks eq_UABR; each is NaN
    when any value is not finite."""
    n = s.n
    U = np.asarray(U, dtype=object)
    _check_tx(U, s.vars)
    if check_spd:
        _check_spd(U, s, points)

    data = connection_data(s)
    UW = U @ data.W
    pde = expr_array((n, n))
    for i in range(n):
        for j in range(n):
            pde[i, j] = add(flow_derivative(s, as_expr(U[i, j])),
                            as_expr(UW[i, j]), as_expr(UW[j, i]))
    batch = point_batch(s.vars, points)
    out = {"eq_PDE": reduce_residual([("eq_PDE", pde)], s, batch)[0]}

    dU = _jacobian(U, s.vars.positions)
    blocks = []
    for k in range(n):
        UV = U @ data.V[:, :, k]
        blocks.append((k, dU[:, :, k] + UV + UV.T))
    out["eq_ecuacion2"] = reduce_residual(blocks, s, batch)[0]

    # U and every endomorphism M of the connection's (A, B, R) in one walk
    mats = connection(s).curvature.endomorphisms()
    u_vals, *m_vals = eval_array(np.stack([U] + [M for _, M in mats]),
                                 s.vars.names, batch)
    deltas = {f"eq_UABR_{c}": [] for c in "ABR"}
    for (label, _), vals in zip(mats, m_vals):
        for k in range(len(points)):
            u, m = u_vals[:, :, k], vals[:, :, k]
            deltas["eq_UABR_" + label[0]].append(u @ m + m.T @ u)
    out.update((label, worst_abs(*d)) for label, d in deltas.items())
    return out


def parallel_metric_residual(s: SodeSystem, U, points) -> float:
    """max |nabla g| for g = dt (x) dt + U_ij omega^i (x) omega^j
    + U_ij varpi^i (x) varpi^j, written in the adapted coframe; NaN when any
    value is not finite."""
    n = s.n
    n2 = 2 * n + 1
    G = expr_array((n2, n2))
    G[0, 0] = const(1)
    for i in range(n):
        for j in range(n):
            G[1 + i, 1 + j] = as_expr(U[i, j])
            G[1 + n + i, 1 + n + j] = as_expr(U[i, j])
    gamma = frame_christoffels(s)
    blocks = [(a, _frame_covariant(s, gamma, G, "ll", a)) for a in range(n2)]
    return reduce_residual(blocks, s, point_batch(s.vars, points))[0]


# --------------------------------------------------------------------------
# Kosambi invariants
# --------------------------------------------------------------------------

def kosambi_invariants(s: SodeSystem) -> KosambiData:
    """Ktilde = -P and the coefficients of det(lambda I - Ktilde) =
    det(lambda I + P), listed from lambda^n down: c_k is the sum of the k x k
    principal minors of P, each expanded by `sode._det`."""
    n = s.n
    P = connection(s).torsion.P
    charpoly = [const(1)]
    for k in range(1, n + 1):
        minors = [_det([[P[i, j] for j in S] for i in S])
                  for S in combinations(range(n), k)]
        charpoly.append(simplify(add(*minors)))
    return KosambiData(Ktilde=-P, charpoly=tuple(charpoly))


# --------------------------------------------------------------------------
# first prolongation of the structure algebra
# --------------------------------------------------------------------------

def _prolongation_dim(basis) -> int:
    """Dimension of the first prolongation of the span g of the (k, d, d)
    basis matrices G_k: the maps e_a -> T_a = sum_k c[a, k] G_k with
    T_a e_b = T_b e_a for a < b, counted as d*k minus the rank of that
    system in the unknowns c (the basis must be linearly independent)."""
    G = np.asarray(basis, dtype=float)
    k, d, _ = G.shape
    rows = []
    for a, b in combinations(range(d), 2):
        # row[i, e, j]: the coefficient of c[e, j] in (T_a e_b - T_b e_a)_i
        row = np.zeros((d, d, k))
        row[:, a] = G[:, :, b].T
        row[:, b] = -G[:, :, a].T
        rows.append(row.reshape(d, d * k))
    rank, _ = numeric_rank(rows)
    return d * k - rank


def first_prolongation_dim(n: int) -> int:
    """Dimension of the first prolongation of the block-embedded gl(n),
    spanned by diag(0, E_ij, E_ij) in gl(2n+1): expected 0."""
    if not 1 <= n <= 4:
        raise ValueError("supported for 1 <= n <= 4; the answer is n-independent")
    E = np.eye(n * n).reshape(n * n, n, n)
    basis = np.zeros((n * n, 2 * n + 1, 2 * n + 1))
    basis[:, 1:n + 1, 1:n + 1] = basis[:, n + 1:, n + 1:] = E
    return _prolongation_dim(basis)


# --------------------------------------------------------------------------
# assembled report
# --------------------------------------------------------------------------

def classification_report(s: SodeSystem, points, U=None,
                          rank_tol=1e-8) -> ClassificationReport:
    mode = "symbolic" if all(is_polynomial(f) for f in s.F) else "numeric"
    flags = special_coordinate_conditions(s, mode=mode, points=points)
    spans = holonomy_spans(s, points, tol=rank_tol)
    span = None if None in spans else max(spans)
    uni, decomp = unimodular_test(s, mode=mode, points=points)
    ortho = orthogonal_residual(s, U, points) if U is not None else None
    return ClassificationReport(
        flags=flags, holonomy_span_dim=span, unimodular=uni,
        unimodular_decomposition=decomp, orthogonal_residuals=ortho)
