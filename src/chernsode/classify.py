"""Pointwise and symbolic classifiers built on the curvature arrays.

Covers the three special-coordinate condition sets (first-degree in the
velocities / velocity-free / flat), the holonomy span rank, the traceless
(unimodular) divergence test, residuals of the orthogonal-holonomy system,
the Kosambi endomorphism with its characteristic polynomial, and the
first-prolongation nullity of the structure-group algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expressions import add, const, is_polynomial, mul, simplify, var
from .chern import connection_data, curvature_components
from .sode import (
    JetPoint1, SodeSystem, as_expr, eval_array, expr_array, max_abs,
    numeric_rank, point_batch, sample_points, splitting_curvature,
    zero_symbolically, _diff,
)

__all__ = [
    "ConditionResult", "ClassificationReport", "KosambiData",
    "SymbolicModeUnsupported", "NotPositiveDefinite",
    "special_coordinate_conditions", "holonomy_span", "unimodular_test",
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
    holonomy_span_dim: int
    unimodular: ConditionResult
    unimodular_decomposition: tuple | None
    orthogonal_residuals: dict | None


# --------------------------------------------------------------------------
# zero-testing helpers
# --------------------------------------------------------------------------

def _witness_numeric(named_exprs, s, points, tol):
    """First (component, point, value) with |value| > tol, else None."""
    batch = point_batch(s.vars, points)
    worst = None
    for name, e in named_exprs:
        vals = eval_array(np.asarray([e], dtype=object), s.vars.names, batch)[0]
        k = int(np.argmax(np.abs(vals)))
        if abs(vals[k]) > tol and (worst is None or abs(vals[k]) > abs(worst[2])):
            worst = (name, points[k], float(vals[k]))
    return worst


def _condition(named_exprs, s, mode, points, tol):
    if mode == "symbolic":
        if not all(is_polynomial(f) for f in s.F):
            raise SymbolicModeUnsupported(
                "symbolic zero-testing needs polynomial right-hand sides")
        bad = [(name, simplify(e)) for name, e in named_exprs
               if not zero_symbolically(e)]
        if not bad:
            return ConditionResult("symbolic-zero")
        if points is None:
            points = sample_points(s.vars, 8, seed=17)
        w = _witness_numeric(bad, s, points, 0.0)
        name, point, value = w if w else (bad[0][0], None, None)
        return ConditionResult("violated", {
            "component": name, "point": point, "value": value})
    if points is None:
        points = sample_points(s.vars, 25, seed=17)
    w = _witness_numeric(named_exprs, s, points, tol)
    if w is None:
        return ConditionResult("numeric-zero")
    return ConditionResult("violated", {
        "component": w[0], "point": w[1], "value": w[2]})


def _named(prefix, arr):
    arr = np.asarray(arr, dtype=object)
    return [(prefix + "".join(f"[{i}]" for i in idx), as_expr(arr[idx]))
            for idx in np.ndindex(arr.shape)]


# --------------------------------------------------------------------------
# special coordinate conditions
# --------------------------------------------------------------------------

def special_coordinate_conditions(s: SodeSystem, mode="symbolic",
                                  points=None, tol=1e-10) -> dict:
    """Necessary curvature conditions for the three special normal forms:

    - linearizable_necessary: B = 0 and R = 0 (right-hand side becomes a
      first-degree polynomial in the velocities);
    - affine_necessary:       A = 0 and R = 0 (becomes velocity-free);
    - trivializable_necessary: R = 0 and P = T = 0 (becomes zero).

    Necessary directions only; no coordinate construction is attempted.
    """
    comp = curvature_components(s)
    sc = splitting_curvature(s, check="none")
    r_named = _named("R", comp.R)
    sets = {
        "linearizable_necessary": _named("B", comp.B) + r_named,
        "affine_necessary": _named("A", comp.A) + r_named,
        "trivializable_necessary":
            r_named + _named("P", sc.P) + _named("T", sc.T),
    }
    return {flag: _condition(exprs, s, mode, points, tol)
            for flag, exprs in sets.items()}


# --------------------------------------------------------------------------
# holonomy span
# --------------------------------------------------------------------------

def curvature_span_matrices(s: SodeSystem):
    """The labelled n x n curvature endomorphisms spanning the candidate
    holonomy algebra: A_j, B_{ij} (i<j), R_{hk} (h<=k)."""
    n = s.n
    comp = curvature_components(s)
    out = []
    for j in range(n):
        out.append((f"A[{j}]", comp.A[:, :, j]))
    for i in range(n):
        for j in range(i + 1, n):
            out.append((f"B[{i}][{j}]", comp.B[:, i, j, :]))
    for h in range(n):
        for k in range(h, n):
            out.append((f"R[{h}][{k}]", comp.R[:, h, k, :]))
    return out


def holonomy_span(s: SodeSystem, p: JetPoint1, tol=1e-8) -> int:
    """Rank of the span of the curvature endomorphisms at p, as vectors in
    n^2 space.  Rank n^2 certifies the full general linear algebra at p;
    partial ranks are reported without further interpretation."""
    env = p.env(s.vars)
    values = [env[name] for name in s.vars.names]
    rows = [eval_array(M, s.vars.names, values).reshape(-1)
            for _, M in curvature_span_matrices(s)]
    rank, _ = numeric_rank(rows, tol)
    return rank


# --------------------------------------------------------------------------
# unimodular (traceless) test
# --------------------------------------------------------------------------

def unimodular_test(s: SodeSystem, mode="auto", points=None, tol=1e-10):
    """Divergence test for traceless curvature: sum_h dF^h/dv^h must be
    affine in the velocities, D = F_0 + F_i v^i with F_0, F_i velocity-free,
    and (F_0, F_i) must satisfy dF_j/dx^i = dF_i/dx^j and
    dF_j/dt = dF_0/dx^j.  Returns (ConditionResult, (F_0, (F_i,)) | None)."""
    if mode == "auto":
        mode = "symbolic" if all(is_polynomial(f) for f in s.F) else "numeric"
    n = s.n
    vels, poss, time = s.vars.velocities, s.vars.positions, s.vars.time
    D = add(*[f_vh for f_vh in (_diff(s.F[h], vels[h]) for h in range(n))])
    F_i = [simplify(_diff(D, vels[i])) for i in range(n)]
    F_0 = simplify(add(D, *[mul(-1, F_i[i], var(vels[i])) for i in range(n)]))

    named = []
    for i in range(n):
        for j in range(n):
            named.append((f"d2D/dv[{i}]dv[{j}]", _diff(F_i[i], vels[j])))
    affine = _condition(named, s, mode, points, tol)
    if not affine.holds:
        return affine, None

    named = []
    for i in range(n):
        for j in range(i + 1, n):
            named.append((f"dF_{j}/dx[{i}] - dF_{i}/dx[{j}]",
                          add(_diff(F_i[j], poss[i]),
                              mul(-1, _diff(F_i[i], poss[j])))))
    for j in range(n):
        named.append((f"dF_{j}/dt - dF_0/dx[{j}]",
                      add(_diff(F_i[j], time), mul(-1, _diff(F_0, poss[j])))))
    closed = _condition(named, s, mode, points, tol)
    if not closed.holds:
        return closed, None
    return closed, (F_0, tuple(F_i))


# --------------------------------------------------------------------------
# orthogonal holonomy residuals
# --------------------------------------------------------------------------

def _check_spd(U, s, points, tol=1e-9):
    vals = eval_array(U, s.vars.names, point_batch(s.vars, points))
    for k, p in enumerate(points):
        m = vals[:, :, k]
        if np.max(np.abs(m - m.T)) > tol:
            raise NotPositiveDefinite(f"U not symmetric at {p}")
        if np.min(np.linalg.eigvalsh((m + m.T) / 2)) <= 0:
            raise NotPositiveDefinite(f"U not positive definite at {p}")


def orthogonal_residual(s: SodeSystem, U, points, check_spd=True) -> dict:
    """Residual maxima of the orthogonal-holonomy system for a candidate
    matrix U(t, x): the transport equation eq_PDE, its space companion
    eq_ecuacion2, and the pointwise integrability blocks eq_UABR."""
    n = s.n
    U = np.asarray(U, dtype=object)
    from .expressions import free_variables
    allowed = {s.vars.time, *s.vars.positions}
    for idx in np.ndindex(U.shape):
        extra = free_variables(as_expr(U[idx])) - allowed
        if extra:
            raise ValueError(f"U must depend on (t, x) only; found {sorted(extra)}")
    if check_spd:
        _check_spd(U, s, points)

    data = connection_data(s)
    UW = U @ data.W
    pde = expr_array((n, n))
    for i in range(n):
        for j in range(n):
            transport = add(
                _diff(as_expr(U[i, j]), s.vars.time),
                *[mul(var(s.vars.velocities[a]),
                      _diff(as_expr(U[i, j]), s.vars.positions[a]))
                  for a in range(n)])
            pde[i, j] = add(transport, as_expr(UW[i, j]), as_expr(UW[j, i]))
    out = {"eq_PDE": max_abs(pde, s, points)}

    worst = 0.0
    for k in range(n):
        Vk = data.V[:, :, k]
        UV = U @ Vk
        mat = expr_array((n, n))
        for i in range(n):
            for j in range(n):
                mat[i, j] = add(_diff(as_expr(U[i, j]), s.vars.positions[k]),
                                as_expr(UV[i, j]), as_expr(UV[j, i]))
        worst = max(worst, max_abs(mat, s, points))
    out["eq_ecuacion2"] = worst

    comp = curvature_components(s)
    batch = point_batch(s.vars, points)
    u_vals = eval_array(U, s.vars.names, batch)
    for label, blocks in (
            ("eq_UABR_A", [comp.A[:, :, j] for j in range(n)]),
            ("eq_UABR_B", [comp.B[:, i, j, :] for i in range(n)
                           for j in range(i + 1, n)]),
            ("eq_UABR_R", [comp.R[:, i, j, :] for i in range(n)
                           for j in range(i, n)])):
        worst = 0.0
        for M in blocks:
            m_vals = eval_array(M, s.vars.names, batch)
            for k in range(len(points)):
                u, m = u_vals[:, :, k], m_vals[:, :, k]
                worst = max(worst, float(np.max(np.abs(u @ m + m.T @ u))))
        out[label] = worst
    return out


def parallel_metric_residual(s: SodeSystem, U, points) -> float:
    """max |nabla g| for g = dt (x) dt + U_ij omega^i (x) omega^j
    + U_ij varpi^i (x) varpi^j, written in the adapted coframe."""
    from .chern import frame_christoffels
    from .sode import directional, frame_symbolic
    n = s.n
    n2 = 2 * n + 1
    G = expr_array((n2, n2))
    G[0, 0] = const(1)
    for i in range(n):
        for j in range(n):
            G[1 + i, 1 + j] = as_expr(U[i, j])
            G[1 + n + i, 1 + n + j] = as_expr(U[i, j])
    gamma = frame_christoffels(s)
    frame = frame_symbolic(s)
    coords = s.coords
    worst = 0.0
    for a in range(n2):
        out = expr_array((n2, n2))
        for b in range(n2):
            for c in range(n2):
                out[b, c] = add(
                    directional(frame[:, a], coords, as_expr(G[b, c])),
                    *[mul(-1, gamma[a, b, d], as_expr(G[d, c])) for d in range(n2)],
                    *[mul(-1, gamma[a, c, d], as_expr(G[b, d])) for d in range(n2)])
        worst = max(worst, max_abs(out, s, points))
    return worst


# --------------------------------------------------------------------------
# Kosambi invariants
# --------------------------------------------------------------------------

def kosambi_invariants(s: SodeSystem) -> KosambiData:
    """Ktilde = -P and char-poly coefficients via Faddeev-LeVerrier,
    det(lambda I - Ktilde) listed from lambda^n down."""
    n = s.n
    P = splitting_curvature(s, check="none").P
    K = expr_array((n, n))
    for idx in np.ndindex((n, n)):
        K[idx] = mul(-1, as_expr(P[idx]))
    coeffs = [const(1)]
    M = expr_array((n, n))
    for i in range(n):
        M[i, i] = const(1)
    Mk = M
    for k in range(1, n + 1):
        if k > 1:
            shifted = np.array(Mk, dtype=object, copy=True)
            for i in range(n):
                shifted[i, i] = add(shifted[i, i], coeffs[-1])
            Mk = K @ shifted
        else:
            Mk = K @ Mk
        trace = add(*[as_expr(Mk[i, i]) for i in range(n)])
        coeffs.append(simplify(mul(const(Fraction(-1, k)), trace)))
    return KosambiData(Ktilde=K, charpoly=tuple(coeffs))


# --------------------------------------------------------------------------
# first prolongation of the structure algebra
# --------------------------------------------------------------------------

def first_prolongation_dim(n: int) -> int:
    """Nullity of the linear system cutting out symmetric V* (x) V* (x) V
    tensors whose slices lie in the block-embedded gl(n): expected 0."""
    if not 1 <= n <= 4:
        raise ValueError("supported for 1 <= n <= 4; the answer is n-independent")
    dim = 2 * n + 1
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    col = {(a, b, g): (pairs.index((min(a, b), max(a, b))) * dim + g)
           for a in range(dim) for b in range(dim) for g in range(dim)}
    unknowns = len(pairs) * dim

    rows = []

    def constrain(coeffs):
        row = np.zeros(unknowns)
        for key, c in coeffs:
            row[col[key]] += c
        rows.append(row)

    lo = range(1, n + 1)
    hi = range(n + 1, 2 * n + 1)
    for a in range(dim):
        for g in range(dim):
            constrain([((a, 0, g), 1.0)])              # kills column 0
        for b in range(1, dim):
            constrain([((a, b, 0), 1.0)])              # kills row 0 output
        for b in lo:
            for g in hi:
                constrain([((a, b, g), 1.0)])          # off-diagonal block
        for b in hi:
            for g in lo:
                constrain([((a, b, g), 1.0)])
        for b in lo:
            for g in lo:
                constrain([((a, b, g), 1.0), ((a, b + n, g + n), -1.0)])
    m = np.vstack(rows)
    rank = np.linalg.matrix_rank(m, tol=1e-10)
    return unknowns - int(rank)


# --------------------------------------------------------------------------
# assembled report
# --------------------------------------------------------------------------

def classification_report(s: SodeSystem, points, mode="auto", U=None,
                          rank_tol=1e-8) -> ClassificationReport:
    if mode == "auto":
        mode = "symbolic" if all(is_polynomial(f) for f in s.F) else "numeric"
    flags = special_coordinate_conditions(s, mode=mode, points=points)
    span = max(holonomy_span(s, p, tol=rank_tol) for p in points)
    uni, decomp = unimodular_test(s, mode=mode, points=points)
    ortho = orthogonal_residual(s, U, points) if U is not None else None
    return ClassificationReport(
        flags=flags, holonomy_span_dim=span, unimodular=uni,
        unimodular_decomposition=decomp, orthogonal_residuals=ortho)
