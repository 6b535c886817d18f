"""Bridge from (pseudo-)Riemannian metrics to geodesic-spray systems.

A time-independent metric g on position space induces the homogeneous
quadratic system x''^h = -Gamma^h_{ij} v^i v^j.  The curvature tensor of g
then reproduces the spray's splitting/connection components through four
contraction identities; their index pattern was calibrated against the flat
metric, the round sphere and a random polynomial metric and is frozen below
(see cross_check).  The module also carries the two parallel metrics on the
jet space attached to a Riemannian g: the definite one built from
(dt, omega, varpi) blocks and the hyperbolic companion of signature
(n+1, n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import (
    add, call, const, mul, pow_, simplify, var,
)
from .sode import (
    HALF, SodeSystem, check_dependence, eval_array, expr_array, max_abs,
    point_batch, sample_points, zero_symbolically, _det, _frozen, _jacobian,
    _kept,
)
from .chern import connection
from .classify import (
    orthogonal_residual, parallel_metric_residual, _check_spd,
)

__all__ = [
    "MetricField", "SingularMetric", "christoffel", "geodesic_spray",
    "riemann_tensor", "cross_check", "metric_compatibility",
    "hyperbolic_metric_signature", "sphere_metric", "flat_metric",
]


class SingularMetric(Exception):
    """Metric determinant vanished symbolically or at a sample point."""


@dataclass(frozen=True)
class MetricField:
    """Symmetric matrix of expressions over the position variables of
    `vars`, assumed positive (or at least nondegenerate) on `box`."""

    vars: object
    g: tuple            # tuple of tuples, row-major
    box: dict = None

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(tuple(row) for row in self.g))
        n = self.vars.n
        if len(self.g) != n or any(len(row) != n for row in self.g):
            raise ValueError("metric must be n x n")
        check_dependence([e for row in self.g for e in row],
                         self.vars.positions,
                         "metric entries depend on positions only: ")
        for i in range(n):
            for j in range(i + 1, n):
                if not zero_symbolically(add(self.g[i][j],
                                             mul(-1, self.g[j][i]))):
                    raise ValueError("metric must be symmetric")

    @property
    def n(self):
        return len(self.g)

    def matrix(self):
        return np.asarray(self.g, dtype=object)

    def sample_box(self):
        return self.box or {}


def flat_metric(vars) -> MetricField:
    n = vars.n
    g = [[const(1 if i == j else 0) for j in range(n)] for i in range(n)]
    return MetricField(vars=vars, g=g)


def sphere_metric(vars) -> MetricField:
    """Round 2-sphere in polar coordinates: diag(1, sin^2 x1); x1 must be
    sampled away from the poles."""
    if vars.n != 2:
        raise ValueError("the sphere metric is 2-dimensional")
    x1 = var(vars.positions[0])
    g = [[const(1), const(0)], [const(0), mul(call("sin", x1), call("sin", x1))]]
    return MetricField(vars=vars, g=g, box={"position": (0.3, 2.8)})


# --------------------------------------------------------------------------
# metric inverse, Christoffel symbols, spray
# --------------------------------------------------------------------------

def _inverse(metric: MetricField):
    """Adjugate / determinant, by the Leibniz expansions of `_det`, at every
    n; raises SingularMetric when det simplifies to zero."""
    n = metric.n
    m = metric.matrix()
    det = _det(m)
    if zero_symbolically(det):
        raise SingularMetric("metric determinant is identically zero")
    inv = expr_array((n, n))
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = mul(const((-1) ** (i + j)), _det(minor))
            inv[j, i] = mul(cof, pow_(det, -1))
    return inv


def christoffel(metric: MetricField) -> np.ndarray:
    """Classical symbols Gamma[h][i][j] =
    (1/2) g^{hk} (dg_{ki}/dx^j + dg_{jk}/dx^i - dg_{ji}/dx^k)."""
    n = metric.n
    m = metric.matrix()
    inv = _inverse(metric)
    dm = _jacobian(m, metric.vars.positions)    # [k, i, j]: dg_{ki}/dx^j
    gamma = expr_array((n, n, n))
    for h in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = []
                for k in range(n):
                    combo = add(dm[k, i, j], dm[j, k, i], mul(-1, dm[j, i, k]))
                    terms.append(mul(HALF, inv[h, k], combo))
                gamma[h, i, j] = gamma[h, j, i] = simplify(add(*terms))
    return gamma


def _christoffel(metric: MetricField) -> np.ndarray:
    """The one Christoffel array of the metric object, built by the
    module-level `christoffel`, frozen and kept in its instance dict next to
    its spray; `_spray` and `riemann_tensor` read it."""
    return _kept(metric, "_christoffel", lambda m: _frozen(christoffel(m)))


def geodesic_spray(metric: MetricField) -> SodeSystem:
    """x''^h = -Gamma^h_{ij} v^i v^j: quadratic in the velocities and
    time-independent.  The one spray of the metric object, kept in its
    instance dict (so its connection is shared too); an equal but distinct
    metric has its own."""
    return _kept(metric, "_spray", _spray)


def _spray(metric: MetricField) -> SodeSystem:
    n = metric.n
    gamma = _christoffel(metric)
    vs = metric.vars.velocities
    F = []
    for h in range(n):
        F.append(simplify(add(*[mul(-1, gamma[h, i, j], var(vs[i]), var(vs[j]))
                                for i in range(n) for j in range(n)])))
    return SodeSystem(vars=metric.vars, F=tuple(F))


def riemann_tensor(metric: MetricField) -> np.ndarray:
    """Standard-convention curvature of the Levi-Civita connection, stored
    as R[h][k][i][j] with R(d_i, d_j) d_k = R^h_{kij} d_h:
    R^h_{kij} = d_i Gamma^h_{jk} - d_j Gamma^h_{ik}
                + Gamma^h_{ir} Gamma^r_{jk} - Gamma^h_{jr} Gamma^r_{ik}."""
    n = metric.n
    gamma = _christoffel(metric)
    d_gamma = _jacobian(gamma, metric.vars.positions)
    R = expr_array((n, n, n, n))
    for h in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    terms = [d_gamma[h, j, k, i], mul(-1, d_gamma[h, i, k, j])]
                    for r in range(n):
                        terms.append(mul(gamma[h, i, r], gamma[r, j, k]))
                        terms.append(mul(-1, gamma[h, j, r], gamma[r, i, k]))
                    R[h, k, i, j] = add(*terms)
    return R


# --------------------------------------------------------------------------
# cross-check of the four contraction identities
# --------------------------------------------------------------------------

def _cross_deltas(metric: MetricField, s: SodeSystem) -> dict:
    """The residual arrays of the four frozen contraction identities of
    `cross_check` between the metric and its spray `s`, keyed by their
    report names."""
    n = metric.n
    conn = connection(s)
    sc, comp = conn.torsion, conn.curvature
    R = riemann_tensor(metric)
    vs = s.vars.velocities

    res_T = expr_array((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                res_T[k, i, j] = add(sc.T[k, i, j],
                                     *[mul(-1, R[k, r, j, i], var(vs[r]))
                                       for r in range(n)])

    res_P = expr_array((n, n))
    for h in range(n):
        for j in range(n):
            res_P[h, j] = add(sc.P[h, j],
                              *[mul(-1, R[h, s_, j, r], var(vs[r]), var(vs[s_]))
                                for r in range(n) for s_ in range(n)])

    res_A = expr_array((n, n, n))
    for h in range(n):
        for k in range(n):
            for j in range(n):
                res_A[h, k, j] = add(comp.A[h, k, j],
                                     *[mul(-1, R[h, k, r, j], var(vs[r]))
                                       for r in range(n)])

    res_B = expr_array((n, n, n, n))
    for h in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    res_B[h, i, j, k] = add(comp.B[h, i, j, k],
                                            mul(-1, R[h, k, i, j]))

    return {"eq_cross_T": res_T, "eq_cross_P": res_P, "eq_cross_A": res_A,
            "eq_cross_B": res_B}


def cross_check(metric: MetricField, points=None, count=50, seed=2024) -> dict:
    """Residual maxima of the four frozen contraction identities between the
    spray's component arrays and the metric curvature R[h][k][i][j]:

        T^k_{ij}  = R[k][r][j][i] v^r
        P^h_j     = R[h][s][j][r] v^r v^s
        A^h_{kj}  = R[h][k][r][j] v^r
        B^h_{ijk} = R[h][k][i][j]

    Calibrated against the flat metric, the round sphere and a random
    polynomial metric (all permutations and signs tried; these four are the
    unique matches up to the antisymmetry of the last two slots)."""
    s = geodesic_spray(metric)
    if points is None:
        points = sample_points(s.vars, count, seed, metric.sample_box())
    return {key: max_abs(res, s, points)
            for key, res in _cross_deltas(metric, s).items()}


def cross_check_symbolic(metric: MetricField) -> bool:
    """Simplify-to-zero form of the B identity (the generating one); the
    other three follow from it by the contractions tested numerically."""
    res_B = _cross_deltas(metric, geodesic_spray(metric))["eq_cross_B"]
    return all(map(zero_symbolically, res_B.flat))


# --------------------------------------------------------------------------
# parallel metrics on the jet space
# --------------------------------------------------------------------------

def metric_compatibility(metric: MetricField, points=None, count=50,
                         seed=2024) -> dict:
    """For the spray of g: residuals of the transport system with U = g and
    of parallelism of the block metric dt^2 + g omega omega + g varpi varpi."""
    s = geodesic_spray(metric)
    if points is None:
        points = sample_points(s.vars, count, seed, metric.sample_box())
    U = metric.matrix()
    _check_spd(U, s, points, "metric")
    out = orthogonal_residual(s, U, points, check_spd=False)
    out["parallel_block_metric"] = parallel_metric_residual(s, U, points)
    return out


def hyperbolic_metric_signature(metric: MetricField, points=None, count=20,
                                seed=2024) -> tuple:
    """Eigenvalue sign counts of the companion metric
    dt (x) dt + g_ij (omega^i (x) varpi^j + varpi^i (x) omega^j)
            + g_ij v^i (dt (x) varpi^j + varpi^j (x) dt)
    at sample points; a Riemannian g gives (n+1, n)."""
    vars = metric.vars
    if points is None:
        points = sample_points(vars, count, seed, metric.sample_box())
    n = metric.n
    g_vals = eval_array(metric.matrix(), vars.names, point_batch(vars, points))
    signature = None
    for k, p in enumerate(points):
        g = g_vals[:, :, k]
        m = np.zeros((2 * n + 1, 2 * n + 1))
        m[0, 0] = 1.0
        gv = g @ np.asarray(p.v)
        m[0, 1 + n:] = gv
        m[1 + n:, 0] = gv
        m[1:1 + n, 1 + n:] = g
        m[1 + n:, 1:1 + n] = g
        eigs = np.linalg.eigvalsh(m)
        sig = (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)))
        if signature is None:
            signature = sig
        elif signature != sig:
            raise ValueError(f"signature changed across samples: {signature} vs {sig}")
    return signature
