"""The Chern connection attached to a SODE.

Connection coefficients in the adapted frame (the nine-rule table is encoded
as frame Christoffels), covariant differentiation with Leibniz terms, the
torsion and curvature component arrays (P, T, A, B, R) by closed formulas,
and definition-based recomputations of both tensors used as oracles: Cartan's
structure equations in the adapted frame, Tor_ab = Gamma_ab - Gamma_ba - C_ab
and R_abc = e_a Gamma_bc - e_b Gamma_ac + Gamma_bc.Gamma_a - Gamma_ac.Gamma_b
- C_ab.Gamma_c, from Gamma[a, c, b], its frame derivatives and the structure
functions C_ab^d = theta^d([e_a, e_b]), never from the closed formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .expressions import ZERO, add, mul, simplify
from .sode import (
    HALF, SodeSystem, as_expr, bracket, check_residual, coframe_symbolic,
    directional, endomorphism_E, eval_array, expr_array, f_v, f_vv, f_vvv,
    frame_symbolic, lie_derivative_J, point_batch, reduce_residual,
    splitting_curvature, worst_abs, _diff,
)

__all__ = [
    "ConnectionData", "CurvatureComponents", "TorsionTensor",
    "connection_data", "covariant_derivative", "torsion", "curvature",
    "verify_characterization", "verify_structure_identities",
]


@dataclass(frozen=True)
class ConnectionData:
    """W[i][j] = (1/2) dF^i/dv^j and V[h][i][k] = (1/2) d2F^h/dv^i dv^k."""

    W: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class TorsionTensor:
    """Torsion blocks in the adapted coframe: dt^omega^j coefficients are
    -P^h_j, omega^i^omega^j coefficients are -T^h_{ij} and the dt^varpi^i
    block carries the +1 identity onto X_i."""

    P: np.ndarray
    T: np.ndarray

    @property
    def p_block(self):
        return -np.asarray(self.P, dtype=object)

    def apply(self, X, Y):
        """Value on two vectors given in adapted-frame components: Expr
        entries for Expr blocks, floats for float blocks."""
        n = self.P.shape[0]
        out = expr_array(2 * n + 1) if self.P.dtype == object else np.zeros(2 * n + 1)
        for h in range(n):
            acc = 0.0
            for j in range(n):
                acc -= self.P[h, j] * (X[0] * Y[1 + j] - Y[0] * X[1 + j])
            for i in range(n):
                for j in range(i + 1, n):
                    acc -= self.T[h, i, j] * (X[1 + i] * Y[1 + j]
                                              - X[1 + j] * Y[1 + i])
            out[1 + n + h] = acc
        for i in range(n):
            out[1 + i] = X[0] * Y[1 + n + i] - Y[0] * X[1 + n + i]
        return out


@dataclass(frozen=True)
class CurvatureComponents:
    """A[h][k][j]: R(X, X_j)X_k = A^h_{kj} X_h; B[h][i][j][k] (antisymmetric
    in i, j): R(X_i, X_j)X_k = B^h_{ijk} X_h; R[h][i][j][k] (symmetric in
    i, j, k): R(X_i, d/dv^j)X_k = R^h_{ijk} X_h.  The same coefficients act on
    the d/dv block."""

    A: np.ndarray
    B: np.ndarray
    R: np.ndarray


# --------------------------------------------------------------------------
# connection coefficients
# --------------------------------------------------------------------------

def connection_data(s: SodeSystem) -> ConnectionData:
    n = s.n
    W = expr_array((n, n))
    V = expr_array((n, n, n))
    for i in range(n):
        for j in range(n):
            W[i, j] = mul(HALF, f_v(s, i, j))
            for k in range(n):
                V[i, j, k] = mul(HALF, f_vv(s, i, j, k))
    return ConnectionData(W=W, V=V)


def frame_christoffels(s: SodeSystem, w_shift=0) -> np.ndarray:
    """Gamma[a, c, b]: coefficient of e_b in D_{e_a} e_c, adapted-frame basis
    (e_0, e_i, e_{n+i}).  `w_shift` adds shift*I to W (perturbation hook for
    uniqueness tests)."""
    n = s.n
    data = connection_data(s)
    gamma = expr_array((2 * n + 1, 2 * n + 1, 2 * n + 1))
    for i in range(n):
        for j in range(n):
            w = add(mul(-1, data.W[j, i]), -w_shift if i == j else 0)
            gamma[0, 1 + i, 1 + j] = w
            gamma[0, 1 + n + i, 1 + n + j] = w
            for k in range(n):
                v = mul(-1, data.V[k, i, j])
                gamma[1 + j, 1 + i, 1 + k] = v
                gamma[1 + j, 1 + n + i, 1 + n + k] = v
    return gamma


def _frame_covariant(s: SodeSystem, gamma, S, slots, a) -> np.ndarray:
    """Adapted-frame components of D_{e_a} S for a tensor S with one slot
    letter per axis: "u" (upper) adds S[..d..] Gamma[a, d, idx] and "l"
    (lower) adds -Gamma[a, idx, d] S[..d..].  The directional term
    e_a(S[idx]) comes first, then the slots in axis order, d ascending."""
    S = np.asarray(S, dtype=object)
    field = frame_symbolic(s)[:, a]
    out = expr_array(S.shape)
    for idx in np.ndindex(S.shape):
        terms = [directional(field, s.coords, as_expr(S[idx]))]
        for axis, slot in enumerate(slots):
            for d in range(S.shape[axis]):
                other = as_expr(S[idx[:axis] + (d,) + idx[axis + 1:]])
                terms.append(mul(other, gamma[a, d, idx[axis]]) if slot == "u"
                             else mul(-1, gamma[a, idx[axis], d], other))
        out[idx] = add(*terms)
    return out


def _simplified(S) -> np.ndarray:
    """S with every entry simplified: constant frame components fold to
    Const, whose frame derivatives are ZERO."""
    out = expr_array(S.shape)
    for idx in np.ndindex(out.shape):
        out[idx] = simplify(as_expr(S[idx]))
    return out


def covariant_derivative(s: SodeSystem, X, Y, gamma=None) -> np.ndarray:
    """D_X Y = sum_a X^a D_{e_a} Y for X, Y in adapted-frame components with
    Expr coefficients."""
    if gamma is None:
        gamma = frame_christoffels(s)
    parts = [(xa, _frame_covariant(s, gamma, Y, "u", a))
             for a, xa in enumerate(map(as_expr, X)) if xa is not ZERO]
    out = expr_array(2 * s.n + 1)
    for b in range(len(out)):
        out[b] = add(*[mul(xa, dy[b]) for xa, dy in parts])
    return out


def _unit(n2, a):
    e = expr_array(n2)
    e[a] = as_expr(1)
    return e


# --------------------------------------------------------------------------
# torsion
# --------------------------------------------------------------------------

def _structure_functions(s: SodeSystem) -> np.ndarray:
    """C[a, b, d] = theta^d([e_a, e_b]) for a < b, one frame bracket per pair."""
    n2 = 2 * s.n + 1
    frame, coframe = frame_symbolic(s), coframe_symbolic(s)
    C = expr_array((n2, n2, n2))
    for a, b in combinations(range(n2), 2):
        C[a, b] = coframe @ bracket(frame[:, a], frame[:, b], s.coords)
    return C


def _torsion_array(s: SodeSystem, gamma) -> np.ndarray:
    """Tor[a, b] = Tor(e_a, e_b) = Gamma_ab - Gamma_ba - C_ab for a < b."""
    n2 = gamma.shape[0]
    C = _structure_functions(s)
    tor = expr_array((n2, n2, n2))
    for a, b in combinations(range(n2), 2):
        tor[a, b] = gamma[a, b] - gamma[b, a] - C[a, b]
    return tor


def _torsion_deltas(s: SodeSystem, tensor: TorsionTensor, gamma) -> list:
    """(label, Tor(e_a, e_b) - closed torsion blocks) for every frame pair."""
    tor, n2 = _torsion_array(s, gamma), len(gamma)
    return [(f"torsion oracle pair ({a},{b})",
             tor[a, b] - tensor.apply(_unit(n2, a), _unit(n2, b)))
            for a, b in combinations(range(n2), 2)]


def torsion_definition(s: SodeSystem, a, b, gamma=None) -> np.ndarray:
    """Tor(e_a, e_b) by the first structure equation."""
    tor = _torsion_array(s, frame_christoffels(s) if gamma is None else gamma)
    return tor[a, b] if a < b else -tor[b, a]


def torsion(s: SodeSystem, check="numeric", points=None, tol=1e-10,
            seed=2024) -> TorsionTensor:
    """Assemble the torsion from the splitting curvature; unless check is
    "none", recompute Tor(e_a, e_b) on every frame pair from the structure
    equation and compare."""
    sc = splitting_curvature(s, check="none")
    tensor = TorsionTensor(P=sc.P, T=sc.T)
    if check != "none":
        check_residual(_torsion_deltas(s, tensor, frame_christoffels(s)),
                       s, check, points, tol, seed)
    return tensor


# --------------------------------------------------------------------------
# curvature
# --------------------------------------------------------------------------

def _contract(u, M) -> np.ndarray:
    """sum_e u[e] M[e, :] over the nonzero entries of u and M."""
    out = expr_array(M.shape[1])
    for d in range(M.shape[1]):
        out[d] = add(*[mul(u[e], M[e, d]) for e in range(len(u))
                       if u[e] is not ZERO and M[e, d] is not ZERO])
    return out


def _curvature_array(s: SodeSystem, gamma) -> np.ndarray:
    """R[a, b, c] = R(e_a, e_b)e_c for a < b, grouped as D_a D_b e_c
    - D_b D_a e_c - D_[e_a, e_b] e_c, D_a D_b e_c = e_a Gamma_bc + Gamma_bc.Gamma_a."""
    n2 = gamma.shape[0]
    C = _structure_functions(s)
    frame = frame_symbolic(s)
    d_gamma = expr_array((n2,) * 4)     # [a, b, c, d]: e_a(Gamma[b, c, d])
    for idx in np.ndindex(gamma.shape):
        if gamma[idx] is not ZERO:
            for a in range(n2):
                d_gamma[(a,) + idx] = directional(frame[:, a], s.coords,
                                                  gamma[idx])
    R = expr_array((n2,) * 4)
    for a, b in combinations(range(n2), 2):
        for c in range(n2):
            R[a, b, c] = (d_gamma[a, b, c] + _contract(gamma[b, c], gamma[a])) \
                - (d_gamma[b, a, c] + _contract(gamma[a, c], gamma[b])) \
                - _contract(C[a, b], gamma[:, c])
    return R


def _curvature_deltas(s: SodeSystem, comp) -> list:
    """(label, R(e_a, e_b)e_c - table) per frame triple, zero blocks included."""
    R = _curvature_array(s, frame_christoffels(s))
    return [(f"curvature oracle ({a},{b};{c})",
             R[a, b, c] - _expected_curvature(comp, s.n, a, b, c))
            for a, b in combinations(range(len(R)), 2) for c in range(len(R))]


def curvature_components(s: SodeSystem) -> CurvatureComponents:
    n = s.n
    sc = splitting_curvature(s, check="none")
    A = expr_array((n, n, n))
    B = expr_array((n, n, n, n))
    R = expr_array((n, n, n, n))
    vels = s.vars.velocities
    for h in range(n):
        for k in range(n):
            for j in range(n):
                A[h, k, j] = mul(HALF, add(
                    sc.T[h, j, k],
                    mul(-1, _diff(sc.P[h, k], vels[j])),
                    mul(-1, _diff(sc.P[h, j], vels[k]))))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    B[h, i, j, k] = mul(-1, _diff(sc.T[h, i, j], vels[k]))
                    R[h, i, j, k] = mul(HALF, f_vvv(s, h, i, j, k))
    return CurvatureComponents(A=A, B=B, R=R)


def curvature_definition(s: SodeSystem, a, b, c, gamma=None) -> np.ndarray:
    """R(e_a, e_b)e_c by the second structure equation."""
    R = _curvature_array(s, frame_christoffels(s) if gamma is None else gamma)
    return R[a, b, c] if a < b else -R[b, a, c]


def _expected_curvature(comp: CurvatureComponents, n, a, b, c):
    """Pattern of the curvature table; zero outside the listed blocks and the
    same coefficient matrix on the two eigenblocks."""
    out = expr_array(2 * n + 1)
    if c == 0:
        return out
    arg, block = (c - 1, out[1:1 + n]) if c <= n else (c - 1 - n, out[1 + n:])
    if a == 0 and 1 <= b <= n:
        block[:] = comp.A[:, arg, b - 1]
    elif 1 <= a <= n and 1 <= b <= n:
        block[:] = comp.B[:, a - 1, b - 1, arg]
    elif 1 <= a <= n and b > n:
        block[:] = comp.R[:, a - 1, b - 1 - n, arg]
    return out


def curvature(s: SodeSystem, check="numeric", points=None, tol=1e-10,
              seed=2024) -> CurvatureComponents:
    """Closed-formula (A, B, R); unless check is "none", evaluate the
    curvature of the connection on every frame triple and compare against
    the component table, including its vanishing blocks."""
    comp = curvature_components(s)
    if check != "none":
        check_residual(_curvature_deltas(s, comp), s, check, points, tol, seed)
    return comp


# --------------------------------------------------------------------------
# identity suites
# --------------------------------------------------------------------------

def verify_characterization(s: SodeSystem, points, w_shift=0) -> dict:
    """Residuals of the four defining properties of the connection:
    (1) the dynamical flow is parallel, (2) the eigenstructure endomorphism
    L_X J is parallel, (3) the swap endomorphism is parallel, (4) the torsion
    equals the prescribed tensor.  `w_shift` perturbs the connection (for
    uniqueness checks the residual of (4) must then blow up).

    For (1)-(3) the frame components S are simplified once: they are the
    constants e_0, diag(0, -I, I) and the block swap, so D_{e_a}S reduces to
    its Gamma terms, and an entry that does not simplify to a constant is
    still differentiated.  Each residual also takes in the certificate
    S - simplify(S) on the same points, which keeps it NaN wherever S is not
    finite."""
    n2 = 2 * s.n + 1
    gamma = frame_christoffels(s, w_shift=w_shift)
    coframe = coframe_symbolic(s)
    frame = frame_symbolic(s)
    batch = point_batch(s.vars, points)

    def parallel(S, slots):
        const_S = _simplified(S)
        return reduce_residual(
            [(a, _frame_covariant(s, gamma, const_S, slots, a))
             for a in range(n2)] + [("constancy", S - const_S)], s, batch)[0]

    r1 = parallel(coframe @ frame[:, 0], "u")
    r2 = parallel(coframe @ lie_derivative_J(s) @ frame, "ul")
    r3 = parallel(coframe @ endomorphism_E(s) @ frame, "ul")

    r4 = reduce_residual(_torsion_deltas(s, torsion(s, check="none"), gamma),
                         s, batch)[0]

    return {"flow_parallel": r1, "eigenstructure_parallel": r2,
            "swap_parallel": r3, "torsion_match": r4}


def verify_structure_identities(s: SodeSystem, points) -> dict:
    """Residuals of (i) 2A^h_{kj} = T^h_{jk} - dP^h_k/dv^j - dP^h_j/dv^k with
    A taken from the curvature of the connection (definition path), and
    (ii) 3T^i_{kj} = dP^i_j/dv^k - dP^i_k/dv^j."""
    n = s.n
    sc = splitting_curvature(s, check="none")
    vels = s.vars.velocities
    R = _curvature_array(s, frame_christoffels(s))
    batch = point_batch(s.vars, points)

    res_a = expr_array((n, n, n))
    for j in range(n):
        for k in range(n):
            for h in range(n):
                a_def = R[0, 1 + j, 1 + k, 1 + h]  # coefficient on X_h
                res_a[h, k, j] = add(
                    mul(2, a_def), mul(-1, sc.T[h, j, k]),
                    _diff(sc.P[h, k], vels[j]), _diff(sc.P[h, j], vels[k]))
    eq_as = reduce_residual([("eq_As", res_a)], s, batch)[0]

    res_t = expr_array((n, n, n))
    for i in range(n):
        for k in range(n):
            for j in range(n):
                res_t[i, k, j] = add(
                    mul(3, sc.T[i, k, j]),
                    mul(-1, _diff(sc.P[i, j], vels[k])),
                    _diff(sc.P[i, k], vels[j]))
    eq_3t = reduce_residual([("eq_3T", res_t)], s, batch)[0]
    return {"eq_As": eq_as, "eq_3T": eq_3t}


def torsion_oracle_residual(s: SodeSystem, points) -> float:
    """max |Tor_definition - torsion blocks| over frame pairs and points;
    NaN when any value is not finite."""
    deltas = _torsion_deltas(s, torsion(s, check="none"), frame_christoffels(s))
    return reduce_residual(deltas, s, point_batch(s.vars, points))[0]


def curvature_oracle_residual(s: SodeSystem, points) -> float:
    """max |R_definition - component table| over frame triples and points,
    vanishing blocks included; NaN when any value is not finite."""
    deltas = _curvature_deltas(s, curvature_components(s))
    return reduce_residual(deltas, s, point_batch(s.vars, points))[0]


def eigenstructure_residual(s: SodeSystem, points) -> float:
    """Distance of the eigenvalues of L_X J to the multiset
    {0, +1 (n times), -1 (n times)}, maximised over points; NaN when L_X J
    is not finite at some point."""
    L = lie_derivative_J(s)
    vals = eval_array(L, s.vars.names, point_batch(s.vars, points))
    if not np.isfinite(vals).all():
        return float("nan")
    expected = np.sort(np.array([0.0] + [1.0] * s.n + [-1.0] * s.n))
    eigs = np.linalg.eigvals(vals.transpose(2, 0, 1))
    return worst_abs(np.sort(eigs.real) - expected, eigs.imag)
