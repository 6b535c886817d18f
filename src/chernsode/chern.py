"""The Chern connection attached to a SODE.

Connection coefficients in the adapted frame (the nine-rule table is encoded
as frame Christoffels), covariant differentiation with Leibniz terms, the
torsion and curvature component arrays (P, T, A, B, R) by closed formulas,
and definition-based recomputations of both tensors used as oracles: Cartan's
structure equations in the adapted frame, Tor_ab = Gamma_ab - Gamma_ba - C_ab
and R_abc = e_a Gamma_bc - e_b Gamma_ac + Gamma_bc.Gamma_a - Gamma_ac.Gamma_b
- C_ab.Gamma_c, from Gamma[a, c, b], its frame derivatives and the structure
functions C_ab^d = theta^d([e_a, e_b]), never from the closed formulas.

Each system has one `Connection` (`connection(s)`): the frame and coframe,
L_X J, Gamma, (P, T), dP/dv, (A, B, R), the structure functions, the torsion
and curvature arrays and the torsion oracle's deltas, each built on first use
and frozen, so the oracles of one `verify` share them, and the classifiers,
the Riemann bridge, `natjets` and the selftest read them too.  The
characterization checks the frame components of the flow, of L_X J and of
the swap E against the constants that the paper's construction gives them
(`constant_frames`), without simplifying.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .expressions import ZERO, Const, add, const, mul, simplify
from .sode import (
    HALF, SodeSystem, TorsionTensor, as_expr, bracket, check_residual,
    coframe_symbolic, directional, endomorphism_E, eval_array, expr_array,
    frame_symbolic, lie_derivative_J, point_batch, reduce_residual,
    splitting_curvature, worst_abs, F_partials, _frozen, _jacobian, _kept,
)

__all__ = [
    "Connection", "ConnectionData", "CurvatureComponents", "TorsionTensor",
    "connection", "connection_data", "covariant_derivative", "torsion",
    "curvature",
    "verify_characterization", "verify_structure_identities",
    "verify_residuals",
]


@dataclass(frozen=True)
class ConnectionData:
    """W[i][j] = (1/2) dF^i/dv^j and V[h][i][k] = (1/2) d2F^h/dv^i dv^k."""

    W: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class CurvatureComponents:
    """A[h][k][j]: R(X, X_j)X_k = A^h_{kj} X_h; B[h][i][j][k] (antisymmetric
    in i, j): R(X_i, X_j)X_k = B^h_{ijk} X_h; R[h][i][j][k] (symmetric in
    i, j, k): R(X_i, d/dv^j)X_k = R^h_{ijk} X_h.  The same coefficients act on
    the d/dv block."""

    A: np.ndarray
    B: np.ndarray
    R: np.ndarray

    def endomorphisms(self) -> list:
        """The labelled endomorphisms A_j, B_ij (i<j) and R_hk (h<=k)."""
        n = self.A.shape[0]
        return [(f"A[{j}]", self.A[:, :, j]) for j in range(n)] \
            + [(f"B[{i}][{j}]", self.B[:, i, j, :])
               for i in range(n) for j in range(i + 1, n)] \
            + [(f"R[{h}][{k}]", self.R[:, h, k, :])
               for h in range(n) for k in range(h, n)]


class Connection:
    """The symbolic arrays of one system's Chern connection.  Each field is
    built on first use by the module-level builder of its name (so a patched
    builder is seen) and frozen read-only; the builders themselves keep
    returning fresh arrays.  The system is held weakly: its instance dict
    holds the connection (`connection`), which goes with it."""

    def __init__(self, s: SodeSystem):
        self._system = weakref.ref(s)

    @property
    def system(self) -> SodeSystem:
        s = self._system()
        if s is None:
            raise ReferenceError("the system of this connection is gone")
        return s

    @cached_property
    def frame(self) -> np.ndarray:
        return _frozen(frame_symbolic(self.system))

    @cached_property
    def coframe(self) -> np.ndarray:
        return _frozen(coframe_symbolic(self.system))

    @cached_property
    def lie_derivative_J(self) -> np.ndarray:
        """L_X J, built by the module-level `lie_derivative_J`."""
        return _frozen(lie_derivative_J(self.system))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Gamma[a, c, b] of `frame_christoffels` without a shift."""
        return _frozen(frame_christoffels(self.system))

    @cached_property
    def torsion(self) -> TorsionTensor:
        """The closed torsion blocks (P, T): the splitting curvature."""
        sc = splitting_curvature(self.system, check="none")
        _frozen(sc.P, sc.T)
        return sc

    @cached_property
    def dP(self) -> np.ndarray:
        """dP[h, k, j] = dP^h_k/dv^j, of the closed P; `curvature_components`
        and `verify_structure_identities` read it."""
        return _frozen(_jacobian(self.torsion.P, self.system.vars.velocities))

    @cached_property
    def curvature(self) -> CurvatureComponents:
        """The closed curvature table (A, B, R)."""
        comp = curvature_components(self.system)
        _frozen(comp.A, comp.B, comp.R)
        return comp

    @cached_property
    def structure_functions(self) -> np.ndarray:
        return _frozen(_structure_functions(self.system))

    @cached_property
    def torsion_array(self) -> np.ndarray:
        return _frozen(_torsion_array(self.system, self.gamma))

    @cached_property
    def curvature_array(self) -> np.ndarray:
        return _frozen(_curvature_array(self.system, self.gamma))

    @cached_property
    def torsion_deltas(self) -> tuple:
        """The torsion oracle's (label, delta) pairs of `_torsion_deltas`
        against the closed (P, T), shared by `torsion_oracle_residual` and
        item (4) of `verify_characterization`."""
        deltas = tuple(_torsion_deltas(self.system, self.torsion))
        _frozen(*(delta for _, delta in deltas))
        return deltas


def connection(s: SodeSystem) -> Connection:
    """The one Connection of the system object `s`, kept in its instance
    dict; an equal but distinct system has its own."""
    return _kept(s, "_connection", Connection)


# --------------------------------------------------------------------------
# connection coefficients
# --------------------------------------------------------------------------

def connection_data(s: SodeSystem) -> ConnectionData:
    return ConnectionData(W=HALF * F_partials(s, "v"),
                          V=HALF * F_partials(s, "vv"))


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
    e_a(S[idx]) comes first, then the slots in axis order, d ascending; a
    term that would fold to ZERO (the directional term of a Const entry, a
    product with a ZERO factor) is not built."""
    S = np.asarray(S, dtype=object)
    entries = np.frompyfunc(as_expr, 1, 1)(S)   # each entry of S read once
    field = connection(s).frame[:, a]
    out = expr_array(S.shape)
    for idx in np.ndindex(S.shape):
        entry = entries[idx]
        terms = [] if isinstance(entry, Const) \
            else [directional(field, s.coords, entry)]
        for axis, slot in enumerate(slots):
            for d in range(S.shape[axis]):
                other = entries[idx[:axis] + (d,) + idx[axis + 1:]]
                if other is ZERO:
                    continue
                g = gamma[a, d, idx[axis]] if slot == "u" \
                    else gamma[a, idx[axis], d]
                if g is not ZERO:
                    terms.append(mul(other, g) if slot == "u"
                                 else mul(-1, g, other))
        out[idx] = add(*terms)
    return out


def _simplified(S) -> np.ndarray:
    """S with every entry simplified: the symbolic certificate that the
    frame components of `constant_frames` fold to those constants."""
    out = expr_array(S.shape)
    for idx in np.ndindex(out.shape):
        out[idx] = simplify(as_expr(S[idx]))
    return out


def covariant_derivative(s: SodeSystem, X, Y) -> np.ndarray:
    """D_X Y = sum_a X^a D_{e_a} Y for X, Y in adapted-frame components with
    Expr coefficients, with the connection's Gamma."""
    gamma = connection(s).gamma
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
    conn = connection(s)
    frame, coframe = conn.frame, conn.coframe
    C = expr_array((n2, n2, n2))
    for a, b in combinations(range(n2), 2):
        C[a, b] = coframe @ bracket(frame[:, a], frame[:, b], s.coords)
    return C


def _torsion_array(s: SodeSystem, gamma) -> np.ndarray:
    """Tor[a, b] = Tor(e_a, e_b) = Gamma_ab - Gamma_ba - C_ab for a < b."""
    n2 = gamma.shape[0]
    C = connection(s).structure_functions
    tor = expr_array((n2, n2, n2))
    for a, b in combinations(range(n2), 2):
        tor[a, b] = gamma[a, b] - gamma[b, a] - C[a, b]
    return tor


def _torsion_deltas(s: SodeSystem, tensor: TorsionTensor, gamma=None) -> list:
    """(label, Tor(e_a, e_b) - closed torsion blocks) for every frame pair,
    with the connection's torsion array unless another Gamma is given."""
    tor = connection(s).torsion_array if gamma is None \
        else _torsion_array(s, gamma)
    n2 = len(tor)
    return [(f"torsion oracle pair ({a},{b})",
             tor[a, b] - tensor.apply(_unit(n2, a), _unit(n2, b)))
            for a, b in combinations(range(n2), 2)]


def torsion_definition(s: SodeSystem, a, b, gamma=None) -> np.ndarray:
    """Tor(e_a, e_b) by the first structure equation."""
    tor = connection(s).torsion_array if gamma is None \
        else _torsion_array(s, gamma)
    return tor[a, b].copy() if a < b else -tor[b, a]


def torsion(s: SodeSystem, check="numeric", points=None) -> TorsionTensor:
    """The connection's read-only torsion blocks; unless check is "none",
    compare them with Tor(e_a, e_b) of the structure equation on every frame
    pair (the connection's torsion deltas)."""
    conn = connection(s)
    if check != "none":
        check_residual(conn.torsion_deltas, s, check, points)
    return conn.torsion


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
    conn = connection(s)
    C, frame = conn.structure_functions, conn.frame
    d_gamma = expr_array((n2,) * 4)  # [a, b, c, d]: e_a Gamma[b, c, d], a != b
    built = {}                       # (a, id of a Gamma node) -> e_a Gamma
    for idx in np.ndindex(gamma.shape):
        g = gamma[idx]
        if g is ZERO:
            continue
        for a in range(n2):
            if a != idx[0]:
                key = a, id(g)
                if key not in built:
                    built[key] = directional(frame[:, a], s.coords, g)
                d_gamma[(a,) + idx] = built[key]
    R = expr_array((n2,) * 4)
    for a, b in combinations(range(n2), 2):
        for c in range(n2):
            R[a, b, c] = (d_gamma[a, b, c] + _contract(gamma[b, c], gamma[a])) \
                - (d_gamma[b, a, c] + _contract(gamma[a, c], gamma[b])) \
                - _contract(C[a, b], gamma[:, c])
    return R


def _curvature_deltas(s: SodeSystem, comp) -> list:
    """(label, R(e_a, e_b)e_c - table) per frame triple, zero blocks included."""
    R = connection(s).curvature_array
    return [(f"curvature oracle ({a},{b};{c})",
             R[a, b, c] - _expected_curvature(comp, s.n, a, b, c))
            for a, b in combinations(range(len(R)), 2) for c in range(len(R))]


def curvature_components(s: SodeSystem) -> CurvatureComponents:
    """A^h_{kj} = (1/2)(T^h_{jk} - dP^h_k/dv^j - dP^h_j/dv^k),
    B^h_{ijk} = -dT^h_{ij}/dv^k and R^h_{ijk} = (1/2) d3F^h/dv^i dv^j dv^k,
    from the connection's (P, T) and dP/dv."""
    conn = connection(s)
    sc, dP = conn.torsion, conn.dP
    return CurvatureComponents(
        A=HALF * (sc.T.transpose(0, 2, 1) - dP - dP.transpose(0, 2, 1)),
        B=-_jacobian(sc.T, s.vars.velocities),
        R=HALF * F_partials(s, "vvv"))


def curvature_definition(s: SodeSystem, a, b, c, gamma=None) -> np.ndarray:
    """R(e_a, e_b)e_c by the second structure equation."""
    R = connection(s).curvature_array if gamma is None \
        else _curvature_array(s, gamma)
    return R[a, b, c].copy() if a < b else -R[b, a, c]


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


def curvature(s: SodeSystem, check="numeric",
              points=None) -> CurvatureComponents:
    """The connection's read-only closed-formula (A, B, R); unless check is
    "none", evaluate the curvature of the connection on every frame triple
    and compare against the component table, including its vanishing
    blocks."""
    comp = connection(s).curvature
    if check != "none":
        check_residual(_curvature_deltas(s, comp), s, check, points)
    return comp


# --------------------------------------------------------------------------
# identity suites
# --------------------------------------------------------------------------

def constant_frames(n) -> tuple:
    """The adapted-frame components that the construction makes constant,
    as the Const nodes `simplify` folds them to: theta.X = e_0,
    theta.L_X J.e = diag(0, -I, I) and theta.E.e = the swap of the two
    n-blocks."""
    n2 = 2 * n + 1
    flow, lxj, swap = expr_array(n2), expr_array((n2, n2)), expr_array((n2, n2))
    flow[0] = const(1)
    for i in range(n):
        lxj[1 + i, 1 + i], lxj[1 + n + i, 1 + n + i] = const(-1), const(1)
        swap[1 + i, 1 + n + i] = swap[1 + n + i, 1 + i] = const(1)
    return flow, lxj, swap


def verify_characterization(s: SodeSystem, points, w_shift=0) -> dict:
    """Residuals of the four defining properties of the connection:
    (1) the dynamical flow is parallel, (2) the eigenstructure endomorphism
    L_X J is parallel, (3) the swap endomorphism is parallel, (4) the torsion
    equals the prescribed tensor.  `w_shift` perturbs the connection (for
    uniqueness checks the residual of (4) must then blow up); the shifted
    Gamma is built for this call only.

    For (1)-(3) the frame components S are, by construction, the constants
    of `constant_frames`, so D_{e_a} of those constants reduces to its Gamma
    terms.  Each residual also takes in the constancy block S - const_S on
    the same points, which flags an S that is not that constant and keeps
    the residual NaN wherever S is not finite.  Nothing is simplified."""
    n2 = 2 * s.n + 1
    conn = connection(s)
    shifted = frame_christoffels(s, w_shift=w_shift) if w_shift else None
    gamma = conn.gamma if shifted is None else shifted
    coframe, frame = conn.coframe, conn.frame
    batch = point_batch(s.vars, points)

    def parallel(S, const_S, slots):
        return reduce_residual(
            [(a, _frame_covariant(s, gamma, const_S, slots, a))
             for a in range(n2)] + [("constancy", S - const_S)], s, batch)[0]

    flow, lxj, swap = constant_frames(s.n)
    r1 = parallel(coframe @ frame[:, 0], flow, "u")
    r2 = parallel(coframe @ conn.lie_derivative_J @ frame, lxj, "ul")
    r3 = parallel(coframe @ endomorphism_E(s) @ frame, swap, "ul")

    deltas = conn.torsion_deltas if shifted is None \
        else _torsion_deltas(s, conn.torsion, shifted)
    r4 = reduce_residual(deltas, s, batch)[0]

    return {"flow_parallel": r1, "eigenstructure_parallel": r2,
            "swap_parallel": r3, "torsion_match": r4}


def verify_structure_identities(s: SodeSystem, points) -> dict:
    """Residuals of (i) 2A^h_{kj} = T^h_{jk} - dP^h_k/dv^j - dP^h_j/dv^k with
    A taken from the curvature of the connection (definition path), and
    (ii) 3T^i_{kj} = dP^i_j/dv^k - dP^i_k/dv^j."""
    n = s.n
    conn = connection(s)
    sc, dP = conn.torsion, conn.dP              # dP[h, k, j]: dP^h_k/dv^j
    R = conn.curvature_array
    batch = point_batch(s.vars, points)

    # R[0, 1 + j, 1 + k, 1 + h] is the coefficient of X_h in R(X, X_j)X_k
    a_def = R[0, 1:1 + n, 1:1 + n, 1:1 + n].transpose(2, 1, 0)
    res_a = 2 * a_def - sc.T.transpose(0, 2, 1) + dP + dP.transpose(0, 2, 1)
    eq_as = reduce_residual([("eq_As", res_a)], s, batch)[0]

    res_t = 3 * sc.T - dP.transpose(0, 2, 1) + dP
    eq_3t = reduce_residual([("eq_3T", res_t)], s, batch)[0]
    return {"eq_As": eq_as, "eq_3T": eq_3t}


def torsion_oracle_residual(s: SodeSystem, points) -> float:
    """max |Tor_definition - torsion blocks| over frame pairs and points;
    NaN when any value is not finite."""
    return reduce_residual(connection(s).torsion_deltas, s,
                           point_batch(s.vars, points))[0]


def curvature_oracle_residual(s: SodeSystem, points) -> float:
    """max |R_definition - component table| over frame triples and points,
    vanishing blocks included; NaN when any value is not finite."""
    deltas = _curvature_deltas(s, connection(s).curvature)
    return reduce_residual(deltas, s, point_batch(s.vars, points))[0]


def eigenstructure_residual(s: SodeSystem, points) -> float:
    """Distance of the eigenvalues of L_X J to the multiset
    {0, +1 (n times), -1 (n times)}, maximised over points; NaN when L_X J
    is not finite at some point.

    In (t, x, v) coordinates L_X J is lower triangular, and
    `lie_derivative_J` builds it with `ZERO` above the diagonal, so its
    eigenvalues are its evaluated diagonal entries, read here without
    `eigvals`.  An entry above the diagonal that is not `ZERO` means the
    build is wrong, and the residual is NaN, a failure."""
    lxj = connection(s).lie_derivative_J
    vals = eval_array(lxj, s.vars.names, point_batch(s.vars, points))
    if not np.isfinite(vals).all() or \
            any(e is not ZERO for e in lxj[np.triu_indices(len(lxj), 1)]):
        return float("nan")
    expected = np.sort(np.array([0.0] + [1.0] * s.n + [-1.0] * s.n))
    diagonal = np.diagonal(vals, axis1=0, axis2=1)    # [point, k]
    return worst_abs(np.sort(diagonal, axis=-1) - expected)


def verify_residuals(s: SodeSystem, points) -> dict:
    """The residuals of `chernsode verify`, keyed and ordered as its report;
    item (4) of the characterization is the torsion-oracle residual."""
    residuals = verify_structure_identities(s, points)
    char = verify_characterization(s, points)
    residuals["torsion_oracle"] = char["torsion_match"]
    residuals["curvature_oracle"] = curvature_oracle_residual(s, points)
    residuals.update((f"characterization_{k}", v) for k, v in char.items())
    residuals["eigenstructure"] = eigenstructure_residual(s, points)
    return residuals
