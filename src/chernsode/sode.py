"""SODE model and first-order jet-space geometry.

A system x''^i = F^i(t, x, x') is carried as expressions over a declared
variable set.  This module builds the dynamical flow, the adapted frame and
coframe, the endomorphism L_{X}J with its 0/-1/+1 eigenbundle splitting, the
horizontal/vertical projector, and the curvature of the splitting (P, T)
computed two ways: closed formulas as the production path, symbolic Lie
brackets of the frame fields as the oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from typing import NamedTuple

import numpy as np

from .expressions import (
    Expr, ONE, VarSet, ZERO, _CACHE_SIZE, add, compile_expr, const, diff,
    free_variables, mul, run_programs, simplify, var,
)

HALF = const(Fraction(1, 2))
QUARTER = const(Fraction(1, 4))


class OracleMismatch(Exception):
    """Two independent computation paths disagreed beyond tolerance."""


# --------------------------------------------------------------------------
# core types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class JetPoint1:
    """Numeric point (t, x, x') of the first-order jet space."""

    t: float
    x: tuple
    v: tuple

    def __post_init__(self):
        x, v = tuple(map(float, self.x)), tuple(map(float, self.v))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        if not all(map(math.isfinite, (self.t, *x, *v))):
            raise ValueError("jet point components must be finite")

    @property
    def row(self) -> list:
        """(t, x, v) as Python floats, in `VarSet.names` order."""
        return [float(self.t), *self.x, *self.v]

    def env(self, vars: VarSet) -> dict:
        out = {vars.time: float(self.t)}
        out.update(zip(vars.positions, self.x))
        out.update(zip(vars.velocities, self.v))
        return out


class JetPoints(Sequence):
    """Immutable sequence of JetPoint1 backed by one read-only float array.
    `rows` is the (count, 2n+1) view of (t, x, v) rows; `columns` holds the
    2n+1 read-only, C-contiguous arrays of `point_batch`, built once.  An
    index builds its JetPoint1 on demand and a slice is again a JetPoints;
    it equals any sequence of equal JetPoint1."""

    __slots__ = ("rows", "columns")

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] % 2 != 1:
            raise ValueError("jet point rows must have shape (count, 2n+1)")
        if not np.isfinite(rows).all():
            raise ValueError("jet point components must be finite")
        cols = _frozen(np.array(rows.T, order="C"))
        object.__setattr__(self, "rows", cols.T)
        object.__setattr__(self, "columns", tuple(cols))

    def __setattr__(self, name, value):
        raise AttributeError("JetPoints is immutable")

    @classmethod
    def of(cls, vars: VarSet, points) -> JetPoints:
        """`points` itself when it is a JetPoints of 2n+1 columns, else a
        JetPoints of the same sequence of JetPoint1."""
        width = 2 * vars.n + 1
        if isinstance(points, JetPoints):
            if len(points.columns) != width:
                raise ValueError(f"expected jet points with {width} columns")
            return points
        rows = np.fromiter(
            chain.from_iterable(p.row for p in points),
            dtype=float, count=len(points) * width)
        return cls(rows.reshape(len(points), width))

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return JetPoints(self.rows[k])
        return _jet_point(self.rows[k].tolist())

    def __iter__(self):
        return map(_jet_point, self.rows.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self):
        return f"JetPoints({list(self)!r})"


def _jet_point(row) -> JetPoint1:
    n = len(row) // 2
    return JetPoint1(row[0], tuple(row[1:1 + n]), tuple(row[1 + n:]))


@dataclass(frozen=True)
class SodeSystem:
    """n second-order equations x''^i = F^i over `vars`."""

    vars: VarSet
    F: tuple

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(self.F))
        n = self.vars.n
        if n < 1 or len(self.vars.velocities) != n:
            raise ValueError("need n >= 1 positions with matching velocities")
        if len(self.F) != n:
            raise ValueError(f"expected {n} right-hand sides, got {len(self.F)}")
        check_dependence(self.F, self.vars.names,
                         "undeclared variables in F: ")

    @property
    def n(self) -> int:
        return self.vars.n

    @property
    def coords(self):
        return self.vars.names


@dataclass(frozen=True)
class FrameAtPoint:
    """Adapted frame/coframe matrices at a point, coordinate basis
    (d/dt, d/dx^i, d/dv^i); frame columns are (X, X_i, d/dv^i)."""

    frame: np.ndarray
    coframe: np.ndarray


@dataclass(frozen=True)
class TorsionTensor:
    """Curvature of the splitting, P (n x n) and T (n x n x n) with
    T[k][i][j] antisymmetric in (i, j), read as the torsion blocks of the
    Chern connection in the adapted coframe: dt^omega^j coefficients are
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


# --------------------------------------------------------------------------
# small symbolic-matrix helpers shared by the geometry modules
# --------------------------------------------------------------------------

as_expr = const


def check_dependence(exprs, allowed, message):
    """Raise ValueError(message + the sorted names) when an expression of
    `exprs` has a free variable outside `allowed`: the one check of the
    coordinates an input may depend on."""
    for e in exprs:
        extra = free_variables(as_expr(e)).difference(allowed)
        if extra:
            raise ValueError(f"{message}{sorted(extra)}")


def expr_array(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = ZERO
    return out


def _frozen(*arrays):
    """Make the arrays read-only in place; returns the first."""
    for a in arrays:
        a.setflags(write=False)
    return arrays[0]


def _kept(obj, key, build):
    """build(obj), built on first use and kept in the instance dict of the
    object `obj` under `key`, so it goes with `obj`; an equal but distinct
    object keeps its own."""
    fields = vars(obj)
    if key not in fields:
        fields[key] = build(obj)
    return fields[key]


def _det(m) -> Expr:
    """Leibniz expansion of the determinant of a square matrix of Expr (a
    list of rows or a 2-d object array); the empty matrix gives ONE.  The
    one symbolic determinant: the metric inverse's adjugate and the Kosambi
    principal minors."""
    n = len(m)
    out = []
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        out.append(mul(const(sign), *[as_expr(m[i][perm[i]]) for i in range(n)]))
    return add(*out)


@lru_cache(maxsize=_CACHE_SIZE)
def _diff(e: Expr, name: str) -> Expr:
    return diff(e, name)


def _jacobian(X, coords) -> np.ndarray:
    """The entries of X differentiated along each coordinate, on a new last
    axis: out[..., c] = d X[...] / d coords[c].  Every array of partials
    (of F, P, T, a metric, Gamma) is built by this one loop."""
    X = np.asarray(X, dtype=object)
    out = expr_array(X.shape + (len(coords),))
    for idx in np.ndindex(X.shape):
        e = as_expr(X[idx])
        out[idx] = [_diff(e, name) for name in coords]
    return out


def F_partials(s: SodeSystem, roles: str) -> np.ndarray:
    """The partials of F along the letters of `roles`, each "x" (the
    positions) or "v" (the velocities), in that order: "v" is F_v[i, j] =
    dF^i/dv^j and "xv" is F_xv[k, i, j] = d2F^k/dx^i dv^j.  Each array is
    the `_jacobian` of the one a letter shorter, frozen and kept with the
    system object, so it is built once per system."""
    def build(s):
        X = F_partials(s, roles[:-1]) if len(roles) > 1 else s.F
        axis = s.vars.velocities if roles[-1] == "v" else s.vars.positions
        return _frozen(_jacobian(X, axis))
    return _kept(s, "_F_" + roles, build)


def directional(field, coords, f: Expr) -> Expr:
    """Derivative sum_c field[c] df/dcoords[c] of f along a coordinate vector
    field, in coordinate order; a component that `is ZERO` costs no `_diff`."""
    return add(*[mul(field[c], _diff(f, name)) for c, name in enumerate(coords)
                 if field[c] is not ZERO])


def bracket(X, Y, coords) -> np.ndarray:
    """Lie bracket of coordinate vector fields with Expr components."""
    out = expr_array(len(coords))
    for a in range(len(coords)):
        out[a] = add(directional(X, coords, as_expr(Y[a])),
                     mul(-1, directional(Y, coords, as_expr(X[a]))))
    return out


def eval_array(M, names, values) -> np.ndarray:
    """Evaluate an object array of Expr entry-wise through `run_programs`,
    which on a batch computes a node that entries share once, in one walk;
    `values` is a sequence of scalars or numpy arrays aligned with `names`
    (arrays give a batch axis)."""
    M = np.asarray(M, dtype=object)
    arrays = [v for v in values if isinstance(v, np.ndarray) and v.ndim]
    out = np.zeros(M.shape + ((len(arrays[0]),) if arrays else ()))
    programs = [compile_expr(as_expr(e), names) for e in M.flat]
    for idx, value in zip(np.ndindex(M.shape), run_programs(programs, values)):
        out[idx] = value
    return out


def numeric_rank(rows, tol=1e-8):
    """(rank, singular values) of the matrix stacked from `rows`: singular
    values above tol times the largest count, and a matrix whose largest
    singular value is below 1e-12 has rank 0."""
    if not len(rows):
        return 0, np.zeros(0)
    m = np.vstack(rows)
    svals = np.linalg.svd(m, compute_uv=False)
    if svals.size == 0 or svals[0] < 1e-12:
        return 0, svals
    return int(np.sum(svals > tol * svals[0])), svals


def point_batch(vars: VarSet, points) -> list:
    """Column batch (one read-only array per variable, in `vars.names` order:
    t, x, v) of a sequence of JetPoint1."""
    return list(JetPoints.of(vars, points).columns)


def max_abs(M, s: SodeSystem, points) -> float:
    return reduce_residual([(None, M)], s, point_batch(s.vars, points))[0]


def worst_abs(*values) -> float:
    """The one residual fold: max |v| over every entry of the given scalars
    and arrays, 0.0 when there is none, NaN as soon as one is not finite."""
    flat = [np.ravel(v) for v in values]
    if not sum(a.size for a in flat):
        return 0.0
    worst = float(np.max(np.abs(flat[0] if len(flat) == 1
                                else np.concatenate(flat))))
    return worst if math.isfinite(worst) else float("nan")


class Residual(NamedTuple):
    """Worst |value| over labelled Expr arrays, where it sits (label, flat
    entry index, point index) and its signed value, plus the count of NaN
    and inf values."""

    worst: float
    label: object
    nonfinite: int
    entry: int | None
    point: int | None
    value: float | None


def reduce_residual(blocks, s: SodeSystem, batch) -> Residual:
    """Reduce (label, Expr array) pairs on a point batch, entry by entry in
    order in one walk (`run_programs`), so a node that entries share is
    computed once, taking |value| and its max once per entry (the point of
    the max only when the entry sets a new worst).  A non-finite value ranks
    above every finite one: `worst` is then NaN and the witness is the first
    block, entry and point holding one.  Among finite values the first
    largest |value| wins, so a ZERO entry, which can never win, is not
    evaluated."""
    entries = [(label, entry, e) for label, arr in blocks
               for entry, e in enumerate(np.asarray(arr, dtype=object).flat)
               if e is not ZERO]
    programs = [compile_expr(as_expr(e), s.vars.names) for _, _, e in entries]
    out, nonfinite = Residual(0.0, None, 0, None, None, None), 0
    for (label, entry, _), value in zip(entries, run_programs(programs, batch)):
        vals = np.ravel(value)
        if not vals.size:
            continue
        mags = np.abs(vals)
        top = float(mags.max())             # not finite if a value is not
        if math.isfinite(top):
            if not nonfinite and top > out.worst:
                k = int(np.argmax(mags))
                out = Residual(top, label, 0, entry, k, float(vals[k]))
            continue
        bad = np.flatnonzero(~np.isfinite(mags))
        if not nonfinite:
            k = int(bad[0])
            out = Residual(math.nan, label, 0, entry, k, float(vals[k]))
        nonfinite += len(bad)
    return out._replace(nonfinite=nonfinite)


def check_residual(blocks, s: SodeSystem, mode, points):
    """Raise OracleMismatch unless every (label, delta array) pair vanishes:
    symbolically for mode "symbolic", else finite and within 1e-10 on
    `points` (12 sample points of seed 2024 when None)."""
    if mode == "symbolic":
        for label, arr in blocks:
            bad = [idx for idx in np.ndindex(arr.shape)
                   if not zero_symbolically(as_expr(arr[idx]))]
            if bad:
                raise OracleMismatch(f"{label}: nonzero at components {bad[:4]}")
        return
    if points is None:
        points = sample_points(s.vars, 12, 2024)
    r = reduce_residual(blocks, s, point_batch(s.vars, points))
    if r.nonfinite:
        raise OracleMismatch(f"{r.label}: {r.nonfinite} non-finite values")
    if r.worst > 1e-10:
        raise OracleMismatch(f"{r.label}: residual {r.worst:.3e} > 1e-10")


def sample_points(vars: VarSet, count, seed, box=None) -> JetPoints:
    """Seeded sample of jet points; box maps role -> (lo, hi) with defaults
    t in [0,1], x in [-1,1], v in [-1,1]."""
    box = dict(box or {})
    box.setdefault("time", (0.0, 1.0))
    box.setdefault("position", (-1.0, 1.0))
    box.setdefault("velocity", (-1.0, 1.0))
    n = vars.n
    lo, hi = np.array([box["time"]] + [box["position"]] * n
                      + [box["velocity"]] * n, dtype=float).T
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo         # finite only where both bounds are
    if not np.isfinite(width).all():
        raise ValueError("jet point components must be finite")
    # one (t, x, v) row per point: the doubles, in the order, that one
    # rng.uniform call per role and point would draw
    rows = lo + width * seeded(seed, count * (2 * n + 1)).random(
        (count, 2 * n + 1))
    return JetPoints(rows)


def zero_symbolically(e: Expr) -> bool:
    return simplify(e) == ZERO


def flow_derivative(s: SodeSystem, f: Expr) -> Expr:
    """Derivative along the dynamical flow: d/dt + v^i d/dx^i + F^i d/dv^i,
    the two terms of each i adjacent."""
    vs = s.vars
    coords = [vs.time, *chain(*zip(vs.positions, vs.velocities))]
    field = [ONE, *chain(*zip(map(var, vs.velocities), s.F))]
    return directional(field, coords, f)


# --------------------------------------------------------------------------
# flow, frames, splitting
# --------------------------------------------------------------------------

def dynamical_flow(s: SodeSystem) -> np.ndarray:
    """Components (1, v^i, F^i) in the coordinate basis."""
    n = s.n
    out = expr_array(2 * n + 1)
    out[0] = const(1)
    for i in range(n):
        out[1 + i] = var(s.vars.velocities[i])
        out[1 + n + i] = s.F[i]
    return out


def frame_symbolic(s: SodeSystem) -> np.ndarray:
    """Columns: X, X_i = d/dx^i + (1/2)(dF^j/dv^i) d/dv^j, d/dv^i."""
    n = s.n
    M = expr_array((2 * n + 1, 2 * n + 1))
    M[:, 0] = dynamical_flow(s)
    M[1 + n:, 1:1 + n] = HALF * F_partials(s, "v")
    for i in range(n):
        M[1 + i, 1 + i] = const(1)
        M[1 + n + i, 1 + n + i] = const(1)
    return M


def coframe_symbolic(s: SodeSystem) -> np.ndarray:
    """Rows: dt, omega^i = dx^i - v^i dt,
    varpi^i = dv^i - F^i dt - (1/2)(dF^i/dv^j)(dx^j - v^j dt)."""
    n = s.n
    Fv = F_partials(s, "v")
    M = expr_array((2 * n + 1, 2 * n + 1))
    M[0, 0] = const(1)
    M[1 + n:, 1:1 + n] = -HALF * Fv
    for i in range(n):
        M[1 + i, 0] = mul(-1, var(s.vars.velocities[i]))
        M[1 + i, 1 + i] = const(1)
        wv = add(*[mul(HALF, Fv[i, j], var(s.vars.velocities[j]))
                   for j in range(n)])
        M[1 + n + i, 0] = add(mul(-1, s.F[i]), wv)
        M[1 + n + i, 1 + n + i] = const(1)
    return M


def adapted_frame(s: SodeSystem, p: JetPoint1) -> FrameAtPoint:
    names, values = s.vars.names, p.row
    return FrameAtPoint(
        frame=eval_array(frame_symbolic(s), names, values),
        coframe=eval_array(coframe_symbolic(s), names, values),
    )


def lie_derivative_J(s: SodeSystem) -> np.ndarray:
    """Coordinate-basis matrix of the Lie derivative of the fundamental
    tensor J = omega^i (x) d/dv^i along the dynamical flow."""
    n = s.n
    Fv = F_partials(s, "v")
    M = expr_array((2 * n + 1, 2 * n + 1))
    M[1 + n:, 1:1 + n] = -Fv
    for i in range(n):
        # -(dx^i - v^i dt) (x) d/dx^i
        M[1 + i, 0] = var(s.vars.velocities[i])
        M[1 + i, 1 + i] = const(-1)
    for j in range(n):
        row = 1 + n + j
        M[row, 0] = add(*[mul(var(s.vars.velocities[i]), Fv[j, i])
                          for i in range(n)], mul(-1, s.F[j]))
        M[row, row] = const(1)
    return M


def split(s: SodeSystem, X, p: JetPoint1):
    """Horizontal/vertical decomposition of a coordinate vector at p."""
    fr = adapted_frame(s, p)
    theta = fr.coframe @ np.asarray(X, dtype=float)
    theta[s.n + 1:] = 0.0
    horizontal = fr.frame @ theta
    return horizontal, np.asarray(X, dtype=float) - horizontal


def endomorphism_E(s: SodeSystem) -> np.ndarray:
    """Coordinate matrix of omega^i (x) d/dv^i + varpi^i (x) X_i."""
    n = s.n
    frame = frame_symbolic(s)
    coframe = coframe_symbolic(s)
    M = expr_array((2 * n + 1, 2 * n + 1))
    for r in range(2 * n + 1):       # d/dv^i is the frame's column 1+n+i
        for c in range(2 * n + 1):
            M[r, c] = add(*chain.from_iterable(
                (mul(frame[r, 1 + n + i], coframe[1 + i, c]),
                 mul(frame[r, 1 + i], coframe[1 + n + i, c]))
                for i in range(n)))
    return M


# --------------------------------------------------------------------------
# curvature of the splitting
# --------------------------------------------------------------------------

def splitting_P(s: SodeSystem) -> np.ndarray:
    """P^i_j = (1/2) X(dF^i/dv^j) - dF^i/dx^j - (1/4)(dF^k/dv^j)(dF^i/dv^k)."""
    n = s.n
    Fv, Fx = F_partials(s, "v"), F_partials(s, "x")
    P = expr_array((n, n))
    for i in range(n):
        for j in range(n):
            P[i, j] = add(mul(HALF, flow_derivative(s, Fv[i, j])),
                          mul(-1, Fx[i, j]),
                          *[mul(-QUARTER, Fv[k, j], Fv[i, k]) for k in range(n)])
    return P


def splitting_T(s: SodeSystem) -> np.ndarray:
    """T^k_{ij}: antisymmetrised mixed second derivatives plus the quadratic
    first-derivative correction."""
    n = s.n
    Fv, Fvv, Fxv = (F_partials(s, roles) for roles in ("v", "vv", "xv"))
    T = expr_array((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                quad = []
                for h in range(n):
                    quad.append(mul(QUARTER, Fv[h, i], Fvv[k, h, j]))
                    quad.append(mul(-QUARTER, Fv[h, j], Fvv[k, h, i]))
                val = add(mul(HALF, Fxv[k, i, j]),
                          mul(-HALF, Fxv[k, j, i]), *quad)
                T[k, i, j] = val
                T[k, j, i] = mul(-1, val)
    return T


def splitting_curvature(s: SodeSystem, check="numeric",
                        points=None) -> TorsionTensor:
    """Closed-formula (P, T); unless check == "none", re-derives both from the
    Lie brackets of the frame fields and raises OracleMismatch on disagreement.

    Bracket facts used (proof of the splitting-curvature proposition):
    [X, X_j] = P^i_j d/dv^i - (1/2)(dF^k/dv^j) X_k and [X_i, X_j] = T^k_{ij} d/dv^k.
    """
    n = s.n
    P, T = splitting_P(s), splitting_T(s)
    if check != "none":
        coords = s.coords
        Fv = F_partials(s, "v")
        frame = frame_symbolic(s)
        X_sigma = frame[:, 0]
        X_cols = [frame[:, 1 + i] for i in range(n)]
        blocks = []
        for j in range(n):
            b = bracket(X_sigma, X_cols[j], coords)
            expected = expr_array(2 * n + 1)
            for k in range(n):
                coef = mul(-HALF, Fv[k, j])
                for r in range(2 * n + 1):
                    expected[r] = add(expected[r], mul(coef, X_cols[k][r]))
                expected[1 + n + k] = add(expected[1 + n + k], P[k, j])
            blocks.append((f"splitting oracle [X, X_{j}]", b - expected))
        for i in range(n):
            for j in range(i + 1, n):
                b = bracket(X_cols[i], X_cols[j], coords)
                expected = expr_array(2 * n + 1)
                for k in range(n):
                    expected[1 + n + k] = T[k, i, j]
                blocks.append((f"splitting oracle [X_{i}, X_{j}]", b - expected))
        check_residual(blocks, s, check, points)
    return TorsionTensor(P=P, T=T)


# --------------------------------------------------------------------------
# seeded draws
# --------------------------------------------------------------------------

# A stream that will draw at most this many values is drawn by _Pcg64, at
# about 0.5 us a value; a longer one by numpy's Generator, whose import costs
# about 9 ms and 6.1 MiB of resident memory in the process that loads it.
_PORT_DRAWS = 2 ** 15

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed):
    """numpy's SeedSequence(seed).generate_state(4, np.uint64) for an int
    seed >= 0: its 32-bit words, least significant first, hashed into a pool
    of four and drawn out as eight words, paired into four 64-bit ones."""
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, words = 0x8B51F9DD, []
    for k in range(8):
        value = pool[k % 4] ^ mult
        mult = mult * 0x58F38DED & _M32
        value = value * mult & _M32
        words.append(value ^ value >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


class _Pcg64:
    """The stream of numpy's Generator on a PCG64 seeded by an int >= 0,
    value for value: a 128-bit LCG stepped before each 64-bit XSL-RR output
    (O'Neill 2014, HMC-CS-2014-0905), which NumPy keeps stable (NEP 19).
    `random` and `uniform` take the top 53 bits of one output per value;
    `integers` draws 32-bit words, the low half of an output and then its
    high half, which waits for the next call when a call ends between them,
    and keeps each word that Lemire's rejection accepts.  Scalars come back
    as Python numbers, `size=` fills as float64 or int64 arrays."""

    def __init__(self, seed):
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = (self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc \
            & _M128
        self._half = None

    def _outputs(self, count):
        """The next `count` outputs."""
        state, inc, out = self._state, self._inc, []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state ^ state >> 64) & _M64
            out.append((x << 64 | x) >> (state >> 122) & _M64)
        self._state = state
        return out

    def _doubles(self, count):
        """The next `count` doubles in [0, 1), one output each."""
        return [(out >> 11) * 2.0 ** -53 for out in self._outputs(count)]

    def _words(self, count):
        """The next `count` 32-bit words."""
        words = [] if self._half is None else [self._half]
        for out in self._outputs((count - len(words) + 1) // 2):
            words += (out & _M32, out >> 32)
        self._half = words.pop() if len(words) > count else None
        return words

    @staticmethod
    def _fill(size, values, dtype=np.float64):
        """One value of `values(count)` when size is None, else an array of
        shape `size` (numpy's errors for a bad one)."""
        if size is None:
            return values(1)[0]
        shape = np.empty(size, np.int8).shape
        return np.array(values(math.prod(shape)), dtype).reshape(shape)

    def random(self, size=None):
        return self._fill(size, self._doubles)

    def uniform(self, low, high, size=None):
        width = high - low
        return self._fill(size, lambda count: [
            low + width * u for u in self._doubles(count)])

    def integers(self, low, high, size=None):
        span = high - 1 - low
        if span < 0:
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        if span > _M32:
            raise ValueError(f"integers: a span of {span + 1} values is "
                             "wider than 32 bits")
        excl, threshold = span + 1, (1 << 32) % (span + 1)

        def values(count):
            if span == 0:
                return [low] * count
            out = []
            while len(out) < count:
                out += [low + (m >> 32) for w in self._words(count - len(out))
                        if (m := w * excl) & _M32 >= threshold]
            return out
        return self._fill(size, values, np.int64)


def seeded(seed, draws=0):
    """The stream of `np.random.default_rng(seed)`.  A caller that will
    draw more than _PORT_DRAWS values, or a seed that is not an int >= 0,
    gets numpy's Generator; any other gets _Pcg64, which draws the same
    values, so a process that draws few loads no `numpy.random`."""
    if draws > _PORT_DRAWS or not (isinstance(seed, int) and seed >= 0):
        return np.random.default_rng(seed)
    return _Pcg64(seed)


# --------------------------------------------------------------------------
# seeded polynomial systems for batteries and the selftest
# --------------------------------------------------------------------------

def monomials(names, degree) -> list:
    """The monomials of total degree <= degree in `names`, each a sorted
    tuple of names (one per factor), in sorted order."""
    out = [()]
    for _ in range(degree):
        out = out + [m + (name,) for m in out for name in names]
    return sorted({tuple(sorted(m)) for m in out})


def random_polynomial_sode(n, seed, density=0.25) -> SodeSystem:
    """Sparse random polynomial right-hand sides with exact rational
    coefficients: degree <= 3 in velocities, <= 2 in positions, <= 1 in
    time.  Each component keeps one cubic-in-v, one mixed x*v and
    one t*v monomial so every derivative order in the component formulas is
    exercised."""
    rng = seeded(seed)
    vars = VarSet.default(n)
    v_monos = monomials(vars.velocities, 3)
    x_monos = monomials(vars.positions, 2)
    t_monos = monomials((vars.time,), 1)

    def coeff():
        k = int(rng.integers(-8, 9)) or 1
        return const(Fraction(k, 8))

    F = []
    for i in range(n):
        terms = []
        forced = [
            (t_monos[0], x_monos[0], tuple([vars.velocities[i % n]] * 3)),
            (t_monos[0], (vars.positions[(i + 1) % n],),
             (vars.velocities[i % n],)),
            ((vars.time,), x_monos[0],
             (vars.velocities[(i + 1) % n],)),
        ]
        for tm, xm, vm in forced:
            terms.append(mul(coeff(), *[var(nm) for nm in tm + xm + vm]))
        for tm in t_monos:
            for xm in x_monos:
                for vm in v_monos:
                    if rng.random() < density:
                        terms.append(mul(coeff(), *[var(nm) for nm in tm + xm + vm]))
        F.append(add(*terms))
    return SodeSystem(vars=vars, F=tuple(F))
