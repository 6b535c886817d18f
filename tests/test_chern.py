import dataclasses
import math

import numpy as np
import pytest

from chernsode import chern
from chernsode.expressions import VarSet, add, const, mul, parse, simplify, var
from chernsode.chern import (
    TorsionTensor, connection_data, covariant_derivative, curvature,
    curvature_definition, curvature_oracle_residual, torsion,
    torsion_definition, torsion_oracle_residual, verify_characterization,
    verify_structure_identities,
)
from chernsode.sode import (
    OracleMismatch, SodeSystem, as_expr, bracket, coframe_symbolic,
    directional, endomorphism_E, eval_array, expr_array, frame_symbolic,
    lie_derivative_J, max_abs, random_polynomial_sode, sample_points,
    splitting_curvature, zero_symbolically,
)


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


FLAT1 = make(1, "0")
OSC = make(1, "-x1 - 1.0*v1")
CUBIC = make(1, "v1^3")


def unit(n2, a):
    e = expr_array(n2)
    e[a] = const(1)
    return e


class TestConnectionData:
    def test_flat(self):
        data = connection_data(FLAT1)
        assert zero_symbolically(data.W[0, 0])
        assert zero_symbolically(data.V[0, 0, 0])

    def test_oscillator(self):
        data = connection_data(OSC)
        assert simplify(data.W[0, 0]) == const(-0.5)
        assert zero_symbolically(data.V[0, 0, 0])

    def test_cubic(self):
        data = connection_data(CUBIC)
        assert simplify(data.W[0, 0]) == simplify(parse("3/2*v1^2", OSC.vars))
        assert simplify(data.V[0, 0, 0]) == simplify(parse("3*v1", OSC.vars))


class TestCovariantDerivative:
    def test_flow_parallel_random(self):
        s = random_polynomial_sode(2, seed=5)
        n2 = 2 * s.n + 1
        pts = sample_points(s.vars, 8, seed=1)
        rng = np.random.default_rng(3)
        y = expr_array(n2)
        y[0] = const(1)
        for _ in range(3):
            x = expr_array(n2)
            for a in range(n2):
                x[a] = const(float(rng.uniform(-1, 1)))
            d = covariant_derivative(s, x, y)
            assert max_abs(d, s, pts) < 1e-12

    def test_vertical_pair_vanishes(self):
        s = random_polynomial_sode(2, seed=9)
        n2 = 2 * s.n + 1
        pts = sample_points(s.vars, 8, seed=2)
        d = covariant_derivative(s, unit(n2, 3), unit(n2, 4))
        assert max_abs(d, s, pts) < 1e-12

    def test_oscillator_value(self):
        # D_X X_1 = -(1/2)(dF/dv) X_1 = zeta X_1 with zeta = 1/2
        d = covariant_derivative(OSC, unit(3, 0), unit(3, 1))
        assert simplify(d[1]) == const(0.5)
        assert zero_symbolically(d[0]) and zero_symbolically(d[2])

    def test_leibniz(self):
        # D_X (f Y) = X(f) Y + f D_X Y with f = x1
        s = OSC
        f = var("x1")
        y = expr_array(3)
        y[1] = f
        d = covariant_derivative(s, unit(3, 0), y)
        # X(x1) = v1, so coefficient on X_1 is v1 + x1/2
        assert zero_symbolically(simplify(d[1] - parse("v1 + 0.5*x1", s.vars)))


class TestTorsion:
    def test_flat_identity_block_only(self):
        t = torsion(FLAT1, check="symbolic")
        got = torsion_definition(FLAT1, 0, 2)
        assert simplify(got[1]) == const(1)  # Tor(X, d/dv) = X_1
        assert zero_symbolically(t.P[0, 0])

    def test_oscillator_p_block(self):
        t = torsion(OSC, check="symbolic")
        assert simplify(t.p_block[0, 0]) == const(-0.75)

    def test_mixed_pair_vanishes_random(self):
        for k in range(4):
            s = random_polynomial_sode(2, seed=30 + k)
            pts = sample_points(s.vars, 10, seed=k)
            for i in range(2):
                for j in range(2):
                    got = torsion_definition(s, 1 + i, 3 + j)
                    assert max_abs(got, s, pts) < 1e-10

    def test_oracle_random_symbolic(self):
        s = random_polynomial_sode(2, seed=77)
        torsion(s, check="symbolic")

    def test_oracle_numeric_battery(self):
        for k in range(5):
            torsion(random_polynomial_sode(2, seed=90 + k), check="numeric")


class TestCurvature:
    def test_flat_zero(self):
        comp = curvature(FLAT1, check="symbolic")
        assert zero_symbolically(comp.A[0, 0, 0])
        assert zero_symbolically(comp.B[0, 0, 0, 0])
        assert zero_symbolically(comp.R[0, 0, 0, 0])

    def test_cubic_R(self):
        comp = curvature(CUBIC, check="symbolic")
        assert simplify(comp.R[0, 0, 0, 0]) == const(3)

    def test_spray_R_vanishes(self):
        s = make(2, "x1*v1*v2 - v2^2", "2*v1^2 + x2*v1*v2")
        comp = curvature(s, check="none")
        for idx in np.ndindex(comp.R.shape):
            assert zero_symbolically(comp.R[idx])

    def test_oracle_random_numeric(self):
        for k in range(3):
            curvature(random_polynomial_sode(2, seed=50 + k), check="numeric")

    def test_oracle_random_symbolic(self):
        curvature(random_polynomial_sode(2, seed=123), check="symbolic")

    def test_conjugation_blocks(self):
        # same coefficient matrix on the minus and plus eigenblocks
        s = random_polynomial_sode(2, seed=8)
        pts = sample_points(s.vars, 8, seed=4)
        for (a, b) in [(0, 1), (1, 2), (1, 3), (2, 4)]:
            for arg in range(s.n):
                minus = curvature_definition(s, a, b, 1 + arg)
                plus = curvature_definition(s, a, b, 1 + s.n + arg)
                delta = expr_array(s.n)
                for h in range(s.n):
                    delta[h] = minus[1 + h] - plus[1 + s.n + h]
                assert max_abs(delta, s, pts) < 1e-10


class TestCharacterization:
    def test_residuals_small(self):
        for k in range(3):
            s = random_polynomial_sode(2, seed=200 + k)
            pts = sample_points(s.vars, 10, seed=k)
            res = verify_characterization(s, pts)
            assert all(v <= 1e-10 for v in res.values()), res

    def test_flat_exact(self):
        pts = sample_points(FLAT1.vars, 5, seed=0)
        res = verify_characterization(FLAT1, pts)
        assert all(v == 0.0 for v in res.values())

    def test_perturbed_connection_breaks_torsion(self):
        s = random_polynomial_sode(2, seed=300)
        pts = sample_points(s.vars, 10, seed=3)
        res = verify_characterization(s, pts, w_shift=1)
        assert res["torsion_match"] >= 0.5

    def test_shifted_christoffel_breaks_parallel_endomorphisms(self, monkeypatch):
        good = chern.frame_christoffels

        def shifted(system, w_shift=0):
            gamma = good(system, w_shift=w_shift)
            gamma[0, 1, 2] = add(gamma[0, 1, 2], 0.1)
            return gamma

        monkeypatch.setattr(chern, "frame_christoffels", shifted)
        s = random_polynomial_sode(1, seed=3)
        res = verify_characterization(s, sample_points(s.vars, 10, seed=3))
        assert res["eigenstructure_parallel"] > 1e-3, res
        assert res["swap_parallel"] > 1e-3, res


class TestFrameCovariant:
    """The one adapted-frame covariant derivative against the per-rank loops
    it replaced, term for term."""

    @staticmethod
    def loop_11(s, S, gamma, a):
        n2 = 2 * s.n + 1
        frame = frame_symbolic(s)
        out = expr_array((n2, n2))
        for b in range(n2):
            for c in range(n2):
                out[b, c] = add(
                    directional(frame[:, a], s.coords, as_expr(S[b, c])),
                    *[mul(as_expr(S[d, c]), gamma[a, d, b]) for d in range(n2)],
                    *[mul(-1, gamma[a, c, d], as_expr(S[b, d])) for d in range(n2)])
        return out

    @staticmethod
    def loop_02(s, G, gamma, a):
        n2 = 2 * s.n + 1
        frame = frame_symbolic(s)
        out = expr_array((n2, n2))
        for b in range(n2):
            for c in range(n2):
                out[b, c] = add(
                    directional(frame[:, a], s.coords, as_expr(G[b, c])),
                    *[mul(-1, gamma[a, b, d], as_expr(G[d, c])) for d in range(n2)],
                    *[mul(-1, gamma[a, c, d], as_expr(G[b, d])) for d in range(n2)])
        return out

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_rank_loops(self, n):
        s = random_polynomial_sode(n, seed=40 + n)
        n2 = 2 * n + 1
        gamma = chern.frame_christoffels(s)
        frame, coframe = frame_symbolic(s), coframe_symbolic(s)
        lxj = coframe @ lie_derivative_J(s) @ frame
        swap = coframe @ endomorphism_E(s) @ frame
        G = expr_array((n2, n2))
        for b in range(n2):
            for c in range(b, n2):
                G[b, c] = G[c, b] = parse(f"{1 + b}*x1^{c} + t*x{n}", s.vars)
        for a in range(n2):
            for S in (lxj, swap):
                got = chern._frame_covariant(s, gamma, S, "ul", a)
                assert list(got.flat) == list(self.loop_11(s, S, gamma, a).flat)
            got = chern._frame_covariant(s, gamma, G, "ll", a)
            assert list(got.flat) == list(self.loop_02(s, G, gamma, a).flat)


class TestStructureIdentities:
    def test_flat(self):
        pts = sample_points(FLAT1.vars, 5, seed=0)
        res = verify_structure_identities(FLAT1, pts)
        assert res["eq_As"] == 0.0 and res["eq_3T"] == 0.0

    def test_random(self):
        for k in range(3):
            s = random_polynomial_sode(2, seed=400 + k)
            pts = sample_points(s.vars, 10, seed=k)
            res = verify_structure_identities(s, pts)
            assert res["eq_As"] <= 1e-10 and res["eq_3T"] <= 1e-10

    def test_n1_degenerate(self):
        pts = sample_points(OSC.vars, 5, seed=1)
        res = verify_structure_identities(OSC, pts)
        assert res["eq_3T"] <= 1e-12  # T empty content in one dimension

    def test_p_sign_flip_detected(self):
        from chernsode import sode as sode_mod
        good = sode_mod.splitting_P

        def flipped(system):
            return -np.asarray(good(system), dtype=object)

        s = random_polynomial_sode(2, seed=500)
        pts = sample_points(s.vars, 8, seed=5)
        sode_mod.splitting_P = flipped
        try:
            res = verify_structure_identities(s, pts)
            assert res["eq_As"] > 1e-3
            with pytest.raises(OracleMismatch):
                torsion(s, check="numeric", points=pts)
        finally:
            sode_mod.splitting_P = good


class TestStructureEquations:
    """The structure-equation arrays against the Leibniz definitions through
    the public covariant_derivative."""

    S = random_polynomial_sode(2, seed=61)

    def leibniz_bracket(self, a, b):
        frame = frame_symbolic(self.S)
        return coframe_symbolic(self.S) @ bracket(frame[:, a], frame[:, b],
                                                  self.S.coords)

    def assert_zero(self, got, expected):
        for d in range(len(got)):
            assert zero_symbolically(got[d] - expected[d]), d

    def test_torsion_every_pair(self):
        s, n2 = self.S, 2 * self.S.n + 1
        for a in range(n2):
            for b in range(n2):
                if a == b:
                    continue
                ea, eb = unit(n2, a), unit(n2, b)
                expected = covariant_derivative(s, ea, eb) \
                    - covariant_derivative(s, eb, ea) - self.leibniz_bracket(a, b)
                self.assert_zero(torsion_definition(s, a, b), expected)

    @pytest.mark.parametrize("a,b,c", [(0, 1, 1), (0, 2, 4), (0, 3, 0),
                                       (1, 2, 3), (1, 4, 2), (3, 4, 4),
                                       (4, 1, 1)])
    def test_curvature_triples(self, a, b, c):
        s, n2 = self.S, 2 * self.S.n + 1
        ea, eb, ec = unit(n2, a), unit(n2, b), unit(n2, c)
        expected = covariant_derivative(s, ea, covariant_derivative(s, eb, ec)) \
            - covariant_derivative(s, eb, covariant_derivative(s, ea, ec)) \
            - covariant_derivative(s, self.leibniz_bracket(a, b), ec)
        self.assert_zero(curvature_definition(s, a, b, c), expected)


@pytest.mark.parametrize("block", ["A", "R"])
def test_curvature_oracle_detects_mutation(monkeypatch, block):
    good = chern.curvature_components

    def flipped(system):
        comp = good(system)
        return dataclasses.replace(comp, **{block: -getattr(comp, block)})

    s = random_polynomial_sode(2, seed=510)
    pts = sample_points(s.vars, 8, seed=5)
    monkeypatch.setattr(chern, "curvature_components", flipped)
    with pytest.raises(OracleMismatch, match=r"curvature oracle \(\d,\d;\d\)"):
        curvature(s, check="numeric", points=pts)
    assert curvature_oracle_residual(s, pts) > 1e-3


def test_torsion_oracle_names_worst_pair(monkeypatch):
    good = chern.splitting_curvature

    def shifted(system, check):
        sc = good(system, check=check)
        P = sc.P.copy()
        P[1, 0] = P[1, 0] + const(1)
        return dataclasses.replace(sc, P=P)

    monkeypatch.setattr(chern, "splitting_curvature", shifted)
    s = random_polynomial_sode(2, seed=520)
    with pytest.raises(OracleMismatch, match=r"torsion oracle pair \(0,1\): residual"):
        torsion(s, check="numeric")


def test_torsion_apply_floats_match_exprs():
    s = random_polynomial_sode(2, seed=71)
    names, n2 = s.vars.names, 2 * s.n + 1
    tensor = torsion(s, check="none")
    point = sample_points(s.vars, 1, seed=7)[0]
    values = [point.env(s.vars)[name] for name in names]
    floats = TorsionTensor(eval_array(tensor.P, names, values),
                           eval_array(tensor.T, names, values))
    rng = np.random.default_rng(8)
    X, Y = rng.uniform(-1, 1, n2), rng.uniform(-1, 1, n2)
    exprs = tensor.apply([const(x) for x in X], [const(y) for y in Y])
    np.testing.assert_allclose(floats.apply(X, Y),
                               eval_array(exprs, names, values),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteResiduals:
    """sqrt(x1) is NaN at the negative positions of the default box."""

    S = make(1, "sqrt(x1)*v1^2")
    PTS = sample_points(S.vars, 10, 3)

    @pytest.mark.parametrize("check,label", [
        (torsion, r"torsion oracle pair \(\d,\d\)"),
        (curvature, r"curvature oracle \(\d,\d;\d\)"),
        (splitting_curvature, r"splitting oracle \[X, X_0\]")])
    def test_check_raises(self, check, label):
        with pytest.raises(OracleMismatch, match=label + r": \d+ non-finite values"):
            check(self.S, check="numeric", points=self.PTS)

    def test_residuals_are_nan(self):
        values = [torsion_oracle_residual(self.S, self.PTS),
                  curvature_oracle_residual(self.S, self.PTS),
                  *verify_characterization(self.S, self.PTS).values(),
                  *verify_structure_identities(self.S, self.PTS).values()]
        assert all(math.isnan(v) for v in values), values


def _expected_constant_frames(n):
    """e_0, diag(0, -I, I) and the swap of the two n-blocks."""
    n2 = 2 * n + 1
    flow = np.zeros(n2)
    flow[0] = 1
    lxj = np.diag([0.0] + [-1.0] * n + [1.0] * n)
    swap = np.zeros((n2, n2))
    swap[1:1 + n, 1 + n:] = swap[1 + n:, 1:1 + n] = np.eye(n)
    return flow, lxj, swap


@pytest.mark.parametrize("s", [
    random_polynomial_sode(1, seed=500), random_polynomial_sode(2, seed=501),
    make(2, "sin(x1)*v2^2 + exp(t)*v1", "cos(x2)*v1*v2 - x1*v2^3")],
    ids=["poly1", "poly2", "trig2"])
def test_characterization_frames_simplify_to_constants(s):
    """The symbolic certificate behind verify_characterization: theta.X,
    theta.L_X J.e and theta.E.e simplify to exact constants."""
    frame, coframe = frame_symbolic(s), coframe_symbolic(s)
    got = [chern._simplified(S) for S in (
        coframe @ frame[:, 0], coframe @ lie_derivative_J(s) @ frame,
        coframe @ endomorphism_E(s) @ frame)]
    for S, want in zip(got, _expected_constant_frames(s.n)):
        assert list(S.flat) == [const(c) for c in want.flat]


def test_non_constant_frame_entry_still_differentiated(monkeypatch):
    """Entries of theta.L_X J.e that do not simplify to constants keep their
    frame derivatives.  L_X J + x1*I commutes with every Gamma_a, so only the
    derivative e_a(x1) can show that it is not parallel."""
    good = chern.lie_derivative_J

    def perturbed(system):
        L = good(system)
        for k in range(len(L)):
            L[k, k] = add(L[k, k], var("x1"))
        return L

    monkeypatch.setattr(chern, "lie_derivative_J", perturbed)
    s = random_polynomial_sode(1, seed=3)
    res = verify_characterization(s, sample_points(s.vars, 10, seed=3))
    assert res["eigenstructure_parallel"] > 1e-3, res
    assert res["flow_parallel"] <= 1e-10 and res["swap_parallel"] <= 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eigenstructure_residual_nan_outside_domain():
    s = TestNonFiniteResiduals.S
    assert math.isnan(chern.eigenstructure_residual(s, TestNonFiniteResiduals.PTS))
    assert chern.eigenstructure_residual(s, sample_points(
        s.vars, 10, 3, {"position": (0.1, 1.0)})) < 1e-12
