import math

import numpy as np
import pytest

from chernsode import chern, classify
from chernsode.expressions import VarSet, add, const, parse, simplify
from chernsode.classify import (
    NotPositiveDefinite, SymbolicModeUnsupported, classification_report,
    first_prolongation_dim, holonomy_span, kosambi_invariants,
    orthogonal_residual, parallel_metric_residual,
    special_coordinate_conditions, unimodular_test,
)
from chernsode.sode import (
    JetPoint1, SodeSystem, expr_array, random_polynomial_sode, sample_points,
    zero_symbolically,
)


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


FLAT1 = make(1, "0")
OSC = make(1, "-x1 - 1.0*v1")
CUBIC = make(1, "v1^3")
AFFINE2 = make(2, "x1*x2 + t*v1 - x2*v2", "sin(0)*v1 + x1 - 2*v2")


def identity_u(n):
    U = expr_array((n, n))
    for i in range(n):
        U[i, i] = const(1)
    return U


class TestSpecialCoordinates:
    def test_flat_all_hold(self):
        flags = special_coordinate_conditions(FLAT1, mode="symbolic")
        assert all(r.status == "symbolic-zero" for r in flags.values())

    def test_affine_condition_a(self):
        flags = special_coordinate_conditions(AFFINE2, mode="symbolic")
        assert flags["linearizable_necessary"].status == "symbolic-zero"

    def test_cubic_violated_with_witness(self):
        flags = special_coordinate_conditions(CUBIC, mode="symbolic")
        for result in flags.values():
            assert result.status == "violated"
            assert result.witness is not None
        w = flags["linearizable_necessary"].witness
        assert w["component"].startswith("R") or w["component"].startswith("B")
        r = flags["affine_necessary"].witness
        # R component equals 3 everywhere for F = v^3
        assert any(res.witness["value"] == pytest.approx(3.0)
                   for res in flags.values()
                   if res.witness["component"].startswith("R"))

    def test_numeric_mode(self):
        s = make(1, "sin(x1)")
        flags = special_coordinate_conditions(
            s, mode="numeric", points=sample_points(s.vars, 20, seed=3))
        assert flags["linearizable_necessary"].status == "numeric-zero"
        assert flags["trivializable_necessary"].status == "violated"

    def test_symbolic_mode_rejects_trig(self):
        with pytest.raises(SymbolicModeUnsupported):
            special_coordinate_conditions(make(1, "sin(x1)"), mode="symbolic")


class TestHolonomySpan:
    def test_flat_zero(self):
        assert holonomy_span(FLAT1, JetPoint1(0.0, (0.0,), (0.0,))) == 0

    def test_generic_cubic_full(self):
        s = random_polynomial_sode(2, seed=1234)
        pts = sample_points(s.vars, 5, seed=9)
        assert max(holonomy_span(s, p) for p in pts) == 4

    def test_n1_cubic(self):
        p = JetPoint1(0.1, (0.2,), (0.5,))
        assert holonomy_span(CUBIC, p) == 1


class TestUnimodular:
    def test_flat(self):
        res, decomp = unimodular_test(FLAT1)
        assert res.status == "symbolic-zero"
        F0, Fi = decomp
        assert zero_symbolically(F0) and zero_symbolically(Fi[0])

    def test_damped_oscillator(self):
        res, decomp = unimodular_test(OSC)
        assert res.holds
        F0, Fi = decomp
        assert simplify(F0) == const(-1)  # -2*zeta with zeta = 1/2
        assert zero_symbolically(Fi[0])

    def test_cubic_rejected(self):
        res, decomp = unimodular_test(CUBIC)
        assert res.status == "violated" and decomp is None

    def test_closedness_failure(self):
        # divergence x2*v1 is affine in v but dF_1/dx^2 != dF_2/dx^1
        s = make(2, "x2*v1^2/2", "0")
        res, decomp = unimodular_test(s)
        assert res.status == "violated"
        assert "dF_" in res.witness["component"]

    def test_forward_traces_vanish(self):
        # acceptance-style forward direction: traceless curvature matrices
        from chernsode.classify import curvature_span_matrices
        from chernsode.sode import max_abs
        from chernsode.expressions import add
        # divergence = 1 + x2*v1 + x1*v2: affine, symmetric and t-free
        s = make(2, "v1 + x2*v1^2/2", "x1*v2^2/2")
        res, _ = unimodular_test(s)
        assert res.holds
        pts = sample_points(s.vars, 10, seed=4)
        for label, M in curvature_span_matrices(s):
            tr = add(*[M[i, i] for i in range(2)])
            assert max_abs(np.asarray([tr], dtype=object), s, pts) < 1e-10, label


class TestOrthogonal:
    def test_flat_identity(self):
        pts = sample_points(FLAT1.vars, 6, seed=0)
        res = orthogonal_residual(FLAT1, identity_u(1), pts)
        assert all(v == 0.0 for v in res.values())

    def test_oscillator_pde_residual(self):
        pts = sample_points(OSC.vars, 6, seed=1)
        res = orthogonal_residual(OSC, identity_u(1), pts)
        assert res["eq_PDE"] == pytest.approx(1.0)  # 2*zeta, zeta = 1/2

    def test_not_positive_definite(self):
        U = expr_array((1, 1))
        U[0, 0] = const(-1)
        with pytest.raises(NotPositiveDefinite):
            orthogonal_residual(FLAT1, U, sample_points(FLAT1.vars, 3, seed=2))

    def test_velocity_dependence_rejected(self):
        U = expr_array((1, 1))
        U[0, 0] = parse("1 + v1^2", FLAT1.vars)
        with pytest.raises(ValueError):
            orthogonal_residual(FLAT1, U, sample_points(FLAT1.vars, 3, seed=2))

    def test_parallel_metric_flat(self):
        pts = sample_points(FLAT1.vars, 5, seed=3)
        assert parallel_metric_residual(FLAT1, identity_u(1), pts) == 0.0

    def test_shifted_christoffel_breaks_parallel_metric(self, monkeypatch):
        good = chern.frame_christoffels

        def shifted(system, w_shift=0):
            gamma = good(system, w_shift=w_shift)
            gamma[0, 1, 2] = add(gamma[0, 1, 2], 0.1)
            return gamma

        monkeypatch.setattr(classify, "frame_christoffels", shifted)
        pts = sample_points(FLAT1.vars, 5, seed=3)
        assert parallel_metric_residual(FLAT1, identity_u(1), pts) > 1e-3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteResiduals:
    """sqrt(x1) and log(x1) are NaN at the negative positions of the default
    box; a residual or a flag must then fail, never read zero."""

    def test_sqrt_n1(self):
        s = make(1, "sqrt(x1)*v1^2")
        pts = sample_points(s.vars, 10, 3)
        assert math.isnan(parallel_metric_residual(s, identity_u(1), pts))
        res = orthogonal_residual(s, identity_u(1), pts, check_spd=False)
        for key in ("eq_PDE", "eq_ecuacion2", "eq_UABR_A"):
            assert math.isnan(res[key]), res
        # no B block at n = 1, and R = F_vvv/2 = 0 holds no non-finite value
        assert res["eq_UABR_B"] == 0.0 and res["eq_UABR_R"] == 0.0

    def test_every_residual_n2(self):
        s = make(2, "sqrt(x1)*v1^3", "sqrt(x1)*v1^2*v2")
        pts = sample_points(s.vars, 10, 3)
        assert math.isnan(parallel_metric_residual(s, identity_u(2), pts))
        res = orthogonal_residual(s, identity_u(2), pts, check_spd=False)
        assert all(math.isnan(v) for v in res.values()), res

    def test_no_false_certificate(self):
        flags = special_coordinate_conditions(make(1, "log(x1)*v1^3"),
                                              mode="numeric")
        for flag, result in flags.items():
            assert result.status == "violated", flag
            w = result.witness
            assert w["value"] is None and w["point"].x[0] < 0
        assert flags["linearizable_necessary"].witness["component"] == "R[0][0][0][0]"


class TestKosambi:
    def test_flat(self):
        data = kosambi_invariants(FLAT1)
        assert data.charpoly == (const(1), const(0))

    def test_oscillator(self):
        data = kosambi_invariants(OSC)
        assert simplify(data.Ktilde[0, 0]) == const(-0.75)
        assert data.charpoly == (const(1), const(0.75))

    def test_diagonal_n2(self):
        # F chosen so P = diag(p1, p2) with p = (-dF/dx)
        s = make(2, "-2*x1", "-3*x2")
        data = kosambi_invariants(s)
        # K = -P = diag(-2, -3); det(lI - K) = l^2 + 5l + 6
        assert [simplify(c) for c in data.charpoly] == [
            const(1), const(5), const(6)]


class TestFirstProlongation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vanishes(self, n):
        assert first_prolongation_dim(n) == 0

    def test_cap(self):
        with pytest.raises(ValueError):
            first_prolongation_dim(5)


def test_classification_report_assembly():
    pts = sample_points(OSC.vars, 8, seed=5)
    rep = classification_report(OSC, pts, U=identity_u(1))
    assert rep.flags["linearizable_necessary"].status == "symbolic-zero"
    # the connection of a velocity-affine system is flat: nothing to span
    assert rep.holonomy_span_dim == 0
    assert rep.unimodular.holds
    assert rep.orthogonal_residuals["eq_PDE"] == pytest.approx(1.0)
