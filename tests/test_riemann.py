import numpy as np
import pytest

from chernsode.expressions import VarSet, call, const, mul, parse, simplify, var
from chernsode.riemann import (
    MetricField, SingularMetric, christoffel, cross_check,
    cross_check_symbolic, flat_metric, geodesic_spray,
    hyperbolic_metric_signature, metric_compatibility, riemann_tensor,
    sphere_metric,
)
from chernsode.classify import holonomy_span
from chernsode.sode import (
    sample_points, splitting_curvature, zero_symbolically,
)
from chernsode.chern import curvature_components

V1 = VarSet.default(1)
V2 = VarSet.default(2)

SPHERE = sphere_metric(V2)
RANDOMISH = MetricField(vars=V2, g=[
    [parse("1 + 0.25*x1^2 + 0.125*x1*x2", V2), parse("0.25*x1*x2 - 0.125*x2^2", V2)],
    [parse("0.25*x1*x2 - 0.125*x2^2", V2), parse("1 + 0.25*x2^2", V2)]],
    box={"position": (-0.6, 0.6)})


class TestChristoffel:
    def test_flat(self):
        gamma = christoffel(flat_metric(V2))
        assert all(zero_symbolically(gamma[idx]) for idx in np.ndindex(2, 2, 2))

    def test_sphere_classical_values(self):
        gamma = christoffel(SPHERE)
        x1 = var("x1")
        want_122 = mul(-1, call("sin", x1), call("cos", x1))
        assert zero_symbolically(gamma[0, 1, 1] - want_122)
        # Gamma^2_{12} = cot(x1): compare after multiplying by sin(x1)
        lhs = mul(gamma[1, 0, 1], call("sin", x1))
        assert zero_symbolically(simplify(lhs - call("cos", x1)))

    def test_conformal(self):
        # g = exp(2*x1) I in two dimensions: Gamma^1_{11} = 1, Gamma^1_{22} = -1,
        # Gamma^2_{12} = 1, all from the standard conformal formula
        e2 = parse("exp(x1)^2", V2)
        g = [[e2, const(0)], [const(0), e2]]
        gamma = christoffel(MetricField(vars=V2, g=g))
        assert zero_symbolically(gamma[0, 0, 0] - const(1))
        assert zero_symbolically(gamma[0, 1, 1] + const(1))
        assert zero_symbolically(gamma[1, 0, 1] - const(1))

    def test_singular(self):
        g = [[var("x1"), var("x1")], [var("x1"), var("x1")]]
        with pytest.raises(SingularMetric):
            christoffel(MetricField(vars=V2, g=g))


class TestSpray:
    def test_flat(self):
        s = geodesic_spray(flat_metric(V2))
        assert all(zero_symbolically(f) for f in s.F)

    def test_sphere_components(self):
        s = geodesic_spray(SPHERE)
        want1 = parse("sin(x1)*cos(x1)*v2^2", V2)
        assert zero_symbolically(simplify(s.F[0] - want1))
        # F^2 = -2 cot(x1) v1 v2; clear the quotient by multiplying by sin
        lhs = mul(s.F[1], call("sin", var("x1")))
        want2 = parse("-2*cos(x1)*v1*v2", V2)
        assert zero_symbolically(simplify(lhs - want2))

    def test_spray_R_vanishes(self):
        s = geodesic_spray(RANDOMISH)
        comp = curvature_components(s)
        assert all(zero_symbolically(comp.R[idx])
                   for idx in np.ndindex(comp.R.shape))

    def test_homogeneity_degrees(self):
        # Euler operator v d/dv: T and A degree 1, B degree 0, P degree 2
        from chernsode.expressions import add, diff
        from chernsode.sode import max_abs, expr_array
        s = geodesic_spray(RANDOMISH)
        sc = splitting_curvature(s, check="none")
        comp = curvature_components(s)
        pts = sample_points(s.vars, 10, seed=3, box=RANDOMISH.sample_box())

        def euler_residual(arr, degree):
            arr = np.asarray(arr, dtype=object)
            out = expr_array(arr.shape)
            for idx in np.ndindex(arr.shape):
                e = arr[idx]
                euler = add(*[mul(var(v), diff(e, v)) for v in s.vars.velocities])
                out[idx] = add(euler, mul(-degree, e))
            return max_abs(out, s, pts)

        assert euler_residual(sc.T, 1) < 1e-12
        assert euler_residual(comp.A, 1) < 1e-12
        assert euler_residual(comp.B, 0) < 1e-12
        assert euler_residual(sc.P, 2) < 1e-12


class TestRiemannTensor:
    def test_flat_zero(self):
        R = riemann_tensor(flat_metric(V2))
        assert all(zero_symbolically(R[idx]) for idx in np.ndindex(R.shape))

    def test_sphere_sectional(self):
        R = riemann_tensor(SPHERE)
        want = parse("sin(x1)^2", V2)
        assert zero_symbolically(simplify(R[0, 1, 0, 1] - want))

    def test_scaling_invariance(self):
        # R^h_{kij} of c*g equals that of g for constant c
        c = const(3)
        scaled = MetricField(vars=V2, g=[[mul(c, e) for e in row]
                                         for row in RANDOMISH.g],
                             box=RANDOMISH.sample_box())
        R1 = riemann_tensor(RANDOMISH)
        R2 = riemann_tensor(scaled)
        assert all(zero_symbolically(R1[idx] - R2[idx])
                   for idx in np.ndindex(R1.shape))


class TestCrossCheck:
    def test_flat(self):
        res = cross_check(flat_metric(V2), count=10)
        assert all(v == 0.0 for v in res.values())

    def test_sphere(self):
        res = cross_check(SPHERE, count=50)
        assert all(v <= 1e-9 for v in res.values()), res

    def test_randomish(self):
        res = cross_check(RANDOMISH, count=30)
        assert all(v <= 1e-9 for v in res.values()), res

    def test_symbolic_B_identity(self):
        assert cross_check_symbolic(RANDOMISH)
        assert cross_check_symbolic(SPHERE)


class TestMetricCompatibility:
    def test_sphere_transport(self):
        res = metric_compatibility(SPHERE, count=25)
        assert res["eq_PDE"] <= 1e-12
        assert res["eq_ecuacion2"] <= 1e-10
        assert res["parallel_block_metric"] <= 1e-8
        assert res["eq_UABR_R"] <= 1e-9
        assert res["eq_UABR_B"] <= 1e-9
        assert res["eq_UABR_A"] <= 1e-9

    def test_sphere_holonomy_bound(self):
        # a parallel metric caps the span at n(n-1)/2
        s = geodesic_spray(SPHERE)
        pts = sample_points(s.vars, 10, seed=5, box=SPHERE.sample_box())
        assert max(holonomy_span(s, p) for p in pts) <= 1

    def test_signature(self):
        assert hyperbolic_metric_signature(SPHERE) == (3, 2)
        assert hyperbolic_metric_signature(RANDOMISH) == (3, 2)

    def test_flat_n1_signature(self):
        assert hyperbolic_metric_signature(flat_metric(V1)) == (2, 1)


# --------------------------------------------------------------------------
# every dimension: the metric inverse expands any n
# --------------------------------------------------------------------------

V4 = VarSet.default(4)
DIAG4 = [["1 + x1^2", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1 + x2^2", "0"], ["0", "0", "0", "1"]]


def test_cross_check_at_dimension_four():
    metric = MetricField(vars=V4, g=[[parse(e, V4) for e in row]
                                     for row in DIAG4])
    res = cross_check(metric, count=8)
    assert sorted(res) == ["eq_cross_A", "eq_cross_B", "eq_cross_P",
                           "eq_cross_T"]
    assert all(np.isfinite(v) and v < 1e-12 for v in res.values())


def test_cli_riemann_at_dimension_four(tmp_path, capsys):
    import json

    from chernsode.cli import main

    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "dimension": 4, "F": ["0"] * 4, "metric": DIAG4,
        "samples": {"mode": "random", "count": 5, "seed": 3}}))
    assert main(["riemann", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    checks = [*report["cross_formulas"].values(),
              *report["metric_compatibility"].values()]
    assert checks and all(c["pass"] is True for c in checks)
    assert report["companion_signature"] == [5, 4]
    assert report["pass"] is True
