import math

import numpy as np
import pytest

from chernsode.expressions import VarSet, add, const, mul, parse, simplify, var
from chernsode.natjets import (
    MissingInverse, UJet, VerticalAutomorphism, compose,
    curvature_kernel_dim, curvature_mapping, curvature_mapping_exprs,
    distribution_span, identity_automorphism, infinitesimal_equivariance,
    jet2_of, jet_space, jet_substitution, order0_distribution_rank, prolong1,
    prolong_vertical_field, push_sode_symbolic, push_sode_value,
    pushed_jet2, random_automorphism, random_polynomial_field,
    verify_functoriality,
)
from chernsode.sode import (
    JetPoint1, SodeSystem, random_polynomial_sode, sample_points,
    splitting_curvature, zero_symbolically, eval_array,
)


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


FLAT1 = make(1, "0")
HARMONIC = make(1, "-x1")
CUBIC = make(1, "v1^3")
V1 = VarSet.default(1)
V2 = VarSet.default(2)


def auto(vars, *phi, inverse=None):
    return VerticalAutomorphism(
        vars=vars, phi=tuple(parse(c, vars) for c in phi),
        inverse=None if inverse is None
        else tuple(parse(c, vars) for c in inverse))


class TestProlong1:
    def test_identity(self):
        p = JetPoint1(0.2, (0.5,), (1.5,))
        q = prolong1(identity_automorphism(V1), p)
        assert q == p

    def test_shift_by_time(self):
        a = auto(V1, "x1 + t", inverse=["x1 - t"])
        q = prolong1(a, JetPoint1(0.0, (1.0,), (2.0,)))
        assert q == JetPoint1(0.0, (1.0,), (3.0,))

    def test_scaling(self):
        a = auto(V1, "2*x1", inverse=["x1/2"])
        q = prolong1(a, JetPoint1(0.0, (1.0,), (2.0,)))
        assert q == JetPoint1(0.0, (2.0,), (4.0,))


class TestPushValue:
    def test_identity(self):
        s = HARMONIC
        p = JetPoint1(0.3, (0.7,), (0.1,))
        vals = push_sode_value(identity_automorphism(V1), s, p)
        assert vals[0] == pytest.approx(-0.7)

    def test_linear_scaling(self):
        a = auto(V1, "2*x1", inverse=["x1/2"])
        vals = push_sode_value(a, HARMONIC, JetPoint1(0.0, (1.0,), (0.0,)))
        assert vals[0] == pytest.approx(-2.0)

    def test_translation(self):
        a = auto(V1, "x1 + 1", inverse=["x1 - 1"])
        vals = push_sode_value(a, HARMONIC, JetPoint1(0.0, (0.0,), (0.0,)))
        assert vals[0] == pytest.approx(0.0)


class TestPushSymbolic:
    def test_identity(self):
        s = HARMONIC
        pushed = push_sode_symbolic(identity_automorphism(V1), s)
        assert zero_symbolically(pushed.F[0] - s.F[0])

    def test_scaling_preserves_harmonic(self):
        a = auto(V1, "2*x1", inverse=["x1/2"])
        pushed = push_sode_symbolic(a, HARMONIC)
        assert zero_symbolically(pushed.F[0] - HARMONIC.F[0])

    def test_time_square_shift(self):
        a = auto(V1, "x1 + t^2", inverse=["x1 - t^2"])
        pushed = push_sode_symbolic(a, FLAT1)
        assert simplify(pushed.F[0]) == const(2)

    def test_missing_inverse(self):
        a = auto(V1, "x1 + t^2")
        with pytest.raises(MissingInverse):
            push_sode_symbolic(a, FLAT1)

    def test_matches_pointwise_push(self):
        a = random_automorphism(V2, seed=5)
        s = random_polynomial_sode(2, seed=11)
        for p in sample_points(V2, 6, seed=1):
            q = prolong1(a, p)
            sym = push_sode_symbolic(a, s)
            got = [v for v in push_sode_value(a, s, p)]
            env = q.env(V2)
            from chernsode.expressions import evaluate
            want = [evaluate(f, env) for f in sym.F]
            assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-10


class TestPushedJet:
    def test_matches_symbolic_jet(self):
        a = random_automorphism(V2, seed=9)
        s = random_polynomial_sode(2, seed=13)
        sym = push_sode_symbolic(a, s)
        for p in sample_points(V2, 4, seed=2):
            jet = pushed_jet2(a, s, p)
            direct = jet2_of(sym, jet.point)
            assert np.max(np.abs(jet.F - direct.F)) < 1e-9
            assert np.max(np.abs(jet.D1 - direct.D1)) < 1e-8
            assert np.max(np.abs(jet.D2 - direct.D2)) < 1e-7


class TestJet2:
    def test_flat(self):
        j = jet2_of(FLAT1, JetPoint1(0.0, (0.3,), (0.4,)))
        assert np.all(j.F == 0) and np.all(j.D1 == 0) and np.all(j.D2 == 0)

    def test_cubic_values(self):
        j = jet2_of(CUBIC, JetPoint1(0.0, (0.0,), (2.0,)))
        assert j.F[0] == pytest.approx(8.0)
        assert j.F_v[0, 0] == pytest.approx(12.0)
        assert j.F_vv[0, 0, 0] == pytest.approx(12.0)

    def test_fd_crosscheck(self):
        from chernsode.expressions import fd_diff
        s = random_polynomial_sode(2, seed=31)
        for p in sample_points(s.vars, 5, seed=3):
            j = jet2_of(s, p)
            env = p.env(s.vars)
            for i in range(2):
                for c, name in enumerate(s.coords):
                    approx = fd_diff(s.F[i], name, env, 1e-4)
                    assert abs(approx - j.D1[i, c]) <= 1e-6 * (1 + abs(j.D1[i, c]))


class TestCurvatureMapping:
    def test_zero_jet(self):
        j = jet2_of(FLAT1, JetPoint1(0.1, (0.2,), (0.3,)))
        y = curvature_mapping(j, V1)
        assert np.all(y.y_P == 0) and np.all(y.y_T == 0)

    def test_harmonic_value(self):
        j = jet2_of(HARMONIC, JetPoint1(0.0, (1.0,), (0.0,)))
        y = curvature_mapping(j, V1)
        assert y.y_P[0, 0] == pytest.approx(-1.0)  # -P with P = 1

    def test_symbolic_composition_equals_minus_PT(self):
        for n, seed in ((1, 5), (2, 6)):
            s = random_polynomial_sode(n, seed=seed)
            sub = jet_substitution(s)
            y_P, y_T = curvature_mapping_exprs(s.vars)
            sc = splitting_curvature(s, check="none")
            from chernsode.expressions import substitute
            for i in range(n):
                for j in range(n):
                    comp = substitute(y_P[i, j], sub)
                    assert zero_symbolically(comp + sc.P[i, j])
                    for k in range(n):
                        comp = substitute(y_T[i, j, k], sub)
                        assert zero_symbolically(comp + sc.T[i, j, k])


class TestProlongedField:
    def test_constant_field(self):
        u = (const(2),)
        pf = prolong_vertical_field(u, V1)
        js = jet_space(V1)
        assert pf.components["x1"] == const(2)
        for name in js.all_coords:
            if name != "x1":
                assert zero_symbolically(pf.components.get(name, const(0)))

    def test_linear_field_n1(self):
        # u = x1: v-coefficient v1, value-coefficient a1, and the
        # vv-coefficient collapses to -a1_v1v1
        u = (var("x1"),)
        pf = prolong_vertical_field(u, V1)
        assert zero_symbolically(pf.components["v1"] - var("v1"))
        assert zero_symbolically(pf.components["a1"] - var("a1"))
        assert zero_symbolically(pf.components["a1_v1v1"] + var("a1_v1v1"))

    def test_velocity_dependence_rejected(self):
        with pytest.raises(ValueError):
            prolong_vertical_field((var("v1"),), V1)

    def test_velocity_direction_coefficient(self):
        # n=1, u = t*x1^2: hand expansion 2 u_tx + 2 u_xx v + u_x a_v - u_x a_v
        # collapses to 4*x1 + 4*t*v1
        u = (parse("t*x1^2", V1),)
        pf = prolong_vertical_field(u, V1)
        js = jet_space(V1)
        hand = add(mul(2, parse("2*x1", V1)),
                   mul(2, parse("2*t", V1), var("v1")))
        got = pf.components[js.first[(0, "v1")]]
        assert zero_symbolically(got - hand)

    def test_mixed_block_against_hand_formula(self):
        # the recursion's x-v mixed coefficient must match the expanded
        # closed form
        #   w_{a b.}^i = 2 u^i_{tab} + 2 u^i_{abk} v^k - u^r_{ta} A[i,vr,vb]
        #     - u^r_{ab} A[i,vr] + u^i_{ah} A[h,vb] - u^r_{ah} v^h A[i,vr,vb]
        #     + u^i_h A[h,a,vb] - u^r_a A[i,xr,vb] - u^r_b A[i,a,vr]
        u = (parse("t^2*x1*x2 + x2^3", V2), parse("t*x1^2 - x2*x1", V2))
        pf = prolong_vertical_field(u, V2)
        js = jet_space(V2)
        from chernsode.expressions import diff, evaluate
        rng = np.random.default_rng(8)
        names = js.all_coords
        xs, vs = ["x1", "x2"], ["v1", "v2"]

        def du(i, dirs):
            e = u[i]
            for d in dirs:
                e = diff(e, d)
            return e

        for _ in range(3):
            env = dict(zip(names, rng.uniform(-1, 1, len(names))))
            for i in range(2):
                for a in range(2):
                    for b in range(2):
                        got = evaluate(
                            pf.components[js.second_name(i, xs[a], vs[b])], env)
                        want = 2 * evaluate(du(i, ["t", xs[a], xs[b]]), env) \
                            + sum(2 * evaluate(du(i, [xs[a], xs[b], xs[k]]), env)
                                  * env[vs[k]] for k in range(2))
                        for r in range(2):
                            want -= evaluate(du(r, ["t", xs[a]]), env) \
                                * env[js.second_name(i, vs[r], vs[b])]
                            want -= evaluate(du(r, [xs[a], xs[b]]), env) \
                                * env[js.first[(i, vs[r])]]
                            want -= sum(
                                evaluate(du(r, [xs[a], xs[h]]), env)
                                * env[vs[h]]
                                * env[js.second_name(i, vs[r], vs[b])]
                                for h in range(2))
                            want -= evaluate(du(r, [xs[a]]), env) \
                                * env[js.second_name(i, xs[r], vs[b])]
                            want -= evaluate(du(r, [xs[b]]), env) \
                                * env[js.second_name(i, xs[a], vs[r])]
                        for h in range(2):
                            want += evaluate(du(i, [xs[a], xs[h]]), env) \
                                * env[js.first[(h, vs[b])]]
                            want += evaluate(du(i, [xs[h]]), env) \
                                * env[js.second_name(h, xs[a], vs[b])]
                        assert abs(got - want) < 1e-12


class TestEquivariance:
    def test_constant_u(self):
        s = random_polynomial_sode(2, seed=3)
        p = sample_points(s.vars, 1, seed=4)[0]
        res = infinitesimal_equivariance(s, (const(1), const(-2)), p)
        assert max(res) < 1e-12

    def test_flat_any_u(self):
        u = (parse("t*x1^2", V1),)
        p = JetPoint1(0.3, (0.4,), (0.5,))
        res = infinitesimal_equivariance(FLAT1, u, p)
        assert max(res) < 1e-12

    def test_linear_field_is_exact_conjugation(self):
        # u = c x for a constant matrix c: the law degenerates to matrix
        # commutators and must hold to round-off
        c = [[0.3, -0.7], [1.1, 0.4]]
        u = tuple(add(*[mul(c[i][j], var(V2.positions[j])) for j in range(2)])
                  for i in range(2))
        for k in range(3):
            s = random_polynomial_sode(2, seed=650 + k)
            p = sample_points(s.vars, 1, seed=k)[0]
            res = infinitesimal_equivariance(s, u, p)
            assert max(res) < 1e-12, (k, res)

    def test_random_battery(self):
        rng = np.random.default_rng(77)
        for k in range(6):
            s = random_polynomial_sode(2, seed=700 + k)
            u = random_polynomial_field(s.vars, seed=900 + k, degree=3)
            p = sample_points(s.vars, 1, seed=k)[0]
            res = infinitesimal_equivariance(s, u, p)
            assert max(res) <= 1e-8, (k, res)


class TestRanks:
    def test_rank_n1(self):
        s = random_polynomial_sode(1, seed=100)
        p = sample_points(s.vars, 1, seed=0)[0]
        rank, svals = distribution_span(1, s, p, seed=3)
        assert rank == 11
        assert svals[10] / svals[11] > 1e3

    def test_rank_n2(self):
        s = random_polynomial_sode(2, seed=101)
        p = sample_points(s.vars, 1, seed=0)[0]
        rank, svals = distribution_span(2, s, p, seed=3)
        assert rank == 44
        assert svals[43] / svals[44] > 1e3

    def test_order0_rank(self):
        s = random_polynomial_sode(2, seed=102)
        p = sample_points(s.vars, 1, seed=1)[0]
        assert order0_distribution_rank(2, s, p) == 6  # all of (x, v, value)

    def test_rank_n3(self):
        s = random_polynomial_sode(3, seed=903, density=0.08)
        p = sample_points(s.vars, 1, seed=23)[0]
        rank, svals = distribution_span(3, s, p, seed=33)
        assert rank == 105  # n(3n^2 + 11n + 10)/2 at n = 3
        assert svals[104] / svals[105] > 1e3

    def test_kernel_dims(self):
        for n, expected in ((1, 9), (2, 36), (3, 90)):
            s = random_polynomial_sode(n, seed=200 + n)
            p = sample_points(s.vars, 1, seed=2)[0]
            assert curvature_kernel_dim(s, p) == expected


class TestRandomFieldJets:
    """The drawn placeholder rows are the jets of the explicit centered
    polynomials sum c_{i,alpha} (y - p)^alpha, recomputed symbolically."""

    @pytest.mark.parametrize("n,degree", [(1, 4), (1, 2), (2, 4), (2, 2)])
    def test_draw_matches_symbolic_jet(self, n, degree):
        vars = VarSet.default(n)
        ujet = UJet(vars)
        p = sample_points(vars, 1, seed=40 + n)[0]
        env = p.env(vars)
        base = (vars.time,) + tuple(vars.positions)
        draws = ujet.random_values(3, seed=12 + degree, degree=degree)
        assert draws.shape == (3, len(ujet.names))
        for row in draws:
            u = [[] for _ in range(n)]
            for (i, combo), value in zip(ujet.index, row):
                if len(combo) > degree:
                    continue
                alpha_factorial = 1
                for d in base:
                    alpha_factorial *= math.factorial(combo.count(d))
                c = value / alpha_factorial
                assert c * 8 == round(c * 8) and abs(c) <= 1
                u[i].append(mul(c, *[add(var(d), -env[d]) for d in combo]))
            field = tuple(add(*terms) for terms in u)
            symbolic = np.array(ujet.values_for(field, env))
            scale = max(1.0, float(np.max(np.abs(row))))
            assert np.max(np.abs(symbolic - row)) <= 1e-12 * scale

    def test_seeded(self):
        ujet = UJet(V2)
        a = ujet.random_values(4, seed=5)
        assert np.array_equal(a, ujet.random_values(4, seed=5))
        assert not np.array_equal(a, ujet.random_values(4, seed=6))


class TestAutomorphisms:
    def test_random_is_invertible(self):
        for k in range(5):
            a = random_automorphism(V2, seed=40 + k)
            a.validate(sample_points(V2, 6, seed=k))

    def test_compose_matches_pointwise(self):
        a = random_automorphism(V2, seed=1)
        b = random_automorphism(V2, seed=2)
        c = compose(b, a)
        for p in sample_points(V2, 5, seed=3):
            q1 = prolong1(b, prolong1(a, p))
            q2 = prolong1(c, p)
            assert abs(q1.t - q2.t) < 1e-12
            assert np.max(np.abs(np.array(q1.x) - np.array(q2.x))) < 1e-10
            assert np.max(np.abs(np.array(q1.v) - np.array(q2.v))) < 1e-9

    def test_inverted(self):
        a = random_automorphism(V2, seed=17)
        ident = compose(a, a.inverted())
        for p in sample_points(V2, 4, seed=6):
            q = prolong1(ident, p)
            assert np.max(np.abs(np.array(q.x) - np.array(p.x))) < 1e-10
        with pytest.raises(MissingInverse):
            VerticalAutomorphism(vars=V2, phi=a.phi).inverted()

    def test_push_composes(self):
        a = random_automorphism(V2, seed=4)
        b = random_automorphism(V2, seed=5)
        s = random_polynomial_sode(2, seed=6)
        sa = push_sode_symbolic(a, s)
        sba = push_sode_symbolic(b, sa)
        sc = push_sode_symbolic(compose(b, a), s)
        for p in sample_points(V2, 5, seed=7):
            from chernsode.expressions import evaluate
            env = p.env(V2)
            va = [evaluate(f, env) for f in sba.F]
            vc = [evaluate(f, env) for f in sc.F]
            assert np.max(np.abs(np.array(va) - np.array(vc))) < 1e-9


class TestFunctoriality:
    def test_identity_zero(self):
        s = random_polynomial_sode(2, seed=8)
        res = verify_functoriality(identity_automorphism(V2), s,
                                   sample_points(V2, 4, seed=0))
        assert all(v < 1e-9 for v in res.values()), res

    def test_n1_scaling_kosambi(self):
        a = auto(V1, "2*x1", inverse=["x1/2"])
        res = verify_functoriality(a, HARMONIC, sample_points(V1, 5, seed=1))
        assert res["kosambi_match"] < 1e-9
        assert res["curvature_equivariance"] < 1e-9

    def test_random_battery(self):
        for k in range(3):
            a = random_automorphism(V2, seed=50 + k)
            s = random_polynomial_sode(2, seed=60 + k)
            res = verify_functoriality(a, s, sample_points(V2, 4, seed=k))
            assert all(v <= 1e-8 for v in res.values()), (k, res)

    def test_flow_consistency_first_order(self):
        # finite push along the flow of u agrees with the infinitesimal
        # action to first order in the flow parameter
        s = random_polynomial_sode(2, seed=90)
        u = random_polynomial_field(V2, seed=91, degree=2)
        p = sample_points(V2, 1, seed=9)[0]
        j2 = jet2_of(s, p)
        y0 = curvature_mapping(j2, V2)
        deltas = []
        for eps in (1e-2, 1e-3):
            phi = tuple(add(var(nm), mul(eps, ui))
                        for nm, ui in zip(V2.positions, u))
            a = VerticalAutomorphism(vars=V2, phi=phi)
            jet = pushed_jet2(a, s, p)
            y1 = curvature_mapping(jet, V2)
            # infinitesimal prediction for the transported value
            env = p.env(V2)
            from chernsode.expressions import evaluate
            from chernsode.natjets import _diff
            u_x = np.array([[evaluate(_diff(u[i], V2.positions[r]), env)
                             for r in range(2)] for i in range(2)])
            pred = y0.y_P + eps * (u_x @ y0.y_P - y0.y_P @ u_x)
            deltas.append(float(np.max(np.abs(y1.y_P - pred))))
        # quadratic convergence: residual drops ~100x when eps drops 10x
        assert deltas[1] < deltas[0] / 30.0
