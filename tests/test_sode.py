import numpy as np
import pytest

from chernsode.expressions import VarSet, const, parse, simplify, to_string
from chernsode.sode import (
    JetPoint1, OracleMismatch, SodeSystem, adapted_frame, dynamical_flow,
    endomorphism_E, eval_array, frame_symbolic, lie_derivative_J,
    max_abs, point_batch, random_polynomial_sode, sample_points, split,
    splitting_curvature, zero_symbolically,
)


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


FLAT1 = make(1, "0")
OSC = make(1, "-x1 - 1.0*v1")  # zeta = 0.5 damped oscillator
SHEAR = make(2, "x1*v2", "0")


def at(s, M, p):
    env = p.env(s.vars)
    return eval_array(M, s.vars.names, [env[name] for name in s.vars.names])


class TestDynamicalFlow:
    def test_flat(self):
        flow = dynamical_flow(FLAT1)
        assert [to_string(c) for c in flow] == ["1", "v1", "0"]

    def test_oscillator(self):
        flow = dynamical_flow(make(1, "-x1"))
        assert to_string(flow[2]) == "-x1"

    def test_n2(self):
        flow = dynamical_flow(SHEAR)
        assert [to_string(c) for c in flow] == ["1", "v1", "v2", "x1*v2", "0"]


class TestAdaptedFrame:
    def test_flat_identity_blocks(self):
        p = JetPoint1(0.3, (0.5,), (0.7,))
        fr = adapted_frame(FLAT1, p)
        # X = d/dt + v d/dx, X_1 = d/dx, third column d/dv
        assert np.allclose(fr.frame[:, 0], [1.0, 0.7, 0.0])
        assert np.allclose(fr.frame[:, 1], [0.0, 1.0, 0.0])
        assert np.allclose(fr.frame[:, 2], [0.0, 0.0, 1.0])
        # omega = dx - v dt, varpi = dv
        assert np.allclose(fr.coframe[1], [-0.7, 1.0, 0.0])
        assert np.allclose(fr.coframe[2], [0.0, 0.0, 1.0])

    def test_damped_oscillator_frame(self):
        # X_1 = d/dx + (1/2)(dF/dv) d/dv = d/dx - 0.5 d/dv
        p = JetPoint1(0.0, (1.0,), (2.0,))
        fr = adapted_frame(OSC, p)
        assert np.allclose(fr.frame[:, 1], [0.0, 1.0, -0.5])

    def test_coframe_inverts_frame(self):
        rng = np.random.default_rng(11)
        for k in range(10):
            s = random_polynomial_sode(2, seed=100 + k)
            for p in sample_points(s.vars, 10, seed=k):
                fr = adapted_frame(s, p)
                eye = fr.coframe @ fr.frame
                assert np.max(np.abs(eye - np.eye(5))) < 1e-12
                assert fr.frame[0, 0] == 1.0


class TestLieDerivativeJ:
    def test_eigenvectors_symbolic(self):
        for s in (FLAT1, OSC, SHEAR):
            n = s.n
            L = lie_derivative_J(s)
            frame = frame_symbolic(s)
            LX = L @ frame[:, 0]
            assert all(zero_symbolically(c) for c in LX)
            for i in range(n):
                minus = L @ frame[:, 1 + i] + frame[:, 1 + i]
                assert all(zero_symbolically(c) for c in minus)
                plus = L @ frame[:, 1 + n + i] - frame[:, 1 + n + i]
                assert all(zero_symbolically(c) for c in plus)

    def test_eigenvalues_numeric(self):
        for k in range(5):
            s = random_polynomial_sode(2, seed=7 + k)
            for p in sample_points(s.vars, 10, seed=k):
                L = at(s, lie_derivative_J(s), p)
                eig = np.sort(np.linalg.eigvals(L).real)
                expected = np.sort([0.0] + [1.0] * s.n + [-1.0] * s.n)
                assert np.max(np.abs(np.sort(eig) - expected)) < 1e-8


class TestSplit:
    def test_flat_dt(self):
        p = JetPoint1(0.0, (0.2,), (0.4,))
        h, v = split(FLAT1, [1.0, 0.0, 0.0], p)
        assert np.allclose(v, 0.0)
        assert np.allclose(h, [1.0, 0.0, 0.0])

    def test_harmonic_dt(self):
        # F = -x1, p = (0, 1, 0): (d/dt)^v = (v F_v/2 - F) d/dv = +d/dv
        s = make(1, "-x1")
        p = JetPoint1(0.0, (1.0,), (0.0,))
        h, v = split(s, [1.0, 0.0, 0.0], p)
        assert np.allclose(v, [0.0, 0.0, 1.0])
        assert np.allclose(h, [1.0, 0.0, -1.0])

    def test_vertical_fixed(self):
        p = JetPoint1(0.1, (0.2, 0.3), (0.4, 0.5))
        h, v = split(SHEAR, [0.0, 0.0, 0.0, 1.0, 0.0], p)
        assert np.allclose(h, 0.0)
        assert np.allclose(v, [0.0, 0.0, 0.0, 1.0, 0.0])

    def test_idempotent(self):
        s = random_polynomial_sode(2, seed=3)
        p = sample_points(s.vars, 1, seed=5)[0]
        X = np.array([0.3, -1.2, 0.7, 0.1, 2.0])
        h, _ = split(s, X, p)
        h2, v2 = split(s, h, p)
        assert np.max(np.abs(v2)) < 1e-12
        assert np.max(np.abs(h2 - h)) < 1e-12


class TestSplittingCurvature:
    def test_flat(self):
        sc = splitting_curvature(FLAT1, check="symbolic")
        assert zero_symbolically(sc.P[0, 0])

    def test_oscillator_value(self):
        # P = -dF/dx - (1/4)(dF/dv)^2 = 1 - zeta^2 with zeta = 1/2
        sc = splitting_curvature(OSC, check="symbolic")
        assert simplify(sc.P[0, 0]) == const(0.75)

    def test_shear_torsion(self):
        sc = splitting_curvature(SHEAR, check="symbolic")
        assert simplify(sc.T[0, 0, 1]) == const(0.5)
        assert simplify(sc.T[0, 1, 0]) == const(-0.5)

    def test_antisymmetry_random(self):
        s = random_polynomial_sode(2, seed=21)
        sc = splitting_curvature(s, check="none")
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    assert zero_symbolically(sc.T[k, i, j] + sc.T[k, j, i])

    def test_bracket_oracle_symbolic_random(self):
        s = random_polynomial_sode(2, seed=42)
        splitting_curvature(s, check="symbolic")

    def test_bracket_oracle_numeric_random(self):
        for k in range(5):
            s = random_polynomial_sode(2, seed=60 + k)
            splitting_curvature(s, check="numeric")

    def test_oracle_detects_mutation(self):
        # a wrong P must trip the bracket comparison
        s = OSC
        sc = splitting_curvature(s, check="none")
        from chernsode import sode as sode_mod
        good = sode_mod.splitting_P

        def bad(system):
            P = good(system)
            P[0, 0] = P[0, 0] + const(1)
            return P

        sode_mod.splitting_P = bad
        try:
            with pytest.raises(OracleMismatch):
                splitting_curvature(s, check="symbolic")
        finally:
            sode_mod.splitting_P = good
        assert simplify(sc.P[0, 0]) == const(0.75)


class TestEndomorphism:
    def test_flat_swap(self):
        p = JetPoint1(0.0, (0.1,), (0.2,))
        E = at(FLAT1, endomorphism_E(FLAT1), p)
        # E(d/dx) = d/dv when F = 0 at v-part... omega pairing gives d/dv
        v = E @ np.array([0.0, 1.0, 0.0])
        assert np.allclose(v, [0.0, 0.0, 1.0])

    def test_kills_flow_and_swaps(self):
        for k in range(5):
            s = random_polynomial_sode(2, seed=80 + k)
            E = endomorphism_E(s)
            frame = frame_symbolic(s)
            pts = sample_points(s.vars, 10, seed=k)
            assert max_abs(E @ frame[:, 0], s, pts) < 1e-12
            for i in range(s.n):
                # E(d/dv^i) = X_i and E(X_i) = d/dv^i
                got = E @ frame[:, 1 + s.n + i] - frame[:, 1 + i]
                assert max_abs(got, s, pts) < 1e-12
                got = E @ frame[:, 1 + i] - frame[:, 1 + s.n + i]
                assert max_abs(got, s, pts) < 1e-12


def test_system_validation():
    vars = VarSet.default(1)
    with pytest.raises(ValueError):
        SodeSystem(vars=vars, F=(parse("x1", vars), parse("0", vars)))
    other = VarSet.default(2)
    with pytest.raises(ValueError):
        SodeSystem(vars=vars, F=(parse("x2", other),))


def test_point_batch_shapes():
    pts = sample_points(VarSet.default(2), 7, seed=1)
    batch = point_batch(VarSet.default(2), pts)
    assert len(batch) == 5 and all(arr.shape == (7,) for arr in batch)


def _per_point_sample(vars, count, seed, box):
    """The per-point draw that sample_points replaced: t, then x, then v."""
    rng = np.random.default_rng(seed)
    return [JetPoint1(rng.uniform(*box["time"]),
                      tuple(rng.uniform(*box["position"], size=vars.n)),
                      tuple(rng.uniform(*box["velocity"], size=vars.n)))
            for _ in range(count)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("box", [
    None, {"time": (2.0, 5.5), "position": (0.1, 3.0), "velocity": (-7, -2)}])
def test_sample_points_match_per_point_draw(n, box):
    vars = VarSet.default(n)
    full = {"time": (0.0, 1.0), "position": (-1.0, 1.0),
            "velocity": (-1.0, 1.0), **(box or {})}
    got = sample_points(vars, 500, 11, box)
    assert got == _per_point_sample(vars, 500, 11, full)
    assert all(type(c) is float for p in got for c in (p.t,) + p.x + p.v)


@pytest.mark.parametrize("n", [1, 3])
def test_point_batch_matches_env_columns(n):
    vars = VarSet.default(n)
    for pts in (sample_points(vars, 200, 5), []):
        envs = [p.env(vars) for p in pts]
        want = [np.array([e[name] for e in envs]) for name in vars.names]
        got = point_batch(vars, pts)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.flags.c_contiguous and np.array_equal(g, w)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("slot", ["t", "x", "v"])
def test_jet_point_rejects_non_finite(slot, bad):
    parts = {"t": 0.5, "x": (0.1, 0.2), "v": (0.3, 0.4)}
    parts[slot] = bad if slot == "t" else (0.1, bad)
    with pytest.raises(ValueError):
        JetPoint1(**parts)
