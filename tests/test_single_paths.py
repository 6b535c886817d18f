"""One code path per concept: coordinate rows of points and 2-jets, the
Richardson central difference and the memo tables, each checked against
test-local copies of the code it replaced."""

import warnings

import numpy as np
import pytest

from chernsode import expressions
from chernsode.expressions import (
    VarSet, compile_expr, evaluate, fd_diff, parse, richardson, simplify,
)
from chernsode.natjets import (
    _chain_rule_exprs, _fd_push_derivative, _prolong1_exprs,
    _push_value_exprs, jet2_of, jet_space, pushed_jet2, push_sode_value,
    random_automorphism,
)
from chernsode.sode import (
    JetPoint1, eval_array, random_polynomial_sode, sample_points,
)


# --------------------------------------------------------------------------
# coordinate rows
# --------------------------------------------------------------------------

def _old_point_list(p, vars):
    """`[env[name] for name in vars.names]` with `env = p.env(vars)`."""
    env = p.env(vars)
    return [env[name] for name in vars.names]


def _old_jet_list(j2, vars):
    """The list the callers built from the removed `SodeJet2.env`."""
    js = jet_space(vars)
    out = j2.point.env(vars)
    for i in range(j2.n):
        out[js.values[i]] = float(j2.F[i])
        for c, d in enumerate(js.dirs):
            out[js.first[(i, d)]] = float(j2.D1[i, c])
        for c1, d1 in enumerate(js.dirs):
            for c2 in range(c1, len(js.dirs)):
                out[js.second[(i, d1, js.dirs[c2])]] = float(j2.D2[i, c1, c2])
    return [out[name] for name in js.all_coords]


def _assert_same_list(got, want):
    assert type(got) is list and len(got) == len(want)
    assert [type(v) for v in got] == [type(v) for v in want]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_point_rows_equal_env_lists(n):
    vars = VarSet.default(n)
    pts = sample_points(vars, 5, seed=40 + n)
    for p in pts:                                    # JetPoints items
        _assert_same_list(p.row, _old_point_list(p, vars))
    # a JetPoint1 built by hand, with an integer time and a negative zero
    p = JetPoint1(0, tuple(range(n)), (-0.0,) * n)
    _assert_same_list(p.row, _old_point_list(p, vars))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jet_rows_equal_env_lists(n):
    s = random_polynomial_sode(n, seed=60 + n)
    auto = random_automorphism(s.vars, seed=70 + n)
    for p in sample_points(s.vars, 5, seed=80 + n):
        for j2 in (jet2_of(s, p), pushed_jet2(auto, s, p)):
            assert len(j2.row) == len(jet_space(s.vars).all_coords)
            _assert_same_list(j2.row, _old_jet_list(j2, s.vars))


# --------------------------------------------------------------------------
# Richardson difference
# --------------------------------------------------------------------------

def _old_fd_diff(e, name, env, h=1e-4):
    def central(step):
        hi = dict(env)
        lo = dict(env)
        hi[name] = env[name] + step
        lo[name] = env[name] - step
        return (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * step)

    d_h = central(h)
    d_h2 = central(h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def _old_c11(shifted, h):
    d_h = (shifted(h) - shifted(-h)) / (2 * h)
    d_h2 = (shifted(h / 2) - shifted(-h / 2)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _old_fd_push_derivative(auto, s, p, jx_inv, h=1e-4):
    n = s.n

    def value(v):
        q = JetPoint1(p.t, p.x, tuple(v))
        return push_sode_value(auto, s, q)

    base_v = np.asarray(p.v)
    out = np.zeros((n, n))
    for i in range(n):
        step = jx_inv[:, i]

        def central(eps):
            return (value(base_v + eps * step) - value(base_v - eps * step)) \
                / (2.0 * eps)

        out[:, i] = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return out


V2 = VarSet.default(2)
EXPRS = ["sin(x1)*v2^3 + exp(t)*x2", "x1^2*v1 - 3/7*t*v2", "sqrt(x1 + 2)/v2",
         "log(x2 + 3)*cos(v1*x1)"]


@pytest.mark.parametrize("text", EXPRS)
@pytest.mark.parametrize("h", [1e-4, 1e-3, 0.3])
def test_fd_diff_bit_equal_to_old_formula(text, h):
    e = parse(text, V2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        env = dict(zip(V2.names, rng.uniform(0.2, 1.5, 5)))
        for name in V2.names:
            got, want = fd_diff(e, name, env, h), _old_fd_diff(e, name, env, h)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("text", EXPRS)
def test_richardson_bit_equal_to_c11_formula(text):
    e = parse(text, V2)
    names = sorted(V2.names)
    fn = compile_expr(e, names)
    rng = np.random.default_rng(11)
    base = [rng.uniform(0.35, 0.95, 20) for _ in names]
    for col in range(len(names)):
        def shifted(delta):
            cols = list(base)
            cols[col] = base[col] + delta
            return fn(cols)

        got, want = richardson(shifted, 1e-4), _old_c11(shifted, 1e-4)
        assert got.shape == want.shape == (20,)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_push_derivative_bit_equal_to_old_formula(n):
    s = random_polynomial_sode(n, seed=90 + n)
    auto = random_automorphism(s.vars, seed=95 + n)
    jac = auto.jacobian()
    for p in sample_points(s.vars, 3, seed=99):
        jx_inv = np.linalg.inv(eval_array(jac, s.vars.names, p.row))
        got = _fd_push_derivative(auto, s, p, jx_inv)
        want = _old_fd_push_derivative(auto, s, p, jx_inv)
        assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# memo tables
# --------------------------------------------------------------------------

def test_simplify_memo_is_bounded_like_compile():
    assert simplify.cache_info().maxsize == expressions._compile.cache_info().maxsize
    e = parse("(x1 + v2)^3 - x1^3 + 17/3*t", V2)
    first = simplify(e)
    before = simplify.cache_info()
    assert simplify(e) is first
    after = simplify.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("memo, args", [
    (_prolong1_exprs, lambda auto, s: (auto,)),
    (_push_value_exprs, lambda auto, s: (auto, s)),
    (_chain_rule_exprs, lambda auto, s: (auto, s)),
])
def test_natjets_memos_hit_on_plain_arguments(memo, args):
    s = random_polynomial_sode(2, seed=123)
    auto = random_automorphism(s.vars, seed=321)
    first = memo(*args(auto, s))
    before = memo.cache_info()
    assert memo(*args(auto, s)) is first
    after = memo.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# --------------------------------------------------------------------------
# sample_points with a box bound that is not finite
# --------------------------------------------------------------------------

@pytest.mark.parametrize("bound", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("role", ["time", "position", "velocity"])
def test_sample_points_non_finite_box_raises_without_warning(role, bound):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            sample_points(V2, 4, 1, {role: (bound, 1.0)})
        with pytest.raises(ValueError, match="must be finite"):
            sample_points(V2, 4, 1, {role: (-1.0, bound)})
        assert len(sample_points(V2, 4, 1, {role: (-2.0, 2.0)})) == 4
