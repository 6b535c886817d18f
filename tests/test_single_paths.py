"""One code path per concept: coordinate rows of points and 2-jets, the
Richardson central difference, the memo tables and expression evaluation,
each checked against test-local copies of the code it replaced."""

import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from chernsode import chern, expressions
from chernsode.expressions import (
    ZERO, Add, Const, DomainError, Mul, Pow, Var, VarSet,
    call, compile_expr, const, evaluate, fd_diff, mul, parse, richardson,
    simplify, var,
)
from chernsode.natjets import (
    _chain_rule_exprs, _fd_push_derivative, _prolong1_exprs,
    _push_value_exprs, jet2_of, jet_space, pushed_jet2, push_sode_value,
    random_automorphism,
)
from chernsode.sode import (
    JetPoint1, SodeSystem, eval_array, lie_derivative_J, point_batch,
    random_polynomial_sode, sample_points, splitting_curvature,
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


def test_sample_points_overflowing_width_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for role in ("time", "position", "velocity"):
            with pytest.raises(ValueError, match="must be finite"):
                sample_points(V2, 4, 1, {role: (-1e308, 1e308)})
        assert len(sample_points(V2, 4, 1, {"time": (-1e307, 1e307)})) == 4


# --------------------------------------------------------------------------
# expression evaluation: one program walker for evaluate and compile_expr
# --------------------------------------------------------------------------

_OLD_NP_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
                 "log": np.log, "sqrt": np.sqrt}


def _old_compile(e, names, chain=64):
    """The removed emitter: Python source, one temporary per distinct node,
    sums and products as running partial results of `chain` operands."""
    index = {name: i for i, name in enumerate(names)}
    lines, seen = [], {}

    def assign(text):
        ref = f"t{len(lines)}"
        lines.append(f"    {ref} = {text}")
        return ref

    def emit(node):
        ref = seen.get(node)
        if ref is not None:
            return ref
        if isinstance(node, Const):
            ref = repr(float(node.value))
        elif isinstance(node, Var):
            ref = f"V[{index[node.name]}]"
        elif isinstance(node, (Add, Mul)):
            if isinstance(node, Add):
                op, refs = " + ", [emit(t) for t in node.terms]
            else:
                op, refs = " * ", [emit(f) for f in node.factors]
            ref = assign(op.join(refs[:chain]))
            for k in range(chain, len(refs), chain - 1):
                ref = assign(op.join([ref] + refs[k:k + chain - 1]))
        elif isinstance(node, Pow):
            ref = assign(f"{emit(node.base)} ** ({node.exponent})")
        else:
            ref = assign(f"_{node.func}({emit(node.arg)})")
        seen[node] = ref
        return ref

    result = emit(e)
    source = "def _f(V):\n" + "\n".join(lines) + f"\n    return {result}\n"
    namespace = {f"_{k}": v for k, v in _OLD_NP_FUNCS.items()}
    exec(compile(source, "<old-expr>", "exec"), namespace)
    return namespace["_f"]


def _old_evaluate(e, env):
    """The removed recursive scalar evaluator."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        return float(env[e.name])
    if isinstance(e, Add):
        return math.fsum(_old_evaluate(t, env) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= _old_evaluate(f, env)
        return out
    if isinstance(e, Pow):
        b = _old_evaluate(e.base, env)
        if e.exponent < 0 and b == 0.0:
            raise DomainError("division by zero")
        return b ** e.exponent
    a = _old_evaluate(e.arg, env)
    if e.func == "log":
        if a <= 0.0:
            raise DomainError("log of a non-positive value")
        return math.log(a)
    if e.func == "sqrt":
        if a < 0.0:
            raise DomainError("sqrt of a negative value")
        return math.sqrt(a)
    return getattr(math, e.func)(a)


def _oracle_entries(s):
    """The non-ZERO entries of the splitting curvature, L_X J and every
    structure-equation torsion and curvature entry."""
    sc = splitting_curvature(s, check="none")
    gamma = chern.frame_christoffels(s)
    pairs = list(combinations(range(2 * s.n + 1), 2))
    arrays = [sc.P, sc.T, lie_derivative_J(s)]
    arrays += [chern.torsion_definition(s, a, b, gamma) for a, b in pairs]
    arrays += [chern.curvature_definition(s, a, b, c, gamma)
               for a, b in pairs for c in range(2 * s.n + 1)]
    return [e for M in arrays for e in np.ravel(M) if e is not ZERO]


SYSTEMS = {
    "poly2": lambda: random_polynomial_sode(2, seed=61),
    "trig2": lambda: SodeSystem(vars=V2, F=(
        parse("sin(x1)*v2^2 + exp(t)*v1", V2),
        parse("cos(x2)*v1*v2 - x1*v2^3", V2))),
}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_walker_bit_equal_to_old_evaluators(system):
    s = SYSTEMS[system]()
    entries = _oracle_entries(s)
    assert len(entries) > 50
    names = s.vars.names
    batch = point_batch(s.vars, sample_points(s.vars, 7, seed=17))
    for e in entries:
        got, want = compile_expr(e, names)(batch), _old_compile(e, names)(batch)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    rows = sample_points(s.vars, 2, seed=18)
    for p in rows:
        env = dict(zip(names, p.row))
        got = np.array([evaluate(e, env) for e in entries])
        want = np.array([_old_evaluate(e, env) for e in entries])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text, env", [
    ("x1 + 1/x1", {"x1": 0.0}),
    ("v1 + x1*log(x1 - v1)", {"x1": 1.5, "v1": 1.5}),
    ("sqrt(x1 - 1)", {"x1": 0.0}),
])
def test_walker_raises_the_old_domain_errors(text, env):
    e = parse(text, V2)
    full = {name: env.get(name, 0.5) for name in V2.names}
    with pytest.raises(DomainError) as old:
        _old_evaluate(e, full)
    with pytest.raises(DomainError) as new:
        evaluate(e, full)
    assert str(new.value) == str(old.value)


def test_constants_beyond_float_range_read_as_inf():
    big = Fraction(10) ** 400
    assert evaluate(const(big), {}) == math.inf
    assert evaluate(const(-big), {}) == -math.inf
    assert evaluate(const(1 / big), {}) == 0.0
    e = parse("10^400*v1^2 - 3", V2)
    env = dict.fromkeys(V2.names, 0.5)
    assert evaluate(mul(const(big), var("v1")), env) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compile_expr(e, V2.names)([np.array([0.5, 2.0])] * 5)
    assert got.tolist() == [math.inf, math.inf]


def test_walker_has_no_depth_limit():
    deep, x = var("x1"), 0.7
    for _ in range(1000):
        deep = call("sin", deep)
    want, batch = x, np.array([x, -x])
    wanted = batch
    for _ in range(1000):
        want, wanted = math.sin(want), np.sin(wanted)
    assert evaluate(deep, {"x1": x}) == want
    assert compile_expr(deep, ("x1",))([batch]).tobytes() == wanted.tobytes()
    # the old evaluators recursed once per level
    with pytest.raises(RecursionError):
        _old_evaluate(deep, {"x1": x})
    with pytest.raises(RecursionError):
        _old_compile(deep, ("x1",))
