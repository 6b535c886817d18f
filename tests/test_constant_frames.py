"""The characterization against the paper's constant frame components.

`verify_characterization` compares theta.X, theta.L_X J.e and theta.E.e
with the constants e_0, diag(0, -I, I) and the block swap, built directly
as the Const nodes that `simplify` folds them to (`chern.constant_frames`),
and differentiates only those constants; the constancy block S - const_S
flags any S that is not that constant.  Nothing is simplified."""

import numpy as np
import pytest

from chernsode import chern, expressions, sode
from chernsode.chern import (
    _frame_covariant, _simplified, connection, constant_frames,
    verify_characterization,
)
from chernsode.expressions import VarSet, add, mul, parse
from chernsode.sode import (
    SodeSystem, as_expr, coframe_symbolic, directional, endomorphism_E,
    expr_array, frame_symbolic, lie_derivative_J, random_polynomial_sode,
    sample_points,
)


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


def _trig2():
    return make(2, "sin(x1)*v2^2 + exp(t)*v1", "cos(x2)*v1*v2 - x1*v2^3")


# the three systems of test_characterization_frames_simplify_to_constants
SYSTEMS = [random_polynomial_sode(1, seed=500), random_polynomial_sode(2, seed=501),
           _trig2()]
IDS = ["poly1", "poly2", "trig2"]


def _frames(s):
    frame, coframe = frame_symbolic(s), coframe_symbolic(s)
    return (coframe @ frame[:, 0], coframe @ lie_derivative_J(s) @ frame,
            coframe @ endomorphism_E(s) @ frame)


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_constants_are_the_simplified_frames(s):
    for S, const_S in zip(_frames(s), constant_frames(s.n)):
        got = _simplified(S)
        assert got.shape == const_S.shape
        assert all(a is b for a, b in zip(got.flat, const_S.flat))


def _old_frame_covariant(s, gamma, S, slots, a):
    """The loop before Const entries skipped their directional term."""
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


@pytest.mark.parametrize("s", SYSTEMS, ids=IDS)
def test_const_entries_skip_only_a_zero_term(s):
    gamma = connection(s).gamma
    for S, const_S, slots in zip(_frames(s), constant_frames(s.n),
                                 ("u", "ul", "ul")):
        for a in range(2 * s.n + 1):
            for arr in (S, const_S):
                new = _frame_covariant(s, gamma, arr, slots, a)
                old = _old_frame_covariant(s, gamma, arr, slots, a)
                assert all(x is y for x, y in zip(new.flat, old.flat))


def test_no_simplify(monkeypatch):
    s = _trig2()
    pts = sample_points(s.vars, 6, seed=2)
    want = verify_characterization(_trig2(), pts)

    def refuse(e):
        raise AssertionError("simplify called")

    for module in (expressions, sode, chern):
        monkeypatch.setattr(module, "simplify", refuse)
    assert verify_characterization(s, pts) == want
    assert all(v <= 1e-10 for v in want.values()), want


@pytest.mark.parametrize("name,block,key,index", [
    # the -dF/dv block of L_X J, and the varpi rows of E
    ("lie_derivative_J", lambda n: (slice(1 + n, None), slice(1, 1 + n)),
     "eigenstructure_parallel", 1),
    ("endomorphism_E", lambda n: (slice(1, 1 + n), slice(None)),
     "swap_parallel", 2),
], ids=["lie_derivative_J", "endomorphism_E"])
def test_sign_flip_fails_through_the_constancy_term(monkeypatch, name, block,
                                                    key, index):
    good, reduce, seen = getattr(chern, name), chern.reduce_residual, []

    def flipped(system):
        M = good(system)
        rows_cols = block(system.n)
        M[rows_cols] = -M[rows_cols]
        return M

    def record(blocks, s_, batch):
        seen.append(reduce(blocks, s_, batch))
        return seen[-1]

    monkeypatch.setattr(chern, name, flipped)
    monkeypatch.setattr(chern, "reduce_residual", record)
    s = random_polynomial_sode(1, seed=3)
    res = verify_characterization(s, sample_points(s.vars, 10, seed=3))
    assert res[key] > 1e-3, res
    assert seen[index].label == "constancy"
    assert all(v <= 1e-10 for k, v in res.items() if k != key), res
