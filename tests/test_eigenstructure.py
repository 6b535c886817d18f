"""The eigenstructure oracle reads the spectrum of L_X J from its diagonal.

`sode.lie_derivative_J` builds L_X J lower triangular, with `ZERO` above the
diagonal, so `chern.eigenstructure_residual` takes each point's eigenvalues
as the sorted evaluated diagonal and calls no `np.linalg.eigvals`.  The
residuals are checked against the values the construction gives them
exactly; one case also checks the bits against `eigvals` on the same
evaluated matrices, the reading the reports were made with before.  A build
with a nonzero entry above the diagonal is wrong, and fails the oracle."""

import math

import numpy as np
import pytest

from chernsode import chern
from chernsode.chern import connection, eigenstructure_residual
from chernsode.expressions import VarSet, add, const, mul, parse, var
from chernsode.selftest import battery_systems
from chernsode.sode import (
    SodeSystem, eval_array, point_batch, random_polynomial_sode,
    sample_points, worst_abs,
)

EIGVALS = np.linalg.eigvals


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


def _bits(x):
    return np.float64(x).tobytes()


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Count the calls of np.linalg.eigvals (the reference uses EIGVALS)."""
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return EIGVALS(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def _patch_lie_derivative_J(monkeypatch, change):
    """Make chern build L_X J through `change(L, n)` applied to the real one;
    systems made afterwards build their connection field with it."""
    good = chern.lie_derivative_J

    def patched(system):
        L = good(system)
        change(L, system.n)
        return L

    monkeypatch.setattr(chern, "lie_derivative_J", patched)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_polynomial_systems_give_zero(n, eigvals_calls):
    s = random_polynomial_sode(n, seed=3000 + n)
    assert eigenstructure_residual(s, sample_points(s.vars, 50, seed=n)) \
        == 0.0
    assert eigvals_calls == []


def test_c2_battery_gives_zero(eigvals_calls):
    for k, s in enumerate(battery_systems()):
        assert eigenstructure_residual(
            s, sample_points(s.vars, 50, seed=500 + k)) == 0.0
    assert eigvals_calls == []


def test_trig2_at_10000_points_keeps_the_eigvals_bits(eigvals_calls):
    """The residual the reports carry, bit for bit against `eigvals` run on
    the same evaluated L_X J."""
    s = make(2, "sin(x1)*v2^2 + exp(t)*v1", "cos(x2)*v1*v2 - x1*v2^3")
    points = sample_points(s.vars, 10_000, seed=7)
    got = eigenstructure_residual(s, points)
    assert eigvals_calls == []

    vals = eval_array(connection(s).lie_derivative_J, s.vars.names,
                      point_batch(s.vars, points))
    eigs = EIGVALS(vals.transpose(2, 0, 1))
    expected = np.sort(np.array([0.0] + [1.0] * s.n + [-1.0] * s.n))
    want = worst_abs(np.sort(eigs.real) - expected, eigs.imag)
    assert _bits(got) == _bits(want) == _bits(0.0)


def test_x1_on_the_diagonal_shifts_the_spectrum(monkeypatch, eigvals_calls):
    """L_X J + x1*I (as in test_chern's non-constant frame entry) is still
    triangular; its eigenvalues d + x1 for d in {0, -1, +1} give the
    residual max |(x1 + d) - d| over the points."""
    def shift(L, n):
        for k in range(len(L)):
            L[k, k] = add(L[k, k], var("x1"))

    _patch_lie_derivative_J(monkeypatch, shift)
    s = random_polynomial_sode(1, seed=3)
    points = sample_points(s.vars, 10, seed=3)
    got = eigenstructure_residual(s, points)
    assert eigvals_calls == []

    x1 = np.array([p.x[0] for p in points])
    want = max(np.max(np.abs((x1 + d) - d)) for d in (0.0, -1.0, 1.0))
    assert _bits(got) == _bits(want)
    assert math.isclose(got, np.max(np.abs(x1)), rel_tol=1e-12)
    assert got > 1e-3


def test_sign_flip_on_the_diagonal_is_caught(monkeypatch, eigvals_calls):
    def flip(L, n):
        L[1, 1] = mul(-1, L[1, 1])

    _patch_lie_derivative_J(monkeypatch, flip)
    for n in (1, 2):
        s = random_polynomial_sode(n, seed=40 + n)
        assert eigenstructure_residual(
            s, sample_points(s.vars, 10, seed=n)) == 1.0
    assert eigvals_calls == []


def test_entry_above_the_diagonal_fails_the_oracle(monkeypatch,
                                                    eigvals_calls):
    """L_X J is lower triangular in (t, x, v) coordinates, so a build with
    an entry above the diagonal is wrong: the residual is NaN."""
    def upper(L, n):
        L[0, 2 * n] = const(1)

    _patch_lie_derivative_J(monkeypatch, upper)
    s = random_polynomial_sode(2, seed=5)
    assert math.isnan(eigenstructure_residual(
        s, sample_points(s.vars, 20, seed=5)))
    assert eigvals_calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_values_give_nan(eigvals_calls):
    s = make(1, "sqrt(x1)*v1^2")
    assert math.isnan(eigenstructure_residual(
        s, sample_points(s.vars, 10, 3)))
    assert eigvals_calls == []
