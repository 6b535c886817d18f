"""Seeded draws come from one stream, `sode.seeded(seed, draws)`: numpy's
`default_rng(seed)` value for value, drawn in Python (`sode._Pcg64`) up to
`sode._PORT_DRAWS` values and by numpy's Generator past them, so a CLI task
on a problem of that size loads no `numpy.random`.  Also: an exact constant
past the 4,300-digit limit of `str` prints, so `analyze` reports it."""

import contextlib
import io
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from chernsode.cli import main
from chernsode.expressions import VarSet, const, parse, to_string
from chernsode.sode import _PORT_DRAWS, _Pcg64, sample_points, seeded

SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 200 + 12345]
RANGES = [(-8, 9), (-4, 5), (0, 1), (0, 7)]
SIZES = [1, (20, 5), 1001]


def _same(a, b):
    """Equal values: the same dtype, shape and bits for arrays; a Python
    int or float for a numpy scalar."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype \
            and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b and type(b) is (int if isinstance(a, np.integer) else float)


def _both(seed, *calls):
    """Each (method, args, kwargs) call made in turn on numpy's generator
    and on the port, with each pair of results checked equal."""
    rng, port = np.random.default_rng(seed), _Pcg64(seed)
    for method, args, kwargs in calls:
        expected = getattr(rng, method)(*args, **kwargs)
        got = getattr(port, method)(*args, **kwargs)
        assert _same(expected, got), (seed, method, args, kwargs)


@pytest.mark.parametrize("seed", SEEDS)
def test_random(seed):
    _both(seed, ("random", (), {}))
    for size in SIZES:
        _both(seed, ("random", (), {"size": size}))
        _both(seed, ("random", (size,), {}))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("low, high", RANGES)
def test_integers(seed, low, high):
    _both(seed, *[("integers", (low, high), {})] * 5)
    for size in [*SIZES, 7, (3, 4)]:
        _both(seed, ("integers", (low, high), {"size": size}))


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform(seed):
    for k in (1, 20, 1001):
        _both(seed, ("uniform", (0.35, 0.95, k), {}))
    _both(seed, ("uniform", (0.35, 0.95), {}))


@pytest.mark.parametrize("seed", SEEDS + list(range(20)))
def test_interleavings_keep_the_half_word(seed):
    """An odd number of 32-bit words leaves the high half of an output for
    the next `integers` call; `random` and `uniform` draw whole outputs and
    leave it there."""
    scalar = ("integers", (-8, 9), {})
    _both(seed, scalar, ("random", (), {}), scalar, scalar,
          ("integers", (0, 5), {"size": 3}), ("uniform", (0.35, 0.95, 4), {}),
          ("integers", (-4, 5), {"size": (3, 4)}), scalar,
          ("random", (), {"size": 5}), ("integers", (0, 7), {"size": 7}),
          scalar, ("integers", (0, 1), {}), scalar)


def test_empty_and_bad_sizes_behave_as_numpy():
    _both(3, ("random", ((0, 5),), {}), ("integers", (-8, 9),
                                         {"size": (4, 0)}))
    for method, args in [("random", ((-1, 5),)),
                         ("integers", (-8, 9, (2, -1)))]:
        with pytest.raises(ValueError) as expected:
            getattr(np.random.default_rng(1), method)(*args)
        with pytest.raises(ValueError) as got:
            getattr(_Pcg64(1), method)(*args)
        assert str(got.value) == str(expected.value)
    for low, high in [(5, 5), (0, 0), (3, 1)]:
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(1).integers(low, high)
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            _Pcg64(1).integers(low, high)


def test_seeded_picks_the_generator_by_draws_and_seed():
    assert _PORT_DRAWS == 2 ** 15
    for seed in SEEDS:
        assert type(seeded(seed)) is _Pcg64
        assert type(seeded(seed, _PORT_DRAWS)) is _Pcg64
        assert isinstance(seeded(seed, _PORT_DRAWS + 1),
                          np.random.Generator)
    # a seed that is not an int >= 0 goes to numpy, with numpy's error
    assert isinstance(seeded(np.int64(5)), np.random.Generator)
    for bad, error in [(-1, ValueError), (1.5, TypeError), ("a", TypeError)]:
        with pytest.raises(error) as expected:
            np.random.default_rng(bad)
        with pytest.raises(error, match=f"^{expected.value}$"):
            seeded(bad)


def _parent_sample_points(n, count, seed):
    """The sampling formula before `seeded`, on the default box."""
    lo = np.array([0.0] + [-1.0] * (2 * n))
    width = np.array([1.0] + [2.0] * (2 * n))
    return lo + width * np.random.default_rng(seed).random((count, 2 * n + 1))


@pytest.mark.parametrize("count", [6553, 6554])
@pytest.mark.parametrize("seed", [1, 77])
def test_sample_points_on_both_sides_of_the_limit(count, seed):
    """n = 2: 6553 points are 32,765 draws (the port), 6554 are 32,770
    (numpy)."""
    assert (count * 5 > _PORT_DRAWS) == (count == 6554)
    rows = sample_points(VarSet.default(2), count, seed).rows
    assert rows.tobytes() == \
        np.ascontiguousarray(_parent_sample_points(2, count, seed)).tobytes()


# ---------------------------------------------------------------------------
# no CLI task on a small problem loads numpy.random
# ---------------------------------------------------------------------------

SYSTEMS = {
    1: {"F": ["x1*v1^2 - 1/2*t*v1"], "metric": [["1 + x1^2"]],
        "automorphism": {"phi": ["x1 + t^2"], "inverse": ["x1 - t^2"]}},
    2: {"F": ["x1*v2^2 - 1/2*t*v1", "sin(x2)*v1*v2 + x1"],
        "metric": [["1 + x1^2", "0"], ["0", "1"]],
        "automorphism": {"phi": ["x1 + t^2", "x2 + x1"],
                         "inverse": ["x1 - t^2", "x2 - x1 + t^2"]}},
    3: {"F": ["x1*v2^2 - 1/2*t*v1", "x3*v1*v2 + x1", "v3^3 - t*x2*v1"],
        "metric": [["1 + x1^2", "0", "0"], ["0", "1", "0"],
                   ["0", "0", "1 + x3^2"]],
        "automorphism": {"phi": ["x1 + t^2", "x2 + x1", "x3 + x2^2"],
                         "inverse": ["x1 - t^2", "x2 - x1 + t^2",
                                     "x3 - (x2 - x1 + t^2)^2"]}},
}
TASKS = ["analyze", "verify", "classify", "riemann", "push", "jets"]

_RUN_ALL = """\
import contextlib, io, sys
from chernsode import cli
codes = []
for task in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([task, sys.argv[1]]))
print(*codes, "numpy.random" in sys.modules)
"""


def _fresh(code, *argv):
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("n", sorted(SYSTEMS))
def test_cli_tasks_leave_numpy_random_unloaded(tmp_path, n):
    """Each task in turn in one fresh interpreter per n, on 20 seeded
    points: every task exits 0 and `numpy.random` stays out of
    `sys.modules` (so it does for each task alone)."""
    if _fresh("import sys, numpy; print('numpy.random' in sys.modules)") \
            == ["True"]:
        pytest.skip("this numpy loads numpy.random with numpy itself")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"dimension": n, **SYSTEMS[n], "samples": {
        "mode": "random", "count": 20, "seed": 1}}))
    out = _fresh(_RUN_ALL, str(path), *TASKS)
    assert out == ["0"] * len(TASKS) + ["False"]


# ---------------------------------------------------------------------------
# constants past the digit limit of str
# ---------------------------------------------------------------------------

def test_to_string_prints_constants_past_the_digit_limit():
    num, den = 2 ** 20000, 3 ** 9100     # 6,021 and 4,342 digits
    text = to_string(const(Fraction(-num, den)))
    top, bottom = text.split("/")
    assert Decimal(top) == -num and Decimal(bottom) == den
    assert Decimal(to_string(const(num))) == num
    for c in (const(num), const(Fraction(-num, den))):
        assert parse(to_string(c), VarSet.default(1)) is c


@pytest.mark.parametrize("task, code", [("analyze", 1), ("verify", 1),
                                        ("classify", 0)])
def test_huge_constant_is_reported(tmp_path, task, code):
    """F = 2^10000*v1: its Kosambi coefficients print with more than 4,300
    digits.  analyze reports the eigenstructure residual, which is not
    finite, as null, and exits 1."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"dimension": 1, "F": ["2^10000*v1"],
                                "samples": {"mode": "random", "count": 3,
                                            "seed": 1}}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([task, str(path)]) == code
    report = json.loads(out.getvalue())
    assert "error" not in report
    if task == "analyze":
        assert report["checks"]["eigenstructure"]["residual"] is None
        assert any(len(c) > 4300 for c in
                   report["kosambi"]["charpoly_symbolic"])
