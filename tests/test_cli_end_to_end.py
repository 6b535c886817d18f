"""End to end over `cli.main`: every task on small problems with arbitrary
expression strings exits 0, 1 or 2 without raising, and exits 1 only with a
report whose `"pass"` is false.  The two single-sample inputs below once
ended in an OverflowError traceback (exit 1) and in Python's "0.0 cannot be
raised to a negative power" (exit 2, no location)."""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from chernsode.cli import TASKS, main
from chernsode.expressions import FUNCTIONS

# F = x1^400*v1^2 overflows at x1 = 1000 on the first sample
OVERFLOW = {"dimension": 1, "F": ["x1^400*v1^2"],
            "automorphism": {"phi": ["x1 + t^2"], "inverse": ["x1 - t^2"]},
            "samples": {"mode": "explicit",
                        "points": [[0.1, 1000.0, 0.5], [0.2, 0.3, 0.1]]}}
# F = x1^(-1)*v1^3 divides by zero at x1 = 0 on the first sample
ZERO_POWER = {"dimension": 1, "F": ["x1^(-1)*v1^3"],
              "samples": {"mode": "explicit",
                          "points": [[0.1, 0.0, 0.5], [0.2, 0.3, 0.1]]}}


def _main(raw, task, directory):
    """(exit code, report, stderr) of `chernsode <task>` on raw."""
    path = directory / "problem.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([task, str(path)])
    return code, json.loads(out.getvalue()), err.getvalue()


def test_single_sample_overflow_is_a_located_domain_error(tmp_path):
    code, report, err = _main(OVERFLOW, "push", tmp_path)
    assert (code, err) == (2, "")
    assert report["error"]["kind"] == "DomainError"
    assert report["error"]["location"] == "samples.points[0]"


def test_single_sample_overflow_in_jets_exits_2(tmp_path):
    code, report, err = _main(OVERFLOW, "jets", tmp_path)
    assert (code, err) == (2, "")
    assert report["error"]["kind"] == "LinAlgError"


def test_single_sample_zero_power_in_jets_exits_2(tmp_path):
    code, report, err = _main(ZERO_POWER, "jets", tmp_path)
    assert (code, err) == (2, "")
    assert report["error"]["kind"] == "LinAlgError"


# --------------------------------------------------------------------------
# arbitrary small problems
# --------------------------------------------------------------------------

def _expressions(names):
    """Expression strings over `names`: small trees of constants, variables,
    the four operations, the functions and small integer powers."""
    leaf = st.sampled_from(list(names) + ["0", "1", "2", "1/2", "-3", "0.5"])
    return st.recursive(leaf, lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/"), e).map(
            lambda a: f"({a[0]} {a[1]} {a[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), e).map(
            lambda a: f"{a[0]}({a[1]})"),
        st.tuples(e, st.integers(-2, 3)).map(lambda a: f"({a[0]})^({a[1]})"),
    ), max_leaves=4)


COORDINATE = st.sampled_from([0.0, 0.5, -1.0, 2.0, 1000.0, 1e-3])


@st.composite
def problems(draw):
    n = draw(st.integers(1, 2))
    xs = [f"x{i + 1}" for i in range(n)]
    vs = [f"v{i + 1}" for i in range(n)]
    F = [draw(_expressions(["t", *xs, *vs])) for _ in range(n)]
    if draw(st.integers(0, 19)) == 0:       # now and then, any text at all
        F[-1] = draw(st.text(max_size=6))
    if draw(st.booleans()):
        samples = {"mode": "random", "count": draw(st.integers(1, 3)),
                   "seed": draw(st.integers(0, 5))}
    else:
        points = draw(st.lists(st.lists(COORDINATE, min_size=2 * n + 1,
                                        max_size=2 * n + 1),
                               min_size=1, max_size=3))
        samples = {"mode": "explicit", "points": points}
    on_positions = _expressions(xs)
    metric = [[draw(on_positions) for _ in range(n)] for _ in range(n)]
    shift = [draw(_expressions(["t"])) for _ in range(n)]
    raw = {"dimension": n, "F": F, "samples": samples,
           "metric": [[metric[min(i, j)][max(i, j)] for j in range(n)]
                      for i in range(n)],
           "automorphism": {
               "phi": [f"{x} + {d}" for x, d in zip(xs, shift)],
               "inverse": [f"{x} - ({d})" for x, d in zip(xs, shift)]}}
    if draw(st.booleans()):
        raw["U"] = [[draw(_expressions(["t", *xs])) for _ in range(n)]
                    for _ in range(n)]
    return raw


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(raw=problems(), task=st.sampled_from(TASKS))
@example(raw=OVERFLOW, task="push")
@example(raw=OVERFLOW, task="jets")
@example(raw=ZERO_POWER, task="jets")
def test_every_task_exits_0_1_or_2_with_a_report(tmp_path_factory, raw, task):
    code, report, err = _main(raw, task, tmp_path_factory.mktemp("problem"))
    assert err == ""
    assert code in (0, 1, 2)
    if code == 2:
        assert set(report) == {"error"}
    else:
        assert report["pass"] is (code == 0)
