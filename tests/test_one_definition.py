"""One definition per concept: a program run alone goes through
`expressions._walk`, the (t, x, v) tuple is `VarSet.names`, the 2-jet
layout is built once per `JetSpace`, coercion is `expressions._coerce`,
E's vertical vectors are the frame's columns d/dv^i, and `push` reports a
pushed value that is not finite as null."""

import contextlib
import io
import json
from itertools import combinations

import numpy as np
import pytest

from chernsode import chern, expressions, sode
from chernsode.cli import main
from chernsode.expressions import (
    _BATCH, ZERO, VarSet, add, compile_expr, const, mul, parse,
)
from chernsode.natjets import JetSpace
from chernsode.sode import (
    SodeSystem, coframe_symbolic, endomorphism_E, expr_array, frame_symbolic,
    lie_derivative_J, random_polynomial_sode, sample_points,
    splitting_curvature,
)

V2 = VarSet.default(2)
# the batch table with a lone value kept as a Python float
_PYTHON_FLOATS = (lambda v: v, _BATCH[1])


def _trig2():
    return SodeSystem(vars=V2, F=(
        parse("sin(x1)*v2^2 + exp(t)*v1", V2),
        parse("cos(x2)*v1*v2 - x1*v2^3", V2)))


SYSTEMS = {
    "poly2": lambda: random_polynomial_sode(2, seed=61),
    "trig2": _trig2,
}


def _oracle_entries(s):
    """The non-ZERO entries of the arrays the `verify` oracles evaluate:
    the splitting curvature, L_X J and every structure-equation torsion and
    curvature entry."""
    sc = splitting_curvature(s, check="none")
    gamma = chern.frame_christoffels(s)
    pairs = list(combinations(range(2 * s.n + 1), 2))
    arrays = [sc.P, sc.T, lie_derivative_J(s)]
    arrays += [chern.torsion_definition(s, a, b, gamma) for a, b in pairs]
    arrays += [chern.curvature_definition(s, a, b, c, gamma)
               for a, b in pairs for c in range(2 * s.n + 1)]
    return [e for M in arrays for e in np.ravel(M) if e is not ZERO]


def _one_segment(program, values, table):
    """The runner a program run alone once had: the walk of its one
    segment, inlined without a generator."""
    leaves, loads, code, segments = expressions._plan(
        (program.expr,), program.names)
    load, ops = table
    regs, it = list(leaves), iter(loads)
    for r in it:
        regs[r] = load(values[next(it)])
    (count, top, _), = segments
    expressions._run(regs, iter(code), count, ops)
    return regs[top]


def test_program_run_alone_enters_walk_once_per_call(monkeypatch):
    entries, real = [], expressions._walk

    def counted(*args):
        entries.append(args[0])
        return real(*args)

    monkeypatch.setattr(expressions, "_walk", counted)
    program = expressions._Program(parse("sin(x1)*v2 + t^2", V2), V2.names)
    row = [0.5, 0.1, 0.2, 0.3, 0.4]
    first = program(row)            # plans, then walks
    second = program(row)           # walks the kept plan
    third = program(row, _PYTHON_FLOATS)
    assert len(entries) == 3
    assert all(plan is program._plan for plan in entries)
    assert first == second == third
    assert not hasattr(expressions, "_registers")


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("table", [_BATCH, _PYTHON_FLOATS],
                         ids=["batch", "python_floats"])
def test_program_bit_equal_to_one_segment_runner(system, table):
    s = SYSTEMS[system]()
    entries = _oracle_entries(s)
    assert len(entries) > 50
    row = sample_points(s.vars, 1, 5)[0].row
    for e in entries:
        program = compile_expr(e, s.vars.names)
        got, want = program(row, table), _one_segment(program, row, table)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _parent_fiber(js):
    """The fiber coordinates as the `fiber` property once built them."""
    out = list(js.values)
    for i in range(js.n):
        out.extend(js.first[(i, d)] for d in js.dirs)
    for i in range(js.n):
        out.extend(js.second[key] for key in js.second if key[0] == i)
    return tuple(out)


RENAMED = VarSet(time="s", positions=("p", "q"), velocities=("dp", "dq"))


@pytest.mark.parametrize("vs", [VarSet.default(n) for n in range(1, 5)]
                         + [RENAMED], ids=["n1", "n2", "n3", "n4", "renamed"])
def test_jet_layout_built_once(vs):
    js = JetSpace(vs)
    assert {"fiber", "all_coords"} <= set(js.__dict__)
    assert not isinstance(getattr(JetSpace, "fiber", None), property)
    assert not isinstance(getattr(JetSpace, "all_coords", None), property)
    assert js.fiber == _parent_fiber(js)
    assert js.all_coords == js.base + _parent_fiber(js)
    assert js.base == vs.names


@pytest.mark.parametrize("s", [random_polynomial_sode(2, seed=61), _trig2(),
                               SodeSystem(vars=RENAMED, F=(
                                   parse("p*dq", RENAMED),
                                   parse("sin(s)", RENAMED)))],
                         ids=["poly2", "trig2", "renamed"])
def test_coords_are_the_variable_names(s):
    assert s.coords == s.vars.names


def test_one_coercion():
    assert expressions.const is expressions._coerce
    assert sode.as_expr is expressions.const
    x = parse("x1*v1", VarSet.default(1))
    assert sode.as_expr(x) is x
    assert sode.as_expr(2) is const(2)
    with pytest.raises(TypeError, match="cannot use str"):
        sode.as_expr("x1")


def _parent_E(s):
    """E as the loop over unit vectors d/dv^i once built it."""
    n = s.n
    frame, coframe = frame_symbolic(s), coframe_symbolic(s)
    M = expr_array((2 * n + 1, 2 * n + 1))
    for i in range(n):
        vert = expr_array(2 * n + 1)
        vert[1 + n + i] = const(1)
        for r in range(2 * n + 1):
            for c in range(2 * n + 1):
                M[r, c] = add(M[r, c],
                              mul(vert[r], coframe[1 + i, c]),
                              mul(frame[r, 1 + i], coframe[1 + n + i, c]))
    return M


@pytest.mark.parametrize("s", [random_polynomial_sode(n, seed=seed)
                               for n in (1, 2, 3) for seed in (3, 41)]
                         + [SodeSystem(vars=V2, F=(
                             parse("sin(x1)*v2^2 + exp(t)*v1 + 3", V2),
                             parse("-2/3 + cos(x2)*v1*v2 - exp(x1)", V2)))],
                         ids=["poly1_3", "poly1_41", "poly2_3", "poly2_41",
                              "poly3_3", "poly3_41", "trig2_constants"])
def test_E_is_the_node_the_unit_vector_loop_built(s):
    got, want = endomorphism_E(s), _parent_E(s)
    assert got.shape == want.shape
    assert all(a is b for a, b in zip(got.flat, want.flat))


SAMPLES = {"mode": "random", "count": 2, "seed": 1}


# a product that overflows, and a constant past the float range
@pytest.mark.parametrize("raw", [
    {"dimension": 1, "F": ["2^10000*v1"], "samples": SAMPLES,
     "automorphism": {"phi": ["x1 + t^2"], "inverse": ["x1 - t^2"]}},
    {"dimension": 1, "F": ["1e300*x1*v1"], "samples": SAMPLES,
     "automorphism": {"phi": ["x1 + 1e10*x1^2"]}},
], ids=["huge_constant", "overflowing_product"])
def test_push_reports_a_non_finite_pushed_value_as_null(tmp_path, raw):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["push", str(path)])
    assert (code, err.getvalue()) == (1, "")
    report = json.loads(out.getvalue())
    assert report["pass"] is False
    assert [m["pushed_value"] for m in report["matched_points"]] == \
        [[None], [None]]
    assert len(report["residuals"]) == 6
    assert all(c == {"residual": None, "pass": False}
               for c in report["residuals"].values())
