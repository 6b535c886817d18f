"""The batch table at a single point, the memo bound of the natjets caches
and the variable set without parameters."""

import dataclasses

import numpy as np
import pytest

from chernsode import expressions, natjets
from chernsode.chern import curvature_components
from chernsode.expressions import _BATCH, _CACHE_SIZE, VarSet, parse
from chernsode.sode import (
    SodeSystem, eval_array, frame_symbolic, random_polynomial_sode,
    sample_points, splitting_curvature,
)

# the batch table as it was: a lone value stayed a Python float
_PYTHON_FLOATS = (lambda v: v, _BATCH[1])
V1 = VarSet.default(1)


@pytest.mark.parametrize("text, row, want", [
    ("x1^400*v1^2", [0.1, 1000.0, 0.5], np.inf),
    ("x1^(-1)*v1^3", [0.1, 0.0, 0.5], np.inf),
    ("x1^(-2) - x1^(-2)", [0.1, 0.0, 0.5], None),
])
def test_one_point_gives_what_the_batch_gives(text, row, want):
    e = parse(text, V1)
    batch = [np.array([c, 0.5]) for c in row]
    with np.errstate(all="ignore"):
        one = eval_array(np.array([e], dtype=object), V1.names, row)[0]
        many = eval_array(np.array([e], dtype=object), V1.names, batch)[0]
    assert np.asarray(one).tobytes() == many[:1].tobytes()
    if want is None:
        assert np.isnan(one)
    else:
        assert one == want


def _trig2():
    vs = VarSet.default(2)
    return SodeSystem(vars=vs, F=(
        parse("3/4*sin(x2)*v1^2 + 1/2*exp(-1/3*t)*v2 + 5/8*cos(x1)*v1*v2", vs),
        parse("-1/2*cos(x2)*v2^2 + 3/8*sin(x1)*v1 + 1/4*sqrt(2 + x1)*v1*v2",
              vs)))


@pytest.mark.parametrize("s", [random_polynomial_sode(2, seed=61), _trig2()],
                         ids=["poly2", "trig2"])
def test_finite_values_bit_equal_to_python_floats(s):
    comp = curvature_components(s)
    sc = splitting_curvature(s, check="none")
    exprs = [e for arr in (frame_symbolic(s), sc.P, sc.T, comp.A, comp.B, comp.R)
             for e in arr.flat]
    for p in sample_points(s.vars, 5, 11):
        for e in exprs:
            program = expressions.compile_expr(e, s.vars.names)
            got, want = program(p.row, _BATCH), program(p.row, _PYTHON_FLOATS)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_natjets_memos_bounded_like_compile():
    for name in ("jet_space", "curvature_mapping_exprs", "generic_prolongation",
                 "_equivariance_lhs_exprs", "_prolong1_exprs",
                 "_push_value_exprs", "_chain_rule_exprs"):
        assert getattr(natjets, name).cache_info().maxsize == _CACHE_SIZE


def test_variable_set_has_no_parameters():
    assert [f.name for f in dataclasses.fields(VarSet)] == \
        ["time", "positions", "velocities"]
    with pytest.raises(TypeError):
        VarSet(time="t", positions=("x1",), velocities=("v1",),
               parameters=("mu",))
    assert V1.names == ("t", "x1", "v1")
