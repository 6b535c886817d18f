"""JetPoints, the array-backed sequence that sample_points returns, against
the list of JetPoint1 and the per-point column batch it replaced."""

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernsode.expressions import VarSet
from chernsode.sode import JetPoint1, JetPoints, point_batch, sample_points


def _fromiter_batch(vars, points):
    """The column batch point_batch built from a list of JetPoint1 before
    JetPoints: one fromiter over the (t, *x, *v) rows, transposed and
    copied."""
    width = 2 * vars.n + 1
    rows = np.fromiter(chain.from_iterable((p.t, *p.x, *p.v) for p in points),
                       dtype=float, count=len(points) * width)
    return list(rows.reshape(len(points), width).T.copy())


def _as_list(vars, points):
    """The list of JetPoint1 that sample_points returned before JetPoints."""
    n = vars.n
    return [JetPoint1(r[0], tuple(r[1:1 + n]), tuple(r[1 + n:]))
            for r in points.rows.tolist()]


def _assert_same_batch(got, want):
    assert type(got) is list and len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.flags.c_contiguous and np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()


def _interval(lo, width):
    return (lo, lo + width)


boxes = st.fixed_dictionaries({}, optional={
    role: st.builds(_interval, st.floats(-1e3, 1e3), st.floats(0.0, 1e3))
    for role in ("time", "position", "velocity")})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(0, 50),
       st.integers(0, 2**32 - 1), boxes)
def test_columns_bit_equal_to_fromiter_batch(n, count, seed, box):
    vars = VarSet.default(n)
    pts = sample_points(vars, count, seed, box)
    assert isinstance(pts, JetPoints) and len(pts) == count
    want = _fromiter_batch(vars, list(pts))
    _assert_same_batch(point_batch(vars, pts), want)
    # a list of the same points takes the conversion path to equal bits
    _assert_same_batch(point_batch(vars, _as_list(vars, pts)), want)


def test_columns_are_read_only_and_built_once():
    vars = VarSet.default(2)
    pts = sample_points(vars, 30, 4)
    batch = point_batch(vars, pts)
    assert all(a is b for a, b in zip(batch, point_batch(vars, pts)))
    for col in batch + [pts.rows]:
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 1.0
    # a caller's list of columns is its own
    batch.append(None)
    assert len(point_batch(vars, pts)) == 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sequence_matches_list_of_points(n):
    vars = VarSet.default(n)
    pts = sample_points(vars, 12, 9)
    old = _as_list(vars, pts)
    assert len(pts) == len(old) == 12
    assert pts == old and old == pts and pts == tuple(old)
    assert not pts != old
    assert list(pts) == old
    assert [pts[k] for k in range(12)] == old
    assert pts[-1] == old[-1] and pts[-12] == old[0]
    assert type(pts[3]) is JetPoint1
    assert all(type(c) is float for c in (pts[3].t,) + pts[3].x + pts[3].v)
    for sl in (slice(2, 7), slice(None, None, -1), slice(1, None, 3),
               slice(5, 5)):
        part = pts[sl]
        assert isinstance(part, JetPoints) and part == old[sl]
        _assert_same_batch(point_batch(vars, part),
                           _fromiter_batch(vars, old[sl]))
    assert pts.index(old[4]) == 4 and old[4] in pts
    assert list(reversed(pts)) == old[::-1]
    with pytest.raises(IndexError):
        pts[12]


def test_unequal_sequences():
    vars = VarSet.default(1)
    pts = sample_points(vars, 5, 2)
    old = list(pts)
    assert pts != old[:4]
    assert pts != old[:4] + [JetPoint1(0.0, (0.0,), (0.0,))]
    assert pts != sample_points(vars, 5, 3)
    assert pts != [object()] * 5
    assert pts != 5
    assert sample_points(vars, 0, 1) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("box", [
    {"time": (0.0, float("inf"))},
    {"position": (-float("inf"), 1.0)},
    {"velocity": (float("nan"), 1.0)},
])
def test_non_finite_box_raises(box):
    with pytest.raises(ValueError, match="must be finite"):
        sample_points(VarSet.default(2), 4, 1, box)


def test_rows_must_be_finite_jet_rows():
    with pytest.raises(ValueError):
        JetPoints(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        JetPoints(np.zeros(3))
    with pytest.raises(ValueError, match="must be finite"):
        JetPoints([[0.0, float("nan"), 1.0]])


def test_rows_are_copied():
    rows = np.array([[0.5, 0.1, 0.2]])
    pts = JetPoints(rows)
    rows[0, 0] = 9.0
    assert rows.flags.writeable
    assert pts == [JetPoint1(0.5, (0.1,), (0.2,))]


def test_point_batch_checks_width():
    with pytest.raises(ValueError):
        point_batch(VarSet.default(2), sample_points(VarSet.default(1), 3, 1))


@pytest.mark.parametrize("n", [1, 2])
def test_point_batch_of_one_point_list(n):
    """A one-point list, as the CLI reruns a failing step per sample."""
    vars = VarSet.default(n)
    p = sample_points(vars, 3, 8)[1]
    _assert_same_batch(point_batch(vars, [p]), _fromiter_batch(vars, [p]))
    _assert_same_batch(point_batch(vars, []), _fromiter_batch(vars, []))
