"""One node memo per residual call: `reduce_residual` and `eval_array` run
the programs of all their entries through `expressions.run_programs`, which
computes a node that entries share once and drops its value after the last
entry that needs it.  Values and witnesses are checked against test-local
copies of the per-entry loops this replaced."""

import gc
import math
import weakref

import numpy as np
import pytest

from chernsode import chern, expressions, sode
from chernsode.expressions import (
    ZERO, VarSet, call, compile_expr, mul, parse, run_programs, var,
)
from chernsode.sode import (
    Residual, SodeSystem, eval_array, point_batch, random_polynomial_sode,
    reduce_residual, sample_points, worst_abs,
)


def _old_reduce_residual(blocks, s, batch):
    """The per-entry reducer: one program run on its own per non-ZERO entry."""
    out, nonfinite = Residual(0.0, None, 0, None, None, None), 0
    for label, arr in blocks:
        for entry, e in enumerate(np.asarray(arr, dtype=object).flat):
            if e is ZERO:
                continue
            vals = np.ravel(compile_expr(sode.as_expr(e), s.vars.names)(batch))
            top = worst_abs(vals)
            bad = np.flatnonzero(~np.isfinite(vals)) if math.isnan(top) else []
            if not nonfinite and (len(bad) or top > out.worst):
                k = bad[0] if len(bad) else np.argmax(np.abs(vals))
                out = Residual(top, label, 0, entry, int(k), float(vals[k]))
            nonfinite += len(bad)
    return out._replace(nonfinite=nonfinite)


def _old_eval_array(M, names, values):
    """The per-entry evaluator of object arrays."""
    M = np.asarray(M, dtype=object)
    arrays = [v for v in values if isinstance(v, np.ndarray) and v.ndim]
    out = np.zeros(M.shape + ((len(arrays[0]),) if arrays else ()))
    for idx in np.ndindex(M.shape):
        out[idx] = compile_expr(sode.as_expr(M[idx]), names)(values)
    return out


def _oracle_blocks(s, points, monkeypatch):
    """Every (blocks, batch) that the `verify` oracles reduce for s."""
    calls, real = [], sode.reduce_residual

    def record(blocks, s_, batch):
        blocks = [(label, np.asarray(arr, dtype=object)) for label, arr in blocks]
        calls.append((blocks, batch))
        return real(blocks, s_, batch)

    with monkeypatch.context() as m:
        m.setattr(chern, "reduce_residual", record)
        chern.verify_structure_identities(s, points)
        chern.torsion_oracle_residual(s, points)
        chern.curvature_oracle_residual(s, points)
        chern.verify_characterization(s, points)
    return calls


def _trig2():
    vs = VarSet.default(2)
    return SodeSystem(vars=vs, F=(
        parse("3/4*sin(x2)*v1^2 + 1/2*exp(-1/3*t)*v2 + 5/8*cos(x1)*v1*v2", vs),
        parse("-1/2*cos(x2)*v2^2 + 3/8*sin(x1)*v1 + 1/4*exp(t)*v1*v2", vs)))


@pytest.mark.parametrize("s", [random_polynomial_sode(2, seed=61), _trig2()],
                         ids=["poly2", "trig2"])
def test_shared_evaluation_bit_equal_to_per_entry(s, monkeypatch):
    points = sample_points(s.vars, 50, 7)
    calls = _oracle_blocks(s, points, monkeypatch)
    assert len(calls) >= 5
    names = s.vars.names
    for blocks, batch in calls:
        got, want = reduce_residual(blocks, s, batch), _old_reduce_residual(
            blocks, s, batch)
        assert repr(got) == repr(want)
        for label, arr in blocks:
            assert eval_array(arr, names, batch).tobytes() == \
                _old_eval_array(arr, names, batch).tobytes(), label
        # a single point given as Python floats
        row = [float(c[3]) for c in batch]
        for label, arr in blocks:
            assert eval_array(arr, names, row).tobytes() == \
                _old_eval_array(arr, names, row).tobytes(), label


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_witness_as_per_entry(monkeypatch):
    vs = VarSet.default(1)
    s = SodeSystem(vars=vs, F=(parse("sqrt(x1)*v1^2 + x1*v1", vs),))
    points = sample_points(vs, 12, 3)
    calls = _oracle_blocks(s, points, monkeypatch)
    nonfinite = 0
    for blocks, batch in calls:
        got = reduce_residual(blocks, s, batch)
        assert repr(got) == repr(_old_reduce_residual(blocks, s, batch))
        nonfinite += got.nonfinite
    assert nonfinite


def _counting_table():
    """The batch table, counting each operation run and keeping a weak
    reference to each value it returns."""
    load, ops = expressions._BATCH
    counts, refs = [0] * len(ops), []

    def counted(k, op):
        def run(*args):
            counts[k] += 1
            value = op(*args)
            if isinstance(value, np.ndarray):
                refs.append((k, weakref.ref(value)))
            return value
        return run

    return (load, tuple(counted(k, op) for k, op in enumerate(ops))), counts, refs


SIN, COS = expressions._OPCODE["sin"], expressions._OPCODE["cos"]
VS = VarSet.default(1)
BATCH = point_batch(VS, sample_points(VS, 40, 5))


def _shared_entries():
    shared = call("sin", mul(var("x1"), var("v1")))
    return [mul(2, shared), mul(3, shared), call("cos", var("t")),
            mul(shared, var("t"))]


def test_shared_subtree_runs_once_per_call(monkeypatch):
    entries = _shared_entries()
    table, counts, _ = _counting_table()
    programs = [compile_expr(e, VS.names) for e in entries]
    values = list(run_programs(programs, BATCH, table))
    assert counts[SIN] == 1 and counts[COS] == 1
    for e, value in zip(entries, values):
        assert value.tobytes() == compile_expr(e, VS.names)(BATCH).tobytes()

    def counting(programs, values):
        return run_programs(programs, values, table)

    monkeypatch.setattr(sode, "run_programs", counting)
    counts[:] = [0] * len(counts)
    r = reduce_residual([("a", entries[:2]), ("b", [ZERO, *entries[2:]])],
                        SodeSystem(vars=VS, F=(var("x1"),)), BATCH)
    assert counts[SIN] == 1 and r.label in ("a", "b")
    counts[:] = [0] * len(counts)
    eval_array(np.array(entries, dtype=object), VS.names, BATCH)
    assert counts[SIN] == 1
    # at one point, given as floats, each program runs alone
    counts[:] = [0] * len(counts)
    row = [float(c[0]) for c in BATCH]
    got = eval_array(np.array(entries, dtype=object), VS.names, row)
    assert counts[SIN] == 3
    assert got.tobytes() == np.array(
        [compile_expr(e, VS.names)(row) for e in entries]).tobytes()


def test_memo_value_dropped_after_last_use():
    entries = _shared_entries()[:3]     # the sine is last needed by entry 1
    table, _, refs = _counting_table()
    programs = [compile_expr(e, VS.names) for e in entries]
    gc.disable()
    try:
        run = run_programs(programs, BATCH, table)
        first = next(run)
        sine = [ref for k, ref in refs if k == SIN]
        assert len(sine) == 1 and sine[0]() is not None
        second = next(run)
        assert sine[0]() is not None        # still needed by entry 1
        third = next(run)
        assert sine[0]() is None
        del first, second, third
        with pytest.raises(StopIteration):
            next(run)
        assert all(ref() is None for _, ref in refs)
    finally:
        gc.enable()


def test_no_memo_value_outlives_a_residual_call(monkeypatch):
    table, _, refs = _counting_table()
    monkeypatch.setattr(sode, "run_programs",
                        lambda programs, values: run_programs(programs, values,
                                                              table))
    s = random_polynomial_sode(2, seed=61)
    points = sample_points(s.vars, 30, 2)
    gc.disable()
    try:
        chern.curvature_oracle_residual(s, points)
        out = eval_array(sode.frame_symbolic(s), s.vars.names,
                         point_batch(s.vars, points))
        assert refs and all(ref() is None for _, ref in refs)
        assert out.shape[-1] == 30
    finally:
        gc.enable()


def test_diff_memo_bounded_like_compile():
    assert sode._diff.cache_info().maxsize == \
        expressions._compile.cache_info().maxsize
