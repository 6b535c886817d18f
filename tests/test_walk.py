"""One walk per evaluation call: `expressions.run_programs` plans the union
DAG of its programs' expressions once, computes each distinct node once and,
on a batch with the batch table, folds sums and products in place and lets
an intermediate that is read for the last time lend its array to the
result, with the bits of each program run alone and of a table that does
neither."""

import gc
import math
import operator
import weakref
from functools import partial, reduce

import numpy as np
import pytest

from chernsode import chern, expressions
from chernsode.expressions import (
    Add, Call, Mul, Pow, VarSet, ZERO, add, call, compile_expr, mul, parse,
    pow_, run_programs, var,
)
from chernsode.sode import (
    SodeSystem, as_expr, eval_array, point_batch, random_polynomial_sode,
    sample_points,
)

V1 = VarSet.default(1)
BATCH = point_batch(V1, sample_points(V1, 40, 5))
X, V, T = var("x1"), var("v1"), var("t")

# the batch table without in-place folds and without lending
_FRESH = (expressions._BATCH[0], (
    partial(reduce, operator.add), partial(reduce, operator.mul), operator.pow,
    np.cos, np.exp, np.log, np.sin, np.sqrt))


def _programs(entries, names=V1.names):
    return [compile_expr(e, names) for e in entries]


def _counting(ops):
    """`ops` with each operation counted, each array it is lent counted,
    and a weak reference kept to every array it returns."""
    counts, lent, refs = [0] * len(ops), [0], []

    def counted(k, op):
        def run(*args):
            counts[k] += 1
            lent[0] += k != expressions._OPCODE[Pow] and len(args) == 2
            value = op(*args)
            if isinstance(value, np.ndarray):
                refs.append(weakref.ref(value))
            return value
        return run

    return tuple(counted(k, op) for k, op in enumerate(ops)), counts, lent, \
        refs


def _compound(entries):
    """The distinct nodes of the entries that an instruction computes: every
    compound node but a sum or product of one operand."""
    seen, stack, out = set(), list(entries), []
    while stack:
        node = stack.pop()
        if id(node) in seen or type(node) not in (Add, Mul, Pow, Call):
            continue
        seen.add(id(node))
        args = (node.terms if type(node) is Add else node.factors
                if type(node) is Mul else (node.base,) if type(node) is Pow
                else (node.arg,))
        if len(args) > 1 or type(node) in (Pow, Call):
            out.append(node)
        stack.extend(args)
    return out


def _shared_entries():
    s = call("sin", mul(X, V))
    return [mul(2, s), add(s, call("cos", T)), mul(s, T, s),
            call("exp", add(mul(2, s), V))]


def test_each_distinct_node_runs_once_per_call():
    entries = _shared_entries()
    load, ops = expressions._BATCH
    ops, counts, _, _ = _counting(ops)
    values = list(run_programs(_programs(entries), BATCH, (load, ops)))
    assert sum(counts) == len(_compound(entries))
    assert counts[expressions._OPCODE["sin"]] == 1
    for e, value in zip(entries, values):
        assert value.tobytes() == compile_expr(e, V1.names)(BATCH).tobytes()


def _oracle_calls(s, points, monkeypatch):
    """Every (blocks, batch) that the five `verify` oracles evaluate for s."""
    calls, reduce_residual, eval_array_ = [], chern.reduce_residual, \
        chern.eval_array

    def record(blocks, s_, batch):
        calls.append(([arr for _, arr in blocks], batch))
        return reduce_residual(blocks, s_, batch)

    def record_array(M, names, values):
        calls.append(([M], values))
        return eval_array_(M, names, values)

    with monkeypatch.context() as m:
        m.setattr(chern, "reduce_residual", record)
        m.setattr(chern, "eval_array", record_array)
        chern.verify_structure_identities(s, points)
        chern.torsion_oracle_residual(s, points)
        chern.curvature_oracle_residual(s, points)
        chern.verify_characterization(s, points)
        chern.eigenstructure_residual(s, points)
    return calls


def _trig2():
    vs = VarSet.default(2)
    return SodeSystem(vars=vs, F=(
        parse("3/4*sin(x2)*v1^2 + 1/2*exp(-1/3*t)*v2 + 5/8*cos(x1)*v1*v2", vs),
        parse("-1/2*cos(x2)*v2^2 + 3/8*sin(x1)*v1 + 1/4*exp(t)*v1*v2", vs)))


def _dense2(F):
    vs = VarSet.default(2)
    return SodeSystem(vars=vs, F=tuple(parse(f, vs) for f in F))


@pytest.mark.parametrize("system", ["poly2", "trig2", "dense2"])
def test_oracle_blocks_bit_equal_to_programs_run_alone(system, dense2_F,
                                                       monkeypatch):
    s = {"poly2": lambda: random_polynomial_sode(2, seed=61),
         "trig2": _trig2, "dense2": lambda: _dense2(dense2_F)}[system]()
    calls = _oracle_calls(s, sample_points(s.vars, 10_000, 7), monkeypatch)
    assert len(calls) >= 9
    names = s.vars.names
    for arrays, batch in calls:
        entries = [as_expr(e) for arr in arrays
                   for e in np.asarray(arr, dtype=object).flat
                   if e is not ZERO]
        programs = _programs(entries, names)
        fresh = run_programs(programs, batch, _FRESH)
        for program, value, want in zip(programs,
                                        run_programs(programs, batch), fresh):
            assert np.asarray(value).tobytes() == \
                np.asarray(program(batch)).tobytes() == \
                np.asarray(want).tobytes()
        row = [float(c[17]) for c in batch]
        for program, value in zip(programs, run_programs(programs, row)):
            assert np.float64(value).tobytes() == \
                np.float64(program(row)).tobytes()


@pytest.mark.parametrize("entries", [
    # a factor twice, an intermediate term twice, an intermediate that is
    # the root of a later entry, and an entry that is a sub-expression of an
    # earlier one
    [mul(X, X, V), mul(call("sin", T), call("sin", T), V)],
    [add(call("sin", X), mul(V, T), call("sin", X))],
    [add(mul(X, V), T), mul(X, V), mul(call("cos", mul(X, V)), 3)],
    [mul(call("exp", X), call("exp", X)), call("exp", X)],
    [pow_(add(X, V), 3), add(pow_(add(X, V), 3), pow_(add(X, V), 3))],
], ids=["x*x*y", "a+b+a", "root-then-operand", "sub-expression", "powers"])
def test_repeated_operands_and_shared_roots(entries):
    programs = _programs(entries)
    got = [v.copy() for v in run_programs(programs, BATCH)]
    for program, value, want in zip(programs, got,
                                    run_programs(programs, BATCH, _FRESH)):
        assert value.tobytes() == want.tobytes() == program(BATCH).tobytes()


def test_inputs_and_yielded_values_unchanged():
    entries = _shared_entries() + [add(mul(X, V), T), mul(X, V), X,
                                   add(X, V, X)]
    columns = [c.copy() for c in BATCH]
    yielded, copies = [], []
    for value in run_programs(_programs(entries), BATCH):
        yielded.append(value)
        copies.append(np.copy(value))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(BATCH, columns))
    assert all(np.asarray(a).tobytes() == b.tobytes()
               for a, b in zip(yielded, copies))
    # a root that is a variable is the input column itself, never written
    assert yielded[6] is BATCH[1]


def test_no_value_outlives_a_call(monkeypatch):
    ops, counts, lent, refs = _counting(expressions._INTO)
    # the counted operations stand in for the in-place ones of batch walks
    monkeypatch.setattr(expressions, "_INTO", ops)
    s = random_polynomial_sode(2, seed=61)
    points = sample_points(s.vars, 30, 2)
    gc.disable()
    try:
        chern.curvature_oracle_residual(s, points)
        out = eval_array(chern.connection(s).lie_derivative_J, s.vars.names,
                         point_batch(s.vars, points))
        values = list(run_programs(_programs(_shared_entries()), BATCH))
        assert all(type(v) is np.ndarray for v in values)
        del values
        assert sum(counts) and lent[0] and refs
        assert all(ref() is None for ref in refs)
        assert out.shape[-1] == 30
    finally:
        gc.enable()


def _count_reads(monkeypatch):
    """Count the reads of the operands of each sum and product, by node."""
    reads = {}
    for cls, name in ((Add, "terms"), (Mul, "factors")):
        slot = cls.__dict__[name]

        def get(node, slot=slot):
            reads[id(node)] = reads.get(id(node), 0) + 1
            return slot.__get__(node)

        monkeypatch.setattr(cls, name, property(get))
    return reads


def test_building_visits_each_distinct_node_once(monkeypatch):
    shared = add(*[mul(k, call("sin", mul(k, X)), V) for k in range(1, 30)])
    entries = [mul(k, shared, T) for k in range(2, 60)]
    M = np.array(entries, dtype=object)
    reads = _count_reads(monkeypatch)
    got = eval_array(M, V1.names, BATCH)
    monkeypatch.undo()
    assert reads[id(shared)] == 1
    assert set(reads.values()) == {1}
    assert len(reads) == sum(type(n) in (Add, Mul) for n in _compound(entries))
    want = np.array([compile_expr(e, V1.names)(BATCH) for e in entries])
    assert got.tobytes() == want.tobytes()


def test_programs_over_other_names_are_refused():
    programs = [compile_expr(X, V1.names), compile_expr(X, ("x1", "t", "v1"))]
    with pytest.raises(ValueError):
        list(run_programs(programs, BATCH))


def test_evaluation_never_recurses():
    deep, x = X, 0.7
    for _ in range(1000):
        deep = call("sin", deep)
    want, wanted = x, np.array([x, -x])
    for _ in range(1000):
        want, wanted = math.sin(want), np.sin(wanted)
    batch = [np.zeros(2), np.array([x, -x]), np.zeros(2)]
    value, = run_programs([compile_expr(deep, V1.names)], batch)
    assert value.tobytes() == wanted.tobytes()
    assert expressions.evaluate(deep, {"t": 0.0, "x1": x, "v1": 0.0}) == want
