"""Less work on the `verify` path, with the same output.

`chern._curvature_array` differentiates each Gamma node once per frame
column, `sode.reduce_residual` takes one max per entry and an argmax only
for a new worst, and `expressions._plan` does less bookkeeping per node.
Each is checked against a test-local copy of the loop it replaced."""

from array import array
from itertools import combinations

import numpy as np
import pytest

from chernsode import chern, expressions
from chernsode.expressions import (
    ZERO, Add, Call, Const, Mul, Pow, Var, VarSet, _OPCODE, _float,
    _postorder, compile_expr, parse, run_programs,
)
from chernsode.sode import (
    JetPoint1, Residual, SodeSystem, as_expr, expr_array, point_batch,
    random_polynomial_sode, reduce_residual, sample_points,
)


def make(n, *rhs):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(parse(f, vars) for f in rhs))


# --------------------------------------------------------------------------
# one e_a(Gamma) per frame column and distinct Gamma node
# --------------------------------------------------------------------------

def _old_curvature_array(s, gamma):
    """The loop that differentiated every nonzero Gamma entry per column."""
    n2 = gamma.shape[0]
    conn = chern.connection(s)
    C, frame = conn.structure_functions, conn.frame
    d_gamma = expr_array((n2,) * 4)
    for idx in np.ndindex(gamma.shape):
        for a in range(n2):
            if a != idx[0] and gamma[idx] is not ZERO:
                d_gamma[(a,) + idx] = chern.directional(frame[:, a], s.coords,
                                                        gamma[idx])
    R = expr_array((n2,) * 4)
    for a, b in combinations(range(n2), 2):
        for c in range(n2):
            R[a, b, c] = (d_gamma[a, b, c]
                          + chern._contract(gamma[b, c], gamma[a])) \
                - (d_gamma[b, a, c] + chern._contract(gamma[a, c], gamma[b])) \
                - chern._contract(C[a, b], gamma[:, c])
    return R


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_gamma_derivative_per_column_and_node(n, monkeypatch):
    s = random_polynomial_sode(n, seed=40 + n)
    conn = chern.connection(s)
    gamma, frame = conn.gamma, conn.frame
    conn.structure_functions                # built before counting
    calls, real = [], chern.directional

    def counted(field, coords, f):
        calls.append((tuple(field), id(f)))
        return real(field, coords, f)

    monkeypatch.setattr(chern, "directional", counted)
    got = chern._curvature_array(s, gamma)
    monkeypatch.undo()
    n2 = 2 * n + 1
    want = {(tuple(frame[:, a]), id(g))
            for idx, g in np.ndenumerate(gamma) if g is not ZERO
            for a in range(n2) if a != idx[0]}
    assert len(calls) == len(set(calls)) == len(want)
    assert set(calls) == want
    # Gamma repeats each W and V entry in both n-blocks
    entries = sum(g is not ZERO for g in gamma.flat) * (n2 - 1)
    assert len(want) < entries
    old = _old_curvature_array(s, gamma)
    assert all(x is y for x, y in zip(got.flat, old.flat))


# --------------------------------------------------------------------------
# one max per residual entry
# --------------------------------------------------------------------------

def _old_reduce_residual(blocks, s, batch):
    entries = [(label, entry, e) for label, arr in blocks
               for entry, e in enumerate(np.asarray(arr, dtype=object).flat)
               if e is not ZERO]
    programs = [compile_expr(as_expr(e), s.vars.names) for _, _, e in entries]
    out, nonfinite = Residual(0.0, None, 0, None, None, None), 0
    for (label, entry, _), value in zip(entries, run_programs(programs, batch)):
        vals = np.ravel(value)
        if not vals.size:
            continue
        mags = np.abs(vals)
        k = int(np.argmax(mags))
        top = float(mags[k]) if np.isfinite(mags[k]) else float("nan")
        bad = np.flatnonzero(~np.isfinite(mags)) if np.isnan(top) else []
        if not nonfinite and (len(bad) or top > out.worst):
            k = int(bad[0]) if len(bad) else k
            out = Residual(top, label, 0, entry, k, float(vals[k]))
        nonfinite += len(bad)
    return out._replace(nonfinite=nonfinite)


S1 = make(1, "0")
# x1 = 0 makes x1^-1 infinite and log(x1) -inf, x1 < 0 makes sqrt(x1) NaN
POINTS = [JetPoint1(0.0, (x,), (0.5,)) for x in (0.25, 4.0, 0.0, -4.0, -1.0)]
BLOCKS = {
    "inf without NaN": [("a", ["3*x1", "x1^-1", "-2*x1^-2"])],
    "NaN after a larger finite value": [("a", ["100*x1"]),
                                        ("b", ["x1", "10*sqrt(x1 + 1)"])],
    "-inf before NaN in one entry": [("a", ["x1"]), ("b", ["log(x1)"])],
    "finite after non-finite": [("a", ["sqrt(x1)"]), ("b", ["1000*x1"])],
    "ties across entries and points": [("a", ["x1", "-x1"]),
                                       ("b", ["x1^2/4", "4*x1^0"])],
    "all ZERO": [("z", [ZERO, ZERO, ZERO])],
    "ZERO between": [("z", [ZERO]), ("a", ["-x1", ZERO, "x1"]), ("y", [ZERO])],
    "empty": [],
}


def _parsed(blocks):
    return [(label, [e if e is ZERO else parse(e, S1.vars) for e in entries])
            for label, entries in blocks]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(BLOCKS))
def test_reducer_equals_the_argmax_per_entry_reducer(case):
    batch = point_batch(S1.vars, POINTS)
    blocks = _parsed(BLOCKS[case])
    got = reduce_residual(blocks, S1, batch)
    assert repr(got) == repr(_old_reduce_residual(blocks, S1, batch))
    # reversed, a block's witness competes with the others the other way
    assert repr(reduce_residual(blocks[::-1], S1, batch)) == \
        repr(_old_reduce_residual(blocks[::-1], S1, batch))


# --------------------------------------------------------------------------
# the same plans on all five verify oracles
# --------------------------------------------------------------------------

def _old_plan(roots, names):
    """The planner with two read tables and a sliced lending test."""
    index = {name: i for i, name in enumerate(names)}
    slot, leaves, loads = {}, [], []
    code, segments, last, final, results = [], [], {}, {}, 0
    for k, root in enumerate(roots):
        first = results
        for node, args in _postorder(root, slot):
            t = type(node)
            if t is Var or t is Const:
                slot[id(node)] = len(leaves)
                if t is Var:
                    loads.extend((len(leaves), index[node.name]))
                leaves.append(None if t is Var else _float(node.value))
                continue
            regs = [slot[id(a)] for a in args]
            if t is Pow:
                if id(node.exponent) not in slot:
                    slot[id(node.exponent)] = len(leaves)
                    leaves.append(node.exponent)
                regs.append(slot[id(node.exponent)])
            elif len(regs) == 1 and t is not Call:
                slot[id(node)] = regs[0]
                continue
            for r in regs:
                last[r], final[r] = len(code), k
            slot[id(node)], results = ~results, results + 1
            code += (_OPCODE[node.func if t is Call else t], len(regs), *regs)
        segments.append((results - first, slot[id(root)]))
        final[slot[id(root)]] = k
    n = len(leaves)
    code = [c if c >= 0 else n + ~c for c in code]
    kept = {top for _, top in segments}
    for r, at in last.items():
        operands = code[at + 2:at + 2 + code[at + 1]]
        if r < 0 and r not in kept and code[at] < 8 \
                and code[at] != _OPCODE[Pow] and operands.count(n + ~r) == 1 \
                and n + ~r in operands[:2]:
            code[at] += (n + ~r + 1) << 3
    gone = [[] for _ in segments[1:]]
    for r, k in final.items():
        if r < 0 and k < len(gone):
            gone[k].append(n + ~r)
    return (tuple(leaves), tuple(loads), array("i", code),
            tuple((count, top if top >= 0 else n + ~top, tuple(drop))
                  for (count, top), drop in zip(segments, gone + [()])))


def _system(name, dense2_F):
    if name == "trig2":
        return make(2, "sin(x1)*v2^2 + exp(t)*v1", "cos(x2)*v1*v2 - x1*v2^3")
    if name == "dense2":
        return make(2, *dense2_F)
    return random_polynomial_sode(3, seed=3000)


@pytest.mark.parametrize("name", ["trig2", "dense2", "poly3"])
def test_plans_equal_on_the_five_verify_oracles(name, dense2_F, monkeypatch):
    s = _system(name, dense2_F)
    points = sample_points(s.vars, 12, 7)
    plans, plan = [], expressions._plan

    def recorded(roots, names):
        out = plan(roots, names)
        plans.append((list(roots), names, out))
        return out

    monkeypatch.setattr(expressions, "_plan", recorded)
    chern.verify_structure_identities(s, points)
    chern.torsion_oracle_residual(s, points)
    chern.curvature_oracle_residual(s, points)
    chern.verify_characterization(s, points)
    chern.eigenstructure_residual(s, points)
    monkeypatch.undo()
    assert len(plans) >= 9
    kinds = {type(e) for roots, _, _ in plans for e in roots}
    assert {Add, Mul, Var}.issubset(kinds)
    lent = 0
    for roots, names, got in plans:
        assert got == _old_plan(roots, names)
        lent += sum(op >= 8 for op in _opcodes(got[2]))
    assert lent                             # the lending pass is exercised


def _opcodes(code):
    at, out = 0, []
    while at < len(code):
        out.append(code[at])
        at += 2 + code[at + 1]
    return out
