"""Interned expression nodes: equal nodes are one object, so equality,
compilation and the evaluation memo share one notion of sameness, and the
walkers visit each distinct node of a shared DAG once."""

import copy
import gc
import json
import math
import pickle
import subprocess
import sys
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from chernsode import expressions, natjets
from chernsode.expressions import (
    ONE, ZERO, Call, Const, DomainError, VarSet, add, call, compile_expr,
    const, evaluate, free_variables, mul, parse, run_programs, substitute, var,
)
from chernsode.sode import (
    JetPoint1, SodeSystem, point_batch, random_polynomial_sode, sample_points,
)

V1 = VarSet.default(1)


def test_equal_nodes_built_independently_are_one_object():
    assert parse("x1+v1", V1) is parse("x1+v1", V1)
    assert parse("sin(x1*v1)^2 - 3/4*t", V1) is \
        add(mul(call("sin", mul(var("x1"), var("v1"))) ** 2),
            mul(Fraction(-3, 4), var("t")))
    assert Const(Fraction(5, 7)) is const(Fraction(10, 14))


def test_copies_and_unpickled_nodes_are_interned():
    e = parse("sin(x1)*v1^2 + 1/3", V1)
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


def test_constants_compare_by_value_and_share_parents():
    x = var("x1")
    assert const(0) == ZERO and const(0) is not ZERO
    assert const(1) == ONE and const(1) is not ONE
    # a parent over a singleton and one over the equal constant are one node
    assert Call("sin", ZERO) is Call("sin", const(0))
    assert add(x, ONE) is add(x, const(1))
    assert add(x, ONE) != add(x, const(2))


def test_hash_is_structural():
    x, v = var("x1"), var("v1")
    assert hash(add(x, v)) == hash(("+", x, v))
    assert hash(call("exp", x)) == hash(("exp", x))
    assert hash(const(3)) == hash(("c", Fraction(3)))


def test_dead_node_leaves_the_table_without_gc():
    t = var("t")
    gc.disable()
    try:
        node = call("sqrt", add(t, Fraction(1, 1000003)))
        ref, size = weakref.ref(node), len(expressions._NODES)
        del node
        assert ref() is None
        # the call, the sum and the constant went with it
        assert len(expressions._NODES) == size - 3
    finally:
        gc.enable()


def _chain(e, depth):
    for _ in range(depth):
        e = add(call("sin", e), call("cos", e))
    return e


def test_shared_dag_walked_once_per_distinct_node():
    """e_{k+1} = sin(e_k) + cos(e_k) is a tree of about 2^k nodes and a DAG
    of 3 per level."""
    x, v, t = var("x1"), var("v1"), var("t")
    env = {"t": 0.25, "x1": 0.5, "v1": -0.75}
    start = time.perf_counter()
    for depth in (18, 60):
        e = _chain(mul(x, v), depth)
        s = SodeSystem(vars=V1, F=(e,))
        moved = substitute(s.F[0], {"x1": add(x, t)})
        assert moved is _chain(mul(add(x, t), v), depth)
        assert free_variables(moved) == {"t", "x1", "v1"}
        y = 0.75 * -0.75
        for _ in range(depth):
            y = math.sin(y) + math.cos(y)
        assert evaluate(moved, env) == y
        assert time.perf_counter() - start < 1.0, depth


class _Counted:
    """The batch table, counting the sines it runs."""

    def __init__(self):
        load, ops = expressions._BATCH
        self.sines = 0
        sin = expressions._OPCODE["sin"]

        def counted(*args):
            self.sines += 1
            return ops[sin](*args)

        self.table = (load, ops[:sin] + (counted,) + ops[sin + 1:])


def test_memo_shares_nodes_parsed_apart():
    names = V1.names
    batch = point_batch(V1, sample_points(V1, 20, 4))
    programs = [compile_expr(parse(text, V1), names)
                for text in ("2*sin(x1*v1)", "sin(x1*v1)*t", "cos(t)")]
    counted = _Counted()
    values = list(run_programs(programs, batch, counted.table))
    assert counted.sines == 1
    for program, value in zip(programs, values):
        assert value.tobytes() == program(batch).tobytes()


@pytest.mark.parametrize("text, x1, v1", [
    ("cos(x1)", math.inf, 0.0), ("sin(x1)*v1", -math.inf, 1.0),
    ("x1 - v1", math.inf, math.inf)])
def test_evaluate_at_an_infinity_is_a_domain_error(text, x1, v1):
    with pytest.raises(DomainError):
        evaluate(parse(text, V1), {"t": 0.0, "x1": x1, "v1": v1})


def test_evaluate_keeps_value_error_for_a_value_that_is_no_number():
    with pytest.raises(ValueError):
        evaluate(parse("cos(x1)", V1), {"t": 0.0, "x1": "one", "v1": 0.0})


def test_push_cos_of_an_infinity_names_the_sample(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "dimension": 1, "F": ["cos(10^400*x1)*v1"],
        "automorphism": {"phi": ["x1 + t^2"], "inverse": ["x1 - t^2"]},
        "samples": {"mode": "random", "count": 4, "seed": 1}}))
    proc = subprocess.run([sys.executable, "-m", "chernsode.cli", "push",
                           str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, "")
    err = json.loads(proc.stdout)["error"]
    assert err["kind"] == "DomainError"
    assert err["location"] == "samples.points[0]"


def test_field_gradient_read_from_placeholder_values():
    """infinitesimal_equivariance reads u_x from the placeholder values: the
    same derivative nodes and the same evaluate as the Jacobian of u."""
    s = random_polynomial_sode(2, seed=5)
    u = natjets.random_polynomial_field(s.vars, seed=6)
    p = JetPoint1(0.3, (0.2, -0.4), (0.5, 0.1))
    env = p.env(s.vars)
    ujet = natjets.UJet(s.vars)
    values = dict(zip(ujet.names, ujet.values_for(u, env)))
    got = np.array([[values[ujet.index[(i, (x,))]] for x in s.vars.positions]
                    for i in range(s.n)])
    want = natjets._at(natjets._jacobian(u, s.vars.positions), env)
    assert got.tobytes() == want.tobytes()
