"""The front end in one pass per layer: `parse` reads sums and products as
flat operand lists, `cli.run` reports every failure to read the problem
file as JSON at the file path, and `cli.main` writes every error report in
one place.

The parser must build exactly the nodes of the precedence climber it
replaced, which folded a k-operand sum or product through k - 1 binary
`add`/`mul` calls; that climber is kept here as the reference.
"""

import importlib.util
import inspect
import json
import random
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chernsode import cli
from chernsode.cli import CliInputError, main
from chernsode.expressions import (
    FUNCTIONS, Add, Call, Const, DomainError, Mul, ParseError,
    UnknownIdentifier, Var, VarSet, _MAX_NESTING, _tokenize, add, div, mul,
    neg, parse, pow_,
)
from chernsode.natjets import MissingInverse, UJet
from chernsode.riemann import SingularMetric
from chernsode.sode import OracleMismatch

ROOT = Path(__file__).resolve().parent.parent
VARS = VarSet.default(2)


# -- the parser as it was: precedence climbing, one binary add/mul per operator

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def climb(text, vars):
    tokens = _tokenize(text)
    idx = depth = 0

    def enter(pos):
        nonlocal depth
        depth += 1
        if depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", pos)

    def leave(e):
        nonlocal depth
        depth -= 1
        return e

    def peek():
        return tokens[idx]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def expect_op(symbol):
        kind, value, pos = advance()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)

    def parse_exponent():
        kind, value, pos = advance()
        sign = 1
        parenthesised = False
        if kind == "op" and value == "(":
            parenthesised = True
            kind, value, pos = advance()
        if kind == "op" and value == "-":
            sign = -1
            kind, value, pos = advance()
        if kind != "num" or not re.fullmatch(r"\d+", value):
            raise ParseError("exponent must be an integer literal", pos)
        if parenthesised:
            expect_op(")")
        return sign * int(value)

    def parse_atom():
        kind, value, pos = advance()
        if kind == "num":
            return Const(Fraction(Decimal(value)))
        if kind == "name":
            if peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise UnknownIdentifier(value, pos)
                advance()
                enter(pos)
                inner = parse_expr(0)
                expect_op(")")
                return leave(Call(value, inner))
            if value in vars.names:
                return Var(value)
            raise UnknownIdentifier(value, pos)
        if kind == "op" and value == "(":
            enter(pos)
            inner = parse_expr(0)
            expect_op(")")
            return leave(inner)
        raise ParseError(f"unexpected token {value!r}" if value
                         else "unexpected end of input", pos)

    def parse_unary():
        kind, value, pos = peek()
        if kind == "op" and value in ("-", "+"):
            advance()
            enter(pos)
            inner = parse_unary()
            return leave(neg(inner) if value == "-" else inner)
        return parse_power()

    def parse_power():
        base = parse_atom()
        while peek()[:2] == ("op", "^"):
            advance()
            base = pow_(base, parse_exponent())
        return base

    def parse_expr(min_prec):
        left = parse_unary()
        while True:
            kind, value, _ = peek()
            if kind != "op" or value not in _BIN_PREC \
                    or _BIN_PREC[value] < min_prec:
                return left
            advance()
            right = parse_expr(_BIN_PREC[value] + 1)
            if value == "+":
                left = add(left, right)
            elif value == "-":
                left = add(left, neg(right))
            elif value == "*":
                left = mul(left, right)
            else:
                left = div(left, right)

    result = parse_expr(0)
    kind, value, pos = peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", pos)
    return result


def _outcome(reader, text, vars):
    try:
        return reader(text, vars)
    except (ParseError, UnknownIdentifier, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def assert_same(text, vars=VARS):
    """parse builds the climber's node, or raises its error and message."""
    got, want = _outcome(parse, text, vars), _outcome(climb, text, vars)
    if isinstance(want, tuple):
        assert got == want, text
    else:
        assert got is want, text


def _gen():
    """perfbench/gen.py, imported without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


# -- flat sums and products ---------------------------------------------------

OPERANDS = {
    "+": lambda k: f"{k % 7 - 3}*x1^{k % 4}*v{1 + k % 2}",
    "-": lambda k: f"({k % 5}/{1 + k % 3})*sin(x{1 + k % 2})*t^{k % 3}",
    "*": lambda k: f"(x{1 + k % 2} + {k})^{k % 3 - 1}",
    "/": lambda k: ("v1", "2", "(x2 + 1)", "x1^2", "0.5")[k % 5],
}


@pytest.mark.parametrize("op", sorted(OPERANDS))
def test_a_long_sum_or_product_parses_in_linear_time(op):
    text = op.join(OPERANDS[op](k) for k in range(16_000))
    start = time.perf_counter()
    e = parse(text, VARS)
    assert time.perf_counter() - start < 5.0
    assert type(e) is (Add if op in "+-" else Mul)
    assert len(e.terms if op in "+-" else e.factors) > 9_000


@pytest.mark.parametrize("op", sorted(OPERANDS))
def test_a_long_sum_or_product_builds_the_left_fold(op):
    assert_same(op.join(OPERANDS[op](k) for k in range(400)))


@pytest.mark.parametrize("text", [
    "1 - 1 + x1", "x1 + 1 - 1", "2 - 1 + x1", "0 + 0", "0", "1", "1*1",
    "x1 - x1", "0*x1*v1", "x1*0", "x1/2/3", "x1/1", "2*(3*x1)*4",
    "(x1 + 1) + (v1 - 1)", "x1/(2*v1)/x1^2", "-x1*v1", "-x1^2 - -v1",
    "x1*-v1/-2", "+x1", "(1/2)*(2/1)", "3*(1/3)", "x1/0", "1/(0)",
    "x1/(1 - 1)", "0^-1 + x1", "x1 + ", "x1 * * v1", "x1 + y",
])
def test_edge_cases_build_the_left_fold(text):
    assert_same(text)


def test_the_benchmark_templates_build_the_left_fold():
    gen = _gen()
    for template in sorted(gen.TEMPLATES):
        for seed in (1, 77):
            raw = gen.problem(random.Random(f"{template}:{seed}"), template,
                              count=1, metric=True, automorphism=True)
            vars = VarSet.default(raw["dimension"])
            texts = (raw["F"] + [e for row in raw["metric"] for e in row]
                     + raw["automorphism"]["phi"]
                     + raw["automorphism"]["inverse"])
            for text in texts:
                assert_same(text, vars)


def test_the_dense_system_builds_the_left_fold(dense2_F):
    for text in dense2_F:
        assert_same(text)
        assert len(parse(text, VARS).terms) == 60


@pytest.mark.parametrize("text", [
    "(" * 101 + "x1" + ")" * 101, "-" * 101 + "x1", "sin(" * 101 + "x1"
    + ")" * 101, "(" * 100 + "x1" + ")" * 100, "x1*(" * 100 + "v1" + ")" * 100,
])
def test_the_nesting_cap_and_its_message_stay(text):
    assert_same(text)


_ATOMS = st.sampled_from(VARS.names + ("0", "1", "2", "0.5", "1.25", "3e-1"))
_EXPONENTS = st.sampled_from(["2", "-1", "(-2)", "0", "3", "1"])


def _chain(operands):
    """operands joined by a drawn binary operator between each pair."""
    return st.lists(st.sampled_from("+-*/"), min_size=len(operands) - 1,
                    max_size=len(operands) - 1).map(
        lambda ops: operands[0] + "".join(o + x for o, x in
                                          zip(ops, operands[1:])))


def _extend(sub):
    return st.one_of(
        st.lists(sub, min_size=2, max_size=6).flatmap(_chain),
        sub.map(lambda s: f"({s})"),
        st.tuples(st.sampled_from("-+"), sub).map("".join),
        st.tuples(st.sampled_from(FUNCTIONS), sub).map(
            lambda fs: f"{fs[0]}({fs[1]})"),
        st.tuples(sub, _EXPONENTS).map(lambda be: f"({be[0]})^{be[1]}"),
        st.tuples(_ATOMS, _EXPONENTS).map("^".join),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_ATOMS, _extend, max_leaves=30))
def test_expressions_build_the_left_fold(text):
    assert_same(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="x1v2t+-*/^() 0.5", max_size=24))
def test_any_text_gives_the_climbers_node_or_error(text):
    assert_same(text)


# -- reading the problem file -------------------------------------------------

BASE = {"dimension": 1, "F": ["-x1 - v1"],
        "samples": {"mode": "random", "count": 4, "seed": 7}}


def _error(capsys, path, task="analyze"):
    assert main([task, str(path)]) == 2
    return json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("content, message", [
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ('{"a": ' * 100_000 + "1" + "}" * 100_000,
     "maximum recursion depth exceeded"),
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    (json.dumps(BASE)[:-1] + ', "F": ["-x1"]}', "duplicate key 'F'"),
    ('{"samples": {"seed": 7, "seed": 8}, "dimension": 1}',
     "duplicate key 'seed'"),
    ("{", "Expecting property name enclosed in double quotes"),
])
def test_every_read_failure_is_json_at_the_file_path(tmp_path, capsys,
                                                      content, message):
    path = tmp_path / "problem.json"
    if isinstance(content, str):
        content = content.encode()
    path.write_bytes(content)
    err = _error(capsys, path)
    assert err["kind"] == "json"
    assert err["location"] == str(path)
    assert message in err["message"]
    with pytest.raises(CliInputError) as exc:
        cli.run(str(path), "analyze")
    assert (exc.value.kind, exc.value.location) == ("json", str(path))


def test_a_duplicate_key_is_refused_even_with_equal_values(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(BASE)[:-1] + ', "dimension": 1}')
    err = _error(capsys, path)
    assert err == {"kind": "json", "message": "duplicate key 'dimension'",
                   "location": str(path)}


def test_a_missing_file_is_io_at_its_path(tmp_path, capsys):
    path = tmp_path / "absent.json"
    err = _error(capsys, path)
    assert (err["kind"], err["location"]) == ("io", str(path))


# -- one error writer ---------------------------------------------------------

def _report(kind, message, location="null"):
    return ('{\n  "error": {\n    "kind": "%s",\n    "message": "%s",\n'
            '    "location": %s\n  }\n}\n' % (kind, message, location))


@pytest.mark.parametrize("exc, text", [
    (CliInputError("validation", "bad F", "F[0]"),
     _report("validation", "bad F", '"F[0]"')),
    (CliInputError("io", "gone"), _report("io", "gone")),
    (ParseError("expected ')'", 4),
     _report("syntax", "expected ')' (at position 4)")),
    (UnknownIdentifier("y"), _report("syntax", "unknown identifier 'y'")),
    (DomainError("log of a non-positive number"),
     _report("DomainError", "log of a non-positive number")),
    (ZeroDivisionError("division by the constant 0"),
     _report("DomainError", "division by the constant 0")),
    (SingularMetric("metric is singular"),
     _report("SingularMetric", "metric is singular")),
    (MissingInverse("needs an inverse"),
     _report("MissingInverse", "needs an inverse")),
    (OracleMismatch("paths disagree"),
     _report("OracleMismatch", "paths disagree")),
    (ValueError("bad value"), _report("ValueError", "bad value")),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
     _report("UnicodeDecodeError", "'utf-8' codec can't decode byte 0xff "
             "in position 0: invalid start byte")),
    (MemoryError(), _report("MemoryError", "")),
    (RecursionError("maximum recursion depth exceeded"),
     _report("validation", "expression too deeply nested")),
])
def test_each_mapped_exception_writes_its_report(monkeypatch, capsys, exc,
                                                 text):
    def raising(spec_path, task):
        raise exc

    monkeypatch.setattr(cli, "run", raising)
    assert main(["analyze", "problem.json"]) == 2
    assert capsys.readouterr().out == text


def test_a_task_without_a_file_is_reported_by_the_same_writer(capsys):
    assert main(["jets"]) == 2
    assert capsys.readouterr().out == _report(
        "validation", "task 'jets' needs a problem file", '"problem"')


def test_main_writes_the_error_report_in_one_place():
    source = inspect.getsource(main)
    assert source.count('{"error"') == 1
    assert source.count("return 2") == 1


# -- names the jet coordinates reserve ----------------------------------------

def _jets(tmp_path, capsys, time_, positions, velocities, F):
    path = tmp_path / f"{positions[0]}-{velocities[0]}.json"
    path.write_text(json.dumps(dict(
        BASE, F=[F], variables={"time": time_, "positions": positions,
                                "velocities": velocities})))
    code = main(["jets", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("clash, renamed, role", [
    ("u1", "w1", "velocity"),        # the field's value u1
    ("u1_t", "ua", "position"),      # its time derivative u1_t
])
def test_a_variable_named_like_a_placeholder_gives_the_renamed_report(
        tmp_path, capsys, clash, renamed, role):
    def report(name):
        x, v = ("x1", name) if role == "velocity" else (name, "v1")
        return _jets(tmp_path, capsys, "t", [x], [v],
                     f"{x}*{v}^2 + sin(t)*{v}")

    code, text = report(clash)
    assert (code, text) == report(renamed)
    assert code == 0
    assert json.loads(text)["distribution_rank"]["rank"] == 11


def test_placeholders_are_no_variable_and_keep_their_order():
    vars = VarSet("t", ("u1_t",), ("u1",))
    ujet = UJet(vars)
    assert set(ujet.names).isdisjoint(vars.names)
    assert all(name.endswith("'") for name in ujet.names)
    assert sorted(ujet.chain) == sorted(ujet.chain,
                                        key=lambda name: name[:-1])


@pytest.mark.parametrize("task", ["jets", "push"])
def test_a_jet_coordinate_name_is_a_bad_variable(tmp_path, capsys, task):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(
        BASE, F=["-a1 - v1"], automorphism={"phi": ["a1 + t"]},
        variables={"time": "t", "positions": ["a1"], "velocities": ["v1"]})))
    assert main([task, str(path)]) == 2
    assert capsys.readouterr().out == _report(
        "validation", "bad variables: variable names make jet coordinate "
        "names collide; rename them", '"variables"')
