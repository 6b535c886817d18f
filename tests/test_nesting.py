"""Nesting depth in the parser: calls, parentheses and unary signs open one
level each, and past the limit `parse` raises ParseError at the token that
opens the level too many, so the CLI exits 2 naming the expression."""

import json

import pytest

from chernsode import cli
from chernsode.expressions import ParseError, VarSet, parse, to_string

VS = VarSet.default(1)


def _sines(depth):
    return "sin(" * depth + "x1" + ")" * depth


@pytest.mark.parametrize("text", [
    _sines(100), "(" * 100 + "x1" + ")" * 100, "-" * 100 + "x1",
    "sin(" * 50 + "-(" * 25 + "x1" + ")" * 75,
], ids=["calls", "parentheses", "minus", "mixed"])
def test_nesting_up_to_the_limit_parses(text):
    parse(text, VS)


@pytest.mark.parametrize("text, position", [
    (_sines(101), 400),
    ("(" * 101 + "x1" + ")" * 101, 100),
    ("-" * 101 + "x1", 100),
    ("+" * 60 + "(" * 60 + "x1" + ")" * 60, 100),
    ("sin(" * 50 + "-(" * 26 + "x1" + ")" * 76, 250),
], ids=["calls", "parentheses", "minus", "plus-parentheses", "mixed"])
def test_nesting_past_the_limit_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as info:
        parse(text, VS)
    assert info.value.position == position
    assert "nesting" in str(info.value)


def test_levels_close_again():
    # siblings do not add up: each closing parenthesis leaves its level
    text = " + ".join([_sines(100)] * 20)
    assert to_string(parse(text, VS)).count("sin(") == 2000


@pytest.mark.parametrize("F", [
    _sines(250) + "*v1^2", _sines(1000) + "*v1^2", "-" * 1000 + "x1",
], ids=["sin-250", "sin-1000", "minus-1000"])
def test_cli_deep_nesting_exits_2_with_location(tmp_path, capsys, F):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"dimension": 1, "F": [F],
                                "samples": {"mode": "random", "count": 4,
                                            "seed": 1}}))
    assert cli.main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["kind"] == "syntax" and error["location"] == "F[0]"
    assert "nesting deeper than" in error["message"]
    assert err == ""
