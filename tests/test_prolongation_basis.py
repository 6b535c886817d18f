"""The first prolongation is computed from a basis of the structure algebra
(`classify._prolongation_dim`); the compiled-program cache keys on the type
of what it compiles; the errors of riemann and natjets are `ValueError`s;
and one rule, `cli.residual_limit`, gates every residual of every report."""

import json
from itertools import combinations

import numpy as np
import pytest

from chernsode import classify, cli
from chernsode.expressions import VarSet, compile_expr, evaluate, parse
from chernsode.natjets import (
    MissingInverse, VerticalAutomorphism, push_sode_symbolic,
)
from chernsode.riemann import SingularMetric
from chernsode.sode import SodeSystem, numeric_rank


def _gl(d):
    return np.eye(d * d).reshape(d * d, d, d)


def _so(d):
    basis = []
    for i, j in combinations(range(d), 2):
        m = np.zeros((d, d))
        m[i, j], m[j, i] = 1.0, -1.0
        basis.append(m)
    return np.array(basis)


def _block_gl(n):
    """diag(0, E_ij, E_ij) in gl(2n+1), one matrix per (i, j)."""
    d = 2 * n + 1
    basis = np.zeros((n, n, d, d))
    for i in range(n):
        for j in range(n):
            basis[i, j, 1 + i, 1 + j] = basis[i, j, 1 + n + i, 1 + n + j] = 1.0
    return basis.reshape(n * n, d, d)


def _constraint_table_dim(n):
    """The nullity of the hand-indexed constraint table that
    `first_prolongation_dim` once built: unknowns S[a, b, g] symmetric in
    (a, b), with every slice S[a] in the block-embedded gl(n)."""
    dim = 2 * n + 1
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    col = {(a, b, g): pairs.index((min(a, b), max(a, b))) * dim + g
           for a in range(dim) for b in range(dim) for g in range(dim)}
    rows = []

    def constrain(*coeffs):
        row = np.zeros(len(pairs) * dim)
        for key, c in coeffs:
            row[col[key]] += c
        rows.append(row)

    lo, hi = range(1, n + 1), range(n + 1, dim)
    for a in range(dim):
        for g in range(dim):
            constrain(((a, 0, g), 1.0))
        for b in range(1, dim):
            constrain(((a, b, 0), 1.0))
        for b in lo:
            for g in hi:
                constrain(((a, b, g), 1.0))
        for b in hi:
            for g in lo:
                constrain(((a, b, g), 1.0))
        for b in lo:
            for g in lo:
                constrain(((a, b, g), 1.0), ((a, b + n, g + n), -1.0))
    return len(pairs) * dim - numeric_rank(rows)[0]


# --------------------------------------------------------------------------
# the first prolongation from a basis
# --------------------------------------------------------------------------

@pytest.mark.parametrize("d, expected", [(1, 1), (2, 6), (3, 18)])
def test_prolongation_of_gl_is_the_symmetric_tensors(d, expected):
    assert expected == d * d * (d + 1) // 2
    assert classify._prolongation_dim(_gl(d)) == expected


@pytest.mark.parametrize("d", [2, 3, 4])
def test_prolongation_of_so_vanishes(d):
    assert classify._prolongation_dim(_so(d)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_algebra_matches_the_constraint_table(n):
    assert classify._prolongation_dim(_block_gl(n)) \
        == _constraint_table_dim(n) == classify.first_prolongation_dim(n) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_first_prolongation_ranks_one_basis_system(monkeypatch, n):
    shapes = []

    def recorded(rows, *args):
        shapes.append(np.vstack(rows).shape)
        return numeric_rank(rows, *args)

    monkeypatch.setattr(classify, "numeric_rank", recorded)
    d = 2 * n + 1
    assert classify.first_prolongation_dim(n) == 0
    assert shapes == [(d * (d - 1) // 2 * d, d * n * n)]


# --------------------------------------------------------------------------
# the compiled-program cache keys on the type
# --------------------------------------------------------------------------

@pytest.mark.parametrize("first, second", [(2, 2.0), (2.0, 2)])
def test_equal_numbers_of_two_types_compile_apart(first, second):
    for value in (first, second):
        message = f"cannot evaluate {type(value).__name__}"
        with pytest.raises(TypeError, match=message):
            evaluate(value, {"x1": 1.0})
        with pytest.raises(TypeError, match=message):
            compile_expr(value, ("x1",))([1.0])


# --------------------------------------------------------------------------
# the task errors are ValueErrors
# --------------------------------------------------------------------------

def test_task_errors_are_value_errors():
    assert issubclass(SingularMetric, ValueError)
    assert issubclass(MissingInverse, ValueError)


def test_push_without_an_inverse_is_caught_as_a_value_error():
    vars = VarSet.default(1)
    s = SodeSystem(vars=vars, F=(parse("-x1 - v1", vars),))
    auto = VerticalAutomorphism(vars=vars, phi=(parse("x1 + t^2", vars),))
    with pytest.raises(ValueError) as info:
        push_sode_symbolic(auto, s)
    assert type(info.value) is MissingInverse


# --------------------------------------------------------------------------
# one gate for every residual of every report
# --------------------------------------------------------------------------

PROBLEM = {
    "dimension": 2,
    "F": ["-x1 - v1 + v2^2", "x1*v1 - v2"],
    "metric": [["1 + x1^2", "0"], ["0", "1"]],
    "U": [["1", "0"], ["0", "2"]],
    "automorphism": {"phi": ["x1 + t^2", "x2"], "inverse": ["x1 - t^2", "x2"]},
    "samples": {"mode": "random", "count": 4, "seed": 7},
}


def _residual_entries(node, key=None):
    """(key, entry) for every dict with a residual and a pass in a report."""
    if isinstance(node, dict):
        if "residual" in node and "pass" in node:
            yield key, node
        for k, v in node.items():
            yield from _residual_entries(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _residual_entries(v, key)


@pytest.mark.parametrize("tolerances", [
    {},
    {"identity": 0.0, "oracle": 1.0},
    {"identity": 1.0, "oracle": 0.0},
])
def test_every_report_residual_passes_by_its_limit(tmp_path, tolerances):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(PROBLEM, tolerances=tolerances)))
    for task in cli.TASKS:
        report = cli.run(str(path), task)
        entries = list(_residual_entries(report))
        assert entries, task
        for key, entry in entries:
            limit = cli.residual_limit(key, report["tolerances"])
            residual = entry["residual"]
            assert entry["pass"] == (residual is not None
                                     and residual <= limit), (task, key)
