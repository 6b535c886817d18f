"""Each CLI process loads only the modules its task runs: `from chernsode
import cli` loads the expression, system and connection modules, and each
task imports what else it reads when it runs.  Every check starts a fresh
interpreter, since this process has long loaded every module."""

import json
import subprocess
import sys

import pytest

import chernsode

BASE = {"chernsode", "chernsode.cli", "chernsode.expressions",
        "chernsode.sode", "chernsode.chern"}

PROBLEM = {"dimension": 1, "F": ["x1*v1^2 - 1/2*t*v1"],
           "samples": {"mode": "random", "count": 3, "seed": 1}}
METRIC = {"metric": [["1 + x1^2"]]}
AUTOMORPHISM = {"automorphism": {"phi": ["x1 + t^2"],
                                 "inverse": ["x1 - t^2"]}}

# (task, problem-file keys beyond PROBLEM) -> modules loaded beyond BASE
TASKS = {
    ("analyze", ()): {"classify"},
    ("classify", ()): {"classify"},
    ("verify", ()): set(),
    ("verify", ("metric",)): {"riemann"},
    ("riemann", ("metric",)): {"riemann", "classify"},
    ("jets", ()): {"natjets", "classify"},
    ("push", ("automorphism",)): {"natjets"},
}
EXTRA = {"metric": METRIC, "automorphism": AUTOMORPHISM}

# the names the package imported from its submodules before it read them
# lazily
EXPORTS = {
    "expressions": "DomainError Expr ParseError UnknownIdentifier VarSet diff "
                   "evaluate fd_diff parse simplify to_string",
    "sode": "JetPoint1 OracleMismatch SodeSystem adapted_frame dynamical_flow "
            "endomorphism_E lie_derivative_J random_polynomial_sode "
            "sample_points split splitting_curvature",
    "chern": "ConnectionData CurvatureComponents TorsionTensor connection "
             "connection_data covariant_derivative curvature torsion "
             "verify_characterization verify_structure_identities",
    "classify": "ClassificationReport KosambiData NotPositiveDefinite "
                "SymbolicModeUnsupported first_prolongation_dim holonomy_span "
                "holonomy_spans kosambi_invariants orthogonal_residual "
                "special_coordinate_conditions unimodular_test",
    "natjets": "CurvatureValue MissingInverse ProlongedField SodeJet2 "
               "VerticalAutomorphism curvature_mapping "
               "infinitesimal_equivariance jet2_of prolong1 "
               "prolong_vertical_field push_sode_symbolic push_sode_value "
               "verify_functoriality",
    "riemann": "MetricField SingularMetric christoffel cross_check "
               "geodesic_spray riemann_tensor",
}

# prints the chernsode modules loaded after the statements before it
_LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
           "if m.partition('.')[0] == 'chernsode')))\n")


def _loaded(code, *argv):
    """The chernsode modules a fresh interpreter has loaded after `code`,
    with `argv` as sys.argv[1:]."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code + _LOADED, *argv],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _write(tmp_path, keys):
    spec = dict(PROBLEM)
    for key in keys:
        spec.update(EXTRA[key])
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_cli_and_a_problem_load_three_modules(tmp_path):
    path = _write(tmp_path, ())
    assert _loaded("from chernsode import cli\n"
                   "cli.Problem(json.load(open(sys.argv[1])))\n",
                   path) == BASE


@pytest.mark.parametrize("task, keys", sorted(TASKS))
def test_each_task_loads_what_it_runs(tmp_path, task, keys):
    path = _write(tmp_path, keys)
    # the report goes to a buffer; the exit code says the task ran through
    loaded = _loaded("import contextlib, io\n"
                     "from chernsode import cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    code = cli.main(sys.argv[1:])\n"
                     "assert code == 0, code\n", task, path)
    assert loaded == BASE | {f"chernsode.{m}" for m in TASKS[task, keys]}


def test_selftest_loads_every_module():
    loaded = _loaded("import contextlib, io\n"
                     "from chernsode import cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()), \\\n"
                     "        contextlib.redirect_stderr(io.StringIO()):\n"
                     "    assert cli.main(['selftest']) == 0\n")
    assert loaded == BASE | {f"chernsode.{m}" for m in
                             ("classify", "natjets", "riemann", "selftest")}


def test_package_names_are_the_submodules_names():
    names = dir(chernsode)
    for module, exported in EXPORTS.items():
        source = getattr(chernsode, module)
        assert source.__name__ == f"chernsode.{module}" and module in names
        for name in exported.split():
            assert getattr(chernsode, name) is getattr(source, name), name
            assert name in names and name in chernsode.__all__
    assert len(chernsode.__all__) == sum(len(v.split())
                                         for v in EXPORTS.values())
    with pytest.raises(AttributeError, match="no_such_name"):
        chernsode.no_such_name


def test_package_import_loads_no_submodule():
    assert _loaded("import chernsode\n") == {"chernsode"}
    assert _loaded("from chernsode import SodeSystem\n") == {
        "chernsode", "chernsode.expressions", "chernsode.sode"}
    assert _loaded("import chernsode\nchernsode.natjets\n") == \
        BASE - {"chernsode.cli"} | {"chernsode.natjets"}


def test_an_error_report_loads_no_task_module(tmp_path):
    """main's handler looks up the errors of riemann and natjets only in
    the modules that are loaded."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**PROBLEM, "F": ["x1 +"]}))
    assert _loaded("import contextlib, io\n"
                   "from chernsode import cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    assert cli.main(sys.argv[1:]) == 2\n",
                   "verify", str(path)) == BASE
