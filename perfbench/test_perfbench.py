"""Tests of the benchmark's own parts: generator, checker and tracer.

Run from the repository root with the library on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random

import check
import gen
import spans


def _files(base, workload, seed):
    directory = base / f"{workload}-{seed}"
    directory.mkdir(parents=True)
    ops = gen.write_cli_problems(workload, seed, str(directory))
    return [task for task, _ in ops], \
        {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic(tmp_path):
    for workload in gen.CLI_WORKLOADS:
        first = _files(tmp_path / "a", workload, 7)
        assert _files(tmp_path / "b", workload, 7) == first
        assert _files(tmp_path / "c", workload, 8)[1] != first[1]
    assert gen.dumps(gen.session_problem(7, 3)) == \
        gen.dumps(gen.session_problem(7, 3))
    assert gen.session_problem(7, 3) != gen.session_problem(7, 4)


def test_generated_problems_keep_their_shape():
    rng = random.Random(0)
    raw = gen.problem(rng, "dense2", count=5)
    assert raw["dimension"] == 2
    assert all(row.count("C") == 0 for row in raw["F"])
    assert [row.count(" + ") for row in raw["F"]] == [59, 59]
    auto = gen.problem(rng, "trig3", count=5, automorphism=True)
    assert len(auto["automorphism"]["phi"]) == 3
    assert "{" not in "".join(auto["automorphism"]["inverse"])


def test_generated_problems_load(tmp_path):
    from chernsode import cli

    for workload in gen.CLI_WORKLOADS:
        for _, path in gen.write_cli_problems(workload, 1, str(tmp_path)):
            with open(path, encoding="utf-8") as fh:
                problem = cli.Problem(json.load(fh))
            assert len(problem.points) == 20
    problem = cli.Problem(gen.session_problem(1, 0))
    assert len(problem.points) == gen.SESSION_POINTS


GOOD = json.dumps({"checks": {"a": {"residual": 1e-15, "pass": True}},
                   "pass": True})


def test_checker_accepts_a_passing_report():
    assert check.check_cli(0, GOOD, previous=GOOD) == ([], False)


def test_checker_flags_nonzero_exit():
    err = json.dumps({"error": {"kind": "validation",
                                "message": "expression too deeply nested",
                                "location": None}})
    reasons, wrong = check.check_cli(2, err)
    assert reasons == ["exit 2: validation: expression too deeply nested"]
    assert not wrong
    reasons, wrong = check.check_cli(1, "")
    assert reasons == ["exit 1", "stdout is not a JSON report"]
    assert not wrong


def test_checker_flags_pass_false():
    report = json.dumps({"checks": {"a": {"residual": 1.0, "pass": False}},
                         "pass": False})
    reasons, wrong = check.check_cli(1, report)
    assert reasons == ["exit 1", '"pass" is not true'] and wrong
    assert check.check_cli(0, json.dumps({"residual": 0.0}))[1]


def test_checker_flags_nan_residual():
    report = '{"residuals": {"eq": {"residual": NaN, "pass": true}}, ' \
             '"pass": true}'
    reasons, wrong = check.check_cli(0, report)
    assert reasons == ["non-finite residual at $.residuals.eq.residual"]
    assert wrong
    reasons, wrong = check.check_residuals(
        {"torsion_oracle": float("nan"), "eq_As": 0.0},
        {"oracle": 1e-10, "identity": 1e-9})
    assert reasons == ["non-finite residual torsion_oracle = nan"] and wrong


def test_checker_flags_nondeterministic_stdout():
    other = GOOD.replace("1e-15", "2e-15")
    reasons, wrong = check.check_cli(0, other, previous=GOOD)
    assert reasons == ["stdout differs between repeats"] and wrong


def test_checker_flags_timeout():
    assert check.check_cli(None, "", timed_out=True, timeout=60.0) == \
        (["timed out after 60 s"], False)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    rows = [["outer", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
            ["b", 5.0, 9.0, 0], ["c", 6.0, 8.0, 2], ["a", 11.0, 12.0, -1]]
    assert spans.self_times(rows) == {"outer": [1, 3.0], "a": [2, 4.0],
                                      "b": [1, 2.0], "c": [1, 2.0]}


def test_wrappers_reach_reimported_names():
    import chernsode
    from chernsode import chern, cli, expressions, sode

    original = chern.torsion_oracle_residual
    tracer = spans.Tracer().install()
    try:
        assert cli.torsion_oracle_residual is chern.torsion_oracle_residual
        assert cli.torsion_oracle_residual is not original
        assert cli.torsion_oracle_residual.__wrapped__ is original
        assert chernsode.diff is expressions.diff is sode.diff
        e = expressions.parse("x1^3*sin(x1*v1) + (7/3)*v1^5",
                              expressions.VarSet.default(1))
        sode.directional([1, 0, 0], ["x1", "t", "v1"], e)
        sode.directional([1, 0, 0], ["x1", "t", "v1"], e)
    finally:
        tracer.uninstall()
    assert cli.torsion_oracle_residual is original
    assert chernsode.diff is expressions.diff
    assert not hasattr(expressions.diff, "__wrapped__")
    rows = spans.self_times(tracer.spans)
    # three top-level diffs on the first call, cached by sode._diff after
    assert rows["expressions.parse"][0] == 1
    assert rows["expressions.diff"][0] == 3
    assert tracer.counters["expressions.diff.nodes_visited"] > 3


def test_summary_names_every_layer_metric():
    names = [name for name, _, _ in spans.metric_names()]
    assert len(names) == len(set(names))
    for module in ("expressions", "sode", "chern", "classify", "natjets",
                   "riemann", "cli"):
        assert any(name.startswith(module + ".") for name in names)
    dump = {"spans": [["expressions.diff", 0.0, 2.0, -1]],
            "counters": {"expressions.diff.nodes_visited": 40},
            "caches": {"sode._diff": [3, 1]}}
    summary = spans.summarize([dump, dump])
    assert summary["expressions.diff.calls"] == 2
    assert summary["expressions.diff.self_s"] == 4.0
    assert summary["expressions.diff.nodes_visited"] == 80
    assert summary["sode._diff.hit_ratio"] == 0.75
    assert summary["natjets.jet_space.hit_ratio"] == 0.0
    assert set(summary) == set(names)


def test_benchmark_file_lists_every_metric():
    from pathlib import Path

    import run

    path = Path(run.ROOT) / "BENCHMARK.json"
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = [{"name": name, "unit": unit, "better": better}
                for name, unit, better in spans.metric_names()]
    expected += [{"name": name, "unit": "s", "better": "lower"}
                 for name in run.OVERHEAD_METRICS]
    assert bench["per_layer"] == expected
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
