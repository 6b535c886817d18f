"""Digests of every CLI report the benchmark problem files produce.

    python3 tools/report_digests.py --seeds 1 77

For each seed, writes the `cli-oracles` and `cli-jets` problem files of
`perfbench/gen.py` to a temporary directory, runs each of their operations
and `chernsode selftest` in a fresh interpreter against this checkout's
`src/`, and prints one row per run:

    seed  workload  task  file  exit  sha256[:16] of stdout  stderr bytes

It then runs a fixed corpus of malformed problem files (`MALFORMED` below:
each located field of `tests/test_cli_validation.py`, the problem-file
holes of `tests/test_problem_file_holes.py`, the unusable automorphisms and
metrics, one unknown key per object, files that json cannot read, variable
names that the jet coordinates reserve and a few accepted edge cases) in
this one process through `chernsode.cli.main`, one row each, with `-` as
the seed, `malformed` as the workload and the case's name as the file.

Run it in two checkouts and `diff` the two outputs: equal rows mean
byte-identical reports, and a changed error report shows as a changed
`malformed` row.  The script exits 1 when a problem-file run writes
anything to stderr (a traceback reaching the user) or when the selftest
writes more than its table of criteria rows, and 0 otherwise; a report's
own exit code is only printed.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-oracles", "cli-jets")
# the one stderr line format of `chernsode selftest`: id, status, name
SELFTEST_ROW = re.compile(r" *\S+  (pass|FAIL)  .*")

BASE = {"dimension": 1, "F": ["-x1 - 1.0*v1"],
        "samples": {"mode": "random", "count": 4, "seed": 7}}


def _with(path, value, raw=BASE):
    """A copy of raw with the field at `path` (a tuple of keys) set."""
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return raw


def _explicit(points, raw=BASE):
    return _with(("samples",), {"mode": "explicit", "points": points}, raw)


def _system(n, **fields):
    return dict({"dimension": n,
                 "F": [f"-x{i + 1} - v{i + 1}" for i in range(n)],
                 "samples": {"mode": "random", "count": 4, "seed": 7}},
                **fields)


XY = {"time": "t", "positions": ["x", "y"], "velocities": ["u", "w"]}
A1 = {"time": "t", "positions": ["a1"], "velocities": ["v1"]}
FLOW = dict(BASE, F=["v1^2"])

# (name, task, problem): a str or bytes problem is the file's content
MALFORMED = [
    ("samples:3", "analyze", _with(("samples",), 3)),
    ("samples.box:3", "analyze", _with(("samples", "box"), 3)),
    ("samples.box.time:5", "analyze", _with(("samples", "box"), {"time": 5})),
    ("samples.seed:null", "analyze", _with(("samples", "seed"), None)),
    ("samples.count:null", "analyze", _with(("samples", "count"), None)),
    ("tolerances:3", "analyze", _with(("tolerances",), 3)),
    ("tolerances.oracle:null", "analyze",
     _with(("tolerances",), {"oracle": None})),
    ("tasks:3", "analyze", _with(("tasks",), 3)),
    ("metric[0][0]", "analyze", _with(("metric",), [[1]])),
    ("U[0][0]", "analyze", _with(("U",), [[1]])),
    ("automorphism.phi[0]", "analyze", _with(("automorphism",), {"phi": [1]})),
    ("samples.points[0]:null", "analyze", _explicit([[0, None, 0]])),
    ("samples.points[0]:5", "analyze", _explicit([5])),
    ("samples.points[0]:a", "analyze", _explicit([[0, "a", 0]])),
    ("samples.points[1]:inf", "analyze",
     _explicit([[0, 0.5, 0], [0, float("inf"), 0]])),
    ("samples.points[0]:1e400", "analyze",
     json.dumps(_explicit([[0, 0.5, 0]])).replace("0.5", "1e400")),
    ("samples.seed:a", "analyze", _with(("samples", "seed"), "a")),
    ("samples.box.time:a", "analyze",
     _with(("samples", "box"), {"time": [0, "a"]})),
    ("dimension:true", "analyze", _with(("dimension",), True)),
    ("samples.seed:true", "analyze", _with(("samples", "seed"), True)),
    ("samples.count:false", "analyze", _with(("samples", "count"), False)),
    ("tolerances.oracle:negative", "analyze",
     _with(("tolerances",), {"oracle": -1e-9})),
    ("tolerances.rank:string", "analyze",
     _with(("tolerances",), {"rank": "1e-8"})),
    ("tolerances.identity:true", "analyze",
     _with(("tolerances",), {"identity": True})),
    ("variables:two-positions", "analyze", _with(("variables",), XY)),
    # the holes closed with tests/test_problem_file_holes.py
    ("automorphism:empty-inverse-n1", "push",
     _system(1, automorphism={"phi": ["x1 + t"], "inverse": []})),
    ("automorphism:empty-inverse-n2", "push",
     _system(2, automorphism={"phi": ["x1 + t", "x2"], "inverse": []})),
    ("variables:positions-string", "verify",
     _system(2, F=["-x", "-y"], variables=dict(XY, positions="xy"))),
    ("variables:velocities-string", "verify",
     _system(2, F=["-x", "-y"], variables=dict(XY, velocities="uw"))),
    ("variables:positions-object", "verify",
     _system(2, F=["-x", "-y"], variables=dict(XY, positions={"x": 0,
                                                              "y": 0}))),
    ("U:velocity-classify", "classify", _system(1, U=[["1 + v1^2"]])),
    ("U:velocity-analyze", "analyze", _system(1, U=[["1 + v1^2"]])),
    # unusable matrices and automorphisms, named by their field
    ("U:indefinite", "classify", _with(("U",), [["x1"]])),
    ("metric:indefinite", "riemann", _with(("metric",), [["x1"]])),
    ("metric:singular", "riemann",
     dict(BASE, dimension=2, F=["0", "0"],
          metric=[["x1", "x1"], ["x1", "x1"]])),
    ("automorphism:round-trip", "push",
     _with(("automorphism",), {"phi": ["x1 + t"], "inverse": ["x1"]})),
    ("automorphism:singular-jacobian", "push",
     _with(("automorphism",), {"phi": ["t"]})),
    ("automorphism:not-an-object", "push", _with(("automorphism",), 3)),
    ("automorphism:no-phi", "push",
     _with(("automorphism",), {"inverse": ["x1"]})),
    # automorphisms undefined at the one sample
    ("push:sqrt-negative", "push",
     _explicit([[0.5, -0.5, 0.3]],
               dict(FLOW, automorphism={"phi": ["x1 + x1^3*sqrt(x1)"]}))),
    ("push:sqrt-zero", "push",
     _explicit([[0.5, 0, 0.3]],
               dict(FLOW, automorphism={"phi": ["x1 + sqrt(x1)"]}))),
    ("push:sqrt-time", "push",
     _explicit([[0, 0.5, 0.3]],
               dict(FLOW, automorphism={"phi": ["x1 + sqrt(t)"],
                                        "inverse": ["x1 - sqrt(t)"]}))),
    # one unknown key per object
    ("metrik", "analyze", _with(("metrik",), [["1"]])),
    ("variables.x", "analyze",
     _with(("variables",), {"time": "t", "positions": ["x1"],
                            "velocities": ["v1"], "x": 1})),
    ("samples.cout", "analyze", _with(("samples", "cout"), 4)),
    ("samples.box.times", "analyze",
     _with(("samples", "box"), {"times": [0, 1]})),
    ("automorphism.psi", "push",
     _with(("automorphism",), {"phi": ["x1 + t"], "psi": ["x1 - t"]})),
    ("tolerances.x", "analyze", _with(("tolerances",), {"x": 1e-9})),
    # other located fields and accepted edge cases
    ("variables.parameters", "analyze",
     _with(("variables",), {"time": "t", "positions": ["x1"],
                            "velocities": ["v1"], "parameters": ["mu"]})),
    ("top-level:list", "analyze", []),
    ("top-level:null", "analyze", None),
    ("dimension:0", "analyze", _with(("dimension",), 0)),
    ("F:length", "analyze", _with(("F",), ["x1", "x1"])),
    ("tasks:unknown", "analyze", _with(("tasks",), ["analyse"])),
    ("tasks:not-enabled", "analyze", _with(("tasks",), ["verify"])),
    ("samples.mode:unknown", "analyze", _with(("samples", "mode"), "grid")),
    ("samples.seed:missing", "analyze", _with(("samples",), {"count": 4})),
    ("samples.count:0", "analyze", _with(("samples", "count"), 0)),
    ("samples.count:1e18", "analyze", _with(("samples", "count"), 10 ** 18)),
    ("accepted:points-in-random-mode", "analyze",
     _with(("samples", "points"), [[0, 0.5, 0]])),
    ("accepted:seed-in-explicit-mode", "analyze",
     _with(("samples",), {"mode": "explicit", "seed": 7, "count": 4,
                          "points": [[0, 0.5, 0]]})),
    ("accepted:null-objects", "analyze",
     dict(BASE, variables=None, tolerances=None, automorphism=None,
          metric=None, U=None, tasks=None)),
    # files json cannot read, and names the jet coordinates reserve
    ("json:deep", "analyze", "[" * 100000 + "]" * 100000),
    ("json:undecodable", "analyze", b"\xff\xfe{}"),
    ("json:duplicate-key", "analyze",
     json.dumps(BASE)[:-1] + ', "F": ["v1^2"]}'),
    ("variables:position-a1-jets", "jets",
     _system(1, F=["-a1 - v1"], variables=A1)),
    ("variables:position-a1-push", "push",
     _system(1, F=["-a1 - v1"], variables=A1,
             automorphism={"phi": ["a1 + t"]})),
    ("accepted:velocity-u1-jets", "jets",
     _system(1, F=["x1*u1^2 + sin(t)*u1"],
             variables={"time": "t", "positions": ["x1"],
                        "velocities": ["u1"]})),
]


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


def _run(args, cwd):
    """(exit code, stdout sha256 prefix, stderr) of `chernsode <args>`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "chernsode.cli", *args],
                          cwd=cwd, env=env, capture_output=True)
    return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()[:16],
            proc.stderr)


def _run_malformed(directory):
    """Yield (name, task, exit code, stdout sha256 prefix, stderr) of each
    MALFORMED case, run in this process through `cli.main` on the relative
    path `problem.json` inside `directory`, so that an error located at the
    file path has the same digest in every run; an exception that escapes
    `main` counts as exit 1 with its traceback on stderr."""
    sys.path.insert(0, str(ROOT / "src"))
    from chernsode import cli
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, task, raw in MALFORMED:
            if not isinstance(raw, (str, bytes)):
                raw = json.dumps(raw)
            with open("problem.json", "wb") as fh:
                fh.write(raw.encode() if isinstance(raw, str) else raw)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main([task, "problem.json"])
                except Exception:
                    code = 1
                    traceback.print_exc()
            yield (name, task, code,
                   hashlib.sha256(out.getvalue().encode()).hexdigest()[:16],
                   err.getvalue().encode())
    finally:
        os.chdir(cwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        help="gen.py seeds (default: 1)")
    args = parser.parse_args(argv)
    gen = _gen()
    noisy = 0
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        for seed in args.seeds:
            for workload in WORKLOADS:
                directory = Path(tmp) / f"{workload}-{seed}"
                directory.mkdir()
                for task, path in gen.write_cli_problems(workload, seed,
                                                         directory):
                    code, digest, err = _run([task, path], directory)
                    noisy += bool(err)
                    print(seed, workload, task, Path(path).name, code, digest,
                          len(err), flush=True)
        code, digest, err = _run(["selftest"], tmp)
        lines = err.decode(errors="replace").splitlines()
        noisy += not all(SELFTEST_ROW.fullmatch(line) for line in lines)
        print("-", "-", "selftest", "-", code, digest, len(err), flush=True)
        for name, task, code, digest, err in _run_malformed(tmp):
            noisy += bool(err)
            print("-", "malformed", task, name, code, digest, len(err))
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
