"""Benchmark of chernsode: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the sources under `src/`.
Workloads (see README.md in this directory):

  cli-oracles    fresh `python -m chernsode.cli` processes for analyze,
                 verify, classify and riemann at n = 1, 2, 3
  cli-jets       the same for jets and push at n = 1, 2, 3
  session-dense  one long-lived process checking distinct n=2 systems at
                 10000 sample points each

With `--trace 0` the run times the workload untraced.  With `--trace 1` it
runs one untraced and one traced pass and reports the per-layer metrics.
Each metric is printed on its own line with unit and sample count, each
failed operation with its reason, and the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-oracles", "cli-jets", "session-dense")

SETUP_REPEATS = 5
MIN_PASSES = 2          # repeats every CLI operation, for the stdout check
MIN_SYSTEMS = 3
OP_TIMEOUT = 60.0       # per operation
RUN_LIMIT = 165.0       # no operation runs past this point of the run

# per-layer metrics of a traced run besides those of spans.metric_names()
OVERHEAD_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s",
                    "trace.overhead_s")

SETUP_PROBE = ("import json, sys\n"
               "from chernsode import cli\n"
               "with open(sys.argv[1], encoding='utf-8') as fh:\n"
               "    cli.Problem(json.load(fh))\n")


class Run:
    """State of one benchmark run: its clock, work directory and results."""

    def __init__(self, workload, seed, seconds, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures = []      # (label, reasons, wrong)
        self.lines = []         # human-readable metric lines

    def elapsed(self):
        return time.perf_counter() - self.start

    def child(self, argv, timeout):
        """Run one child process to completion; returns (exit code, stdout,
        wall seconds, timed out).  A child past its timeout is killed and
        reaped before this returns."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            out = exc.stdout or ""
            return None, out if isinstance(out, str) else out.decode(), \
                time.perf_counter() - t0, True
        return proc.returncode, proc.stdout, time.perf_counter() - t0, False

    def metric(self, name, value, unit, samples):
        self.lines.append(f"metric {self.workload} {name} = {value:.6g} "
                          f"{unit} (n={samples})")
        return {"value": value, "unit": unit}

    # -- set-up ------------------------------------------------------------

    def setup_s(self, problem_path):
        """Median of fresh-interpreter set-ups: import chernsode.cli and
        build cli.Problem for one workload file."""
        times = []
        for _ in range(SETUP_REPEATS):
            code, out, wall, timed_out = self.child(
                [sys.executable, "-c", SETUP_PROBE, str(problem_path)],
                OP_TIMEOUT)
            if code != 0 or timed_out:
                raise RuntimeError(f"set-up probe failed on {problem_path}")
            times.append(wall)
        return statistics.median(times)

    # -- CLI workloads -----------------------------------------------------

    def cli_pass(self, ops, first_stdout, dump_dir=None):
        """One pass over the operations; returns (wall, {task: seconds})."""
        task_s = {}
        t0 = time.perf_counter()
        for k, (task, path) in enumerate(ops):
            label = f"{task} {Path(path).name}"
            timeout = min(OP_TIMEOUT, RUN_LIMIT - self.elapsed())
            self.attempted += 1
            if timeout <= 0:
                self.failures.append(
                    (label, ["not started: run time limit reached"], False))
                continue
            if dump_dir is None:
                argv = [sys.executable, "-m", "chernsode.cli", task, path]
            else:
                argv = [sys.executable, str(HERE / "traced_cli.py"),
                        str(dump_dir / f"{k}.json"), task, path]
            code, out, wall, timed_out = self.child(argv, timeout)
            task_s[task] = task_s.get(task, 0.0) + wall
            reasons, wrong = check.check_cli(
                code, out, timed_out=timed_out, timeout=timeout,
                previous=first_stdout.get(k))
            first_stdout.setdefault(k, out)
            if reasons:
                self.failures.append((label, reasons, wrong))
        return time.perf_counter() - t0, task_s

    def cli_timed(self):
        ops = gen.write_cli_problems(self.workload, self.seed, self.workdir)
        setup = self.setup_s(ops[0][1])
        first_stdout, walls, tasks = {}, [], []
        t0 = time.perf_counter()
        while len(walls) < MIN_PASSES or \
                time.perf_counter() - t0 + walls[-1] <= self.seconds:
            if walls and self.elapsed() + walls[-1] > RUN_LIMIT:
                break
            wall, task_s = self.cli_pass(ops, first_stdout)
            walls.append(wall)
            tasks.append(task_s)
        metrics = {
            "setup_s": self.metric("setup_s", setup, "s", SETUP_REPEATS),
            "wall_s": self.metric("wall_s", statistics.median(walls), "s",
                                  len(walls)),
        }
        for task in dict.fromkeys(t for t, _ in ops):
            median = statistics.median(t.get(task, 0.0) for t in tasks)
            self.metric(f"task.{task}_s", median, "s", len(tasks))
        return metrics

    def cli_traced(self):
        ops = gen.write_cli_problems(self.workload, self.seed, self.workdir)
        first_stdout = {}
        untraced, _ = self.cli_pass(ops, first_stdout)
        dump_dir = self.workdir / "spans"
        dump_dir.mkdir()
        traced, _ = self.cli_pass(ops, first_stdout, dump_dir)
        dumps = []
        for k in range(len(ops)):
            path = dump_dir / f"{k}.json"
            if path.exists():
                with open(path, encoding="utf-8") as fh:
                    dumps.append(json.load(fh))
        return spans.summarize(dumps), untraced, traced, 1

    # -- session-dense -----------------------------------------------------

    def session(self, seconds, min_systems, trace):
        out = self.workdir / f"session-{int(trace)}.json"
        argv = [sys.executable, str(HERE / "session.py"),
                "--seed", str(self.seed), "--seconds", str(seconds),
                "--min-systems", str(min_systems), "--out", str(out)]
        if trace:
            argv.append("--trace")
        code, _, _, timed_out = self.child(argv, RUN_LIMIT - self.elapsed())
        if code != 0 or timed_out or not out.exists():
            raise RuntimeError(f"session worker failed (exit {code}, "
                               f"timed out: {timed_out})")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        self.attempted += len(result["times"])
        for row in result["failures"]:
            self.failures.append((f"system {row['system']}", row["reasons"],
                                  row["wrong"]))
        return result

    def session_setup_path(self):
        path = self.workdir / "system0.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.dumps(gen.session_problem(self.seed, 0)))
        return path

    def session_timed(self):
        setup = self.setup_s(self.session_setup_path())
        times = self.session(self.seconds, MIN_SYSTEMS, False)["times"]
        wall = statistics.median(times)
        self.metric("systems_per_s", 1.0 / wall, "1/s", len(times))
        return {
            "setup_s": self.metric("setup_s", setup, "s", SETUP_REPEATS),
            "wall_s": self.metric("wall_s", wall, "s", len(times)),
        }

    def session_traced(self):
        half = self.seconds / 2
        untraced = self.session(half, 2, False)["times"]
        result = self.session(half, 2, True)
        return (spans.summarize([result["trace"]]),
                statistics.median(untraced),
                statistics.median(result["times"]), len(result["times"]))


def peak_rss_mb():
    """Largest resident set of any child process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chernsode" / "cli.py").is_file():
        print(f"chernsode sources not found under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, workdir)
    session = args.workload == "session-dense"
    try:
        if args.trace:
            layer, untraced, traced, samples = \
                run.session_traced() if session else run.cli_traced()
            metrics = {}
            for name, unit, _ in spans.metric_names():
                metrics[name] = run.metric(name, layer[name], unit, 1)
            for name, value in zip(OVERHEAD_METRICS,
                                   (untraced, traced, traced - untraced)):
                metrics[name] = run.metric(name, value, "s", samples)
        else:
            metrics = run.session_timed() if session else run.cli_timed()
            metrics["peak_rss_mb"] = run.metric("peak_rss_mb", peak_rss_mb(),
                                                "MiB", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failed = len(run.failures)
    run.metric("ops_failed_ratio", failed / run.attempted, "ratio",
               run.attempted)
    for line in run.lines:
        print(line)
    for label, reasons, wrong in run.failures:
        kind = "WRONG" if wrong else "failed"
        print(f"{kind} {args.workload} {label}: {'; '.join(reasons)}")
    print(json.dumps({"correct": not any(w for _, _, w in run.failures),
                      "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
