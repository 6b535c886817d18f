"""Digests of every CLI report the benchmark problem files produce.

    python3 tools/report_digests.py --seeds 1 77

For each seed, writes the `cli-oracles` and `cli-jets` problem files of
`perfbench/gen.py` to a temporary directory, runs each of their operations
and `chernsode selftest` in a fresh interpreter against this checkout's
`src/`, and prints one row per run:

    seed  workload  task  file  exit  sha256[:16] of stdout  stderr bytes

Run it in two checkouts and `diff` the two outputs: equal rows mean
byte-identical reports.  The script exits 1 when a problem-file run writes
anything to stderr (a traceback reaching the user) or when the selftest
writes more than its table of criteria rows, and 0 otherwise; a report's
own exit code is only printed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-oracles", "cli-jets")
# the one stderr line format of `chernsode selftest`: id, status, name
SELFTEST_ROW = re.compile(r" *\S+  (pass|FAIL)  .*")


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
        print("-", "-", "selftest", "-", code, digest, len(err))
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
