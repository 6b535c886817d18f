"""Run one CLI task with the per-layer tracer installed.

    python3 perfbench/traced_cli.py DUMP TASK PROBLEM

The report goes to stdout exactly as `python -m chernsode.cli TASK PROBLEM`
prints it; the spans, counters and lru_cache deltas go to the JSON file DUMP
when the task ends.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv) -> int:
    dump_path, task, problem = argv
    tracer = spans.Tracer().install()
    from chernsode import cli

    before = tracer.cache_info()
    try:
        return cli.main([task, problem])
    finally:
        delta = spans.cache_delta(before, tracer.cache_info())
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(delta), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
