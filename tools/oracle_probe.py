"""Seconds and residuals of the `chernsode verify` oracles in the library.

    python3 tools/oracle_probe.py --n 4

Builds `random_polynomial_sode(N, seed=3000)` and 50 sample points (seed 1)
with this checkout's `src/`, runs the four oracle calls of `chernsode
verify` in its order in this one process, and prints one row per residual
(like `verify`, it reports item (4) of `verify_characterization` also as
`torsion_oracle`, on that call's row), with the columns

    oracle  seconds  plan_s  operations  programs  diff_lookups
    diff_misses  maxrss_mib  residual-key  residual  tolerance

followed by the totals.  An oracle's seconds include the symbolic arrays it
is the first to build.  `plan_s` is the part of those seconds spent inside
`expressions._plan`, planning the oracle's walks.  `operations` counts the
instructions of the walks the oracle plans, each of which runs once per
walk, so a node that several entries share counts once; `programs` counts
the programs `compile_expr` builds (`expressions._Program`), one per entry
not already in its cache.  All three are measured by wrapping those two
names here, not by the library.  `diff_lookups` and `diff_misses` are the lookups of
the `sode._diff` LRU during the oracle and the ones it had to compute, read
from `cache_info()` deltas: the lookups count the derivative requests, and
the misses the derivatives no earlier request had built (or that the LRU
had evicted).  `maxrss_mib` is the peak resident set size of the
process (`ru_maxrss`) after the oracle, in MiB: the first row that shows
the final value names the oracle that set the peak.  The script exits 1
when a residual is not finite or exceeds the `verify` tolerance of its key
(`cli.DEFAULT_TOLERANCES`: "oracle" for keys naming an oracle, "identity"
for the others), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chernsode import chern, expressions, sode  # noqa: E402
from chernsode.cli import DEFAULT_TOLERANCES  # noqa: E402
from chernsode.sode import random_polynomial_sode, sample_points  # noqa: E402

# the oracle calls of `cli.task_verify`, in its order, with their residual
# keys
ORACLES = (
    ("verify_structure_identities", None),
    ("verify_characterization", "characterization_{}"),
    ("curvature_oracle_residual", "curvature_oracle"),
    ("eigenstructure_residual", "eigenstructure"),
)


def _count(counts):
    """Wrap `expressions._plan` and `expressions._Program` so that they add
    the seconds spent planning, the operations planned and the programs
    built to `counts`."""
    plan, program = expressions._plan, expressions._Program

    def counted_plan(roots, names):
        t0 = time.perf_counter()
        out = plan(roots, names)
        counts["plan_s"] += time.perf_counter() - t0
        counts["operations"] += sum(count for count, _, _ in out[3])
        return out

    def counted_program(e, names):
        counts["programs"] += 1
        return program(e, names)

    expressions._plan, expressions._Program = counted_plan, counted_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True,
                        help="dimension of the system (n >= 1)")
    args = parser.parse_args(argv)
    s = random_polynomial_sode(args.n, seed=3000)
    pts = sample_points(s.vars, 50, 1)
    counts = dict.fromkeys(("plan_s", "operations", "programs"), 0)
    _count(counts)
    failed, total, plan_s, operations, programs, lookups, misses = \
        0, 0.0, 0.0, 0, 0, 0, 0
    for name, key in ORACLES:
        counts.update(plan_s=0.0, operations=0, programs=0)
        before = sode._diff.cache_info()
        t0 = time.perf_counter()
        result = getattr(chern, name)(s, pts)
        seconds = time.perf_counter() - t0
        after = sode._diff.cache_info()
        diff_misses = after.misses - before.misses
        diff_lookups = after.hits - before.hits + diff_misses
        maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        total += seconds
        plan_s += counts["plan_s"]
        operations += counts["operations"]
        programs += counts["programs"]
        lookups += diff_lookups
        misses += diff_misses
        if isinstance(result, dict):
            pattern = key or "{}"
            rows = [(pattern.format(k), v) for k, v in result.items()]
            if "torsion_match" in result:
                rows.insert(0, ("torsion_oracle", result["torsion_match"]))
        else:
            rows = [(key, result)]
        for label, value in rows:
            tol = DEFAULT_TOLERANCES["oracle" if "oracle" in label
                                     else "identity"]
            failed += not (math.isfinite(value) and value <= tol)
            print(f"{name:28s} {seconds:8.3f} {counts['plan_s']:8.3f} "
                  f"{counts['operations']:10d} {counts['programs']:8d} "
                  f"{diff_lookups:12d} {diff_misses:11d} {maxrss_mib:10.2f} "
                  f"{label:40s} {value:.3e} {tol:g}",
                  flush=True)
    print(f"{'total':28s} {total:8.3f} {plan_s:8.3f} {operations:10d} "
          f"{programs:8d} {lookups:12d} {misses:11d} {maxrss_mib:10.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
