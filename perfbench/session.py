"""The session-dense worker: one long-lived process checks a stream of
distinct seeded systems through the library, as a library user would.

    python3 perfbench/session.py --seed N --seconds S --min-systems K
                                 --out RESULT.json [--trace]

Each system is loaded through `cli.Problem` and gets the calls `chernsode
verify` makes.  Systems keep coming until the next one would end past
`--seconds`, and at least `--min-systems` run.  Caches are never cleared, so
later systems run against everything earlier ones left behind.  The result
file holds the per-system times, the failures and, with `--trace`, the
spans, counters and lru_cache deltas summed over the systems.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import check
import gen
import spans


def check_system(cli, chern, raw):
    """Load one system and run the calls of `chernsode verify` on it;
    returns (tolerances, residuals)."""
    problem = cli.Problem(raw)
    s, pts = problem.system, problem.points
    residuals = dict(chern.verify_structure_identities(s, pts))
    residuals["torsion_oracle"] = chern.torsion_oracle_residual(s, pts)
    residuals["curvature_oracle"] = chern.curvature_oracle_residual(s, pts)
    for key, val in chern.verify_characterization(s, pts).items():
        residuals[f"characterization_{key}"] = val
    residuals["eigenstructure"] = chern.eigenstructure_residual(s, pts)
    return problem.tolerances, residuals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-systems", type=int, default=3)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = spans.Tracer().install() if args.trace else None
    # looked up after install, so traced runs call the wrappers
    from chernsode import chern, cli

    times, failures, cache_deltas = [], [], []
    start = time.perf_counter()
    index = 0
    while len(times) < args.min_systems or \
            time.perf_counter() - start + times[-1] <= args.seconds:
        raw = gen.session_problem(args.seed, index)
        before = tracer.cache_info() if tracer else None
        t0 = time.perf_counter()
        try:
            tolerances, values = check_system(cli, chern, raw)
            reasons, wrong = check.check_residuals(values, tolerances)
        except Exception as exc:  # a failed system is timed and reported
            reasons, wrong = [f"{type(exc).__name__}: {exc}"], False
        times.append(time.perf_counter() - t0)
        if tracer:
            cache_deltas.append(spans.cache_delta(before, tracer.cache_info()))
        if reasons:
            failures.append({"system": index, "reasons": reasons,
                             "wrong": wrong})
        index += 1

    result = {"times": times, "failures": failures}
    if tracer:
        result["trace"] = tracer.dump(spans.sum_caches(cache_deltas))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
