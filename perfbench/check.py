"""Output checker: decides whether one operation failed, and why.

An operation fails when it exits non-zero, times out, reports a `"pass"`
that is not true, carries a residual that is not a finite number, or prints
a different stdout than an earlier repeat of the same operation.  Each check
returns its reasons and whether any of them is a wrong answer (a report that
fails its own checks, a non-finite residual, output that changes between
repeats) rather than an error (a non-zero exit with an error report, a
timeout).  The library reduces residuals with `max(0.0, r)`, which drops NaN,
so finiteness is checked here on every residual the report carries.
"""

from __future__ import annotations

import json
import math


def residuals(value, path="$"):
    """Yield (path, value) for every `"residual"` entry of a report."""
    if isinstance(value, dict):
        for key, item in value.items():
            where = f"{path}.{key}"
            if key == "residual":
                yield where, item
            else:
                yield from residuals(item, where)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from residuals(item, f"{path}[{k}]")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def check_cli(returncode, stdout, *, timed_out=False, timeout=None,
              previous=None):
    """Check one CLI run; returns (reasons, wrong).  `previous` is the stdout
    of the first repeat of the same operation, if any."""
    if timed_out:
        return [f"timed out after {timeout:g} s"], False
    reasons, wrong = [], False
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if returncode != 0:
        error = report.get("error") if isinstance(report, dict) else None
        detail = f": {error.get('kind')}: {error.get('message')}" \
            if isinstance(error, dict) else ""
        reasons.append(f"exit {returncode}{detail}")
    if not isinstance(report, dict):
        reasons.append("stdout is not a JSON report")
        wrong = returncode == 0
    elif "error" not in report:
        bad = [where for where, val in residuals(report) if not _finite(val)]
        if bad:
            reasons.append(f"non-finite residual at {bad[0]}")
            wrong = True
        if report.get("pass") is not True:
            reasons.append('"pass" is not true')
            wrong = True
    if previous is not None and stdout != previous:
        reasons.append("stdout differs between repeats")
        wrong = True
    return reasons, wrong


def check_residuals(values: dict, tolerances: dict):
    """Check library residuals the way `chernsode verify` gates them: oracle
    residuals against the oracle tolerance, the rest against the identity
    tolerance.  Returns (reasons, wrong)."""
    reasons = []
    for key, val in values.items():
        limit = tolerances["oracle"] if "oracle" in key \
            else tolerances["identity"]
        if not _finite(val):
            reasons.append(f"non-finite residual {key} = {val!r}")
        elif val > limit:
            reasons.append(f"residual {key} = {val:.3g} above {limit:g}")
    return reasons, bool(reasons)
