"""Samples where a derived value is not finite, over `cli.main`.

`push` on F = sqrt(x1)*v1^2 at x1 = 0: F is finite there but P (through
F_x) is not, and the Kosambi match once ended in numpy's "Array must not
contain infs or NaNs" (exit 2, no location).  It is a failed check now.
`jets` on a sample whose 2-jet is not finite once said "SVD did not
converge" with no location; it names the sample now."""

import contextlib
import io
import json

import pytest

from chernsode.cli import main

AUTOMORPHISM = {"phi": ["x1 + t^2"], "inverse": ["x1 - t^2"]}
# F_x = v1^2/(2*sqrt(x1)) is infinite at x1 = 0 on the first sample
SQRT = {"dimension": 1, "F": ["sqrt(x1)*v1^2"], "automorphism": AUTOMORPHISM,
        "samples": {"mode": "explicit",
                    "points": [[0.1, 0.0, 0.5], [0.2, 0.3, 0.1]]}}
# x1^400 overflows at x1 = 1000 on the first sample
OVERFLOW = {"dimension": 1, "F": ["x1^400*v1^2"], "automorphism": AUTOMORPHISM,
            "samples": {"mode": "explicit",
                        "points": [[0.1, 1000.0, 0.5], [0.2, 0.3, 0.1]]}}
# x1^(-1) divides by zero at x1 = 0 on the first sample
ZERO_POWER = {"dimension": 1, "F": ["x1^(-1)*v1^3"],
              "samples": {"mode": "explicit",
                          "points": [[0.1, 0.0, 0.5], [0.2, 0.3, 0.1]]}}


def _main(raw, task, directory):
    """(exit code, report, stderr) of `chernsode <task>` on raw."""
    path = directory / "problem.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([task, str(path)])
    return code, json.loads(out.getvalue()), err.getvalue()


def test_push_with_a_non_finite_P_fails_with_null_residuals(tmp_path):
    code, report, err = _main(SQRT, "push", tmp_path)
    assert (code, err) == (1, "")
    assert report["pass"] is False
    residuals = report["residuals"]
    assert residuals["kosambi_match"] == {"residual": None, "pass": False}
    nulls = [key for key, c in residuals.items() if c["residual"] is None]
    assert len(nulls) == 5
    assert all(c["pass"] is False for c in residuals.values()
               if c["residual"] is None)


@pytest.mark.parametrize("raw", [SQRT, OVERFLOW, ZERO_POWER],
                         ids=["sqrt", "overflow", "zero_power"])
def test_jets_names_the_sample_whose_jet_is_not_finite(tmp_path, raw):
    code, report, err = _main(raw, "jets", tmp_path)
    assert (code, err) == (2, "")
    assert report["error"]["kind"] == "LinAlgError"
    assert report["error"]["location"] == "samples.points[0]"
    assert "not finite" in report["error"]["message"]
