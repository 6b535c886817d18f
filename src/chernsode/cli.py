"""Command-line front end.

    chernsode <task> <problem.json>     task in {analyze, classify, verify,
                                        push, jets, riemann}
    chernsode selftest

Reads a JSON problem description, dispatches to the library and writes a
JSON report to stdout (all logging goes to stderr).  Exit code 0 means every
check came in under its tolerance, 1 means some check failed, 2 means the
input could not be used; input errors are themselves reported on stdout as
{"error": {"kind", "message", "location"}}.  Reports are byte-identical for
identical inputs: floats are emitted with 17 significant digits and every
sampling step is seeded.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

# the modules every task runs; each task imports what else it needs, so a
# CLI process loads and compiles only the modules its task reads
from .expressions import (
    DomainError, ParseError, UnknownIdentifier, VarSet, parse, to_string,
)
from .sode import (
    JetPoints, OracleMismatch, SodeSystem, eval_array, point_batch,
    sample_points, worst_abs,
)
from .chern import (
    connection, curvature_oracle_residual, eigenstructure_residual,
    torsion_oracle_residual, verify_residuals,
)

TASKS = ("analyze", "classify", "verify", "push", "jets", "riemann")


class CliInputError(Exception):
    def __init__(self, kind, message, location=None):
        super().__init__(message)
        self.kind = kind
        self.location = location


# --------------------------------------------------------------------------
# deterministic JSON emitter (17 significant digits for floats)
# --------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in report")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def emit_json(value, indent=0) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [emit_json(v, indent + 1) for v in value]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = []
        for key, v in value.items():
            rows.append("  " * (indent + 1) + json.dumps(str(key)) + ": "
                        + emit_json(v, indent + 1))
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(value).__name__}")


def serialize_report(report) -> str:
    return emit_json(report) + "\n"


# --------------------------------------------------------------------------
# problem specification
# --------------------------------------------------------------------------

DEFAULT_TOLERANCES = {"identity": 1e-9, "oracle": 1e-10, "rank": 1e-8}


def _integer(value, where, message, low=None) -> int:
    """The JSON integer at `where`, not below `low`; true and false are not
    integers here.  Else a validation error at `where` with `message`."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or low is not None and value < low:
        raise CliInputError("validation", message, where)
    return value


def _finite(value, where, message, low=None) -> float:
    """The JSON number at `where` as a finite float, not below `low`.  Else a
    validation error at `where` with `message`."""
    try:
        number = math.nan if isinstance(value, bool) \
            or not isinstance(value, (int, float)) else float(value)
    except OverflowError:
        number = math.nan
    if not math.isfinite(number) or low is not None and number < low:
        raise CliInputError("validation", message, where)
    return number


def _object(value, where, keys, message=None) -> dict:
    """The JSON object at `where` (None: the top level); null below the top
    level reads as {}.  A key not in `keys` is a validation error at its
    path, and a value that is not an object one at `where` with `message`
    (default "<where> must be an object")."""
    if value is None and where is not None:
        return {}
    if not isinstance(value, dict):
        raise CliInputError("validation",
                            message or f"{where} must be an object", where)
    for key in value:
        if key not in keys:
            raise CliInputError("validation", f"unknown key {key!r}",
                                key if where is None else f"{where}.{key}")
    return value


def _list(value, where, message, count=None) -> list:
    """The JSON list at `where`, of `count` items when count is given; any
    other value is a validation error at `where` with `message`."""
    if not isinstance(value, list) \
            or count is not None and len(value) != count:
        raise CliInputError("validation", message, where)
    return value


class Problem:
    def __init__(self, raw):
        raw = _object(raw, None, ("dimension", "variables", "F", "samples",
                                  "metric", "U", "automorphism", "tolerances",
                                  "tasks"), "top level must be an object")
        self.raw = raw
        self.n = n = _integer(raw.get("dimension"), "dimension",
                              "dimension must be a positive integer", 1)
        self.vars = self._parse_vars(raw.get("variables"))
        self.system = SodeSystem(vars=self.vars,
                                 F=tuple(self._expr(text, f"F[{i}]")
                                         for i, text in
                                         enumerate(self._strings("F", n))))
        self.samples = _object(raw.get("samples"), "samples",
                               ("mode", "seed", "count", "points", "box"))
        self.box = self._parse_box()
        self.metric = self._parse_metric(raw.get("metric"))
        self.U = self._parse_matrix(raw.get("U"), "U")
        if self.U is not None:
            from .classify import _check_tx
            try:
                _check_tx(self.U, self.vars)
            except ValueError as exc:
                raise CliInputError("validation", str(exc), "U") from None
        self.automorphism = self._parse_automorphism(raw.get("automorphism"))
        self.tolerances = dict(DEFAULT_TOLERANCES)
        for key, val in _object(raw.get("tolerances"), "tolerances",
                                DEFAULT_TOLERANCES).items():
            self.tolerances[key] = _finite(
                val, f"tolerances.{key}",
                f"tolerance {key!r} must be a finite number >= 0", 0)
        self.tasks = raw.get("tasks")
        if self.tasks is not None:
            for name in _list(self.tasks, "tasks",
                              "tasks must be a list of task names"):
                if name not in TASKS:
                    raise CliInputError("validation",
                                        f"unknown task {name!r}", "tasks")
        self.points = self._parse_samples()

    # -- helpers ------------------------------------------------------------

    def _strings(self, key, count):
        message = f"{key} must be a list of {count} strings"
        val = _list(self.raw.get(key), key, message, count)
        if not all(isinstance(s, str) for s in val):
            raise CliInputError("validation", message, key)
        return val

    def _expr(self, text, location):
        if not isinstance(text, str):
            raise CliInputError("validation",
                                f"{location} must be an expression string",
                                location)
        try:
            return parse(text, self.vars)
        except (ParseError, UnknownIdentifier) as exc:
            raise CliInputError("syntax", str(exc), location)
        except (DomainError, ZeroDivisionError) as exc:
            raise CliInputError("DomainError", str(exc), location)

    def _exprs(self, texts, where):
        texts = _list(texts, where,
                      f"{where} must be a list of expression strings")
        return tuple(self._expr(t, f"{where}[{i}]") for i, t in enumerate(texts))

    def _parse_vars(self, spec):
        if spec is None:
            return VarSet.default(self.n)
        spec = _object(spec, "variables",
                       ("time", "positions", "velocities", "parameters"))
        if spec.get("parameters"):
            # a VarSet has no parameters and sampling gives them no values
            raise CliInputError("validation",
                                "parameters are not supported in problem "
                                "files; substitute numeric values",
                                "variables.parameters")
        try:
            lists = spec["positions"], spec["velocities"]
            for names in lists:
                _list(names, "variables", "bad variables: positions and "
                      "velocities must be lists")
            vars = VarSet(spec["time"], *map(tuple, lists))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliInputError("validation", f"bad variables: {exc}",
                                "variables")
        if not len(vars.positions) == len(vars.velocities) == self.n:
            raise CliInputError("validation", f"variables must declare "
                                f"{self.n} positions and {self.n} velocities",
                                "variables")
        return vars

    def _parse_matrix(self, rows, where):
        if rows is None:
            return None
        n = self.n
        message = f"{where} must be {n}x{n}"
        rows = [_list(row, where, message, n)
                for row in _list(rows, where, message, n)]
        out = np.empty((n, n), dtype=object)
        for i, row in enumerate(rows):
            out[i] = self._exprs(row, f"{where}[{i}]")
        return out

    def _parse_metric(self, rows):
        m = self._parse_matrix(rows, "metric")
        if m is None:
            return None
        from .riemann import MetricField
        try:
            return MetricField(vars=self.vars,
                               g=tuple(tuple(row) for row in m),
                               box=self.box)
        except ValueError as exc:
            raise CliInputError("validation", str(exc), "metric")

    def _parse_automorphism(self, spec):
        if spec is None:
            return None
        needs_phi = "automorphism needs a phi list"
        spec = _object(spec, "automorphism", ("phi", "inverse"), needs_phi)
        if "phi" not in spec:
            raise CliInputError("validation", needs_phi, "automorphism")
        phi = self._exprs(spec["phi"], "automorphism.phi")
        inverse = None
        if spec.get("inverse") is not None:
            inverse = self._exprs(spec["inverse"], "automorphism.inverse")
        if len(phi) != self.n:
            raise CliInputError("validation",
                                f"automorphism needs {self.n} components",
                                "automorphism")
        from .natjets import VerticalAutomorphism
        try:
            return VerticalAutomorphism(vars=self.vars, phi=phi,
                                        inverse=inverse)
        except ValueError as exc:
            raise CliInputError("validation", str(exc), "automorphism")

    def _parse_box(self):
        """Sampling ranges per role, each two finite numbers lo, hi a
        finite distance apart."""
        box = _object(self.samples.get("box"), "samples.box",
                      ("time", "position", "velocity"))
        out = {}
        for role, bounds in box.items():
            where = f"samples.box.{role}"
            message = f"{where} must be two finite numbers [lo, hi]"
            pair = [_finite(b, where, message)
                    for b in _list(bounds, where, message, 2)]
            if not math.isfinite(pair[1] - pair[0]):
                raise CliInputError("validation", message, where)
            out[role] = tuple(pair)
        return out

    def _parse_samples(self):
        spec = self.samples
        mode = spec.get("mode", "random")
        if mode == "explicit":
            # `or None`: an empty list is refused as well
            pts = _list(spec.get("points") or None, "samples.points",
                        "explicit mode needs a points list")
            width = 2 * self.n + 1
            for k, row in enumerate(pts):
                where = f"samples.points[{k}]"
                for value in _list(row, where, f"point {k} must have "
                                   f"{width} entries", width):
                    _finite(value, where,
                            f"point {k} entries must be finite numbers")
            return JetPoints(pts)
        if mode != "random":
            raise CliInputError("validation",
                                f"unknown sampling mode {mode!r}",
                                "samples.mode")
        if "seed" not in spec:
            raise CliInputError("validation",
                                "random sampling requires a seed",
                                "samples.seed")
        seed = _integer(spec["seed"], "samples.seed",
                        "samples.seed must be a non-negative integer", 0)
        count = _integer(spec.get("count", 25), "samples.count",
                         "samples.count must be an integer")
        if count < 1:
            raise CliInputError("validation",
                                "samples.count must be at least 1",
                                "samples.count")
        # the box is checked above, so numpy's MemoryError or its ValueError
        # for an array too big to describe can only mean too many points
        try:
            return sample_points(self.vars, count, seed, self.box)
        except (MemoryError, ValueError):
            raise CliInputError("validation", f"samples.count {count} is too "
                                "large to sample", "samples.count") from None


# --------------------------------------------------------------------------
# tasks
# --------------------------------------------------------------------------

def _finite_or_null(vals):
    """Float array -> nested lists; a value that is not finite reads null,
    as in `_residual_entry`."""
    return np.where(np.isfinite(vals), vals, None).tolist()


def _array_values(arr, s, points):
    """Expr array -> nested lists with a trailing per-point axis; a value
    that is not finite reads null, as in `_residual_entry`."""
    vals = eval_array(arr, s.vars.names, point_batch(s.vars, points))
    return _finite_or_null(vals)


def _residual_entry(val, tol, **extra):
    """{"residual", **extra, "pass"} for one residual maximum: a non-finite
    residual reads null and fails."""
    finite = math.isfinite(val)
    return {"residual": val if finite else None, **extra,
            "pass": bool(finite and val <= tol)}


def residual_limit(key, tolerances):
    """The tolerance that gates the residual `key`: "oracle" when the key
    names an oracle, "identity" otherwise."""
    return tolerances["oracle" if "oracle" in key else "identity"]


def _checks(residuals, tolerances):
    """The report entry of each residual, gated by `residual_limit`."""
    return {key: _residual_entry(val, residual_limit(key, tolerances))
            for key, val in residuals.items()}


def _point(p):
    return [p.t, list(p.x), list(p.v)]


def _point_list(points):
    return [_point(p) for p in points]


def task_analyze(problem: Problem) -> dict:
    from .classify import holonomy_spans, kosambi_invariants
    s, pts = problem.system, problem.points
    tol = problem.tolerances
    conn = connection(s)
    sc, comp = conn.torsion, conn.curvature
    kos = kosambi_invariants(s)
    checks = {
        "torsion_oracle": torsion_oracle_residual(s, pts),
        "curvature_oracle": curvature_oracle_residual(s, pts),
        "eigenstructure": eigenstructure_residual(s, pts),
    }
    report = {
        "points": _point_list(pts),
        "components": {
            "P": _array_values(sc.P, s, pts),
            "T": _array_values(sc.T, s, pts),
            "A": _array_values(comp.A, s, pts),
            "B": _array_values(comp.B, s, pts),
            "R": _array_values(comp.R, s, pts),
        },
        "kosambi": {
            "charpoly_symbolic": [to_string(c) for c in kos.charpoly],
            "charpoly_at_points": _array_values(
                np.asarray(kos.charpoly, dtype=object), s, pts),
        },
        "holonomy_span_per_point": holonomy_spans(s, pts, tol["rank"]),
        "checks": _checks(checks, tol),
    }
    report["pass"] = all(c["pass"] for c in report["checks"].values())
    return report


def _condition_dict(result):
    out = {"status": result.status}
    if result.witness:
        w = result.witness
        out["witness"] = {
            "component": w["component"],
            "point": None if w["point"] is None else _point(w["point"]),
            "value": w["value"],
        }
    return out


def task_classify(problem: Problem) -> dict:
    from .classify import NotPositiveDefinite, classification_report
    s, pts = problem.system, problem.points
    try:
        rep = classification_report(s, pts, U=problem.U,
                                    rank_tol=problem.tolerances["rank"])
    except NotPositiveDefinite as exc:
        raise CliInputError("NotPositiveDefinite", str(exc), "U") from None
    report = {
        "flags": {name: _condition_dict(res) for name, res in rep.flags.items()},
        "holonomy_span_dim": rep.holonomy_span_dim,
        "unimodular": _condition_dict(rep.unimodular),
    }
    if rep.unimodular_decomposition is not None:
        f0, fi = rep.unimodular_decomposition
        report["unimodular_decomposition"] = {
            "F_0": to_string(f0), "F_i": [to_string(f) for f in fi]}
    # a span that could not be computed at some point fails the report
    passed = rep.holonomy_span_dim is not None
    if rep.orthogonal_residuals is not None:
        report["orthogonal_residuals"] = _checks(rep.orthogonal_residuals,
                                                 problem.tolerances)
        passed = passed and all(
            c["pass"] for c in report["orthogonal_residuals"].values())
    report["pass"] = bool(passed)
    return report


def task_verify(problem: Problem) -> dict:
    pts = problem.points
    report = {"points": len(pts), "residuals": {}}
    for key, val in verify_residuals(problem.system, pts).items():
        limit = residual_limit(key, problem.tolerances)
        report["residuals"][key] = _residual_entry(val, limit, tolerance=limit)
    report["pass"] = all(c["pass"] for c in report["residuals"].values())
    return report


def _on_samples(fn, points):
    """fn(points); when that raises a domain error, fn is rerun one sample at
    a time so that the error names the first sample it fails on."""
    try:
        return fn(points)
    except (DomainError, ZeroDivisionError):
        for k, p in enumerate(points):
            try:
                fn([p])
            except (DomainError, ZeroDivisionError) as exc:
                raise CliInputError("DomainError", str(exc),
                                    f"samples.points[{k}]") from None
        raise


def _check_jet_names(vars):
    """jets and push name jet coordinates after the variables (a1, a1_x1,
    a1_x1v1, ...); variables that make two of those names equal are bad."""
    from .natjets import jet_space
    try:
        jet_space(vars)
    except ValueError as exc:
        raise CliInputError("validation", f"bad variables: {exc}",
                            "variables") from None


def task_push(problem: Problem) -> dict:
    from .natjets import (
        prolong1, push_sode_symbolic, push_sode_value, verify_functoriality,
    )
    if problem.automorphism is None:
        raise CliInputError("validation", "push needs an automorphism",
                            "automorphism")
    _check_jet_names(problem.vars)
    s, pts = problem.system, problem.points
    auto = problem.automorphism
    try:
        _on_samples(auto.validate, pts)
    except ValueError as exc:   # a singular Jacobian or a failed round trip
        raise CliInputError("ValueError", str(exc), "automorphism") from None
    res = _on_samples(lambda ps: verify_functoriality(auto, s, ps), pts)
    report = {
        "matched_points": _on_samples(lambda ps: [
            {"source": _point(p),
             "pushed": _point(prolong1(auto, p)),
             "pushed_value": _finite_or_null(push_sode_value(auto, s, p))}
            for p in ps], pts),
        "residuals": _checks(res, problem.tolerances),
    }
    if auto.inverse is not None:
        pushed = push_sode_symbolic(auto, s)
        report["pushed_system"] = [to_string(f) for f in pushed.F]
    report["pass"] = all(c["pass"] for c in report["residuals"].values())
    return report


def task_jets(problem: Problem) -> dict:
    from .classify import first_prolongation_dim
    from .natjets import (
        curvature_kernel_dim, distribution_span, infinitesimal_equivariance,
        jet2_of, random_polynomial_field, svd_gap,
    )
    _check_jet_names(problem.vars)
    s, pts = problem.system, problem.points
    n = s.n
    p = pts[0]
    try:
        rank, svals = distribution_span(n, s, p, seed=2024)
    except np.linalg.LinAlgError:       # the SVD of a non-finite span
        if math.isfinite(worst_abs(jet2_of(s, p).row)):
            raise
        raise CliInputError("LinAlgError", "the 2-jet of F is not finite "
                            "at this sample", "samples.points[0]") from None
    expected = 11 if n == 1 else n * (3 * n * n + 11 * n + 10) // 2
    gap = svd_gap(svals, expected)
    kernel = curvature_kernel_dim(s, p)
    kernel_expected = 3 * n * (n + 2) * (n + 1) // 2
    equiv = worst_abs([
        infinitesimal_equivariance(
            s, random_polynomial_field(s.vars, seed=9000 + k, degree=3),
            pts[k % len(pts)])
        for k in range(10)])
    prolongation_dim = first_prolongation_dim(min(n, 4))
    report = {
        "distribution_rank": {"rank": rank, "expected": expected,
                              "svd_gap": gap,
                              "pass": bool(rank == expected)},
        "curvature_kernel": {"dim": kernel, "expected": kernel_expected,
                             "pass": bool(kernel == kernel_expected)},
        **_checks({"equivariance": equiv}, problem.tolerances),
        "first_prolongation": {"dim": prolongation_dim,
                               "pass": bool(prolongation_dim == 0)},
    }
    report["pass"] = all(block["pass"] for block in report.values()
                         if isinstance(block, dict))
    return report


def task_riemann(problem: Problem) -> dict:
    from .classify import NotPositiveDefinite
    from .riemann import (
        SingularMetric, cross_check, geodesic_spray,
        hyperbolic_metric_signature, metric_compatibility,
    )
    if problem.metric is None:
        raise CliInputError("validation", "riemann needs a metric", "metric")
    metric = problem.metric
    pts = problem.points
    try:
        cross = cross_check(metric, points=pts)
        compat = metric_compatibility(metric, points=pts)
    except (SingularMetric, NotPositiveDefinite) as exc:
        raise CliInputError(type(exc).__name__, str(exc), "metric") from None
    signature = hyperbolic_metric_signature(metric, points=pts)
    spray = geodesic_spray(metric)
    report = {
        "spray": [to_string(f) for f in spray.F],
        "cross_formulas": _checks(cross, problem.tolerances),
        "metric_compatibility": _checks(compat, problem.tolerances),
        "companion_signature": list(signature),
    }
    report["pass"] = (all(c["pass"] for c in report["cross_formulas"].values())
                      and all(c["pass"] for c in
                              report["metric_compatibility"].values())
                      and signature == (metric.n + 1, metric.n))
    return report


TASK_RUNNERS = {
    "analyze": task_analyze,
    "classify": task_classify,
    "verify": task_verify,
    "push": task_push,
    "jets": task_jets,
    "riemann": task_riemann,
}


def _unique_keys(pairs) -> dict:
    """A JSON object, refusing a key given twice (json keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def run(spec_path: str, task: str) -> dict:
    """Load a problem file and run one task; returns the report dict."""
    if task not in TASKS:
        raise CliInputError("validation", f"unknown task {task!r}", "task")
    try:
        with open(spec_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise CliInputError("io", str(exc), spec_path)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and a duplicate
    # key; RecursionError is a too deeply nested array or object
    except (ValueError, RecursionError) as exc:
        raise CliInputError("json", str(exc), spec_path) from None
    problem = Problem(raw)
    if problem.tasks is not None and task not in problem.tasks:
        raise CliInputError("validation",
                            f"task {task!r} not enabled in this problem file",
                            "tasks")
    report = {"task": task, "dimension": problem.n,
              "tolerances": problem.tolerances}
    report.update(TASK_RUNNERS[task](problem))
    return report


def run_selftest() -> dict:
    from .selftest import run_all
    results = run_all(serialize_report)
    return {"task": "selftest",
            "criteria": results,
            "pass": all(r["pass"] for r in results)}


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="chernsode",
        description="Connection, curvature and jet invariants of second-order "
                    "ODE systems.")
    parser.add_argument("task", help="one of %s or selftest" % (TASKS,))
    parser.add_argument("problem", nargs="?",
                        help="JSON problem file (not used by selftest)")
    args = parser.parse_args(argv)

    try:
        try:
            # a value that is not finite reaches the report as a null
            # residual that fails, so numpy's warnings about it would only
            # be noise
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                if args.task == "selftest":
                    report = run_selftest()
                else:
                    if args.problem is None:
                        raise CliInputError(
                            "validation", f"task {args.task!r} needs a "
                            "problem file", "problem")
                    report = run(args.problem, args.task)
            text = serialize_report(report)
        except (ParseError, UnknownIdentifier) as exc:
            raise CliInputError("syntax", str(exc)) from None
        except (DomainError, ZeroDivisionError, OracleMismatch, ValueError,
                MemoryError) as exc:
            kind = "DomainError" if isinstance(exc, ZeroDivisionError) \
                else "MemoryError" if isinstance(exc, MemoryError) \
                else type(exc).__name__
            raise CliInputError(kind, str(exc)) from None
        # no expression pass recurses; a stack that overflows anywhere
        # else still reads as too deep an input
        except RecursionError:
            raise CliInputError("validation",
                                "expression too deeply nested") from None
    except CliInputError as exc:
        sys.stdout.write(serialize_report(
            {"error": {"kind": exc.kind, "message": str(exc),
                       "location": exc.location}}))
        return 2

    sys.stdout.write(text)
    if args.task == "selftest":
        for row in report["criteria"]:
            status = "pass" if row["pass"] else "FAIL"
            print(f"{row['id']:>4}  {status}  {row['name']}", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
