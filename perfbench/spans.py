"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each traced function with a wrapper, both in its
defining module and in every `chernsode` module that bound the same object
by `from .x import name`.  A wrapper records a span only at the outermost
entry into its function; re-entries (the recursion of `expressions.diff`,
for instance) are counted but not spanned.  Spans stay in memory as
(name, start, end, parent) rows until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# module -> functions wrapped in it; every one reports `calls` and `self_s`.
TRACED = {
    "expressions": ("parse", "diff", "simplify", "compile_expr", "evaluate"),
    "sode": ("splitting_curvature", "frame_symbolic", "coframe_symbolic",
             "lie_derivative_J", "max_abs", "eval_array"),
    "chern": ("curvature_components", "frame_christoffels",
              "covariant_derivative", "torsion_oracle_residual",
              "curvature_oracle_residual", "verify_structure_identities",
              "verify_characterization", "eigenstructure_residual"),
    "classify": ("classification_report", "kosambi_invariants",
                 "special_coordinate_conditions", "holonomy_span"),
    "natjets": ("distribution_span", "curvature_kernel_dim",
                "infinitesimal_equivariance", "verify_functoriality",
                "push_sode_symbolic", "push_sode_value"),
    "riemann": ("cross_check", "metric_compatibility",
                "hyperbolic_metric_signature", "geodesic_spray"),
    "cli": ("Problem", "serialize_report"),
}

# lru_caches whose cache_info() deltas give a hit ratio.
CACHES = {
    "sode": ("_diff",),
    "natjets": ("jet_space", "curvature_mapping_exprs", "generic_prolongation",
                "_equivariance_lhs_exprs", "_prolong1_exprs",
                "_push_value_exprs", "_chain_rule_exprs"),
}


def _eval_array_counts(args, kwargs, result):
    # eval_array(M, names, values): entries of M, and the batch length
    entries = np.asarray(args[0] if args else kwargs["M"], dtype=object).size
    return {"entries": entries,
            "points": result.size // entries if entries else 0}


def _report_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# extra counters taken from a call's arguments and result:
# qualified name -> (f(args, kwargs, result) -> increments, units)
EXTRA = {
    "sode.eval_array": (_eval_array_counts,
                        {"entries": "count", "points": "count"}),
    "cli.serialize_report": (_report_bytes, {"bytes": "B"}),
}
# counters of every entry, recursive ones included
ENTRY_COUNTERS = {"expressions.diff": "nodes_visited"}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = {}       # "module.function.quantity" -> number
        self._stack = []
        self._undo = []
        self._caches = {}

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name, fn):
        """Wrapper recording outermost-only spans of `fn` under `name`."""
        depth = 0
        extra = EXTRA.get(name, (None,))[0]
        entry_key = ENTRY_COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        if entry_key:
            entry_key = f"{name}.{entry_key}"
            counters.setdefault(entry_key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            if entry_key:
                counters[entry_key] += 1
            if depth:
                return fn(*args, **kwargs)
            depth = 1
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
                depth = 0
            if extra:
                for key, inc in extra(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    counters[key] = counters.get(key, 0) + inc
            return result

        return wrapper

    def install(self):
        """Wrap every traced function in every module that bound it."""
        for mod_name in TRACED:
            importlib.import_module(f"chernsode.{mod_name}")
        loaded = [m for key, m in sorted(sys.modules.items())
                  if key == "chernsode" or key.startswith("chernsode.")]
        for mod_name, names in TRACED.items():
            module = sys.modules[f"chernsode.{mod_name}"]
            for attr in names:
                original = getattr(module, attr)
                qualified = f"{mod_name}.{attr}"
                if isinstance(original, type):
                    # classes keep their identity; wrap the constructor
                    init = original.__dict__["__init__"]
                    self._set(original, "__init__", self.wrap(qualified, init))
                    continue
                wrapper = self.wrap(qualified, original)
                for other in loaded:
                    if other.__dict__.get(attr) is original:
                        self._set(other, attr, wrapper)
        for mod_name, names in CACHES.items():
            module = importlib.import_module(f"chernsode.{mod_name}")
            for attr in names:
                self._caches[f"{mod_name}.{attr}"] = getattr(module, attr)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- caches ------------------------------------------------------------

    def cache_info(self) -> dict:
        """Current (hits, misses) of each traced lru_cache."""
        out = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            out[name] = [info.hits, info.misses]
        return out

    def dump(self, cache_deltas) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "caches": cache_deltas}


def cache_delta(before: dict, after: dict) -> dict:
    return {name: [after[name][0] - before[name][0],
                   after[name][1] - before[name][1]] for name in after}


def sum_caches(deltas) -> dict:
    """name -> [hits, misses] summed over several cache deltas."""
    out = {}
    for delta in deltas:
        for name, (hits, misses) in delta.items():
            row = out.setdefault(name, [0, 0])
            row[0] += hits
            row[1] += misses
    return out


def self_times(spans) -> dict:
    """name -> [calls, self seconds] from (name, start, end, parent) rows.

    Self time is a span's duration minus the durations of its direct child
    spans.  Children nest inside their parent and never overlap (one thread),
    so their durations add up to the part of the parent they cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        row = out.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += (end - start) - covered
    return out


def metric_names() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    rows = []
    for mod_name, names in TRACED.items():
        for attr in names:
            base = f"{mod_name}.{attr}"
            rows.append((f"{base}.calls", "count", "lower"))
            rows.append((f"{base}.self_s", "s", "lower"))
            if base in ENTRY_COUNTERS:
                rows.append((f"{base}.{ENTRY_COUNTERS[base]}", "count",
                             "lower"))
            for quantity, unit in EXTRA.get(base, (None, {}))[1].items():
                rows.append((f"{base}.{quantity}", unit, "lower"))
        for attr in CACHES.get(mod_name, ()):
            rows.append((f"{mod_name}.{attr}.hit_ratio", "ratio", "higher"))
    return rows


def summarize(dumps) -> dict:
    """Per-layer metric values summed over the dumps of several processes."""
    calls = {}
    counters = {}
    for d in dumps:
        for name, (n, self_s) in self_times(d["spans"]).items():
            row = calls.setdefault(name, [0, 0.0])
            row[0] += n
            row[1] += self_s
        for key, value in d["counters"].items():
            counters[key] = counters.get(key, 0) + value
    hits = sum_caches(d["caches"] for d in dumps)
    out = {}
    for name, unit, _ in metric_names():
        base, quantity = name.rsplit(".", 1)
        if quantity == "calls":
            out[name] = calls.get(base, [0, 0.0])[0]
        elif quantity == "self_s":
            out[name] = calls.get(base, [0, 0.0])[1]
        elif quantity == "hit_ratio":
            h, m = hits.get(base, [0, 0])
            out[name] = h / (h + m) if h + m else 0.0
        else:
            out[name] = counters.get(name, 0)
    return out
