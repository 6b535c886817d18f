"""Seeded problem files for the benchmark workloads.

The generator uses only the standard library: its own `random.Random`
stream and fixed string templates.  It never calls into `chernsode`, so a
change to the library cannot change the inputs it is measured on.  The
monomial structure of every template is fixed; the seed draws the exact
rational coefficients, the automorphism shifts and the sampling seed.  So
every seed gives problems of the same shape and cost, and the same seed
gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import os
import random

NUMERATORS = (-7, -5, -3, -2, -1, 1, 2, 3, 5, 7)
DENOMINATORS = (1, 2, 4, 8)


def _fill(rng, template: str) -> str:
    """Replace each `C` with a signed rational and each `K` with a small
    positive one, drawn in order of appearance."""
    out = []
    for ch in template:
        if ch == "C":
            num, den = rng.choice(NUMERATORS), rng.choice(DENOMINATORS)
            out.append(f"({num}/{den})")
        elif ch == "K":
            out.append(f"({rng.choice((1, 2, 3))}/{rng.choice((4, 8))})")
        else:
            out.append(ch)
    return "".join(out)


def _dense(n, deg_v, deg_x, deg_t) -> list:
    """Every monomial up to the given degrees in v, x and t, one `C` each."""
    def monomials(names, degree):
        out = [()]
        for d in range(1, degree + 1):
            out += itertools.combinations_with_replacement(names, d)
        return out

    terms = []
    for tm in monomials(["t"], deg_t):
        for xm in monomials([f"x{i + 1}" for i in range(n)], deg_x):
            for vm in monomials([f"v{i + 1}" for i in range(n)], deg_v):
                factors = "*".join(tm + xm + vm)
                terms.append("C*" + factors if factors else "C")
    return [" + ".join(terms)] * n


# Right-hand sides F^i(t, x, v).
TEMPLATES = {
    "poly1": ["C*v1^3 + C*x1*v1^2 + C*t*v1 + C*x1^2*v1 + C*x1 + C*t*x1^2"],
    "trig1": ["C*sin(x1)*v1^2 + C*exp(K*t)*v1 + C*cos(x1)"],
    "poly2": ["C*v1^3 + C*x2*v1*v2 + C*t*v2 + C*x1^2 + C*v2^2",
              "C*v2^3 + C*x1*v1^2 + C*t*v1 + C*x2*x1 + C*v1*v2"],
    "trig2": ["C*sin(x2)*v1^2 + C*exp(K*t)*v2 + C*cos(x1)*v1*v2",
              "C*cos(x1)*v2^2 + C*sin(t)*x2*v1 + C*exp(K*x1)*v2"],
    # generic dense n=2 system: all 60 monomials of degree <= 3 in v,
    # <= 1 in x and <= 1 in t, in each component
    "dense2": _dense(2, deg_v=3, deg_x=1, deg_t=1),
    "poly3": ["C*v1^3 + C*x2*v1*v3 + C*t*v2",
              "C*v2^2*v3 + C*x3*v1 + C*x1*x2",
              "C*v3^3 + C*t*x1*v3 + C*v1*v2"],
    "trig3": ["C*sin(x2)*v1^2 + C*exp(K*t)*v3",
              "C*cos(x3)*v2*v1 + C*x1*v3",
              "C*sin(x1)*v3^2 + C*t*v2"],
}

# Diagonal Riemannian metrics over the positions, positive everywhere.
METRICS = {
    1: [["1 + K*x1^2"]],
    2: [["exp(K*x2)", "0"], ["0", "1 + K*x1^2"]],
    3: [["1 + K*x2^2", "0", "0"], ["0", "exp(K*x3)", "0"],
        ["0", "0", "1 + K*x1^2"]],
}

# Triangular vertical automorphisms with exact inverses; {a}, {b}, {c} are
# positive shifts shared by phi and its inverse.
AUTOMORPHISMS = {
    1: (["x1 + {a}*t^2"], ["x1 - {a}*t^2"]),
    2: (["x1 + {a}*t^2", "x2 + {b}*x1^2"],
        ["x1 - {a}*t^2", "x2 - {b}*(x1 - {a}*t^2)^2"]),
    3: (["x1 + {a}*t", "x2 + {b}*x1^2", "x3 + {c}*t*x2"],
        ["x1 - {a}*t", "x2 - {b}*(x1 - {a}*t)^2",
         "x3 - {c}*t*(x2 - {b}*(x1 - {a}*t)^2)"]),
}


def problem(rng, template, *, count, metric=False, automorphism=False) -> dict:
    """One problem file as a dict, drawn from `rng`."""
    F = [_fill(rng, row) for row in TEMPLATES[template]]
    n = len(F)
    out = {"dimension": n, "F": F}
    if metric:
        out["metric"] = [[_fill(rng, e) for e in row] for row in METRICS[n]]
    if automorphism:
        shifts = {k: _fill(rng, "K") for k in "abc"}
        phi, inverse = AUTOMORPHISMS[n]
        out["automorphism"] = {
            "phi": [p.format(**shifts) for p in phi],
            "inverse": [p.format(**shifts) for p in inverse]}
    out["samples"] = {"mode": "random", "count": count,
                      "seed": rng.randrange(1, 2 ** 31),
                      "box": {"time": [0, 1], "position": [-1, 1],
                              "velocity": [-1, 1]}}
    return out


# Workloads: (problem name, template, options, tasks run on it), in pass order.
CLI_WORKLOADS = {
    "cli-oracles": [
        ("poly1", "poly1", {"count": 20, "metric": True},
         ("analyze", "verify", "classify", "riemann")),
        ("trig2", "trig2", {"count": 20, "metric": True},
         ("analyze", "verify", "classify", "riemann")),
        ("dense2", "dense2", {"count": 20}, ("analyze",)),
        ("poly3", "poly3", {"count": 20, "metric": True},
         ("verify", "classify", "riemann")),
    ],
    "cli-jets": [
        ("trig1", "trig1", {"count": 20, "automorphism": True},
         ("jets", "push")),
        ("poly2", "poly2", {"count": 20, "automorphism": True},
         ("jets", "push")),
        ("trig3", "trig3", {"count": 20, "automorphism": True},
         ("jets", "push")),
    ],
}

SESSION_TEMPLATE = "trig2"
SESSION_POINTS = 10000


def write_cli_problems(workload, seed, directory) -> list:
    """Write the workload's problem files; return its operations as
    (task, path) pairs in pass order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for name, template, options, tasks in CLI_WORKLOADS[workload]:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(problem(rng, template, **options)))
        ops.extend((task, path) for task in tasks)
    return ops


def session_problem(seed, index) -> dict:
    """The index-th system of the session-dense stream."""
    rng = random.Random(f"session-dense:{seed}:{index}")
    return problem(rng, SESSION_TEMPLATE, count=SESSION_POINTS)


def dumps(raw) -> str:
    return json.dumps(raw, indent=1, sort_keys=True) + "\n"
