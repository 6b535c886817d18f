"""Built-in verification suite.

Each criterion function returns {"id", "name", "pass", "details"} with plain
floats/ints/strings in details, so the collection serialises byte-stably.
The CLI `selftest` command runs them all; the pytest acceptance module drives
the same functions one per test with the stated tolerances.
"""

from __future__ import annotations

import numpy as np

from .expressions import (
    VarSet, compile_expr, const, diff, evaluate, free_variables, parse,
    richardson, simplify, substitute,
)
from .sode import (
    SodeSystem, max_abs, random_polynomial_sode, sample_points, seeded,
    splitting_curvature, worst_abs, zero_symbolically, _jacobian,
)
from .chern import connection, verify_residuals, verify_structure_identities
from .classify import (
    first_prolongation_dim, kosambi_invariants,
    special_coordinate_conditions, unimodular_test,
)
from .natjets import (
    curvature_kernel_dim, curvature_mapping_exprs, distribution_span,
    infinitesimal_equivariance, jet_substitution, random_automorphism,
    random_polynomial_field, svd_gap, verify_functoriality,
)
from .riemann import (
    cross_check, flat_metric, geodesic_spray, hyperbolic_metric_signature,
    metric_compatibility, sphere_metric,
)


def _flat(n):
    vars = VarSet.default(n)
    return SodeSystem(vars=vars, F=tuple(const(0) for _ in range(n)))


def _oscillator():
    vars = VarSet.default(1)
    return SodeSystem(vars=vars, F=(parse("-x1 - 1.0*v1", vars),))


def _cubic():
    vars = VarSet.default(1)
    return SodeSystem(vars=vars, F=(parse("v1^3", vars),))


def criterion_flat_suite():
    """C1: everything vanishes for the zero system, n in {1, 2, 3}."""
    numeric = []
    symbolic_ok = True
    for n in (1, 2, 3):
        s = _flat(n)
        sc = splitting_curvature(s, check="symbolic")
        comp = connection(s).curvature
        kos = kosambi_invariants(s)
        for arr in (sc.P, sc.T, comp.A, comp.B, comp.R):
            symbolic_ok &= all(zero_symbolically(arr[idx])
                               for idx in np.ndindex(arr.shape))
        symbolic_ok &= all(zero_symbolically(c) for c in kos.charpoly[1:])
        pts = sample_points(s.vars, 100, seed=100 + n)
        tail = np.asarray(kos.charpoly[1:], dtype=object)
        numeric += [max_abs(arr, s, pts)
                    for arr in (sc.P, sc.T, comp.A, comp.B, comp.R, tail)]
    worst = worst_abs(numeric)
    ok = symbolic_ok and worst <= 1e-12
    return {"id": "C1", "name": "flat suite", "pass": bool(ok),
            "details": {"symbolic_zero": bool(symbolic_ok),
                        "numeric_max": worst}}


def battery_systems(count=20):
    return [random_polynomial_sode(2, seed=3000 + k) for k in range(count)]


def criterion_identity_battery(count=20, points_per=50):
    """C2: structure identities, both oracles and the four characterization
    items on seeded random systems; C3 shares its points (eigenstructure)."""
    found = {}
    for k, s in enumerate(battery_systems(count)):
        pts = sample_points(s.vars, points_per, seed=500 + k)
        for key, val in verify_residuals(s, pts).items():
            found.setdefault(key.removeprefix("characterization_"),
                             []).append(val)
    worst = {key: worst_abs(vals) for key, vals in found.items()}
    eigen = worst.pop("eigenstructure")
    ok = all(v <= 1e-9 for v in worst.values())
    return ({"id": "C2", "name": "identity battery", "pass": bool(ok),
             "details": dict(worst)},
            {"id": "C3", "name": "eigenstructure", "pass": bool(eigen <= 1e-8),
             "details": {"eigen_residual": eigen}})


def criterion_oscillator():
    """C4: damped oscillator with damping 1/2: P = 3/4 exactly and the
    Kosambi polynomial is lambda + 3/4."""
    s = _oscillator()
    sc = splitting_curvature(s, check="symbolic")
    kos = kosambi_invariants(s)
    ok = simplify(sc.P[0, 0]) == const(0.75) \
        and kos.charpoly == (const(1), const(0.75))
    return {"id": "C4", "name": "oscillator values", "pass": bool(ok),
            "details": {"P": 0.75 if ok else None,
                        "charpoly": [1.0, 0.75] if ok else None}}


def criterion_riemann_bridge():
    """C5: cross formulas for the flat and sphere metrics, the transport
    system with U = g, parallelism of the block metric, and the companion
    signature."""
    vars = VarSet.default(2)
    details = {}
    flat_res = cross_check(flat_metric(vars), count=50, seed=41)
    details["flat_cross_max"] = worst_abs(list(flat_res.values()))
    sph = sphere_metric(vars)
    sph_res = cross_check(sph, count=50, seed=42)
    details["sphere_cross_max"] = worst_abs(list(sph_res.values()))
    compat = metric_compatibility(sph, count=50, seed=43)
    details["sphere_eq_PDE"] = compat["eq_PDE"]
    details["sphere_parallel_metric"] = compat["parallel_block_metric"]
    sig = hyperbolic_metric_signature(sph, count=20, seed=44)
    details["signature"] = list(sig)
    ok = (details["flat_cross_max"] <= 1e-9
          and details["sphere_cross_max"] <= 1e-9
          and compat["eq_PDE"] <= 1e-12
          and compat["parallel_block_metric"] <= 1e-8
          and sig == (3, 2))
    return {"id": "C5", "name": "riemann bridge", "pass": bool(ok),
            "details": details}


def criterion_functoriality(n_autos=10, n_systems=5):
    """C6: derivative transformation laws, frame pushes, torsion and
    curvature-mapping equivariance, Kosambi invariance for seeded polynomial
    automorphisms over random systems, at 4 seeded points each."""
    vars = VarSet.default(2)
    systems = [random_polynomial_sode(2, seed=7000 + k)
               for k in range(n_systems)]
    found = {}
    for k in range(n_autos):
        auto = random_automorphism(vars, seed=8000 + k)
        s = systems[k % n_systems]
        pts = sample_points(vars, 4, seed=650 + k)
        for key, val in verify_functoriality(auto, s, pts).items():
            found.setdefault(key, []).append(val)
    worst = {key: worst_abs(vals) for key, vals in found.items()}
    ok = all(v <= 1e-8 for v in worst.values())
    return {"id": "C6", "name": "functoriality", "pass": bool(ok),
            "details": dict(worst)}


def criterion_jet_ranks():
    """C7: prolonged-field span ranks 11 (n=1) and 44 (n=2) with a clean
    singular-value gap, and curvature-mapping kernel dimensions 9 and 36."""
    details = {}
    ok = True
    for n, expected_rank, expected_kernel in ((1, 11, 9), (2, 44, 36)):
        s = random_polynomial_sode(n, seed=900 + n)
        p = sample_points(s.vars, 1, seed=20 + n)[0]
        rank, svals = distribution_span(n, s, p, seed=30 + n)
        gap = svd_gap(svals, expected_rank)
        kernel = curvature_kernel_dim(s, p)
        details[f"rank_n{n}"] = rank
        details[f"gap_n{n}"] = gap
        details[f"kernel_n{n}"] = kernel
        ok &= rank == expected_rank and gap >= 1e3 and kernel == expected_kernel
    return {"id": "C7", "name": "jet ranks", "pass": bool(ok),
            "details": details}


def criterion_curvature_mapping(triples=20):
    """C8: the y-formulas composed with a system jet equal (-P, -T)
    symbolically for n in {1, 2}; infinitesimal equivariance holds on random
    (field, system, point) triples."""
    symbolic_ok = True
    for n, seed in ((1, 11), (2, 12)):
        s = random_polynomial_sode(n, seed=seed)
        sub = jet_substitution(s)
        y_P, y_T = curvature_mapping_exprs(s.vars)
        sc = connection(s).torsion
        for i in range(n):
            for j in range(n):
                symbolic_ok &= zero_symbolically(
                    substitute(y_P[i, j], sub) + sc.P[i, j])
                for k in range(n):
                    symbolic_ok &= zero_symbolically(
                        substitute(y_T[i, j, k], sub) + sc.T[i, j, k])
    pairs = []
    for k in range(triples):
        s = random_polynomial_sode(2, seed=1300 + k)
        u = random_polynomial_field(s.vars, seed=1400 + k, degree=3)
        p = sample_points(s.vars, 1, seed=70 + k)[0]
        pairs.append(infinitesimal_equivariance(s, u, p))
    worst = worst_abs(pairs)
    ok = symbolic_ok and worst <= 1e-8
    return {"id": "C8", "name": "curvature-mapping consistency",
            "pass": bool(ok),
            "details": {"symbolic": bool(symbolic_ok),
                        "equivariance_max": worst}}


def criterion_first_prolongation():
    """C9: the structure algebra has vanishing first prolongation."""
    dims = {n: first_prolongation_dim(n) for n in (1, 2, 3)}
    ok = all(v == 0 for v in dims.values())
    return {"id": "C9", "name": "first prolongation", "pass": bool(ok),
            "details": {f"n{n}": v for n, v in dims.items()}}


def criterion_classifiers():
    """C10: velocity-affine systems pass the first condition symbolically;
    the cubic fails with the constant witness 3; the divergence test accepts
    the damped oscillator and rejects the cubic."""
    vars = VarSet.default(2)
    affine = SodeSystem(vars=vars, F=(
        parse("x1*x2 + t*v1 - x2*v2", vars), parse("x1 - 2*v2", vars)))
    flags = special_coordinate_conditions(affine, mode="symbolic")
    ok = flags["linearizable_necessary"].status == "symbolic-zero"

    cubic_flags = special_coordinate_conditions(_cubic(), mode="symbolic")
    witness_val = None
    for result in cubic_flags.values():
        if result.witness and result.witness["component"].startswith("R"):
            witness_val = result.witness["value"]
    ok &= all(r.status == "violated" for r in cubic_flags.values())
    ok &= witness_val is not None and abs(witness_val - 3.0) < 1e-12

    osc_res, osc_decomp = unimodular_test(_oscillator())
    cubic_res, cubic_decomp = unimodular_test(_cubic())
    ok &= osc_res.holds and osc_decomp is not None
    ok &= (not cubic_res.holds) and cubic_decomp is None
    divergence = evaluate(osc_decomp[0], {"t": 0.0, "x1": 0.0, "v1": 0.0}) \
        if osc_decomp else None
    return {"id": "C10", "name": "classifier soundness", "pass": bool(ok),
            "details": {"cubic_witness_R": witness_val,
                        "oscillator_divergence": divergence}}


def _expression_pool():
    """Expressions actually used by the suites (at least 200): right-hand
    sides, their derivatives, component arrays, metric data."""
    pool = []
    for k in range(8):
        s = random_polynomial_sode(2, seed=5000 + k)
        pool.extend(s.F)
        pool.extend(_jacobian(s.F, s.coords).flat)
        conn = connection(s)
        sc, comp = conn.torsion, conn.curvature
        pool.extend(sc.P.reshape(-1))
        pool.extend(sc.T.reshape(-1))
        pool.extend(comp.A.reshape(-1))
    vars = VarSet.default(2)
    sph = geodesic_spray(sphere_metric(vars))
    pool.extend(sph.F)
    pool.extend(_jacobian(sph.F, sph.coords).flat)
    pool = [e for e in pool if free_variables(e)]
    assert len(pool) >= 200
    return pool


def criterion_fd_oracle(points_per=20):
    """C11: symbolic derivatives agree with the finite-difference oracle
    (central differences with one Richardson step) to relative 1e-6 on a
    pool of at least 200 expressions in actual use."""
    pool = [(e, sorted(free_variables(e))) for e in _expression_pool()]
    # one variable index and points_per values per variable for each
    rng = seeded(99, sum(1 + points_per * len(names) for _, names in pool))
    relative = []
    for e, names in pool:
        name = names[int(rng.integers(0, len(names)))]
        col = names.index(name)
        fn = compile_expr(e, names)
        dfn = compile_expr(diff(e, name), names)
        base = [rng.uniform(0.35, 0.95, points_per) for _ in names]

        def shifted(delta):
            cols = list(base)
            cols[col] = base[col] + delta
            return fn(cols)

        approx = richardson(shifted, 1e-4)
        exact = dfn(base)
        relative.append(np.abs(approx - exact) / (1.0 + np.abs(exact)))
    worst = worst_abs(*relative)
    ok = worst <= 1e-6
    return {"id": "C11", "name": "derivative oracle agreement",
            "pass": bool(ok),
            "details": {"expressions": len(relative), "worst_relative": worst}}


def _determinism_probe():
    """A seeded sub-report exercising sampling, ranks and residuals."""
    s = random_polynomial_sode(2, seed=4242)
    pts = sample_points(s.vars, 10, seed=77)
    res = verify_structure_identities(s, pts)
    rank, svals = distribution_span(2, s, pts[0], sample_count=50, seed=5)
    return {"eq_As": res["eq_As"], "eq_3T": res["eq_3T"], "rank": rank,
            "first_singular": float(svals[0])}


def criterion_determinism(serialize):
    """C12: the seeded probe serialises to identical bytes on re-execution
    (the CLI-level check additionally compares two full process runs)."""
    a = serialize(_determinism_probe())
    b = serialize(_determinism_probe())
    return {"id": "C12", "name": "determinism", "pass": bool(a == b),
            "details": {"probe_bytes": len(a)}}


def run_all(serialize) -> list:
    out = [criterion_flat_suite()]
    c2, c3 = criterion_identity_battery()
    out.extend([c2, c3])
    out.append(criterion_oscillator())
    out.append(criterion_riemann_bridge())
    out.append(criterion_functoriality())
    out.append(criterion_jet_ranks())
    out.append(criterion_curvature_mapping())
    out.append(criterion_first_prolongation())
    out.append(criterion_classifiers())
    out.append(criterion_fd_oracle())
    out.append(criterion_determinism(serialize))
    return out
