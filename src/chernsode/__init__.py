"""Chern connection of a second-order ODE system: symbolic and numeric
geometry on the 1-jet space, classifiers, jet prolongations, CLI.

The names below, and the submodules they come from, are read on first use
(PEP 562), so importing the package, or one submodule such as
`chernsode.cli`, loads no other submodule."""

from importlib import import_module

# submodule -> the names the package reads from it
_SOURCES = {
    "expressions": "DomainError Expr ParseError UnknownIdentifier VarSet diff "
                   "evaluate fd_diff parse simplify to_string",
    "sode": "JetPoint1 OracleMismatch SodeSystem adapted_frame dynamical_flow "
            "endomorphism_E lie_derivative_J random_polynomial_sode "
            "sample_points split splitting_curvature",
    "chern": "ConnectionData CurvatureComponents TorsionTensor connection "
             "connection_data covariant_derivative curvature torsion "
             "verify_characterization verify_structure_identities",
    "classify": "ClassificationReport KosambiData NotPositiveDefinite "
                "SymbolicModeUnsupported first_prolongation_dim holonomy_span "
                "holonomy_spans kosambi_invariants orthogonal_residual "
                "special_coordinate_conditions unimodular_test",
    "natjets": "CurvatureValue MissingInverse ProlongedField SodeJet2 "
               "VerticalAutomorphism curvature_mapping "
               "infinitesimal_equivariance jet2_of prolong1 "
               "prolong_vertical_field push_sode_symbolic push_sode_value "
               "verify_functoriality",
    "riemann": "MetricField SingularMetric christoffel cross_check "
               "geodesic_spray riemann_tensor",
}
_EXPORTS = {name: module for module, names in _SOURCES.items()
            for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCES:
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached in the package: the name stays the submodule's attribute,
    # so what is later set on the submodule is what the package returns
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_SOURCES, *_EXPORTS})
