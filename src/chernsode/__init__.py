"""Chern connection of a second-order ODE system: symbolic and numeric
geometry on the 1-jet space, classifiers, jet prolongations, CLI."""

from .expressions import (
    DomainError, Expr, ParseError, UnknownIdentifier, VarSet, diff, evaluate,
    fd_diff, parse, simplify, to_string,
)
from .sode import (
    JetPoint1, OracleMismatch, SodeSystem, adapted_frame, dynamical_flow,
    endomorphism_E, lie_derivative_J, random_polynomial_sode, sample_points,
    split, splitting_curvature,
)
from .chern import (
    ConnectionData, CurvatureComponents, TorsionTensor, connection,
    connection_data, covariant_derivative, curvature, torsion,
    verify_characterization, verify_structure_identities,
)
from .classify import (
    ClassificationReport, KosambiData, NotPositiveDefinite,
    SymbolicModeUnsupported, first_prolongation_dim, holonomy_span,
    holonomy_spans, kosambi_invariants, orthogonal_residual, special_coordinate_conditions,
    unimodular_test,
)
from .natjets import (
    CurvatureValue, MissingInverse, ProlongedField, SodeJet2,
    VerticalAutomorphism, curvature_mapping, infinitesimal_equivariance,
    jet2_of, prolong1, prolong_vertical_field, push_sode_symbolic,
    push_sode_value, verify_functoriality,
)
from .riemann import (
    MetricField, SingularMetric, christoffel, cross_check, geodesic_spray,
    riemann_tensor,
)

__version__ = "0.1.0"
