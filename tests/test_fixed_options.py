"""The settings no caller changes are constants, not parameters: each
function below takes exactly the parameters listed, and the values it used
to take as options are written into its body."""

import inspect

import pytest

from chernsode import chern, classify, cli, expressions, natjets, selftest, sode

SIGNATURES = [
    (sode.check_residual, "blocks s mode points"),
    (sode.splitting_curvature, "s check points"),
    (sode.random_polynomial_sode, "n seed density"),
    (chern.covariant_derivative, "s X Y"),
    (chern.torsion, "s check points"),
    (chern.curvature, "s check points"),
    (classify._condition, "named_exprs s mode points"),
    (classify.special_coordinate_conditions, "s mode points"),
    (classify.unimodular_test, "s mode points"),
    (classify.holonomy_span, "s p"),
    (classify._check_spd, "U s points name"),
    (classify.classification_report, "s points U rank_tol"),
    (natjets.UJet.__init__, "self vars"),
    (natjets.distribution_span, "n s p sample_count seed"),
    (natjets.order0_distribution_rank, "n s p"),
    (natjets.VerticalAutomorphism.validate, "self points"),
    (natjets.random_automorphism, "vars seed"),
    (natjets._fd_push_derivative, "auto s p jx_inv"),
    (expressions._Expansion.atom_mono, "self atom"),
    (cli.Problem._strings, "self key count"),
    (selftest.battery_systems, "count"),
    (selftest.criterion_functoriality, "n_autos n_systems"),
    (selftest._expression_pool, ""),
]


@pytest.mark.parametrize("func, params", SIGNATURES,
                         ids=[f.__qualname__ for f, _ in SIGNATURES])
def test_parameter_lists_are_trimmed(func, params):
    assert list(inspect.signature(func).parameters) == params.split()


def test_automorphism_takes_an_inverse_of_its_own_length():
    vars = expressions.VarSet.default(1)
    x1 = expressions.var("x1")
    with pytest.raises(ValueError, match=r"^automorphism needs 1 components$"):
        natjets.VerticalAutomorphism(vars=vars, phi=(x1,), inverse=())
    with pytest.raises(ValueError, match=r"^automorphism needs 1 components$"):
        natjets.VerticalAutomorphism(vars=vars, phi=(x1,), inverse=(x1, x1))
