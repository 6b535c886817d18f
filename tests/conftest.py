import itertools

import pytest

# Exact coefficients of a generic dense n = 2 system: every monomial of degree
# <= 1 in t, <= 1 in (x1, x2) and <= 3 in (v1, v2), 60 per component, in the
# order of _dense_monomials().  Its Kosambi characteristic polynomial has
# coefficients of 1, 270 and 3375 terms.
DENSE2_COEFFS = (
    "-5 3/8 -7/4 7/8 -1 3/2 -1/8 1/4 -7/2 3/2 3 -1/4 -3/4 -1/4 -1 -7/2 3/2 2 "
    "5/8 5 -5/2 -7/2 5/8 -3 7/4 5 -1/2 1/4 5 -1 -1/4 1/2 3/2 -7/8 -5/2 -5 3/4 "
    "1 -5/2 5 -5/4 -7/8 7/4 -5/8 1 7/4 -1/4 -1/4 -3/4 -5/4 -1/4 1 1/2 3 -5 "
    "7/8 1/8 1/4 -5/8 -5/2",
    "-5/2 -5/2 -5/2 1/8 -3/8 1/8 3/8 1 -7/8 1/8 -1/8 -3/2 -5/4 -5 -5/2 -5/2 5 "
    "-1 -7/8 -1/4 -1/4 3/8 -3/4 1/4 -7/2 3 3 -7 -1/2 7/2 7/8 1 -1 7 -7/4 2 3/4 "
    "-1/4 1/2 -2 3/4 -1 1/8 -7/4 -7/4 -5/2 5/8 5/2 7/2 -1/4 1/2 5/2 1 -5 7/4 "
    "1 7/4 -1 -1/2 7/8",
)


def _dense_monomials():
    def upto(names, degree):
        out = [()]
        for d in range(1, degree + 1):
            out += itertools.combinations_with_replacement(names, d)
        return out

    return [tm + xm + vm for tm in upto(["t"], 1)
            for xm in upto(["x1", "x2"], 1)
            for vm in upto(["v1", "v2"], 3)]


@pytest.fixture
def dense2_F():
    """The right-hand sides F^1, F^2 of the dense system, as problem-file
    strings over the default variables t, x1, x2, v1, v2."""
    monomials = _dense_monomials()
    out = []
    for row in DENSE2_COEFFS:
        coeffs = row.split()
        assert len(coeffs) == len(monomials) == 60
        out.append(" + ".join("*".join((f"({c})",) + m)
                              for c, m in zip(coeffs, monomials)))
    return out
