"""The Mazur-Tate element against its defining property (`twisted_lvalues`).

S(chi) = sum_a chi(a) x_a, read off `mazur_tate_values` at level m = 25,
must be a fixed multiple of m L(f, chibar, 1) / tau(chibar) over the 8
primitive chi mod 25 of the parity of the symbol's sign, for
11a = eta(z)^2 eta(11z)^2 and Delta = eta(z)^24.  Both have root number +1.
At s = k - 1 the ratio is not constant: theta interpolates the value at
s = 1.  For k = 2 the two points coincide, so the control uses Delta.
"""

from functools import cache

import mpmath
import pytest

from mtlab import mazurtate, modsym

from twisted_lvalues import (SmoothedSeries, eta_product, gauss_sum,
                             primitive_characters)

P, N_LEVEL = 5, 2
M = P ** N_LEVEL
DIGITS = 30

# name -> (level, weight, eta powers, number of terms): the terms decay like
# exp(-n / A), A = sqrt(N m^2) / (2 pi), about 13.2 for 11a and 4.0 for Delta
FORMS = {"11a": (11, 2, {1: 2, 11: 2}, 1000),
         "Delta": (1, 12, {1: 24}, 400)}


@cache
def series(name):
    N, k, powers, terms = FORMS[name]
    with mpmath.workdps(DIGITS):
        return SmoothedSeries(eta_product(powers, terms), N, k, 1, M)


def ratios(name, sign, s):
    """S(chi) tau(chibar) / (m L(f, chibar, s)) for the primitive chi mod m
    with chi(-1) = sign."""
    N, k, _, _ = FORMS[name]
    space = modsym.ManinSymbolSpace(N, k)
    cls, = modsym.cuspidal_eigensymbols(space, sign)
    assert cls.field.degree == 1
    theta = mazurtate.mazur_tate_values(space, cls.exact_value, P, N_LEVEL,
                                        sign)
    with mpmath.workdps(DIGITS):
        out = []
        for chi in primitive_characters(P, N_LEVEL):
            if chi[M - 1].real * sign < 0:
                continue
            chibar = [mpmath.conj(c) for c in chi]
            S = mpmath.fsum(chi[a] * x for a, (x,) in theta.coeffs.items())
            out.append(S * gauss_sum(chibar)
                       / (M * series(name).value(chibar, s)))
        return out


def spread(values):
    return max(abs(v - values[0]) for v in values) / abs(values[0])


def test_eta_products_give_the_newforms():
    assert eta_product(*FORMS["11a"][2:])[:10] == \
        [1, -2, -1, 2, 1, 2, -2, 0, -2, -2]
    assert eta_product(*FORMS["Delta"][2:])[:5] == \
        [1, -24, 252, -1472, 4830]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", sorted(FORMS))
def test_theta_interpolates_the_twisted_l_values(name, sign):
    values = ratios(name, sign, 1)
    assert len(values) == 8
    assert spread(values) < 1e-20


@pytest.mark.parametrize("sign", [1, -1])
def test_theta_does_not_interpolate_the_value_at_k_minus_one(sign):
    assert spread(ratios("Delta", sign, FORMS["Delta"][1] - 1)) > 1e-3
