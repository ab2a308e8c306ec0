"""The Mazur-Tate element against its defining property (`twisted_lvalues`).

S(chi) = sum_a chi(a) x_a, read off `mazur_tate_values` at level m = p^n,
must be a fixed multiple of m L(f, chibar, 1) / tau(chibar) over the
primitive chi mod m of the parity of the symbol's sign, for each form of
FORMS: 11a = eta(z)^2 eta(11z)^2, 14a = eta(z) eta(2z) eta(7z) eta(14z),
eta(z)^4 eta(5z)^4 (k = 4), eta(z)^6 eta(3z)^6 (k = 6), eta(z)^8 eta(2z)^8
(k = 8) and Delta = eta(z)^24 (k = 12), each of level N with one rational
eigenclass of each sign.  At s = k - 1 the ratio is not constant: theta
interpolates the value at s = 1.  For k = 2 the two points coincide, so
the control uses Delta.

Every root number is +1.  For Delta, of level 1, it is (-1)^(k/2) = 1.
For the others it is eps_f = (-1)^(k/2) w_N, w_N = prod_(q | N) w_q, with
the Atkin-Lehner eigenvalue w_q read off the form's own a_q as
a_q = -q^(k/2 - 1) w_q for q || N (Atkin-Lehner, Math. Ann. 185, 1970;
W. Li, Math. Ann. 212, 1975, Theorem 3; the functional equation
Lambda(s) = i^k w_N Lambda(k - s) of Iwaniec-Kowalski, Proposition 14.20):
for 11a, a_11 = 1; for 14a, a_2 = -1 and a_7 = 1; for eta(z)^4 eta(5z)^4,
a_5 = -5; for eta(z)^6 eta(3z)^6, a_3 = 9; for eta(z)^8 eta(2z)^8,
a_2 = -8 (`test_root_numbers_match_the_atkin_lehner_signs`).  They agree
with the signs the LMFDB lists for 11.2.a.a, 14.2.a.a, 5.4.a.a, 3.6.a.a,
2.8.a.a and 1.12.a.a.
"""

from functools import cache

import mpmath
import pytest

from mtlab import mazurtate, modsym

from twisted_lvalues import (SmoothedSeries, eta_product, gauss_sum,
                             primitive_characters)

DIGITS = 30

# name -> (level, weight, eta powers, root number, p, n, number of terms):
# the terms decay like exp(-n / A), A = sqrt(N m^2) / (2 pi), m = p^n,
# about 13.2 for 11a, 14.9 for 14a, 9.6 for eta(z)^4 eta(5z)^4, 6.9 for
# eta(z)^6 eta(3z)^6, 5.6 for eta(z)^8 eta(2z)^8 and 4.0 for Delta
FORMS = {"11a": (11, 2, {1: 2, 11: 2}, 1, 5, 2, 1000),
         "14a": (14, 2, {1: 1, 2: 1, 7: 1, 14: 1}, 1, 5, 2, 1100),
         "5k4": (5, 4, {1: 4, 5: 4}, 1, 3, 3, 750),
         "3k6": (3, 6, {1: 6, 3: 6}, 1, 5, 2, 550),
         "2k8": (2, 8, {1: 8, 2: 8}, 1, 5, 2, 450),
         "Delta": (1, 12, {1: 24}, 1, 5, 2, 400)}


@cache
def series(name):
    N, k, powers, eps, p, n, terms = FORMS[name]
    with mpmath.workdps(DIGITS):
        return SmoothedSeries(eta_product(powers, terms), N, k, eps, p ** n)


def sides(name, sign, s):
    """(S(chi) tau(chibar), m L(f, chibar, s)) for the primitive chi mod m
    with chi(-1) = sign."""
    N, k, _, _, p, n, _ = FORMS[name]
    m = p ** n
    space = modsym.ManinSymbolSpace(N, k)
    cls, = modsym.cuspidal_eigensymbols(space, sign)
    assert cls.field.degree == 1
    theta = mazurtate.mazur_tate_values(space, cls.exact_value, p, n, sign)
    with mpmath.workdps(DIGITS):
        out = []
        for chi in primitive_characters(p, n):
            if chi[m - 1].real * sign < 0:
                continue
            chibar = [mpmath.conj(c) for c in chi]
            S = mpmath.fsum(chi[a] * x for a, (x,) in theta.coeffs.items())
            out.append((S * gauss_sum(chibar),
                        m * series(name).value(chibar, s)))
        return out


def ratios(name, sign, s):
    return [x / y for x, y in sides(name, sign, s)]


def spread(values):
    return max(abs(v - values[0]) for v in values) / abs(values[0])


def test_eta_products_give_the_newforms():
    first = {"11a": [1, -2, -1, 2, 1, 2, -2, 0, -2, -2],
             "14a": [1, -1, -2, 1, 0, 2, 1, -1, 1, 0],
             "5k4": [1, -4, 2, 8, -5, -8, 6, 0, -23, 20],
             "3k6": [1, -6, 9, 4, 6, -54, -40, 168, 81, -36],
             "2k8": [1, -8, 12, 64, -210, -96, 1016, -512, -2043, 1680],
             "Delta": [1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                       -113643, -115920]}
    assert {name: eta_product(FORMS[name][2], 10) for name in FORMS} == first


@pytest.mark.parametrize("name", sorted(FORMS))
def test_root_numbers_match_the_atkin_lehner_signs(name):
    """eps_f = (-1)^(k/2) prod_(q | N) w_q, a_q = -q^(k/2 - 1) w_q."""
    N, k, powers, eps = FORMS[name][:4]
    a = eta_product(powers, N + 1)
    sign = (-1) ** (k // 2)
    for q in (q for q in range(2, N + 1) if N % q == 0 and all(
            q % r for r in range(2, q))):
        assert N % (q * q) and a[q - 1] % q ** (k // 2 - 1) == 0
        sign *= -a[q - 1] // q ** (k // 2 - 1)
    assert sign == eps


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", sorted(FORMS))
def test_theta_interpolates_the_twisted_l_values(name, sign):
    """S(chi) tau(chibar) = c m L(f, chibar, 1) with one c over the chi of
    one parity.  A twisted L-value can vanish: for 14a, sign +1, it does at
    the four even chi mod 25 of order 10 (to 10^-28), where S(chi) must
    vanish too, and the ratio is read at the other four."""
    p, n = FORMS[name][4:6]
    found = sides(name, sign, 1)
    # half of the phi(m) - phi(m / p) primitive characters mod m
    assert len(found) == (p - 1) ** 2 * p ** (n - 2) // 2
    scale = max(abs(y) for _, y in found)
    zeros = [abs(y) < 1e-20 * scale for _, y in found]
    assert sum(zeros) == (4 if (name, sign) == ("14a", 1) else 0)
    assert all(abs(x) < 1e-20 * max(abs(x) for x, _ in found)
               for (x, _), zero in zip(found, zeros) if zero)
    values = [x / y for (x, y), zero in zip(found, zeros) if not zero]
    assert spread(values) < 1e-20


@pytest.mark.parametrize("sign", [1, -1])
def test_theta_does_not_interpolate_the_value_at_k_minus_one(sign):
    assert spread(ratios("Delta", sign, FORMS["Delta"][1] - 1)) > 1e-3
