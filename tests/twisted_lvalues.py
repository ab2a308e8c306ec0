"""Twisted L-values of eta-product newforms, computed with no `mtlab` code.

The Mazur-Tate element of level m = p^n of a modular symbol has
coefficients x_a, the symbol's values on {oo} - {a/m}.  For a primitive
Dirichlet character chi of conductor m, S(chi) = sum_a chi(a) x_a is a
fixed multiple of m L(f, chibar, 1) / tau(chibar), the multiple depending
only on the parity of chi (Mazur-Tate-Teitelbaum, Invent. Math. 84, 1986,
section 8; Mazur-Tate, Duke Math. J. 54, 1987).  So the ratio
S(chi) tau(chibar) / (m L(f, chibar, 1)) is one constant over the
primitive chi mod m of one parity.

The a_n come from an eta product, prod_d eta(d z)^(r_d) =
q^(sum d r_d / 24) prod_d prod_n (1 - q^(d n))^(r_d), with prod (1 - q^n)
from Euler's pentagonal theorem.  For f of level N and weight k with root
number eps_f, and chi primitive mod m prime to N, f (x) chi is a newform
of level Q = N m^2 whose completed L-function
Lambda(s) = A^s Gamma(s) L(f (x) chi, s), A = sqrt(Q) / (2 pi), satisfies
Lambda(f (x) chi, s) = eps Lambda(f (x) chibar, k - s) with
eps = eps_f chi(N) tau(chi)^2 / m (Iwaniec-Kowalski, *Analytic Number
Theory*, AMS Colloq. Publ. 53, 2004, Proposition 14.20).  Splitting the
Mellin integral of the theta series at t = 1 gives the smoothed series

    Lambda(s) = sum_n b_n G_s(n) + eps sum_n conj(b_n) G_(k-s)(n),
    G_s(n) = (A / n)^s Gamma(s, n / A),

b_n = a_n chi(n), with the upper incomplete gamma function; its terms
decay like exp(-n / A) (Cremona, *Algorithms for Modular Elliptic Curves*,
2nd ed., 1997, section 2.11; T. Dokchitser, "Computing special values of
motivic L-functions", Experiment. Math. 13, 2004).
"""

import mpmath


def pentagonal(terms):
    """prod_(n >= 1) (1 - q^n) mod q^terms, as {exponent: coefficient}."""
    out, j = {0: 1}, 1
    while j * (3 * j - 1) // 2 < terms:
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e < terms:
                out[e] = (-1) ** j
        j += 1
    return out


def eta_product(powers, terms):
    """[a_1, ..., a_terms] of prod_d eta(d z)^(r_d), powers = {d: r_d} with
    r_d >= 0 and sum d r_d = 24: a cusp form q + O(q^2)."""
    assert sum(d * r for d, r in powers.items()) == 24
    series = [1] + [0] * (terms - 1)
    for d, r in powers.items():
        factor = {d * e: c for e, c in pentagonal(terms).items()
                  if d * e < terms}
        for _ in range(r):
            new = [0] * terms
            for e, c in factor.items():
                for i in range(terms - e):
                    new[i + e] += c * series[i]
            series = new
    return series


def primitive_characters(p, n):
    """The primitive characters mod m = p^n, p an odd prime, as lists of
    their values at 0 .. m - 1: chi_j(g^e) = exp(2 pi i j e / phi(m)) for
    the least primitive root g mod m and the j prime to p."""
    m = p ** n
    order = m // p * (p - 1)
    g = next(g for g in range(2, m)
             if len({pow(g, e, m) for e in range(order)}) == order)
    log, x = {}, 1
    for e in range(order):
        log[x] = e
        x = x * g % m
    return [[mpmath.expjpi(mpmath.mpf(2 * j * log[a]) / order)
             if a in log else mpmath.mpc(0) for a in range(m)]
            for j in range(order) if j % p]


def gauss_sum(chi):
    m = len(chi)
    return mpmath.fsum(chi[a] * mpmath.expjpi(mpmath.mpf(2 * a) / m)
                       for a in range(1, m))


class SmoothedSeries:
    """L(f (x) chi, s) at an integer s, 1 <= s <= k - 1, for the a_n of f
    (level N, weight k, root number eps_f) and the primitive chi mod m:
    the incomplete gamma weights G_s(n), which do not depend on chi, are
    built once per s."""

    def __init__(self, a, N, k, eps_f, m):
        self.a, self.N, self.k, self.eps_f, self.m = a, N, k, eps_f, m
        self.A = mpmath.sqrt(N * m * m) / (2 * mpmath.pi)
        self._weights = {}

    def weights(self, s):
        if s not in self._weights:
            A = self.A
            self._weights[s] = [(A / n) ** s * mpmath.gammainc(s, n / A)
                                for n in range(1, len(self.a) + 1)]
        return self._weights[s]

    def value(self, chi, s):
        m, k = self.m, self.k
        b = [an * chi[n % m] for n, an in enumerate(self.a, 1)]
        eps = self.eps_f * chi[self.N % m] * gauss_sum(chi) ** 2 / m
        completed = mpmath.fdot(b, self.weights(s)) + eps * mpmath.fdot(
            [mpmath.conj(x) for x in b], self.weights(k - s))
        return completed / (self.A ** s * mpmath.gamma(s))
