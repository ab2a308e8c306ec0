"""The Eichler-Selberg trace formula: Tr T_n on S_k(Gamma_0(N)).

An oracle for Hecke data that shares no code with `mtlab` (psi and phi
are those of the dimension formula in `test_modsym`).  For even k >= 2,
trivial character and gcd(n, N) = 1 (H. Cohen, "Trace des
operateurs de Hecke sur Gamma_0(N)", Seminaire de Theorie des Nombres de
Bordeaux 1976-77, expose 4; Cohen-Stromberg, *Modular Forms: A Classical
Approach*, AMS GSM 179, 2017, Theorem 12.4.11):

    Tr T_n = A1 + A2 + A3 + A4,

    A1 = n^(k/2 - 1) (k - 1) psi(N) / 12 when n is a square, else 0;
    A2 = -1/2 sum_{t^2 < 4n} P_k(t, n) sum_f h_w((t^2 - 4n) / f^2) mu(t, f, n);
    A3 = -1/2 sum_{d d' = n} min(d, d')^(k - 1)
                sum_{tau | N, gcd(tau, N/tau) | d' - d} phi(gcd(tau, N/tau));
    A4 = sigma_1(n) when k = 2, else 0.

Here psi(N) = N prod_{q | N} (1 + 1/q), the index of Gamma_0(N) in
SL_2(Z); P_k(t, n) = (rho^(k-1) - rhobar^(k-1)) / (rho - rhobar) for the
roots rho, rhobar of x^2 - t x + n, the coefficient of x^(k-2) in
1 / (1 - t x + n x^2); f runs over the positive integers with f^2 | t^2 - 4n
and (t^2 - 4n) / f^2 = 0 or 1 mod 4; h_w(D) is the number of classes of
primitive positive definite binary quadratic forms of discriminant D,
weighted by 1/3 for D = -3 and 1/2 for D = -4; and with N_f = gcd(N, f),
mu(t, f, n) = psi(N) / psi(N / N_f) times the number of x mod N with
x^2 - t x + n = 0 mod N N_f.
"""

from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from test_modsym import euler_phi, psi


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@cache
def weighted_class_number(D):
    """h_w(D) for a negative discriminant D: the reduced primitive forms
    (a, b, c), |b| <= a <= c with b >= 0 when |b| = a or a = c, counted
    with weight 1/3 for D = -3 and 1/2 for D = -4."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0) or gcd(a, b, c) != 1:
                continue
            count += 1
        a += 1
    return Fraction(count, {-3: 3, -4: 2}.get(D, 1))


def p_k(t, n, k):
    """The coefficient of x^(k-2) in 1 / (1 - t x + n x^2)."""
    prev, cur = 0, 1
    for _ in range(k - 2):
        prev, cur = cur, t * cur - n * prev
    return cur


def mu(t, f, n, N):
    Nf = gcd(N, f)
    roots = sum(1 for x in range(N) if (x * x - t * x + n) % (N * Nf) == 0)
    return Fraction(psi(N), psi(N // Nf)) * roots


def hecke_trace(n, k, N):
    """Tr T_n on S_k(Gamma_0(N)), k even and gcd(n, N) = 1."""
    assert k % 2 == 0 and k >= 2 and gcd(n, N) == 1
    A1 = Fraction(0)
    if isqrt(n) ** 2 == n:
        A1 = Fraction(n ** (k // 2 - 1) * (k - 1) * psi(N), 12)
    A2 = Fraction(0)
    t = 0
    while t * t < 4 * n:
        for s in {t, -t}:
            D = s * s - 4 * n
            inner = sum((weighted_class_number(D // (f * f)) * mu(s, f, n, N)
                         for f in range(1, isqrt(-D) + 1)
                         if D % (f * f) == 0 and D // (f * f) % 4 in (0, 1)),
                        Fraction(0))
            A2 += p_k(s, n, k) * inner
        t += 1
    A2 /= -2
    A3 = Fraction(0)
    for d in divisors(n):
        dd = n // d
        A3 += min(d, dd) ** (k - 1) * sum(
            euler_phi(gcd(tau, N // tau)) for tau in divisors(N)
            if (dd - d) % gcd(tau, N // tau) == 0)
    A3 /= -2
    A4 = sum(divisors(n)) if k == 2 else 0
    total = A1 + A2 + A3 + A4
    assert total.denominator == 1
    return int(total)
