"""Dense univariate polynomials over Z and over Z/q.

Polynomials are lists [c0, c1, ...], lowest degree first, with trailing
zeros trimmed by `trim`.  `mul` and `derivative` are exact (`mul` over any
exact coefficient ring).  The `_mod` operations take a modulus q and
return coefficients in [0, q); they divide only by monic polynomials,
which needs no inverse mod q.  Over F_p, p prime, `fp_divmod` and
`fp_xgcd` divide by any nonzero polynomial.  These back the finite-field
and local arithmetic and the factorizations in `padic`; nothing here is
p-adic.  Resultants are not here: each one the program needs has a monic
first argument, so it is a norm, one determinant (`padic._norm`).
"""

from itertools import zip_longest


def trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def derivative(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def add_mod(a, b, q):
    return trim([(x + y) % q for x, y in zip_longest(a, b, fillvalue=0)])


def sub_mod(a, b, q):
    return trim([(x - y) % q for x, y in zip_longest(a, b, fillvalue=0)])


def scale_mod(a, c, q):
    return trim([(x * c) % q for x in a])


def mul_mod(a, b, q):
    """The exact product a * b, reduced mod q once."""
    return trim([c % q for c in mul(a, b)])


def divmod_monic(a, b, q):
    """(quotient, remainder) of a by the monic b in (Z/q)[y]."""
    r = [c % q for c in a]
    d = len(b) - 1
    quo = [0] * max(0, len(r) - d)
    for k in range(len(quo) - 1, -1, -1):
        c = r[k + d]
        if c:
            quo[k] = c
            for i in range(d):
                r[k + i] = (r[k + i] - c * b[i]) % q
    return trim(quo), trim(r[:d])


def rem_monic(a, b, q):
    return divmod_monic(a, b, q)[1]


def fp_divmod(a, b, p):
    """(quotient, remainder) of a by the nonzero b in F_p[y]."""
    inv = pow(b[-1], -1, p)
    quo, rem = divmod_monic(a, scale_mod(b, inv, p), p)
    return scale_mod(quo, inv, p), rem


def fp_xgcd(a, b, p):
    """Extended gcd in F_p[y]: returns (g, s, t) monic g with s*a + t*b = g."""
    r0, r1 = trim([x % p for x in a]), trim([x % p for x in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        quo, rem = fp_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, sub_mod(s0, mul(quo, s1), p)
        t0, t1 = t1, sub_mod(t0, mul(quo, t1), p)
    if r0:
        c = pow(r0[-1], -1, p)
        r0 = scale_mod(r0, c, p)
        s0 = scale_mod(s0, c, p)
        t0 = scale_mod(t0, c, p)
    return r0, s0, t0

