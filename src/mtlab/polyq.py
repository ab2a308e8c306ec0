"""Dense univariate polynomial helpers over exact coefficient types.

Polynomials are lists [c0, c1, ...] with rational (Fraction/int) entries,
lowest degree first.  Trailing zeros are trimmed by `trim`.  These helpers
back the number-field arithmetic in `padic`; nothing here is p-adic.
"""

from fractions import Fraction


def trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def neg(p):
    return [-c for c in p]


def sub(p, q):
    return add(p, neg(q))


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


def divmod_poly(p, q):
    """Polynomial division with remainder; coefficients become Fractions."""
    q = trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in p]
    d = len(q) - 1
    lead = Fraction(q[-1])
    quo = [Fraction(0)] * max(0, len(r) - d)
    while len(trim(r)) - 1 >= d and trim(r):
        r = trim(r)
        if len(r) - 1 < d:
            break
        c = r[-1] / lead
        k = len(r) - 1 - d
        quo[k] = c
        for i in range(d + 1):
            r[k + i] -= c * q[i]
        r[-1] = 0
    return trim(quo), trim(r)


def mod(p, q):
    return divmod_poly(p, q)[1]


def xgcd(p, q):
    """Extended gcd over the rationals: returns (g, u, v) with u*p + v*q = g."""
    r0, r1 = [Fraction(c) for c in trim(list(p))], [Fraction(c) for c in trim(list(q))]
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        quo, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, sub(u0, mul(quo, u1))
        v0, v1 = v1, sub(v0, mul(quo, v1))
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        u0 = [c / lead for c in u0]
        v0 = [c / lead for c in v0]
    return r0, u0, v0


def resultant_int(p, q):
    """Resultant of two integer polynomials via the Sylvester determinant.

    Exact integer arithmetic (fraction-free Bareiss); fine for the small
    degrees that occur in valuation computations.
    """
    p = trim(list(p))
    q = trim(list(q))
    if not p or not q:
        return 0
    m, n = len(p) - 1, len(q) - 1
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(p)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(q)):
            row[i + j] = c
        rows.append(row)
    # Bareiss elimination
    sign = 1
    prev = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, size):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[size - 1][size - 1]
