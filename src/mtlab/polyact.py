"""Homogeneous polynomials of degree g and the right GL_2 action.

A polynomial is a coefficient list [b_0, ..., b_g] with b_j the coefficient
of X^j Y^(g-j).  The action is (P|gamma)(X,Y) = P(dX - cY, -bX + aY) for
gamma = (a, b; c, d).  Action matrices have integer entries and are cached
by (gamma, g), so the same code serves rational, number-field, finite-field
and local coefficients.
"""

from math import comb

_matrix_cache = {}


def act_matrix(gamma, g):
    """Integer matrix m with (P|gamma)_i = sum_j m[i][j] P_j."""
    key = (tuple(gamma[0]), tuple(gamma[1]), g)
    cached = _matrix_cache.get(key)
    if cached is not None:
        return cached
    (a, b), (c, d) = gamma
    # column j: expand (dX - cY)^j (-bX + aY)^(g-j) in X^i Y^(g-i)
    cols = []
    for j in range(g + 1):
        first = [comb(j, i) * d ** i * (-c) ** (j - i) for i in range(j + 1)]
        second = [comb(g - j, i) * (-b) ** i * a ** (g - j - i)
                  for i in range(g - j + 1)]
        col = [0] * (g + 1)
        for i1, u in enumerate(first):
            if u == 0:
                continue
            for i2, w in enumerate(second):
                col[i1 + i2] += u * w
        cols.append(col)
    m = tuple(tuple(cols[j][i] for j in range(g + 1)) for i in range(g + 1))
    _matrix_cache[key] = m
    return m


def act(coeffs, gamma):
    """Apply the right action to a coefficient list over any ring."""
    g = len(coeffs) - 1
    m = act_matrix(gamma, g)
    out = []
    for i in range(g + 1):
        acc = None
        for j in range(g + 1):
            mij = m[i][j]
            if mij == 0:
                continue
            term = coeffs[j] * mij
            acc = term if acc is None else acc + term
        if acc is None:
            acc = coeffs[0] * 0
        out.append(acc)
    return out


def evaluate(coeffs, c, d):
    """Evaluate sum b_j X^j Y^(g-j) at (X, Y) = (c, d)."""
    g = len(coeffs) - 1
    acc = None
    for j, b in enumerate(coeffs):
        term = b * (c ** j * d ** (g - j))
        acc = term if acc is None else acc + term
    return acc


def add(p, q):
    return [a + b for a, b in zip(p, q)]


def scale(p, c):
    return [a * c for a in p]


def zero_like(p):
    return [a * 0 for a in p]


def mat_mul(m1, m2):
    """Product of two 2x2 integer matrices."""
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_inv_unimodular(m):
    """Inverse of a determinant +-1 integer matrix."""
    (a, b), (c, d) = m
    det = a * d - b * c
    if det == 1:
        return ((d, -b), (-c, a))
    if det == -1:
        return ((-d, b), (c, -a))
    raise ValueError("matrix is not unimodular")


SIGMA = ((0, -1), (1, 0))
TAU = ((0, -1), (1, -1))
TAU2 = mat_mul(TAU, TAU)
IOTA = ((-1, 0), (0, 1))
IDENTITY = ((1, 0), (0, 1))
