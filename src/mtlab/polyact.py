"""Homogeneous polynomials of degree g and the right GL_2 action.

A polynomial is a coefficient list [b_0, ..., b_g] with b_j the coefficient
of X^j Y^(g-j).  The action is (P|gamma)(X,Y) = P(dX - cY, -bX + aY) for
gamma = (a, b; c, d).  Action matrices have integer entries, so the same
code serves rational, number-field, finite-field and local coefficients.
"""

from math import comb


def act_matrix(gamma, g):
    """Integer matrix m with (P|gamma)_i = sum_j m[i][j] P_j."""
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
    return tuple(tuple(cols[j][i] for j in range(g + 1))
                 for i in range(g + 1))


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
