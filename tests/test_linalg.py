"""Tests for generic exact linear algebra."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod
from operator import mul

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from mtlab import linalg, padic, polyq
from test_padic import poly_divmod, poly_sub, poly_xgcd


class QQ:
    """Q as a field adapter, to run the field path of the eliminations as
    a reference.  Its entries must be Fractions: the field path divides
    with `/`, which makes floats of ints."""

    @staticmethod
    def zero():
        return Fraction(0)

    @staticmethod
    def one():
        return Fraction(1)


def mat_mat(a, b):
    """The matrix product a b."""
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)]
            for r in a]


def fractions(rows, den=1):
    """Integer rows over den as Fraction rows."""
    return [[Fraction(x, den) for x in row] for row in rows]


def in_lowest_terms(rows, den):
    return (den > 0 and gcd(den, *(x for row in rows for x in row)) == 1
            and all(type(x) is int for row in rows for x in row))


def test_rref_and_rank():
    rows = [[2, 4, 6], [1, 2, 3], [0, 3, 3]]
    (red, den), pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert (red, den) == ([[1, 0, 1], [0, 1, 1]], 1)
    assert linalg.rank(rows) == 2
    # a pivot entry 3 over the other's 2: both rows scaled to den 6
    (red, den), pivots = linalg.rref([[2, 1, 0], [0, 3, 1]])
    assert (red, den, pivots) == ([[6, 0, -1], [0, 6, 2]], 6, [0, 1])


def test_kernel_basis_rational():
    rows = [[1, 2, 3], [0, 2, 1]]
    basis, den = linalg.kernel_basis(rows, 3)
    assert (basis, den) == ([[-4, -1, 2]], 2)
    for vec in basis:
        assert all(x == 0 for x in linalg.mat_vec(rows, vec))


def test_solve_and_invert():
    rows = [[2, 1], [1, 1]]
    assert linalg.solve(rows, [3, 2]) == ([1, 1], 1)
    # the inverse, one column per solve
    cols = [linalg.solve(rows, [1, 0]), linalg.solve(rows, [0, 1])]
    assert cols == [([1, -1], 1), ([-1, 2], 1)]
    assert linalg.solve([[2, 0], [0, 4]], [1, 1]) == ([2, 1], 4)
    singular = [[1, 2], [2, 4]]
    assert linalg.solve(singular, [1, 0]) is None
    assert linalg.solve(singular, [1, 3]) is None
    assert linalg.solve(singular, [1, 2]) == ([1, 0], 1)


def test_kernel_over_finite_field():
    F = padic.FF(3, [0, 1])
    rows = [[F.element(1), F.element(2), F.element(0)],
            [F.element(2), F.element(1), F.element(1)]]
    basis = linalg.kernel_basis(rows, 3, F)
    assert len(basis) == 1
    for vec in basis:
        assert all(x.is_zero() for x in linalg.mat_vec(rows, vec))


def test_charpoly_companion():
    # companion matrix of x^3 - 2x - 5
    rows = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert linalg.charpoly_rational(rows) == [-5, -2, 0, 1]


def permutation_det(rows):
    """The Leibniz expansion: the sum over the permutations s of
    sign(s) * prod_i rows[i][s(i)]."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@example([])
@example([[0, 1], [1, 0]])              # a zero pivot, swapped
@example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])   # no pivot in a column
@example([[2, 4, 1], [1, 2, 5], [3, 1, 1]])   # a zero pivot after a step
@settings(max_examples=300, deadline=None)
def test_det_matches_the_permutation_expansion(rows):
    assert linalg.det(rows) == permutation_det(rows)


def squarefree_parts(f):
    """[(g, m)] with f = prod g^m, the g monic, squarefree and coprime.

    Yun's algorithm over Q for a monic f of positive degree.
    """
    df = polyq.derivative(f)
    a = poly_xgcd(f, df)[0]
    b = poly_divmod(f, a)[0]
    c = poly_divmod(df, a)[0]
    out = []
    m = 1
    while len(b) > 1:
        d = poly_sub(c, polyq.derivative(b))
        a = poly_xgcd(b, d)[0]
        if len(a) > 1:
            out.append((a, m))
        b = poly_divmod(b, a)[0]
        c = poly_divmod(d, a)[0]
        m += 1
    return out


def factor_rational_poly(coeffs):
    """Monic irreducible factors over Q with multiplicities.

    Input and output polynomials are Fraction lists in increasing degree.
    Each part of the square-free split is scaled to a monic integer
    polynomial g(y) = D^n f(y/D) and factored by `padic.factor_monic_int`;
    a factor h of g gives the factor h(Dx)/D^deg(h) of f.  The splitting
    factors its integral charpoly with `padic.factor_monic_int` directly;
    this composition checks that factoring on arbitrary rational input.
    """
    f = polyq.trim([Fraction(c) for c in coeffs])
    if len(f) < 2:
        return []
    f = [c / f[-1] for c in f]
    out = []
    for part, mult in squarefree_parts(f):
        n = len(part) - 1
        d = lcm(*(c.denominator for c in part))
        g = [int(c * d ** (n - i)) for i, c in enumerate(part)]
        out.extend(([Fraction(c, d ** (len(h) - 1 - j))
                     for j, c in enumerate(h)], mult)
                   for h in padic.factor_monic_int(g))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def test_factor_rational_poly():
    # (x - 1)^2 (x^2 + 1)
    coeffs = [Fraction(c) for c in [1, -2, 2, -2, 1]]
    factors = factor_rational_poly(coeffs)
    assert factors == [([Fraction(-1), Fraction(1)], 2),
                       ([Fraction(1), Fraction(0), Fraction(1)], 1)]


@given(st.integers(0, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-20, 20), min_size=n,
                                max_size=n), min_size=n, max_size=n)))
@settings(max_examples=150, deadline=None)
def test_charpoly_matches_sympy(rows):
    n = len(rows)
    m = sympy.Matrix(n, n, lambda i, j: rows[i][j])
    expected = [int(c) for c in reversed(m.charpoly().all_coeffs())]
    got = linalg.charpoly_rational(rows)
    assert got == expected
    assert all(type(c) is int for c in got)


def sympy_factor_list(coeffs):
    """factor_rational_poly's result computed by sympy.factor_list."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(coeffs))
    out = []
    for poly, mult in sympy.factor_list(sympy.Poly(expr, x))[1]:
        cs = [Fraction(int(c.p), int(c.q))
              for c in reversed(sympy.Poly(poly, x).all_coeffs())]
        out.append(([c / cs[-1] for c in cs], int(mult)))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


# (factor, multiplicity) pairs of total degree at most 12; the factors have
# non-unit leading coefficients, so their product is monic only over Q
planted_products = st.lists(
    st.tuples(st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.lists(st.integers(-30, 30), min_size=d,
                                     max_size=d),
                            st.integers(1, 3))),
              st.integers(1, 3)),
    min_size=1, max_size=4).filter(
        lambda fs: sum(len(low) * m for (low, _), m in fs) <= 12)


@given(planted_products)
@settings(max_examples=150, deadline=None)
def test_factor_rational_poly_matches_sympy(planted):
    f = [Fraction(1)]
    for (low, lead), mult in planted:
        for _ in range(mult):
            f = polyq.mul(f, [Fraction(c) for c in low] + [Fraction(lead)])
    assert factor_rational_poly(f) == sympy_factor_list(f)


# the charpoly that splits the weight-6 level-23 space: degree 3 times 6
MT_FIELD_CHARPOLY = [3291146570203968622015200, -18668615509173736152335,
                     176030544210660831, 176964967481011224,
                     -251731704783825, -471054433330, 1191231813, -4440,
                     -1587, 1]


def test_factor_mt_field_charpoly():
    f = [Fraction(c) for c in MT_FIELD_CHARPOLY]
    factors = factor_rational_poly(f)
    assert [(len(g) - 1, m) for g, m in factors] == [(3, 1), (6, 1)]
    assert factors == sympy_factor_list(f)
    assert polyq.mul(factors[0][0], factors[1][0]) == f


def test_random_kernel_dimension_consistency():
    rng = random.Random(99)
    for _ in range(20):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        rows = [[rng.randrange(-3, 4) for _ in range(ncols)]
                for _ in range(nrows)]
        r = linalg.rank(rows)
        basis, _ = linalg.kernel_basis(rows, ncols)
        assert r + len(basis) == ncols
        for vec in basis:
            assert all(x == 0 for x in linalg.mat_vec(rows, vec))


def dense_rref(rows, field):
    """Reference: the dense Gauss-Jordan loop with the same pivot rule."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if not linalg.is_zero(mat[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.one() / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not linalg.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


class Sqrt2:
    """An element of Q(sqrt 2) for the eliminations: sympy's algebraic
    number, with the is_zero() method that `linalg.is_zero` calls."""

    field = sympy.QQ.algebraic_field(sympy.sqrt(2))

    def __init__(self, x):
        self.x = x

    @classmethod
    def zero(cls):
        return cls(cls.field.zero)

    @classmethod
    def one(cls):
        return cls(cls.field.one)

    def is_zero(self):
        return self.x.is_zero

    def __eq__(self, other):
        return self.x == other.x

    def __neg__(self):
        return Sqrt2(-self.x)

    def __sub__(self, other):
        return Sqrt2(self.x - other.x)

    def __mul__(self, other):
        return Sqrt2(self.x * other.x)

    def __truediv__(self, other):
        return Sqrt2(self.x / other.x)


F7 = padic.FF(7, [0, 1])

# each field with a map from a tuple of two small ints to one of its elements
FIELDS = {
    "QQ": (QQ, lambda ab: Fraction(ab[0], abs(ab[1]) + 1)),
    "F7": (F7, lambda ab: F7.element(ab[0])),
    # a + b sqrt 2; sympy lists the coefficients from the top degree down
    "Q(sqrt2)": (Sqrt2, lambda ab: Sqrt2(Sqrt2.field([ab[1], ab[0]]))),
}

# half of the entries are zero; rows are drawn from a pool of at most three,
# so that duplicate rows are common
entries = st.one_of(st.just((0, 0)),
                    st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
shapes = st.tuples(st.integers(0, 7), st.integers(0, 7))


@st.composite
def matrices(draw):
    nrows, ncols = draw(shapes)
    pool = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=3))
    return [draw(st.sampled_from(pool)) for _ in range(nrows)]


@given(st.sampled_from(sorted(FIELDS)), matrices())
@settings(max_examples=400, deadline=None)
def test_sparse_rref_matches_dense_reference(name, raw):
    field, convert = FIELDS[name]
    rows = [[convert(ab) for ab in row] for row in raw]
    assert linalg.rref(rows, field) == dense_rref(rows, field)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (1, 4), (4, 4), (6, 2),
                                   (2, 6)])
def test_sparse_rref_edge_shapes(name, shape):
    field, convert = FIELDS[name]
    nrows, ncols = shape
    zero = [[convert((0, 0))] * ncols for _ in range(nrows)]
    assert linalg.rref(zero, field) == dense_rref(zero, field) == ([], [])
    ones = [[convert((1, 1))] * ncols for _ in range(nrows)]
    red, pivots = linalg.rref(ones, field)
    assert (red, pivots) == dense_rref(ones, field)
    assert pivots == ([0] if nrows and ncols else [])


# ints and Fractions with denominators up to 10^6, a third of them zero
q_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.integers(1, 10 ** 6)))
multipliers = st.sampled_from([0, 1, -1, 3, Fraction(-2, 7)])


@st.composite
def rational_matrices(draw):
    """Up to 12 x 12; a row is fresh or a combination of earlier rows, so
    that rows cancel to zero during elimination."""
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(multipliers, min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)),
                             0) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(q_entries, min_size=ncols,
                                      max_size=ncols)))
    return rows


def integer_rows(rows):
    """Each row of ints and Fractions times the lcm of its denominators:
    the same row space, and the same solutions for an augmented row."""
    out = []
    for row in rows:
        d = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * d) for x in row])
    return out


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_rational_rref_matches_dense_reference(rows):
    rows = integer_rows(rows)
    ncols = len(rows[0]) if rows else 0
    (red, den), pivots = linalg.rref(rows)
    want, want_pivots = dense_rref(fractions(rows), QQ)
    assert pivots == want_pivots
    assert fractions(red, den) == want
    assert in_lowest_terms(red, den)
    # the integer rows under the same elimination: primitive, and each
    # divided by its pivot entry is the reduced row
    sparse, sparse_pivots = linalg.sparse_rref(rows)
    assert sparse_pivots == pivots
    for row, c, w in zip(sparse, pivots, want):
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
        assert [Fraction(row.get(k, 0), row[c]) for k in range(ncols)] == w
    kernel, kden = linalg.kernel_basis(rows, ncols)
    assert len(kernel) == ncols - len(pivots)
    assert in_lowest_terms(kernel, kden)
    assert fractions(kernel, kden) == linalg.kernel_basis(
        fractions(rows), ncols, QQ)
    for vec in kernel:
        assert all(x == 0 for x in linalg.mat_vec(rows, vec))


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_rational_solve_matches_dense_reference(rows):
    rows = integer_rows(rows)
    if not rows or not rows[0]:
        return
    # the last column is the right-hand side
    a = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    got = linalg.solve(a, b)
    red, pivots = dense_rref(fractions(rows), QQ)
    # None exactly when the right-hand side is a pivot column
    if len(rows[0]) - 1 in pivots:
        assert got is None
        return
    x, den = got
    assert in_lowest_terms([x], den)
    assert [sum(map(mul, row, x)) for row in a] == [den * y for y in b]
    # the solution with every free coordinate zero
    expected = [Fraction(0)] * (len(rows[0]) - 1)
    for row, c in zip(red, pivots):
        expected[c] = row[-1]
    assert fractions([x], den) == [expected]
