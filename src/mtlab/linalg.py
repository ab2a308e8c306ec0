"""Exact linear algebra over Q and other fields, and rational charpolys.

Gaussian elimination routines take a field adapter exposing zero() and
one(); elements must support +, -, *, / and an is_zero test (either an
is_zero() method or comparison with 0).  Over Q (the adapter `QQ`, entries
int or Fraction) elimination is fraction-free: each row is cleared of
denominators once and kept as a primitive integer row, rows are combined by
cross-multiplication (`sparse_rref`), and `rref` divides each by its pivot
only when the result is written, as Fractions.  Other fields (the residue
fields of `verify.oldspace_decompose`) run the same loop with field
arithmetic.  Both eliminate on sparse rows, so the cost follows the nonzero
entries: the Manin relation matrices are mostly zeros (2.9% nonzero at
level 69, weight 6).  `solve` over Q is also how `padic` inverts the
integer vector of a Hecke-field or local element: one solve against its
multiplication matrix.

Characteristic polynomials come from Berkowitz's division-free recurrence,
as coefficient lists in increasing degree.
"""

from fractions import Fraction
from math import gcd, lcm


class _RationalField:
    """Field adapter for matrices over Q, with int and Fraction entries."""

    @staticmethod
    def zero():
        return Fraction(0)

    @staticmethod
    def one():
        return Fraction(1)


QQ = _RationalField()


def is_zero(x):
    method = getattr(x, "is_zero", None)
    if method is not None:
        return method()
    return x == 0


def rref(rows, field):
    """Reduced row echelon form (new_rows, pivot_columns): the rows of
    `sparse_rref` as dense rows divided by their pivot entries."""
    mat, pivots = sparse_rref(rows, field)
    zero = field.zero()
    dense = []
    for row, c in zip(mat, pivots):
        inv = field.one() / row[c]
        dense.append([row[k] * inv if k in row else zero
                      for k in range(len(rows[0]))])
    return dense, pivots


def sparse_rref(rows, field):
    """Reduced row echelon form as sparse rows {column: entry} holding only
    nonzero entries, one per pivot, with the pivot columns.

    For each column c in turn, the first row at or below the next pivot row
    r with a nonzero in column c is swapped up to r and cleared from the
    rows below it; then each pivot row, from the last up, is cleared from
    the rows above it.  Over QQ the rows are primitive integer rows
    throughout, and are returned as such.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    if field is QQ:
        mat = [_primitive_row(row) for row in rows]
        eliminate = _cross_eliminate
    else:
        mat = [{c: x for c, x in enumerate(row) if not is_zero(x)}
               for row in rows]
        eliminate = _eliminate
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if c in mat[i]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            if c in mat[i]:
                mat[i] = eliminate(mat[i], mat[r], c)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    for k in range(r - 1, 0, -1):
        c = pivots[k]
        for i in range(k):
            if c in mat[i]:
                mat[i] = eliminate(mat[i], mat[k], c)
    return mat[:r], pivots


def _primitive_row(row):
    """A row of ints and Fractions as a primitive integer row."""
    den = lcm(*(x.denominator for x in row))
    return _primitive({c: x.numerator * (den // x.denominator)
                       for c, x in enumerate(row) if x})


def _primitive(row):
    """The integer row {column: entry} divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {k: x // g for k, x in row.items()}
    return row


def _cross_eliminate(row, prow, c):
    """The primitive integer row a * row - b * prow, for a : b the ratio
    prow[c] : row[c] in lowest terms, which has no entry in column c."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    out = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
    for k, y in prow.items():
        x = out.get(k, 0) - b * y
        if x:
            out[k] = x
        else:
            del out[k]
    return _primitive(out)


def _eliminate(row, prow, c):
    """Subtract row[c] / prow[c] times the pivot row prow from row, in the
    arithmetic of the row entries' field."""
    f = row[c] / prow[c]
    for k, x in prow.items():
        y = row.get(k)
        if y is None:
            row[k] = -(f * x)
            continue
        y = y - f * x
        if is_zero(y):
            del row[k]
        else:
            row[k] = y
    return row


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel of the matrix given by rows."""
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for r, pc in zip(red, pivots):
            vec[pc] = -r[fc]
        basis.append(vec)
    return basis


def solve(rows, rhs, field):
    """One solution x of A x = b, or None if inconsistent."""
    if not rows:
        return [] if all(is_zero(b) for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = r[ncols]
    return x


def mat_vec(rows, vec):
    """rows * vec, summing over the nonzero entries of vec only."""
    support = [(k, b) for k, b in enumerate(vec) if not is_zero(b)]
    if not support:
        return [vec[0] * 0 for _ in rows]
    out = []
    for r in rows:
        acc = None
        for k, b in support:
            term = r[k] * b
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def rank(rows, field):
    red, pivots = rref(rows, field)
    return len(pivots)


def charpoly_rational(rows):
    """Characteristic polynomial of a matrix of ints and Fractions, lowest
    degree first, as Fractions.

    Berkowitz's division-free recurrence on the integer matrix B = dA, d the
    common denominator of the entries; then charpoly_A(x) = d^-n
    charpoly_B(dx), which for an integer matrix (d = 1) is the integer
    charpoly of B itself. Bordering the leading r x r block M with column c, row
    r and corner a multiplies its charpoly (highest degree first) by the
    lower triangular Toeplitz matrix with first column
    1, -a, -rc, -rMc, ..., -rM^(r-1)c.
    """
    d = lcm(*(x.denominator for row in rows for x in row))
    b = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
    poly = [1]
    for r, row in enumerate(b):
        toeplitz = [1, -row[r]]
        vec = [b[i][r] for i in range(r)]
        for _ in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, vec)))
            vec = [sum(x * y for x, y in zip(b[i], vec)) for i in range(r)]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return [Fraction(c, d ** i) for i, c in enumerate(poly)][::-1]
