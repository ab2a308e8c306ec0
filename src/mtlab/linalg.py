"""Exact linear algebra over Q in integers and over other fields, and
integer charpolys.

Over Q (no field given) every routine takes integer rows and returns
integers: a rational result is integer rows over one positive denominator,
in lowest terms (`lowest`), the form of every exact value in the program.
Elimination is fraction-free: each row is kept primitive and rows are
combined by cross-multiplication (`sparse_rref`); `rref` scales each
reduced row so that its pivot entry is the least common multiple of the
pivot entries, which leaves no common factor.  Over another field (the
residue fields of `verify.oldspace_decompose`) the same loop runs with
field arithmetic: the field adapter exposes zero() and one(), and elements
support +, -, *, / and an is_zero test (either an is_zero() method or
comparison with 0).  Both eliminate on sparse rows, so the cost follows the
nonzero entries: the Manin relation matrices are mostly zeros (2.9%
nonzero at level 69, weight 6).  `solve` over Q is also how `padic`
inverts the integer vector of a Hecke-field or local element: one solve
against its multiplication matrix.

Characteristic polynomials of integer matrices come from Berkowitz's
division-free recurrence, as integer coefficient lists in increasing
degree, and determinants from Bareiss's fraction-free elimination (`det`),
the one determinant in the program: `padic` takes norms with it.
"""

from math import gcd, lcm


def is_zero(x):
    method = getattr(x, "is_zero", None)
    if method is not None:
        return method()
    return x == 0


def lowest(rows, den):
    """(rows, den) divided by the gcd of den and every entry."""
    g = gcd(den, *(x for row in rows for x in row))
    if g == 1:
        return rows, den
    return [[x // g for x in row] for row in rows], den // g


def rref(rows, field=None):
    """Reduced row echelon form (red, pivot_columns): the rows of
    `sparse_rref` as dense rows divided by their pivot entries.  Over Q,
    red is (integer rows, den) in lowest terms: the primitive rows scaled
    to den, the lcm of their pivot entries, at the pivot."""
    mat, pivots = sparse_rref(rows, field)
    if field is None:
        den = lcm(*(row[c] for row, c in zip(mat, pivots)))
        return ([[row.get(k, 0) * (den // row[c])
                  for k in range(len(rows[0]))]
                 for row, c in zip(mat, pivots)], den), pivots
    zero = field.zero()
    dense = []
    for row, c in zip(mat, pivots):
        inv = field.one() / row[c]
        dense.append([row[k] * inv if k in row else zero
                      for k in range(len(rows[0]))])
    return dense, pivots


def sparse_rref(rows, field=None):
    """Reduced row echelon form as sparse rows {column: entry} holding only
    nonzero entries, one per pivot, with the pivot columns.

    For each column c in turn, the first row at or below the next pivot row
    r with a nonzero in column c is swapped up to r and cleared from the
    rows below it; then each pivot row, from the last up, is cleared from
    the rows above it.  Over Q the rows are primitive integer rows
    throughout, and are returned as such.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    if field is None:
        mat = [_primitive({c: x for c, x in enumerate(row) if x})
               for row in rows]
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


def kernel_basis(rows, ncols, field=None):
    """Basis of the right kernel of the matrix given by rows; over Q as
    (integer rows, den) in lowest terms."""
    if field is None:
        # the rows over den: 1 is den / den
        (red, one), pivots = rref(rows)
        zero = 0
    else:
        red, pivots = rref(rows, field)
        zero, one = field.zero(), field.one()
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in zip(red, pivots):
            vec[pc] = -r[fc]
        basis.append(vec)
    return basis if field is not None else lowest(basis, one)


def solve(rows, rhs, field=None):
    """One solution x of A x = b, or None if inconsistent; over Q as
    (integer vector, den) in lowest terms."""
    if not rows:
        if not all(is_zero(b) for b in rhs):
            return None
        return [] if field is not None else ([], 1)
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    if field is None:
        (red, den), pivots = rref(aug)
        zero = 0
    else:
        red, pivots = rref(aug, field)
        zero = field.zero()
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = r[ncols]
    if field is not None:
        return x
    (x,), den = lowest([x], den)
    return x, den


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


def rank(rows, field=None):
    return len(sparse_rref(rows, field)[1])


def det(rows):
    """Determinant of a square integer matrix, by Bareiss's fraction-free
    elimination: after step k every entry below and right of the pivot is
    a (k + 1) x (k + 1) minor, so each division by the previous pivot is
    exact.  A zero pivot is swapped for a nonzero entry below it, and a
    column with none makes the determinant 0."""
    rows = [list(row) for row in rows]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot, top = rows[k][k], rows[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * rows[-1][-1] if n else 1


def charpoly_rational(rows):
    """Characteristic polynomial of an integer matrix, lowest degree first,
    as integers.

    Berkowitz's division-free recurrence: bordering the leading r x r block
    M with column c, row r and corner a multiplies its charpoly (highest
    degree first) by the lower triangular Toeplitz matrix with first column
    1, -a, -rc, -rMc, ..., -rM^(r-1)c.
    """
    poly = [1]
    for r, row in enumerate(rows):
        toeplitz = [1, -row[r]]
        vec = [rows[i][r] for i in range(r)]
        for _ in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, vec)))
            vec = [sum(x * y for x, y in zip(rows[i], vec))
                   for i in range(r)]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return poly[::-1]
