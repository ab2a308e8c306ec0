"""Manin-symbol presentations of weight-k modular symbols for Gamma_0(M).

A symbol phi assigns to each coset A in P^1(Z/M) a vector Phi(A) in V_g
(g = k - 2) subject to the Manin relations

    Phi(A sigma) + Phi(A)|sigma = 0,
    Phi(A) + Phi(A tau)|tau^2 + Phi(A tau^2)|tau = 0,

where Phi(A) = phi({gamma oo} - {gamma 0})|gamma for any lift gamma of A.
For any determinant-1 integer matrix gamma this gives
phi({gamma oo} - {gamma 0}) = Phi(class gamma)|gamma^(-1), which with the
continued-fraction decomposition of paths drives w_N and the degeneracy
maps (T_ell and U_q use Merel's Heilbronn matrices instead).  Its Y^g
coefficient, Phi(class gamma) at the bottom row of gamma, gives the path
values of Mazur-Tate elements: `mazurtate.mazur_tate_values` walks the
continued fraction of each unit a/p^n and adds every step's evaluation
straight into that unit's coefficient, so no table of path weights is kept.

The presentation is solved by one fraction-free elimination, yielding a
free basis whose coordinates are literal symbol values at recorded (coset,
monomial) positions.  The values of the basis symbols are read off its
integer rows as sparse integer rows, each over a divisor d of one
denominator D per space, so an entry of a coset value costs one integer
combination of coordinates and at most one scaling by 1/d.  Each Hecke
operator, iota and w_N is built once per space as an integer matrix H on
the free basis, the operator being H / D, and acts on coordinates by a
matrix-vector product.

The cuspidal part of a sign eigenspace is one image, that of
T_ell - (1 + ell^(k-1)) for the least prime ell not dividing the level:
T_ell is semisimple, so no power of it is needed.
The splitting into Hecke eigenclasses stays in integers: subspace bases,
restricted operators and Krylov vectors are integer rows over one
denominator, characteristic polynomials are integral, and the
eliminations (`linalg` over Q) take integer rows and return integers over
one denominator.  An operator is restricted to a subspace by reading
coordinates at the unit columns of its basis, with no elimination.  An
eigenvalue a_ell of a class is read off one coset: the T_ell plan at the
first coset where the class is nonzero, divided by that value, with no
operator matrix built.

An eigenclass keeps its coset values exactly, as integer vectors in the
power basis of its Hecke field over one denominator.  Normalizing it at a
prime above p finds the witness of least valuation among these exact
values, in scan order, stopping at a floor when one is proven, and each
normalized value is the embedding of one exact element, made once, so its
certified digits are those of the exact value.
"""

from itertools import count, islice
from math import gcd, lcm
from operator import mul

from . import linalg, p1, polyact
from .errors import (
    InvalidOperator,
    OutOfBudget,
    PrecisionExhausted,
    SplittingFailure,
    WeightNotCongruent,
)
from .linalg import lowest
from . import padic


# ---------------------------------------------------------------------------
# paths on the rational projective line


def _convergent_matrices(a, b):
    """Unimodular matrices g with {oo} - {a/b} = sum ({g oo} - {g 0}).

    Returns a list of determinant-1 integer matrices; the path from oo to
    a/b telescopes through the continued-fraction convergents.
    """
    if b == 0:
        return []
    if b < 0:
        a, b = -a, -b
    # convergents (P/Q, p_/q_) from the floor-division digits, which are
    # those of a/b in lowest terms; each pair spans a unimodular matrix up
    # to the sign of its determinant
    x, y = a, b
    P, Q, p_, q_ = 0, 1, 1, 0
    mats = []
    while y:
        digit = x // y
        x, y = y, x - digit * y
        P, Q, p_, q_ = p_, q_, digit * p_ + P, digit * q_ + Q
        if P * q_ - p_ * Q == 1:
            mats.append(((P, p_), (Q, q_)))
        else:
            mats.append(((-P, p_), (-Q, q_)))
    return mats


def _convergent_bottoms(a, b):
    """The bottom rows (c, d) of `_convergent_matrices(a, b)`, b > 0: the
    determinants of consecutive convergent pairs alternate from +1, and so
    does the sign of c, with no determinant computed."""
    x, y = a, b
    Q, q_, sign = 1, 0, 1
    while y:
        digit = x // y
        x, y = y, x - digit * y
        Q, q_ = q_, digit * q_ + Q
        yield sign * Q, q_
        sign = -sign


# ---------------------------------------------------------------------------
# the presentation

GENERATOR_CAP = 100000


class ManinSymbolSpace:
    """Solved Manin presentation at level M and even weight k over Q."""

    def __init__(self, level, weight):
        if weight < 2 or weight % 2 != 0:
            raise ValueError("weight must be an even integer >= 2")
        self.M = level
        self.k = weight
        self.g = weight - 2
        self.plist = p1.P1List(level)
        size = len(self.plist) * (self.g + 1)
        if size > GENERATOR_CAP:
            raise OutOfBudget("presentation has %d generators, cap is %d"
                              % (size, GENERATOR_CAP))
        self._plan_cache = {}
        self._hecke_matrices = {}
        self._factor_cache = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self):
        g = self.g
        gp1 = g + 1
        nc = len(self.plist)
        msig = polyact.act_matrix(polyact.SIGMA, g)
        mtau = polyact.act_matrix(polyact.TAU, g)
        mtau2 = polyact.act_matrix(polyact.TAU2, g)
        sperm = [self.plist.apply_right(i, polyact.SIGMA) for i in range(nc)]
        tperm = [self.plist.apply_right(i, polyact.TAU) for i in range(nc)]

        ident = [[int(r == c) for c in range(gp1)] for r in range(gp1)]

        # sigma structure: express every Phi(A) through a parameter block
        param_pos = []        # param index -> (coset, monomial) position
        expr = [None] * nc    # coset -> (base, rational block matrix)
        for i in range(nc):
            j = sperm[i]
            if j < i:
                continue
            base = len(param_pos)
            if i == j:
                # Phi(A) = -Phi(A)|sigma, and sigma sends monomial c to
                # +-monomial g - c: the monomials past the middle are free,
                # and the middle one too when sigma negates it
                free = [c for c in range(gp1)
                        if 2 * c > g or 2 * c == g and msig[c][c] == -1]
                kmat = [[0] * len(free) for _ in range(gp1)]
                for t, fc in enumerate(free):
                    kmat[fc][t] = 1
                    if 2 * fc > g:
                        kmat[g - fc][t] = -msig[g - fc][fc]
                expr[i] = (base, kmat)
                param_pos.extend((i, fc) for fc in free)
            else:
                expr[i] = (base, ident)
                partner = [[-msig[r][c] for c in range(gp1)]
                           for r in range(gp1)]
                expr[j] = (base, partner)
                param_pos.extend((i, c) for c in range(gp1))
        nparams = len(param_pos)

        # tau relations, one vector relation per orbit
        def add_block(rows_block, coset, cmat):
            base, mat = expr[coset]
            for row, crow in zip(rows_block, cmat):
                for f, mrow in zip(crow, mat):
                    if f:
                        for c, x in enumerate(mrow):
                            if x:
                                row[base + c] += x * f

        relations = []
        for A in range(nc):
            orbit = (A, tperm[A], tperm[tperm[A]])
            if min(orbit) != A:
                continue
            rows_block = [[0] * nparams for _ in range(gp1)]
            add_block(rows_block, orbit[0], ident)
            add_block(rows_block, orbit[1], mtau2)
            add_block(rows_block, orbit[2], mtau)
            relations.extend(rows_block)

        red, pivots = linalg.sparse_rref(relations)
        pivot_set = set(pivots)
        free = [c for c in range(nparams) if c not in pivot_set]
        column = {fc: idx for idx, fc in enumerate(free)}
        # the free basis in parameter coordinates, as sparse integer rows
        # over a signed denominator: pivot pc is -row[fc] / row[pc] at fc
        brows = {fc: ({idx: 1}, 1) for fc, idx in column.items()}
        for row, pc in zip(red, pivots):
            brows[pc] = ({column[c]: -x for c, x in row.items() if c != pc},
                         row[pc])

        # coset value matrices: values of the basis symbols at every coset,
        # each row (d, ((j, n), ...)) with entry j = n / d in lowest terms
        self.dim = len(free)
        self.positions = [param_pos[fc] for fc in free]
        self.values_basis = []
        for base, mat in expr:
            block = []
            for mrow in mat:
                terms = [(f, brows[base + mid]) for mid, f in enumerate(mrow)
                         if f]
                den = lcm(*(d for _, (_, d) in terms))
                acc = {}
                for f, (brow, d) in terms:
                    for idx, x in brow.items():
                        acc[idx] = acc.get(idx, 0) + f * (den // d) * x
                row = sorted((j, x) for j, x in acc.items() if x)
                h = gcd(den, *(x for _, x in row))
                block.append((den // h, tuple((j, x // h) for j, x in row)))
            self.values_basis.append(block)
        self.denominator = lcm(*(d for block in self.values_basis
                                 for d, _ in block))
        self._position_cosets = sorted({c for c, _ in self.positions})

    # -- operators -----------------------------------------------------------

    def _operator_plan(self, source, deltas, cosets):
        """Plan for Phi_op(A) = sum_delta phi_src(delta D_A)|delta gamma_A,
        for w_N and the degeneracy maps, by the continued-fraction matrices
        g of each cusp of delta gamma_A: phi({oo} - {x}) = sum Phi(B)|g^-1.

        Returns {A: [(source coset B, integer action matrix)]} so that
        Phi_op(A) = sum over terms of act(values_src[B], matrix)."""
        key = (id(source), deltas, tuple(cosets))
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        g = self.g
        plan = {}
        for A in cosets:
            gam = self.plist.lift(A)
            acc = {}
            for delta in deltas:
                m = polyact.mat_mul(delta, gam)
                cusp_pairs = ((1, (m[0][1], m[1][1])),
                              (-1, (m[0][0], m[1][0])))
                for sign, (aa, bb) in cusp_pairs:
                    for gmat in _convergent_matrices(aa, bb):
                        B = source.plist.index(gmat[1][0], gmat[1][1])
                        ginv = polyact.mat_inv_unimodular(gmat)
                        am = polyact.act_matrix(polyact.mat_mul(ginv, m), g)
                        acc.setdefault(B, []).append(
                            [[sign * x for x in row] for row in am])
            plan[A] = _summed(acc)
        self._plan_cache[key] = plan
        return plan

    def _coset_plan(self, matrices, cosets):
        """Plan of Phi(A) -> sum over h = (a b; c d) of Phi(A h)|adj(h),
        A h = (ua + vc : ub + vd) for A = (u : v), skipping each A h not in
        P^1(Z/M): T_n, or U_n for n | M, over Merel's set X_n (Merel, LNM
        1585, 1994), and iota over iota alone."""
        terms = [(a, b, c, d, polyact.act_matrix(((d, -b), (-c, a)), self.g))
                 for (a, b), (c, d) in matrices]
        plan = {}
        for A in cosets:
            u, v = self.plist[A]
            acc = {}
            for a, b, c, d, m in terms:
                B = self.plist.lookup(u * a + v * c, u * b + v * d)
                if B is not None:
                    acc.setdefault(B, []).append(m)
            plan[A] = _summed(acc)
        return plan

    def apply_plan_to_values(self, plan, values):
        """Values of the transformed symbol at the plan's cosets: entry r
        at A adds up, term by term, the sum of values[B][c] * m[r][c] over
        the nonzero m[r][c] of each term (B, m); 0 when there are none."""
        zero = values[0][0] * 0
        out = {}
        for A, terms in plan.items():
            acc = [None] * (self.g + 1)
            for B, mat in terms:
                for r, mrow in enumerate(mat):
                    t = None
                    for x, mc in zip(values[B], mrow):
                        if mc:
                            t = x * mc if t is None else t + x * mc
                    if t is not None:
                        acc[r] = t if acc[r] is None else acc[r] + t
            out[A] = [zero if x is None else x for x in acc]
        return out

    def _plan(self, op, cosets):
        """Plan of a named operator at the given cosets: the coset plan of
        T_ell (ell prime to the level), U_q (q dividing it) and iota, and
        the path plan of w_N."""
        if op[:1] in ("T", "U"):
            n = int(op[1:])
            if (op[0] == "U") != (self.M % n == 0):
                raise InvalidOperator("%s at level %d: T_ell needs ell prime "
                                      "to the level, U_q needs q | level"
                                      % (op, self.M))
            return self._coset_plan(heilbronn_merel(n), cosets)
        if op == "iota":
            return self._coset_plan([polyact.IOTA], cosets)
        if op != "wN":
            raise InvalidOperator("unknown operator %r" % op)
        return self._operator_plan(self, (((0, -1), (self.M, 0)),),
                                   tuple(cosets))

    def hecke_matrix(self, op):
        """Integer matrix H of T_ell, U_q, iota or w_N in the free basis,
        built once: the operator's matrix is H / D, D = `denominator`.

        Row i, for the position (A, j) of coordinate i, is D times row j of
        Phi_op(A) = sum over the plan's (B, m) of m * values_basis[B]:
        an integer combination of integer rows.
        """
        cached = self._hecke_matrices.get(op)
        if cached is not None:
            return cached
        plan = self._plan(op, self._position_cosets)
        vb = self.values_basis
        D = self.denominator
        mat = []
        for A, j in self.positions:
            acc = [0] * self.dim
            for B, m in plan[A]:
                for c, w in enumerate(m[j]):
                    if w:
                        d, terms = vb[B][c]
                        scale = w * (D // d)
                        for k, n in terms:
                            acc[k] += scale * n
            mat.append(acc)
        self._hecke_matrices[op] = mat
        return mat

    # -- subspaces -----------------------------------------------------------
    #
    # A basis is a pair (rows, den): its vectors are the integer coordinate
    # rows divided by den.

    def sign_subspace(self, sign):
        """Basis (rows, den) of the sign eigenspace of iota: the kernel of
        H - sign * D * I for the integer matrix H = D * iota."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        diag = sign * self.denominator
        rows = [[x - diag if r == c else x for c, x in enumerate(row)]
                for r, row in enumerate(self.hecke_matrix("iota"))]
        return linalg.kernel_basis(rows, self.dim)

    def _restrict_operator(self, op, basis):
        """Matrix (B, d) of an operator on the span of a basis (rows, den),
        in lowest terms: image j is sum_i (B[i][j] / d) * vector i.

        No elimination: each row i of the bases made here has a unit column
        c_i, where row i alone is nonzero (a `kernel_basis` row's free
        column), so an image w = H row_j, H = D * op, has coordinate
        w[c_i] / (D row_i[c_i]) at vector i.  The sum of those multiples of
        the rows is checked against w in integers.  A basis without unit
        columns raises ValueError.
        """
        rows, _ = basis
        support = [sum(1 for x in col if x) for col in zip(*rows)]
        units = [next((c for c, x in enumerate(row) if x and support[c] == 1),
                      None) for row in rows]
        if None in units:
            raise ValueError("a basis row has no unit column")
        L = lcm(*(row[c] for row, c in zip(rows, units)))
        H = self.hecke_matrix(op)
        cols = []
        for w in (linalg.mat_vec(H, row) for row in rows):
            coords = [w[c] * (L // row[c]) for row, c in zip(rows, units)]
            if _combine(coords, rows) != [L * x for x in w]:
                raise InvalidOperator("%s does not preserve the subspace" % op)
            cols.append(coords)
        return lowest([list(r) for r in zip(*cols)], L * self.denominator)

    def good_primes(self):
        """The primes not dividing the level, increasing."""
        return (q for q in count(2)
                if self.M % q and padic.prime_divisors(q) == [q])

    def cuspidal_subspace(self, sign):
        """Basis (rows, den) of the cuspidal part of the sign eigenspace.

        Boundary eigensystems have a_ell = 1 + ell^(k-1), which no cuspidal
        system attains.  For ell prime to the level T_ell is semisimple on
        modular symbols: by Eichler-Shimura they are M_k + conj(S_k) as
        Hecke modules, and each summand has an eigenbasis of T_ell.  So
        with T_ell = B / d on the eigenspace and eis = d(1 + ell^(k-1)),
        the cuspidal part is the image of B - eis, spanned by its columns,
        and the image of every power (B - eis)^m, m >= 1, is the same;
        when eis is no eigenvalue it is the whole eigenspace.  Where
        cond(chi)^2 divides the level for a nontrivial character chi, the
        Eisenstein series E(chi, conj(chi)) has a_ell = chi(ell) +
        conj(chi)(ell) ell^(k-1) and survives this cut.  The
        basis is the one `linalg.kernel_basis` gives, 1 at a free column
        and 0 at the others: the reduced echelon basis with the columns
        read in reverse order, which is unique.
        """
        basis = self.sign_subspace(sign)
        rows, den = basis
        if not rows:
            return basis
        ell = next(self.good_primes())
        B, d = self._restrict_operator("T%d" % ell, basis)
        eis = d * (1 + ell ** (self.k - 1))
        # the columns of B - eis, reversed
        image = [[x - eis if r == c else x for r, x in enumerate(col)][::-1]
                 for c, col in enumerate(zip(*B))]
        (red, kden), _ = linalg.rref(image)
        return lowest([_combine(y[::-1], rows) for y in reversed(red)],
                      kden * den)


def heilbronn_merel(n):
    """Merel's set X_n of integer matrices (a b; c d) with a > b >= 0,
    d > c >= 0 and ad - bc = n.  As ad - bc >= a(d - c), a <= n, and
    d > c means c(a - b) < n; for each (a, b) the c with bc = -n mod a form
    one class mod a / gcd(a, b), or none, and d = (n + bc) / a."""
    out = []
    for a in range(1, n + 1):
        for b in range(a):
            h = gcd(a, b)
            if n % h == 0:
                step = a // h
                c0 = -(n // h) * pow(b // h, -1, step) % step
                out += [((a, b), (c, (n + b * c) // a))
                        for c in range(c0, -(-n // (a - b)), step)]
    return out


def _summed(acc):
    """[(B, the sum of acc[B])] for lists of integer matrices, sorted."""
    return [(B, [[sum(col) for col in zip(*rows)] for rows in zip(*ms)])
            for B, ms in sorted(acc.items())]


def _combine(coeffs, rows):
    """sum coeffs[t] * rows[t] for integer coefficients and rows."""
    out = [0] * len(rows[0])
    for y, row in zip(coeffs, rows):
        if y:
            out = [a + y * x for a, x in zip(out, row)]
    return out


# ---------------------------------------------------------------------------
# eigensymbols


class Eigensymbol:
    """A cuspidal Hecke eigenclass with coordinates over its eigenvalue field.

    The class's exact data are integers over one denominator: coordinate j
    has power-basis coefficients numerators[j] / E in the field generated by
    the splitting element, E the least common denominator of the
    coordinates, and `exact_value(A)` gives Phi(A) as integer vectors over
    `denominator` = E * D, D the space's denominator.  An eigenvalue a_ell
    is read on demand off one coset value, where the class is known to be
    nonzero, and is integers over a denominator too.  The exact Mazur-Tate
    elements built from the class are kept in `elements`, keyed by (p, n),
    for every prime above p, precision and twist, and the scale of each
    normalization witness and of the a_ell coset in `witness_scale`.
    """

    def __init__(self, space, sign, field, numerators, E):
        self.space = space
        self.sign = sign
        self.field = field
        self.numerators = numerators
        self.denominator = E * space.denominator
        self._exact_values = {}
        self._scales = {}
        self.elements = {}

    def exact_value(self, A):
        """Phi(A) as integer vectors over `denominator`, built once: row
        (d, terms) of values_basis[A] gives sum n * (D / d) * numerators[j]
        over its (j, n)."""
        cached = self._exact_values.get(A)
        if cached is None:
            D = self.space.denominator
            nums = self.numerators
            cached = []
            for d, terms in self.space.values_basis[A]:
                acc = [0] * self.field.degree
                for j, n in terms:
                    m = n * (D // d)
                    acc = [s + m * c for s, c in zip(acc, nums[j])]
                cached.append(tuple(acc))
            self._exact_values[A] = cached
        return cached

    def evaluate(self, A, c, d):
        """Phi(A) evaluated at (c, d), the exact integer vector sum of
        c^r d^(g-r) Phi(A)[r] over `denominator`."""
        g = self.space.g
        acc = [0] * self.field.degree
        for r, x in enumerate(self.exact_value(A)):
            w = c ** r * d ** (g - r)
            if w:
                acc = [s + w * y for s, y in zip(acc, x)]
        return acc

    def witness_scale(self, A, j):
        """The multiplication matrix (m, den) of 1 / Phi(A)[j]
        (`NumberField.inverse_matrix`), built once per (A, j) and shared by
        every prime and precision that picks it as witness, and by `a`."""
        cached = self._scales.get((A, j))
        if cached is None:
            cached = self.field.inverse_matrix(self.exact_value(A)[j],
                                               self.denominator)
            self._scales[A, j] = cached
        return cached

    def a(self, ell):
        """Hecke eigenvalue a_ell (or the U_q eigenvalue for q | level), as
        (nums, den) in lowest terms (`NumberField.exact`).

        Phi|T_ell = a_ell Phi, so at the first nonzero exact value x =
        Phi(A)[j], in coset and monomial order, a_ell = (Phi|T_ell)(A)[j] / x.
        The plan of T_ell at A gives (Phi|T_ell)(A)[j] as an integer
        combination y of the exact values, over the same `denominator` E D
        as x; with the scale (m, d) of x (`witness_scale`), a_ell is m y
        over d E D.
        """
        op = ("U%d" if self.space.M % ell == 0 else "T%d") % ell
        A, j = next((A, j) for A in range(len(self.space.plist))
                    for j, x in enumerate(self.exact_value(A)) if any(x))
        acc = [0] * self.field.degree
        for B, m in self.space._plan(op, [A])[A]:
            for w, x in zip(m[j], self.exact_value(B)):
                if w:
                    acc = [s + w * y for s, y in zip(acc, x)]
        scale, d = self.witness_scale(A, j)
        return self.field.exact([sum(map(mul, row, acc)) for row in scale],
                                d * self.denominator)

    def sort_key(self):
        return (self.field.degree, self.field.minpoly)


def _splitting_candidates(space):
    """Deterministic sequence of Hecke combinations to try as splitters.

    Oldforms coming from lower level share all T eigenvalues, so the U_q
    for every prime q | M are included from the start, at prime level M
    too; the T-only combinations follow as fallbacks.  At a prime level M
    with S_k(SL_2(Z)) = 0, k in (2, 4, 6, 8, 10, 14), every cuspidal
    class is new, with a_M = -M^(k/2-1) times its w_N sign (Atkin-Lehner),
    so U_M = -w_N on the cuspidal subspace, with equal restricted matrices,
    and -w_N, one path per coset, stands in for U_M's Heilbronn matrices.
    """
    l1, l2 = islice(space.good_primes(), 2)
    qs = padic.prime_divisors(space.M)
    uqs = [("U%d" % q, 1) for q in qs]
    if qs == [space.M] and space.k in (2, 4, 6, 8, 10, 14):
        uqs = [("wN", -1)]
    if uqs:
        yield [("T%d" % l1, 1)] + uqs
        for c in range(1, 5):
            yield [("T%d" % l1, 1), ("T%d" % l2, c)] + uqs
    yield [("T%d" % l1, 1)]
    for c in range(1, 5):
        yield [("T%d" % l1, 1), ("T%d" % l2, c)]


def cuspidal_eigensymbols(space, sign):
    """One Eigensymbol per Galois conjugacy class of cuspidal eigenforms.

    Finds a splitting operator S = B / d (an integer combination of Hecke
    operators, restricted to the cuspidal subspace) with squarefree
    characteristic polynomial, and a cyclic vector v, and reads each
    eigenclass off by synthetic division of the characteristic polynomial
    in the Krylov basis of v, all in integers.  The charpoly of S is
    integral, a Hecke operator preserving the integral symbols, and is
    read off the integer charpoly g of B as g_i / d^(n-i).  Each charpoly
    is factored once per space: the other sign's may be the same.  At a
    prime level M with no level-one cusp forms of weight k, U_M = -w_N on
    newforms, so S = T_ell - w_N is T_ell + U_M (`_splitting_candidates`).
    """
    basis = space.cuspidal_subspace(sign)
    if not basis[0]:
        return []
    ds = len(basis[0])
    restricted = {}

    def restrict(op):
        mat = restricted.get(op)
        if mat is None:
            mat = space._restrict_operator(op, basis)
            restricted[op] = mat
        return mat

    for combo in _splitting_candidates(space):
        mats = [restrict(op) for op, _ in combo]
        d = lcm(*(dm for _, dm in mats))
        smat = [[sum(c * (d // dm) * m[r][col]
                     for (_, c), (m, dm) in zip(combo, mats))
                 for col in range(ds)] for r in range(ds)]
        charpoly = []
        for i, c in enumerate(linalg.charpoly_rational(smat)):
            q, r = divmod(c, d ** (ds - i))
            assert r == 0
            charpoly.append(q)
        factors = space._factor_cache.get(tuple(charpoly))
        if factors is None:
            try:
                factors = padic.factor_monic_int(charpoly)
            except ValueError:  # not squarefree
                continue
            space._factor_cache[tuple(charpoly)] = factors
        krylov = _cyclic_krylov_basis(smat, d)
        if krylov is None:
            continue
        return _extract_classes(space, sign, basis, charpoly, factors,
                                krylov)
    raise SplittingFailure(
        "no splitting operator with squarefree charpoly found at level %d "
        "weight %d sign %+d" % (space.M, space.k, sign))


def _cyclic_krylov_basis(smat, d):
    """The Krylov basis v, Sv, ..., S^(n-1) v of S = smat / d for the first
    candidate v that is cyclic for S, or None; each vector S^m v is a pair
    (integer row, denominator) in lowest terms."""
    ds = len(smat)
    candidates = [[int(j == i) for j in range(ds)] for i in range(ds)]
    candidates += [[pow(w, j, 97) for j in range(ds)] for w in (2, 3)]
    for v in candidates:
        krylov = [(v, 1)]
        for _ in range(ds - 1):
            u, e = krylov[-1]
            (u,), e = lowest([linalg.mat_vec(smat, u)], d * e)
            krylov.append((u, e))
        if linalg.rank([u for u, _ in krylov]) == ds:
            return krylov
    return None


def _extract_classes(space, sign, basis, charpoly, factors, krylov):
    """One Eigensymbol per irreducible factor of the charpoly of S.

    For a root z of the factor, synthetic division of the charpoly by
    (x - z) gives integer vectors h_m in the power basis of z, and the
    z-eigenvector is sum h_m S^m v.  In full coordinates S^m v = N_m / f_m,
    so its coordinates are integer vectors over F = lcm(f_m).
    """
    rows, c = basis
    full = []
    for u, e in krylov:
        (N,), f = lowest([_combine(u, rows)], e * c)
        full.append((N, f))
    F = lcm(*(f for _, f in full))
    out = []
    for fac in factors:
        deg = len(fac) - 1
        low = fac[:-1]
        # h_(m-1) = charpoly_m + z h_m, from h_(n-1) = 1
        hm = [1] + [0] * (deg - 1)
        coeffs = [hm]
        for m in range(len(full) - 1, 0, -1):
            top = hm[-1]
            hm = [x - top * y for x, y in zip([0] + hm[:-1], low)]
            hm[0] += charpoly[m]
            coeffs.append(hm)
        acc = [[0] * deg for _ in range(space.dim)]
        for hm, (N, f) in zip(reversed(coeffs), full):
            scale = F // f
            for i, x in enumerate(N):
                if x:
                    acc[i] = [a + scale * x * y for a, y in zip(acc[i], hm)]
        numerators, E = lowest(acc, F)
        out.append(Eigensymbol(space, sign, padic.NumberField(fac),
                               [tuple(x) for x in numerators], E))
    out.sort(key=lambda e: e.sort_key())
    return out


# ---------------------------------------------------------------------------
# normalization and local symbols


class NormalizedSymbol:
    """Eigensymbol scaled so the minimum value-coefficient valuation is 0.

    The scale is 1/w for the exact value w of the eigenclass that attains
    the minimum valuation at the embedding; content_certificate records
    its (coset, monomial) pair: the first value, in coset and monomial
    order, of least certified valuation.  Every value is a sum of
    coordinates times n / d, for the row (d, terms) of `values_basis` with
    d | D, the space's denominator, so it lies no lower than floor - v_p(d),
    floor the least valuation of the coordinates (a coordinate vanishing to
    its precision counting as that precision).  The coordinates are
    embedded first; a value whose bound is not below the least valuation
    found so far is not built, and the scan stops at the first value on
    floor - v_p(D), building no value past it.  The scale is kept as an
    integer multiplication matrix over a denominator, shared per eigenclass
    by every prime and precision with the same witness
    (`Eigensymbol.witness_scale`).  A value, an
    evaluation or a projected Mazur-Tate coefficient is read p-adically as
    one embedding of scale * an exact integer vector (`embed`, `combine`),
    at precision M - v_p(its denominator).
    A vector known only mod p^digits, digits = M + v_p(the denominator),
    embeds to the same vector, shift and precision, so the scale matrix
    and the weights of `combine` are reduced mod p^digits.
    """

    def __init__(self, eigensymbol, embedding):
        self.eigensymbol = eigensymbol
        self.embedding = embedding
        self.space = eigensymbol.space
        den = eigensymbol.denominator
        p = embedding.p
        coords = (embedding.local_ints(nums, den // self.space.denominator)
                  for nums in filter(any, eigensymbol.numerators))
        floor = min((x.prec if x.is_zero_to_precision() else x.valuation()
                     for x in coords), default=None)
        vD = padic._vp(self.space.denominator, p)
        best = None
        rows = ((A, j, d) for A, block in enumerate(self.space.values_basis)
                for j, (d, _) in enumerate(block))
        for A, j, d in rows:
            if best is not None and floor - padic._vp(d, p) >= best[0]:
                continue
            x = eigensymbol.exact_value(A)[j]
            val = embedding.local_ints(x, den).certified_valuation()
            if val is not None and (best is None or val < best[0]):
                best = (val, A, j)
                if val <= floor - vD:
                    break
        if best is None:
            raise PrecisionExhausted(
                "every value vanishes to the working precision; "
                "the symbol cannot be normalized at M = %d" % embedding.M)
        _, A, j = best
        scale, scale_den = eigensymbol.witness_scale(A, j)
        self._denominator = scale_den * den
        # an integer vector known mod p^digits embeds to a certified
        # precision, since dividing by the denominator costs v_p of it
        self.digits = embedding.M + padic._vp(self._denominator, embedding.p)
        self.modulus = q = embedding.p ** self.digits
        self._scale = [[m % q for m in row] for row in scale]
        self.content_certificate = (A, j)
        self._scaled = {}
        self._thetas = {}

    @property
    def sign(self):
        return self.eigensymbol.sign

    def embed(self, x):
        """The LocalElement of scale * x, for an integer vector x over the
        eigenclass's denominator."""
        return self.embedding.local_ints(
            [sum(map(mul, row, x)) for row in self._scale],
            self._denominator)

    def combine(self, A, weights):
        """The LocalElement of sum_r weights[r] * Phi(A)[r] for integer
        weights: one embedding of that sum of the coset's scaled exact
        values, which are kept mod p^digits."""
        cols = self._scaled.get(A)
        if cols is None:
            cols = self._scaled[A] = list(zip(*(
                [sum(map(mul, row, x)) % self.modulus for row in self._scale]
                for x in self.eigensymbol.exact_value(A))))
        return self.embedding.local_ints(
            [sum(map(mul, weights, col)) for col in cols], self._denominator)

    def evaluate(self, A, c, d):
        """The LocalElement of Phi(A) evaluated at (c, d): the sum of
        c^r d^(g-r) Phi(A)[r] (`Eigensymbol.evaluate`), embedded once."""
        q, g = self.modulus, self.space.g
        return self.combine(A, [pow(c, r, q) * pow(d, g - r, q)
                                for r in range(g + 1)])


def normalize(eigensymbol, embedding):
    return NormalizedSymbol(eigensymbol, embedding)


# ---------------------------------------------------------------------------
# degeneracy and weight-lowering maps


def degeneracy_values(source_space, target_space, r, values):
    """Values at target level of phi|B_r for B_r = (r,0;0,1), r | (M'/M)."""
    if target_space.M % source_space.M != 0:
        raise InvalidOperator("target level must be a multiple of the source")
    d = target_space.M // source_space.M
    if d % r != 0:
        raise InvalidOperator("B_%d needs %d dividing %d" % (r, r, d))
    if target_space.k != source_space.k:
        raise InvalidOperator("degeneracy maps preserve the weight")
    delta = ((r, 0), (0, 1))
    cosets = tuple(range(len(target_space.plist)))
    plan = target_space._operator_plan(source_space, (delta,), cosets)
    return target_space.apply_plan_to_values(plan, values)


def alpha_map(normalized, target_space):
    """The weight-lowering map to weight-2 symbols at level Mp.

    The target space must be the weight-2 space at level Mp.  The value
    at a target coset with determinant-1 lift (a,b;c,d) is Phi(class mod
    M) evaluated at (c, d), the exact integer vector over the eigenclass's
    denominator (`Eigensymbol.evaluate`); its reduction at the normalized
    symbol's prime (`embed`, then `reduce`) is the weight-2 symbol over
    the residue field.
    """
    space = normalized.space
    p = normalized.embedding.p
    g = space.g
    if g <= 0 or g % (p - 1) != 0:
        raise WeightNotCongruent(
            "alpha needs k - 2 > 0 divisible by p - 1; got k = %d, p = %d"
            % (space.k, p))
    if target_space.M != space.M * p or target_space.k != 2:
        raise InvalidOperator("target must be weight 2 at level M*p")
    cls = normalized.eigensymbol
    out = []
    for i in range(len(target_space.plist)):
        _, (c, d) = target_space.plist.lift(i)
        out.append([cls.evaluate(space.plist.index(c, d), c, d)])
    return out
