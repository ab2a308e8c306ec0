"""Manin-symbol presentations of weight-k modular symbols for Gamma_0(M).

A symbol phi assigns to each coset A in P^1(Z/M) a vector Phi(A) in V_g
(g = k - 2) subject to the Manin relations

    Phi(A sigma) + Phi(A)|sigma = 0,
    Phi(A) + Phi(A tau)|tau^2 + Phi(A tau^2)|tau = 0,

where Phi(A) = phi({gamma oo} - {gamma 0})|gamma for any lift gamma of A.
For any determinant-1 integer matrix gamma this gives
phi({gamma oo} - {gamma 0}) = Phi(class gamma)|gamma^(-1), which together
with continued-fraction decomposition of paths drives divisor evaluation,
Hecke operators, degeneracy maps, and the weight-lowering alpha map.

The presentation is solved over an exact field (rationals by default, or a
finite field), yielding a free basis whose coordinates are literal symbol
values at recorded (coset, monomial) positions.
"""

from fractions import Fraction
from itertools import count, islice
from math import gcd

from . import linalg, p1, polyact, polyq
from .errors import (
    InvalidOperator,
    OutOfBudget,
    PrecisionExhausted,
    SplittingFailure,
    WeightNotCongruent,
)
from .linalg import QQ
from . import padic


# ---------------------------------------------------------------------------
# divisors on the rational projective line


class RationalDivisor:
    """Formal integer combination of cusps; (1, 0) denotes oo."""

    def __init__(self, terms):
        merged = {}
        for coeff, cusp in terms:
            cusp = _normalize_cusp(cusp)
            merged[cusp] = merged.get(cusp, 0) + coeff
        self.terms = tuple(sorted((c, pt) for pt, c in merged.items()
                                  if c != 0))

    def degree(self):
        return sum(c for c, _ in self.terms)

    def __add__(self, other):
        return RationalDivisor(list(self.terms) + list(other.terms))

    def __neg__(self):
        return RationalDivisor([(-c, pt) for c, pt in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, RationalDivisor) and self.terms == other.terms

    def __repr__(self):
        return "RationalDivisor(%s)" % (list(self.terms),)

    @staticmethod
    def path(src, dst):
        """The divisor {dst} - {src}."""
        return RationalDivisor([(1, dst), (-1, src)])

    @staticmethod
    def from_string(text):
        """Parse strings like "oo - 3/25" or "1/2 - 0 + 2*oo"."""
        terms = []
        token = ""
        pending_sign = 1
        for chunk in text.replace("-", " - ").replace("+", " + ").split():
            if chunk == "-":
                pending_sign = -1
            elif chunk == "+":
                pending_sign = 1
            else:
                coeff = pending_sign
                if "*" in chunk:
                    mult, chunk = chunk.split("*", 1)
                    coeff *= int(mult)
                terms.append((coeff, _parse_cusp(chunk)))
                pending_sign = 1
        div = RationalDivisor(terms)
        return div


def _parse_cusp(text):
    if text in ("oo", "inf", "infinity"):
        return (1, 0)
    if "/" in text:
        a, b = text.split("/")
        return (int(a), int(b))
    return (int(text), 1)


def _normalize_cusp(cusp):
    if isinstance(cusp, Fraction):
        return (cusp.numerator, cusp.denominator)
    a, b = cusp
    if b == 0:
        return (1, 0)
    if b < 0:
        a, b = -a, -b
    g = gcd(abs(a), b)
    if g > 1:
        a, b = a // g, b // g
    return (a, b)


def _convergent_matrices(a, b):
    """Unimodular matrices g with {oo} - {a/b} = sum ({g oo} - {g 0}).

    Returns a list of determinant-1 integer matrices; the path from oo to
    a/b telescopes through the continued-fraction convergents.
    """
    if b == 0:
        return []
    if b < 0:
        a, b = -a, -b
    g = gcd(abs(a), b)
    if g > 1:
        a, b = a // g, b // g
    # continued fraction digits by floor division
    digits = []
    x, y = a, b
    while y:
        q = x // y
        digits.append(q)
        x, y = y, x - q * y
    convs = [(1, 0)]
    pp, qq = 1, 0
    cp, cq = digits[0], 1
    convs.append((cp, cq))
    for d in digits[1:]:
        pp, qq, cp, cq = cp, cq, d * cp + pp, d * cq + qq
        convs.append((cp, cq))
    mats = []
    for m in range(1, len(convs)):
        (P, Q), (p_, q_) = convs[m - 1], convs[m]
        det = P * q_ - p_ * Q
        if det == 1:
            mats.append(((P, p_), (Q, q_)))
        else:
            mats.append(((-P, p_), (-Q, q_)))
    return mats


# ---------------------------------------------------------------------------
# the presentation


class ManinSymbolSpace:
    """Solved Manin presentation at level M and even weight k over a field."""

    def __init__(self, level, weight, field=QQ, size_cap=100000):
        if weight < 2 or weight % 2 != 0:
            raise ValueError("weight must be an even integer >= 2")
        self.M = level
        self.k = weight
        self.g = weight - 2
        self.field = field
        self.plist = p1.P1List(level)
        if len(self.plist) * (self.g + 1) > size_cap:
            raise OutOfBudget("presentation has %d generators, cap is %d"
                              % (len(self.plist) * (self.g + 1), size_cap))
        self._lifts = [self.plist.lift(i) for i in range(len(self.plist))]
        self._plan_cache = {}
        self._matrix_cache = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _int(self, n):
        return self.field.one() * n

    def _build(self):
        field = self.field
        g = self.g
        gp1 = g + 1
        nc = len(self.plist)
        msig = polyact.act_matrix(polyact.SIGMA, g)
        mtau = polyact.act_matrix(polyact.TAU, g)
        mtau2 = polyact.act_matrix(polyact.TAU2, g)
        sperm = [self.plist.apply_right(i, polyact.SIGMA) for i in range(nc)]
        tperm = [self.plist.apply_right(i, polyact.TAU) for i in range(nc)]

        # sigma structure: express every Phi(A) through a parameter block
        param_pos = []        # param index -> (coset, monomial) position
        expr = [None] * nc    # coset -> (base, block matrix over field)
        for i in range(nc):
            j = sperm[i]
            if j < i:
                continue
            base = len(param_pos)
            if i == j:
                rows = [[self._int(msig[r][c] + (1 if r == c else 0))
                         for c in range(gp1)] for r in range(gp1)]
                red, pivots = linalg.rref(rows, field)
                free = [c for c in range(gp1) if c not in pivots]
                kmat = [[field.zero()] * len(free) for _ in range(gp1)]
                for t, fc in enumerate(free):
                    kmat[fc][t] = field.one()
                    for row, pc in zip(red, pivots):
                        kmat[pc][t] = -row[fc]
                expr[i] = (base, kmat)
                param_pos.extend((i, fc) for fc in free)
            else:
                ident = [[field.one() if r == c else field.zero()
                          for c in range(gp1)] for r in range(gp1)]
                expr[i] = (base, ident)
                partner = [[self._int(-msig[r][c]) for c in range(gp1)]
                           for r in range(gp1)]
                expr[j] = (base, partner)
                param_pos.extend((i, c) for c in range(gp1))
        nparams = len(param_pos)

        # tau relations, one vector relation per orbit
        def add_block(rows_block, coset, cmat):
            base, mat = expr[coset]
            width = len(mat[0])
            for r in range(gp1):
                row = rows_block[r]
                for mid in range(gp1):
                    f = cmat[r][mid]
                    if f == 0:
                        continue
                    mrow = mat[mid]
                    for c in range(width):
                        x = mrow[c]
                        if not linalg.is_zero(x):
                            row[base + c] = row[base + c] + x * f

        ident_int = [[1 if r == c else 0 for c in range(gp1)]
                     for r in range(gp1)]
        relations = []
        for A in range(nc):
            orbit = (A, tperm[A], tperm[tperm[A]])
            if min(orbit) != A:
                continue
            rows_block = [[field.zero()] * nparams for _ in range(gp1)]
            add_block(rows_block, orbit[0], ident_int)
            add_block(rows_block, orbit[1], mtau2)
            add_block(rows_block, orbit[2], mtau)
            relations.extend(rows_block)

        red, pivots = linalg.rref(relations, field)
        pivot_set = set(pivots)
        free = [c for c in range(nparams) if c not in pivot_set]
        dim = len(free)
        bmat = [[field.zero()] * dim for _ in range(nparams)]
        for idx, fc in enumerate(free):
            bmat[fc][idx] = field.one()
        for row, pc in zip(red, pivots):
            for idx, fc in enumerate(free):
                bmat[pc][idx] = -row[fc]

        # coset value matrices: values of the basis symbols at every coset
        self.dim = dim
        self.positions = [param_pos[fc] for fc in free]
        vb = []
        for A in range(nc):
            base, mat = expr[A]
            width = len(mat[0])
            block = bmat[base:base + width]
            vb.append(linalg.mat_mat(mat, block) if width else
                      [[field.zero()] * dim for _ in range(gp1)])
        self.values_basis = vb
        self._position_cosets = sorted({c for c, _ in self.positions})

    # -- symbols as coordinate vectors --------------------------------------

    def coset_value(self, coords, A):
        """Value vector Phi(A) of the symbol with the given coordinates."""
        rows = self.values_basis[A]
        out = []
        for r in range(self.g + 1):
            acc = None
            for f, x in zip(rows[r], coords):
                if linalg.is_zero(f):
                    continue
                term = x * f
                acc = term if acc is None else acc + term
            if acc is None:
                acc = coords[0] * 0
            out.append(acc)
        return out

    def all_values(self, coords):
        return [self.coset_value(coords, A) for A in range(len(self.plist))]

    def coords_from_values(self, values):
        """Coordinates of a symbol given its coset values."""
        return [values[c][j] for c, j in self.positions]

    # -- divisor evaluation --------------------------------------------------

    def _path_terms(self, a, b):
        """List of (coset, inverse matrix) with E(a/b) = sum Phi(B)|ginv,

        where E(x) = phi({oo} - {x})."""
        terms = []
        for gmat in _convergent_matrices(a, b):
            B = self.plist.index(gmat[1][0], gmat[1][1])
            terms.append((B, polyact.mat_inv_unimodular(gmat)))
        return terms

    def evaluate_divisor(self, get_value, divisor):
        """phi(D) for the symbol whose coset values come from get_value."""
        if divisor.degree() != 0:
            raise ValueError("divisor must have degree zero")
        acc = None
        for coeff, (a, b) in divisor.terms:
            for B, ginv in self._path_terms(a, b):
                term = polyact.act(get_value(B), ginv)
                term = polyact.scale(term, -coeff)
                acc = term if acc is None else polyact.add(acc, term)
        if acc is None:
            some = get_value(0)
            acc = polyact.zero_like(some)
        return acc

    # -- operators -----------------------------------------------------------

    def _operator_plan(self, source, deltas, cosets):
        """Plan for Phi_op(A) = sum_delta phi_src(delta D_A)|delta gamma_A.

        Returns {A: [(source coset B, integer action matrix)]} so that
        Phi_op(A) = sum over terms of act(values_src[B], matrix)."""
        key = (id(source), deltas, tuple(cosets))
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        g = self.g
        plan = {}
        for A in cosets:
            gam = self._lifts[A]
            acc = {}
            for delta in deltas:
                m = polyact.mat_mul(delta, gam)
                cusp_pairs = ((1, (m[0][1], m[1][1])),
                              (-1, (m[0][0], m[1][0])))
                for sign, (aa, bb) in cusp_pairs:
                    for B, ginv in source._path_terms(aa, bb):
                        am = polyact.act_matrix(polyact.mat_mul(ginv, m), g)
                        cur = acc.get(B)
                        if cur is None:
                            cur = [[0] * (g + 1) for _ in range(g + 1)]
                            acc[B] = cur
                        for r in range(g + 1):
                            arow = am[r]
                            crow = cur[r]
                            for c in range(g + 1):
                                crow[c] += sign * arow[c]
            plan[A] = [(B, mat) for B, mat in sorted(acc.items())]
        self._plan_cache[key] = plan
        return plan

    def apply_plan_to_values(self, plan, values):
        """Values of the transformed symbol at the plan's cosets."""
        out = {}
        for A, terms in plan.items():
            acc = None
            for B, mat in terms:
                vec = values[B]
                contrib = []
                for r in range(self.g + 1):
                    cacc = None
                    for c in range(self.g + 1):
                        mc = mat[r][c]
                        if mc == 0:
                            continue
                        t = vec[c] * mc
                        cacc = t if cacc is None else cacc + t
                    contrib.append(cacc)
                if acc is None:
                    acc = contrib
                else:
                    acc = [a if b is None else (b if a is None else a + b)
                           for a, b in zip(acc, contrib)]
            zero = values[0][0] * 0
            out[A] = [zero if x is None else x for x in (acc or
                                                         [None] * (self.g + 1))]
        return out

    def _deltas_for(self, op):
        """Coset representatives for a named operator at this level."""
        if op.startswith("T"):
            ell = int(op[1:])
            if self.M % ell == 0:
                raise InvalidOperator("T%d needs %d coprime to the level %d"
                                      % (ell, ell, self.M))
            return tuple([((1, r), (0, ell)) for r in range(ell)]
                         + [((ell, 0), (0, 1))])
        if op.startswith("U"):
            q = int(op[1:])
            if self.M % q != 0:
                raise InvalidOperator("U%d needs %d dividing the level %d"
                                      % (q, q, self.M))
            return tuple(((1, r), (0, q)) for r in range(q))
        if op == "wN":
            return (((0, -1), (self.M, 0)),)
        raise InvalidOperator("unknown operator %r" % op)

    def apply_operator_to_values(self, op, values, cosets=None):
        """Values of phi|op at the given cosets (default: basis positions)."""
        if cosets is None:
            cosets = self._position_cosets
        if op == "iota":
            return {A: self._iota_value(values, A) for A in cosets}
        plan = self._operator_plan(self, self._deltas_for(op), tuple(cosets))
        return self.apply_plan_to_values(plan, values)

    def apply_operator_to_coords(self, op, coords):
        values = self.all_values(coords)
        out = self.apply_operator_to_values(op, values)
        return [out[c][j] for c, j in self.positions]

    def _iota_perm(self):
        perm = getattr(self, "_iota_perm_cache", None)
        if perm is None:
            perm = [self.plist.index(-self.plist[i][0], self.plist[i][1])
                    for i in range(len(self.plist))]
            self._iota_perm_cache = perm
        return perm

    def _iota_value(self, values, A):
        return polyact.act(values[self._iota_perm()[A]], polyact.IOTA)

    def hecke_matrix(self, op):
        """Matrix of T_ell, U_q, iota or w_N in the free basis."""
        cached = self._matrix_cache.get(op)
        if cached is not None:
            return cached
        cols = []
        for i in range(self.dim):
            coords = [self.field.one() if j == i else self.field.zero()
                      for j in range(self.dim)]
            cols.append(self.apply_operator_to_coords(op, coords))
        mat = [[cols[j][i] for j in range(self.dim)]
               for i in range(self.dim)]
        self._matrix_cache[op] = mat
        return mat

    # -- subspaces -----------------------------------------------------------

    def sign_subspace(self, sign):
        """Basis (list of coordinate vectors) of the sign eigenspace of iota."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        J = self.hecke_matrix("iota")
        rows = [[J[r][c] - (self._int(sign) if r == c else self.field.zero())
                 for c in range(self.dim)] for r in range(self.dim)]
        return linalg.kernel_basis(rows, self.dim, self.field)

    def _restrict_operator(self, op, basis):
        """Matrix of an operator on the span of the given coordinate vectors."""
        cols_full = [self.apply_operator_to_coords(op, v) for v in basis]
        rows = [list(r) for r in zip(*basis)]
        sub_cols = []
        for w in cols_full:
            sol = linalg.solve(rows, w, self.field)
            if sol is None:
                raise InvalidOperator("%s does not preserve the subspace" % op)
            sub_cols.append(sol)
        return [[sub_cols[j][i] for j in range(len(basis))]
                for i in range(len(basis))]

    def good_primes(self):
        """The primes not dividing the level, increasing."""
        return (q for q in count(2)
                if self.M % q and padic.prime_divisors(q) == [q])

    def cuspidal_subspace(self, sign):
        """Basis of the cuspidal part of the sign eigenspace.

        Computed as the kernel of f(T_ell) where f is the characteristic
        polynomial of T_ell on the sign eigenspace with every factor
        (x - (1 + ell^(k-1))) removed: boundary eigensystems have
        a_ell = 1 + ell^(k-1), which no cuspidal system can attain.
        """
        if self.field is not QQ:
            raise InvalidOperator("cuspidal subspace needs the rational field")
        basis = self.sign_subspace(sign)
        if not basis:
            return []
        ell = next(self.good_primes())
        tsub = self._restrict_operator("T%d" % ell, basis)
        cp = linalg.charpoly_rational(tsub)
        eis = Fraction(1 + ell ** (self.k - 1))
        fc = cp
        while True:
            quo, rem = polyq.divmod_poly(fc, [-eis, Fraction(1)])
            if rem and any(c != 0 for c in rem):
                break
            if not quo:
                break
            fc = quo
        mat = _poly_of_matrix(fc, tsub)
        ker = linalg.kernel_basis(mat, len(basis), self.field)
        out = []
        for y in ker:
            full = [sum((y[t] * basis[t][i] for t in range(len(basis))),
                        Fraction(0)) for i in range(self.dim)]
            out.append(full)
        return out


def _poly_of_matrix(coeffs, mat):
    n = len(mat)
    out = [[Fraction(coeffs[-1]) if r == c else Fraction(0)
            for c in range(n)] for r in range(n)]
    for c in reversed(coeffs[:-1]):
        out = linalg.mat_mat(out, mat)
        for r in range(n):
            out[r][r] += Fraction(c)
    return out


# ---------------------------------------------------------------------------
# eigensymbols


class Eigensymbol:
    """A cuspidal Hecke eigenclass with coordinates over its eigenvalue field.

    coords are NFElements of the field generated by the splitting element;
    eigenvalues a_ell are computed on demand by solving in the Krylov basis
    of the splitting operator on the cuspidal subspace.
    """

    def __init__(self, space, sign, field, coords, splitting):
        self.space = space
        self.sign = sign
        self.field = field
        self.coords = coords
        self._splitting = splitting
        self._eigenvalues = {}
        self._values = {}

    @property
    def minpoly(self):
        return self._splitting["factor"]

    def value(self, A):
        cached = self._values.get(A)
        if cached is None:
            cached = self.space.coset_value(self.coords, A)
            self._values[A] = cached
        return cached

    def all_values(self):
        return [self.value(A) for A in range(len(self.space.plist))]

    def evaluate(self, divisor):
        return self.space.evaluate_divisor(self.value, divisor)

    def a(self, ell):
        """Hecke eigenvalue a_ell (or the U_q eigenvalue for q | level)."""
        cached = self._eigenvalues.get(ell)
        if cached is not None:
            return cached
        sp = self._splitting
        space = self.space
        op = ("U%d" if space.M % ell == 0 else "T%d") % ell
        w = space.apply_operator_to_coords(op, sp["v_full"])
        sub = _subspace_coords(sp["basis_rows"], w)
        r = linalg.mat_vec(sp["krylov_inv"], sub)
        z = sp["z"]
        acc = self.field.zero()
        for c in reversed(r):
            acc = acc * z + self.field.from_rational(c)
        self._eigenvalues[ell] = acc
        return acc

    def sort_key(self):
        return (self.field.degree, tuple(self.minpoly))


def _subspace_coords(basis_rows, vec):
    """Coordinates of vec in the subspace with rref'd basis data."""
    sol = linalg.solve(basis_rows, vec, QQ)
    if sol is None:
        raise SplittingFailure("vector left the cuspidal subspace")
    return sol


def _splitting_candidates(space):
    """Deterministic sequence of Hecke combinations to try as splitters.

    Oldforms coming from lower level share all T eigenvalues, so at
    composite level the U_q for q | M are included from the start; the
    T-only combinations follow as fallbacks.
    """
    l1, l2 = islice(space.good_primes(), 2)
    uqs = [("U%d" % q, 1) for q in padic.prime_divisors(space.M)]
    if uqs:
        yield [("T%d" % l1, 1)] + uqs
        for c in range(1, 5):
            yield [("T%d" % l1, 1), ("T%d" % l2, c)] + uqs
    yield [("T%d" % l1, 1)]
    for c in range(1, 5):
        yield [("T%d" % l1, 1), ("T%d" % l2, c)]


def cuspidal_eigensymbols(space, sign):
    """One Eigensymbol per Galois conjugacy class of cuspidal eigenforms.

    Finds a splitting operator (an integer combination of Hecke operators)
    with squarefree characteristic polynomial on the cuspidal subspace, a
    cyclic vector v, and reads each eigenclass off by synthetic division of
    the characteristic polynomial in the Krylov basis of v.
    """
    basis = space.cuspidal_subspace(sign)
    if not basis:
        return []
    ds = len(basis)
    basis_rows = [list(r) for r in zip(*basis)]
    restricted = {}

    def restrict(op):
        mat = restricted.get(op)
        if mat is None:
            mat = space._restrict_operator(op, basis)
            restricted[op] = mat
        return mat

    for combo in _splitting_candidates(space):
        mats = [restrict(op) for op, _ in combo]
        smat = [[sum(Fraction(c) * m[r][col] for (_, c), m in
                     zip(combo, mats)) for col in range(ds)]
                for r in range(ds)]
        cp = linalg.charpoly_rational(smat)
        dcp = [i * cp[i] for i in range(1, len(cp))]
        gcdpoly, _, _ = polyq.xgcd(cp, dcp)
        if len(gcdpoly) != 1:
            continue
        v = _find_cyclic_vector(smat, ds)
        if v is None:
            continue
        return _extract_classes(space, sign, basis, basis_rows, smat, cp, v)
    raise SplittingFailure(
        "no splitting operator with squarefree charpoly found at level %d "
        "weight %d sign %+d" % (space.M, space.k, sign))


def _find_cyclic_vector(smat, ds):
    candidates = []
    for i in range(ds):
        vec = [Fraction(1 if j == i else 0) for j in range(ds)]
        candidates.append(vec)
    for w in (2, 3):
        candidates.append([Fraction(pow(w, j, 97)) for j in range(ds)])
    for v in candidates:
        coeffs, krylov = linalg.minpoly_of_matrix_action(
            lambda x: linalg.mat_vec(smat, x), v, QQ)
        if len(coeffs) - 1 == ds:
            return v
    return None


def _extract_classes(space, sign, basis, basis_rows, smat, cp, v):
    ds = len(basis)
    krylov = [v]
    for _ in range(ds - 1):
        krylov.append(linalg.mat_vec(smat, krylov[-1]))
    kry_cols = [[krylov[j][i] for j in range(ds)] for i in range(ds)]
    kry_inv = linalg.invert(kry_cols, QQ)
    if kry_inv is None:
        raise SplittingFailure("cyclic vector check failed")
    v_full = [sum((v[t] * basis[t][i] for t in range(ds)), Fraction(0))
              for i in range(space.dim)]
    krylov_full = [[sum((kv[t] * basis[t][i] for t in range(ds)), Fraction(0))
                    for i in range(space.dim)] for kv in krylov]
    out = []
    for fac, mult in linalg.factor_rational_poly(cp):
        assert mult == 1
        ints = []
        for c in fac:
            assert c.denominator == 1
            ints.append(int(c))
        K = padic.make_field(ints)
        z = K.gen() if K.degree > 1 else K.from_rational(-ints[0])
        # synthetic division: cp(x)/(x - z), coefficients in K
        h = [K.zero()] * (len(cp) - 1)
        h[-1] = K.from_rational(cp[-1])
        for m in range(len(cp) - 2, 0, -1):
            h[m - 1] = K.from_rational(cp[m]) + z * h[m]
        coords = [K.zero()] * space.dim
        for m, hm in enumerate(h):
            if hm.is_zero():
                continue
            row = krylov_full[m]
            coords = [ci + hm * ri for ci, ri in zip(coords, row)]
        splitting = {
            "factor": ints,
            "z": z,
            "v_full": v_full,
            "krylov_inv": kry_inv,
            "basis_rows": basis_rows,
        }
        out.append(Eigensymbol(space, sign, K, coords, splitting))
    out.sort(key=lambda e: e.sort_key())
    return out


# ---------------------------------------------------------------------------
# normalization and local symbols


class NormalizedSymbol:
    """Eigensymbol scaled so the minimum value-coefficient valuation is 0.

    Values are LocalElements of the given embedding.  The scaling divides
    by an exact field element attaining the minimum, recorded in
    content_certificate as a (coset, monomial) pair of certified valuation 0.
    """

    def __init__(self, eigensymbol, embedding):
        self.eigensymbol = eigensymbol
        self.embedding = embedding
        self.space = eigensymbol.space
        space = self.space
        emb = embedding
        local_coords = [emb.local(c) for c in eigensymbol.coords]
        best = None
        for A in range(len(space.plist)):
            vec = space.coset_value(local_coords, A)
            for j, x in enumerate(vec):
                if x.is_zero_to_precision():
                    continue
                val = x.valuation()
                if best is None or val < best[0]:
                    best = (val, A, j)
        if best is None:
            raise PrecisionExhausted(
                "every value vanishes to the working precision; "
                "the symbol cannot be normalized at M = %d" % emb.M)
        _, A, j = best
        witness = space.coset_value(eigensymbol.coords, A)[j]
        scale = witness.inverse()
        self.coords = [emb.local(c * scale) for c in eigensymbol.coords]
        self.content_certificate = (A, j)
        self._values = {}

    @property
    def sign(self):
        return self.eigensymbol.sign

    def value(self, A):
        cached = self._values.get(A)
        if cached is None:
            cached = self.space.coset_value(self.coords, A)
            self._values[A] = cached
        return cached

    def all_values(self):
        return [self.value(A) for A in range(len(self.space.plist))]

    def evaluate(self, divisor):
        return self.space.evaluate_divisor(self.value, divisor)

    def reduce(self):
        """Coset values over the residue field."""
        return [[x.reduce() for x in self.value(A)]
                for A in range(len(self.space.plist))]


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
    """The weight-lowering map to weight-2 symbols over the residue field.

    The target space must be a weight-2 space over the residue field at
    level Mp.  The value at a target coset with determinant-1 lift
    (a,b;c,d) is the reduction of Phi(class mod M)(c, d).
    """
    space = normalized.space
    emb = normalized.embedding
    p = emb.p
    g = space.g
    if g <= 0 or g % (p - 1) != 0:
        raise WeightNotCongruent(
            "alpha needs k - 2 > 0 divisible by p - 1; got k = %d, p = %d"
            % (space.k, p))
    if target_space.M != space.M * p or target_space.k != 2:
        raise InvalidOperator("target must be weight 2 at level M*p")
    F = emb.residue_field
    reduced = normalized.reduce()
    out = []
    for i in range(len(target_space.plist)):
        (_, _), (c, d) = target_space.plist.lift(i)
        A = space.plist.index(c, d)
        vec = reduced[A]
        acc = F.zero()
        for j, coeff in enumerate(vec):
            scalar = pow(c, j, p) * pow(d, g - j, p) % p
            if scalar:
                acc = acc + coeff * scalar
        out.append([acc])
    return out
