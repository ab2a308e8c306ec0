"""Number fields, primes above p, valuations, residue fields, Teichmuller lifts.

A number field is Q[y]/(minpoly), and an exact element of it is a pair
(nums, den) of power-basis integers over one positive denominator, the form
of every exact value in the program; `NumberField.exact` puts one in lowest
terms.  Vectors are reduced modulo the minimal polynomial, and inverses
solved, through the multiplication matrix of an element (`_power_columns`):
column i holds y^i times the element, so an inverse is one linear solve
over Q in integers (`linalg.solve`, which returns integers over one
denominator), and no polynomial is divided over Q.  The norm of an element
over a monic polynomial is the determinant of that matrix (`_norm`, by
`linalg.det`); it is the resultant, and it gives the squarefree test of
`factor_monic_int`.  A PAdicEmbedding fixes one irreducible p-adic factor
of the minimal polynomial, Hensel-lifted to precision p^M, together with
its ramification index e and residue degree f; `PAdicEmbedding.at` reads
it mod p^M for a lower M.  Valuations are exact rationals with denominator
dividing e (ints when e = 1), and reductions land in an explicit finite
field F_p[t]/(u(t)); both are read through the prime's type, of order 1
(`_Order1`) when its local factor is irreducible mod p and of Montes'
algorithm otherwise (`montes`).

Local (p-adic) arithmetic happens in LocalElement, a truncated representation
of an element of the local field as vec * p^(-shift) with vec in
(Z/p^M)[y]/(local_factor).  Every LocalElement tracks its certified absolute
precision so that valuations are only ever reported when certified.

Polynomials factor here too, in exact integer arithmetic on the dense
polynomials of `polyq`: over F_p by square-free, distinct-degree and
equal-degree (Cantor-Zassenhaus) splitting, and monic squarefree integer
polynomials by Zassenhaus's algorithm on the same quadratic Hensel lifting
that finds the local factors.  A simple block of the factorization mod p
is one prime; a repeated block phibar^m is factored by Montes' algorithm to
order 2 (`montes`, imported only for a repeated block), which owns the
Newton polygons and the order of a block's primes.
"""

from itertools import combinations, count
from math import gcd, isqrt
from operator import mul

from . import polyq
from .linalg import det, lowest, solve
from .errors import (
    ReduciblePolynomial,
    PrecisionExhausted,
    NegativeValuation,
)

_UNKNOWN = object()   # a LocalElement valuation not yet found


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

class NumberField:
    """Q[y]/(minpoly) with minpoly monic, integral, irreducible."""

    def __init__(self, minpoly):
        coeffs = [int(c) for c in minpoly]
        coeffs = polyq.trim(coeffs)
        if len(coeffs) < 2:
            raise ReduciblePolynomial("minimal polynomial must be nonconstant")
        if coeffs[-1] != 1:
            raise ReduciblePolynomial("minimal polynomial must be monic")
        self.minpoly = tuple(coeffs)
        self.degree = len(coeffs) - 1

    def __repr__(self):
        return "NumberField(%s)" % (list(self.minpoly),)

    def exact(self, nums, den):
        """The element sum nums[i] y^i / den, den > 0, as (nums, den) in
        lowest terms with `degree` entries in nums.  A longer vector is
        reduced modulo the minimal polynomial first, y^k being column k of
        `_power_columns`."""
        nums = list(nums)
        if len(nums) > self.degree:
            powers = _power_columns([1] + [0] * (self.degree - 1),
                                    self.minpoly, len(nums))
            nums = [sum(map(mul, row, nums)) for row in zip(*powers)]
        nums += [0] * (self.degree - len(nums))
        (nums,), den = lowest([nums], den)
        return nums, den

    def inverse_matrix(self, nums, den):
        """(m, d) with m an integer matrix: for x = nums / den nonzero, the
        power-basis coefficients of x^-1 * z are (m z) / d for those of z.
        1 / x is den times the solve (inv, d) of `_inverse_mod` on nums,
        put in lowest terms.  The minimal polynomial is monic and integral,
        so every column of `_power_columns` stays integral over d."""
        inv = _inverse_mod(nums, self.minpoly)
        if inv is None:
            raise ReduciblePolynomial("minimal polynomial is not irreducible "
                                      "or the element is zero")
        (inv,), d = lowest([[c * den for c in inv[0]]], inv[1])
        cols = _power_columns(inv, self.minpoly, self.degree)
        return [list(row) for row in zip(*cols)], d


def _power_columns(col, f, n):
    """The n columns col, y col, ..., y^(n-1) col modulo the monic f, col
    of length deg f: multiplying by y shifts the coefficients up and
    replaces y^(deg f) by y^(deg f) - f."""
    cols = [list(col)]
    low = f[:-1]
    for _ in range(1, n):
        top = cols[-1][-1]
        cols.append([c - top * m for c, m in zip([0] + cols[-1][:-1], low)])
    return cols


def _norm(vec, f):
    """The norm of x = sum vec[i] y^i from Z[y]/(f), f monic and vec of
    at most deg f integers: the determinant of multiplication by x, read
    from its columns (`_power_columns`).  It equals the resultant
    Res(f, x), sign included, and is 0 when x and f share a factor."""
    d = len(f) - 1
    return det(_power_columns(list(vec) + [0] * (d - len(vec)), f, d))


def _inverse_mod(vec, f):
    """The coefficients of 1 / x in Q[y]/(f), x = sum vec[i] y^i and f
    monic of degree len(vec), as (integers, den) in lowest terms: one solve
    of M z = (1, 0, ...) for the multiplication matrix M of x; None when x
    and f share a factor."""
    d = len(vec)
    rows = [list(row) for row in zip(*_power_columns(vec, f, d))]
    return solve(rows, [1] + [0] * (d - 1))


# ---------------------------------------------------------------------------
# finite fields F_p[t]/(u)
# ---------------------------------------------------------------------------

class FF:
    """The finite field F_p[t]/(modpoly) with modpoly irreducible mod p."""

    def __init__(self, p, modpoly):
        self.p = p
        mod = polyq.trim([c % p for c in modpoly])
        self.modpoly = tuple(polyq.scale_mod(mod, pow(mod[-1], -1, p), p))
        self.degree = len(self.modpoly) - 1

    def __eq__(self, other):
        return (isinstance(other, FF) and self.p == other.p
                and self.modpoly == other.modpoly)

    def __hash__(self):
        return hash((self.p, self.modpoly))

    def __repr__(self):
        return "FF(%d, %s)" % (self.p, list(self.modpoly))

    def element(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        vec = [c % self.p for c in coeffs]
        # a vector of at most `degree` coefficients is already reduced
        if len(vec) > self.degree:
            vec = polyq.rem_monic(vec, self.modpoly, self.p)
        vec += [0] * (self.degree - len(vec))
        return FFElement(self, tuple(vec))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def elements(self):
        """All field elements, in the order of the integers sum c_i p^i:
        the lowest coefficient varies fastest."""
        vec = [0] * self.degree
        while True:
            yield FFElement(self, tuple(vec))
            i = 0
            while i < self.degree and vec[i] == self.p - 1:
                vec[i] = 0
                i += 1
            if i == self.degree:
                return
            vec[i] += 1


def _residue_homs(source_field, target_field):
    """All field maps F_(p^a) -> F_(p^b), as images of the generator: the
    roots of the source's modulus in the target, in `FF.elements` order."""
    return [x for x in target_field.elements()
            if _apply_hom(source_field.modpoly, x).is_zero()]


def _apply_hom(coeffs, image):
    """sum coeffs[i] image^i: for the coefficients of an element x of a
    finite field, the image of x under the map that sends t to image."""
    acc = image.parent.zero()
    for c in reversed(coeffs):
        acc = acc * image + c
    return acc


class FFElement:
    __slots__ = ("parent", "coeffs")

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = coeffs

    def __eq__(self, other):
        if isinstance(other, FFElement):
            return self.parent == other.parent and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.parent.modpoly, self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def _coerce(self, other):
        if isinstance(other, FFElement):
            if other.parent != self.parent:
                raise ValueError("elements of different finite fields")
            return other
        return self.parent.element(other)

    def __add__(self, other):
        other = self._coerce(other)
        p = self.parent.p
        return FFElement(self.parent, tuple((a + b) % p for a, b in
                                            zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.parent.p
        return FFElement(self.parent, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.parent.p
            return FFElement(self.parent,
                             tuple((a * other) % p for a in self.coeffs))
        other = self._coerce(other)
        return self.parent.element(polyq.mul(self.coeffs, other.coeffs))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in finite field")
        g, s, _ = polyq.fp_xgcd(self.coeffs, self.parent.modpoly,
                                self.parent.p)
        assert g == [1]
        return self.parent.element(s)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, n):
        assert n >= 0
        result = self.parent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return "FFElement(%s)" % (list(self.coeffs),)

    def __str__(self):
        return "+".join("%d*t^%d" % (c, j)
                        for j, c in enumerate(self.coeffs)) or "0"


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------

def _hensel_pair(f, g, h, p, M):
    """Lift f = g*h from mod p to mod p^M; g, h monic, coprime mod p.

    Quadratic lifting: with f = g*h and b*h = 1 mod g, all mod q, the
    corrections u (to g) and v (to h) satisfy g*v + h*u = e mod q^2 with
    deg u < deg g, deg v < deg h, where e = f - g*h; then b is lifted as an
    inverse of the new h mod the new g, by Newton's b -> b*(2 - b*h).  The
    modulus runs p, p^2, p^4, ... up to p^M.  The lift is unique, so it is
    the one a digit-by-digit lift finds.
    """
    g = polyq.trim([c % p for c in g])
    h = polyq.trim([c % p for c in h])
    b = polyq.fp_xgcd(g, h, p)[2]   # b*h = 1 mod (g, p)
    pM = p ** M
    q = p
    while q < pM:
        q = min(q * q, pM)
        e = polyq.sub_mod(f, polyq.mul(g, h), q)
        u = polyq.rem_monic(polyq.mul(e, b), g, q)
        v, r = polyq.divmod_monic(polyq.sub_mod(e, polyq.mul(h, u), q), g, q)
        assert not r, "Hensel correction failed to divide"
        g = polyq.add_mod(g, u, q)
        h = polyq.add_mod(h, v, q)
        if q < pM:
            bh = polyq.rem_monic(polyq.mul(b, h), g, q)
            b = polyq.rem_monic(polyq.mul(b, polyq.sub_mod([2], bh, q)), g, q)
    return ([c % pM for c in g] or [0]), ([c % pM for c in h] or [0])


def _hensel_blocks(f, blocks, p, M):
    """Lift pairwise-coprime monic blocks of f mod p to factors mod p^M."""
    if len(blocks) == 1:
        return [polyq.trim([c % (p ** M) for c in f])]
    first = blocks[0]
    rest_poly = [1]
    for blk in blocks[1:]:
        rest_poly = polyq.mul_mod(rest_poly, blk, p)
    g, h = _hensel_pair(f, first, rest_poly, p, M)
    return [g] + _hensel_blocks(h, blocks[1:], p, M)


# ---------------------------------------------------------------------------
# factoring over F_p and over Z
# ---------------------------------------------------------------------------

def _fp_powmod(a, e, f, p):
    """a^e modulo the monic f in F_p[y]."""
    out, a = [1], polyq.rem_monic(a, f, p)
    while e:
        if e & 1:
            out = polyq.rem_monic(polyq.mul(out, a), f, p)
        e >>= 1
        if e:
            a = polyq.rem_monic(polyq.mul(a, a), f, p)
    return out


def _fp_squarefree(f, p):
    """[(g, m)] with f = prod g^m, the g monic, squarefree and coprime.

    f is monic. The loop splits off the factors whose multiplicity is prime
    to p; what remains is a p-th power, whose root is taken coefficientwise.
    """
    c = polyq.fp_xgcd(f, polyq.derivative(f), p)[0]
    w = polyq.divmod_monic(f, c, p)[0]
    out = []
    m = 1
    while len(w) > 1:
        y = polyq.fp_xgcd(w, c, p)[0]
        z = polyq.divmod_monic(w, y, p)[0]
        if len(z) > 1:
            out.append((z, m))
        w, c = y, polyq.divmod_monic(c, y, p)[0]
        m += 1
    if len(c) > 1:
        out.extend((g, k * p) for g, k in _fp_squarefree(c[::p], p))
    return out


def _fp_ddf(f, p):
    """[(g, d)]: g the product of the degree-d irreducible factors of f.

    f is monic and squarefree. For any monic f, the result is [(f, deg f)]
    exactly when f is irreducible: a reducible f has an irreducible factor
    of degree at most deg f / 2, which the loop finds.
    """
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _fp_powmod(h, p, f, p)
        g = polyq.fp_xgcd(f, polyq.sub_mod(h, [0, 1], p), p)[0]
        if len(g) > 1:
            out.append((g, d))
            f = polyq.divmod_monic(f, g, p)[0]
            h = polyq.rem_monic(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _fp_edf(f, d, p):
    """The irreducible factors of f, a product of distinct ones of degree d.

    Cantor-Zassenhaus with the trial polynomials a whose base-p digits are
    p, p + 1, p + 2, ... in turn: each splits f through gcd(f, a) or
    gcd(f, a^((p^d - 1)/2) - 1) with probability about 1/2, and by the
    Chinese remainder theorem some a below p^(deg f) splits it.
    """
    if len(f) - 1 == d:
        return [f]
    half = (p ** d - 1) // 2
    for code in count(p):
        a = []
        while code:
            code, digit = divmod(code, p)
            a.append(digit)
        b = polyq.sub_mod(_fp_powmod(a, half, f, p), [1], p)
        for g in (polyq.fp_xgcd(f, a, p)[0], polyq.fp_xgcd(f, b, p)[0]):
            if 1 < len(g) < len(f):
                return _fp_edf(g, d, p) + \
                    _fp_edf(polyq.divmod_monic(f, g, p)[0], d, p)


def fp_factor(f, p):
    """Monic irreducible factors of f over F_p, p odd, with multiplicities.

    Square-free, then distinct-degree, then equal-degree factorization.
    Factors come by degree, then by coefficients from the leading one down.
    """
    f = polyq.trim([c % p for c in f])
    f = polyq.scale_mod(f, pow(f[-1], -1, p), p)
    out = []
    for part, mult in _fp_squarefree(f, p):
        for g, d in _fp_ddf(part, p):
            out.extend((h, mult) for h in _fp_edf(g, d, p))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0][::-1]))


def _zassenhaus_prime(g):
    """The least odd prime l with g squarefree mod l, and g's factors mod l."""
    dg = polyq.derivative(g)
    for ell in count(3, 2):
        if prime_divisors(ell) == [ell] and \
                len(polyq.fp_xgcd(g, dg, ell)[0]) == 1:
            return ell, [h for h, _ in fp_factor(g, ell)]


def factor_monic_int(g):
    """Irreducible factors over Z of a monic squarefree integer polynomial.

    Zassenhaus: factor g mod the least odd prime l at which it stays
    squarefree, lift the factors to l^k > 2B (B = 2^deg g * |g|_2 bounds
    every coefficient of a factor, after Mignotte), and try products of
    lifted factors, smallest subsets first.  A candidate is accepted when
    its quotient mod l^k, lifted to the symmetric range, times the
    candidate gives g exactly: a true factor's cofactor is bounded by B too.
    Factors come in the order they are found; the last is the cofactor.
    Raises ValueError when g is not squarefree, that is when the norm of
    g' over g is 0: no prime l would do then.
    """
    if _norm(polyq.derivative(g), g) == 0:
        raise ValueError("polynomial is not squarefree")
    ell, mod_factors = _zassenhaus_prime(g)
    if len(mod_factors) == 1:
        return [list(g)]
    bound = 2 ** (len(g) - 1) * (isqrt(sum(c * c for c in g)) + 1)
    k = 1
    while ell ** k <= 2 * bound:
        k += 1
    q = ell ** k
    lifted = _hensel_blocks([c % q for c in g], mod_factors, ell, k)
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = [1]
            for i in subset:
                cand = polyq.mul_mod(cand, lifted[i], q)
            quo = polyq.divmod_monic(g, cand, q)[0]
            cand, quo = ([c - q if 2 * c > q else c for c in u]
                         for u in (cand, quo))
            if polyq.mul(cand, quo) == g:
                factors.append(cand)
                g = quo
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return factors + [g]


# ---------------------------------------------------------------------------
# p-adic embeddings
# ---------------------------------------------------------------------------

class _Level:
    """The normalizations shared by orders 1 and 2: p^alpha phi^beta, with
    e alpha + h beta = w and 0 <= beta < e, has value w (`norm`), and its
    quotients of value 0 have residues powers of z (`zpow`)."""

    def beta(self, w):
        return w * pow(self.h, -1, self.e) % self.e

    def norm(self, w):
        beta = self.beta(w)
        return (w - beta * self.h) // self.e, beta

    def zpow(self, k):
        return self.z ** k if k >= 0 else self.z.inverse() ** -k


class _Order1(_Level):
    """The type of order 1: v_p and the residues mod (p, phibar) of integer
    polynomials of degree below deg phibar; e = 1 and h = 0, so p^w has
    value w.  It reads a prime whose local factor is phibar mod p, and is
    the lowest level of every type of `montes`, which works mod p^B."""

    order, e, h, phi = 1, 1, 0, None

    def __init__(self, p, phibar, B):
        self.p, self.pB = p, p ** B
        self.F = FF(p, phibar)
        self.z = self.F.one()

    def val(self, a):
        return min(_vp(c, self.p) for c in a if c)

    def res(self, a, w):
        return self.F.element([c // self.p ** w for c in a])

    def lift(self, r, w):
        return [self.p ** w * c for c in r.coeffs]


class PAdicEmbedding:
    """One prime above p in a number field, with explicit local data.

    Attributes: field, p, M (absolute precision), local_factor (monic, as an
    int tuple mod p^M, lowest degree first), e (ramification index),
    residue_degree, residue_field (an FF), index (position in primes_above).

    vtype is the prime's type, which reads valuations (in units of 1 / e)
    and residues: `_Order1` when the local factor is irreducible mod p, and
    the type that found the prime otherwise (`montes`).  When f > deg phibar
    a residue in vtype.F = F_p[t]/(psi) is mapped into F_p[t]/(u) by sending
    the first root of u in vtype.F (in `FF.elements` order) to t.

    The reduction matrix, built once per embedding, has in column k the
    coefficients of y^k mod (local factor, p^M) for k below the field
    degree, so that `local_ints` reduces a power-basis vector of the field
    with one integer matrix-vector product (none when the local degree is
    the field degree and the matrix is the identity).
    """

    def __init__(self, field, p, M, local_factor, e, residue_degree,
                 residue_modpoly, index, vtype):
        self.field = field
        self.p = p
        self.M = M
        self.pM = p ** M
        self.local_factor = tuple(int(c) % self.pM for c in local_factor)
        self.e = e
        self.residue_degree = residue_degree
        self.residue_field = FF(p, residue_modpoly)
        self.residue_modpoly = list(residue_modpoly)
        self.vtype = vtype
        self.index = index
        self.degree = len(self.local_factor) - 1
        assert self.e * self.residue_degree == self.degree
        # the identity when the prime is the only one above p
        self._reduction = (None if self.degree == field.degree
                           else self._reduction_rows())
        # f > deg phibar exactly when u does not divide the local factor
        # mod p, which is a power of phibar
        F = self.residue_field
        self._t_image = None
        if polyq.rem_monic(self.local_factor, F.modpoly, p):
            root = _residue_homs(F, vtype.F)[0]
            t = vtype.F.element([0, 1])
            self._t_image = next(s for s in _residue_homs(vtype.F, F)
                                 if _apply_hom(s.coeffs, root) == t)
        self._at = {}

    def at(self, M):
        """This prime read mod p^M, M at most its precision: the same index,
        type and residue field, built once per M."""
        assert M <= self.M
        if M == self.M:
            return self
        if M not in self._at:
            self._at[M] = PAdicEmbedding(
                self.field, self.p, M, self.local_factor, self.e,
                self.residue_degree, self.residue_modpoly, self.index,
                self.vtype)
        return self._at[M]

    def _reduction_rows(self):
        """Rows of the integer matrix whose column k is y^k mod
        (local factor, p^M), for k below the field degree."""
        cols = _power_columns([1] + [0] * (self.degree - 1),
                              self.local_factor, self.field.degree)
        return [tuple(c % self.pM for c in row) for row in zip(*cols)]

    def __repr__(self):
        return ("PAdicEmbedding(p=%d, e=%d, f=%d, M=%d, index=%d)"
                % (self.p, self.e, self.residue_degree, self.M, self.index))

    # -- embedding of exact elements -------------------------------------

    def local(self, r):
        """Embed the integer r as a LocalElement."""
        return self.local_ints([r], 1)

    def local_ints(self, nums, den):
        """Embed the field element with power-basis coefficients nums / den.

        nums are integers (at most the field degree of them) and den > 0.
        The content gcd(den, nums) is divided out first, so every
        representation of one element embeds alike: with den = p^t u, p not
        dividing u, the vector is the reduction matrix times nums, times
        u^-1 mod p^M, the shift t and the precision M - t.
        """
        g = gcd(den, *nums)
        if g > 1:
            nums = [c // g for c in nums]
            den //= g
        p, pM = self.p, self.pM
        t = 0
        while den % p == 0:
            den //= p
            t += 1
        if self._reduction is not None:
            nums = [sum(map(mul, row, nums)) for row in self._reduction]
        if den > 1:
            dinv = pow(den, -1, pM)
            nums = [c * dinv for c in nums]
        return LocalElement(self, nums, t, self.M)


class LocalElement:
    """Truncated local-field element vec * p^(-shift), vec in (Z/p^M)[y]/(H).

    prec is the certified absolute precision: the representation agrees with
    the true element up to an error of valuation >= prec.  It is an exact
    int, and a Fraction only where a valuation of a ramified prime (e > 1)
    enters it; `fractions` is imported there only, so a job whose primes
    are unramified does not load it.
    It never exceeds M - shift for the shift the element is built with:
    vec is known mod p^M, and dividing a vector divisible by p down to a
    smaller shift adds no digits.
    An embedded exact element thus has precision M - v_p(den), and exact
    values are embedded once each (`PAdicEmbedding.local_ints`), so that
    their digits do not pass through sums of truncated terms.  A product
    x * y has precision min(prec(x) + v(y), prec(y) + v(x), M); an int
    factor is embedded first (`PAdicEmbedding.local`).
    """

    __slots__ = ("emb", "vec", "shift", "prec", "_raw")

    def __init__(self, emb, vec, shift, prec):
        self.emb = emb
        pM = emb.pM
        # vec has at most the local degree in coefficients: embedded field
        # elements are reduced by the embedding's reduction matrix
        vec = [c % pM for c in vec]
        vec += [0] * (emb.degree - len(vec))
        # vec is known mod p^M, so the element is known to M - shift; the
        # cap is taken before the shift is normalized, because vec / p is
        # known only mod p^(M - 1)
        cap = emb.M - shift
        self.prec = prec if prec < cap else cap
        # normalize the shift away when the numerator is divisible by p
        p = emb.p
        while shift > 0 and any(vec) and all(c % p == 0 for c in vec):
            vec = [c // p for c in vec]
            shift -= 1
        self.vec = tuple(vec)
        self.shift = shift
        self._raw = _UNKNOWN

    def _raw_valuation(self):
        """Valuation of the numerator vector, or None if it is 0 mod p^M;
        found once per element, which is never changed after it is built."""
        if self._raw is _UNKNOWN:
            self._raw = self._numerator_valuation()
        return self._raw

    def _numerator_valuation(self):
        emb = self.emb
        if not any(self.vec):
            return None
        # read through the prime's type in units of 1 / e; the numerator is
        # known mod p^M, so its valuation is certified below M
        w = emb.vtype.val(self.vec)
        if w >= emb.e * emb.M:
            return None
        if emb.e == 1:
            return w
        from fractions import Fraction
        return Fraction(w, emb.e)

    def valuation(self):
        raw = self._raw_valuation()
        if raw is None or raw - self.shift >= self.prec:
            raise PrecisionExhausted(
                "valuation >= %s cannot be certified at precision %d"
                % (self.prec, self.emb.M))
        return raw - self.shift

    def certified_valuation(self, floor=0):
        """The valuation when it is below the certified precision, else
        None: the element vanishes to that precision.

        Raises PrecisionExhausted when the certified precision is below
        `floor`, so that identity checks never silently pass with no digits.
        """
        if self.prec < floor:
            raise PrecisionExhausted(
                "certified precision %s below required floor %s"
                % (self.prec, floor))
        raw = self._raw_valuation()
        if raw is None or raw - self.shift >= self.prec:
            return None
        return raw - self.shift

    def is_zero_to_precision(self, floor=0):
        """True when the element vanishes to its certified precision."""
        return self.certified_valuation(floor) is None

    def _coerce(self, other):
        if isinstance(other, LocalElement):
            if other.emb is not self.emb and other.emb.local_factor != self.emb.local_factor:
                raise ValueError("elements of different embeddings")
            return other
        return self.emb.local(other)

    def __add__(self, other):
        other = self._coerce(other)
        emb = self.emb
        s = max(self.shift, other.shift)
        a = polyq.scale_mod(self.vec, emb.p ** (s - self.shift), emb.pM)
        b = polyq.scale_mod(other.vec, emb.p ** (s - other.shift), emb.pM)
        return LocalElement(emb, polyq.add_mod(a, b, emb.pM), s,
                            min(self.prec, other.prec))

    def __neg__(self):
        return LocalElement(self.emb, [(-c) % self.emb.pM for c in self.vec],
                            self.shift, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        emb = self.emb
        vec = polyq.rem_monic(polyq.mul(self.vec, other.vec),
                              emb.local_factor, emb.pM)
        va = self._raw_valuation()
        vb = other._raw_valuation()
        big = emb.M
        va = big if va is None else va - self.shift
        vb = big if vb is None else vb - other.shift
        prec = min(self.prec + vb, other.prec + va, big)
        return LocalElement(emb, vec, self.shift + other.shift, prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self):
        emb = self.emb
        v = self.valuation()
        # invert the numerator in Q[y]/(H); the p-part of the denominator
        # of its inverse becomes the shift of the result
        s = _inverse_mod(self.vec, emb.local_factor)
        if s is None:
            raise PrecisionExhausted(
                "numerator shares a factor with the local factor; "
                "raise the working precision")
        nums, den = s
        t = _vp(den, emb.p)
        u = pow(den // emb.p ** t, -1, emb.pM) * emb.p ** self.shift
        vec = [c * u for c in nums]
        # 1/x = (numerator inverse) * p^shift; error of 1/x has valuation
        # at least prec(x) - 2 v(x)
        return LocalElement(emb, vec, t, self.prec - 2 * v)

    def reduce(self, t=0):
        """Image of self / p^t in the residue field; requires nonnegative
        valuation.  self / p^t has the digits of self with t added to the
        shift, certified to t fewer digits, and its residue is read from
        those digits through the prime's type, with no element formed.
        """
        emb = self.emb
        shift, prec = self.shift + t, self.prec - t
        raw = self._raw_valuation()
        if raw is None or raw - shift >= prec:
            # zero to precision reduces to zero
            if prec <= 0:
                raise PrecisionExhausted(
                    "no certified digits remain for reduction")
            return emb.residue_field.zero()
        if raw < shift:
            raise NegativeValuation("element has valuation %s" % (raw - shift))
        r = emb.vtype.res(self.vec, emb.e * shift)
        if emb._t_image is None:
            return r
        return _apply_hom(r.coeffs, emb._t_image)

    def __repr__(self):
        return ("LocalElement(%s * %d^-%d, prec=%s)"
                % (list(self.vec), self.emb.p, self.shift, self.prec))


def prime_divisors(n):
    """The distinct primes dividing n, increasing; empty for n < 2."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def primes_up_to(bound):
    """The primes q <= bound, increasing."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, bound + 1, q)))
    return [q for q in range(bound + 1) if sieve[q]]


def _vp(n, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def primes_above(field, p, M):
    """All primes of the field above p, as PAdicEmbedding objects.

    One embedding per irreducible p-adic factor of the minimal polynomial,
    block by block in the order of `fp_factor`, each block phibar^m lifted
    against the product of the others (`_hensel_pair`).  A block simple
    mod p is one unramified prime, of type `_Order1`.  A repeated block is
    factored by `montes.factor_block`, which lifts it to the precision its
    polygons and Newton steps need, types each prime, and raises
    PrecisionTooLow for a block that needs order 3.
    """
    if p == 2 or prime_divisors(p) != [p]:
        raise ValueError("p must be an odd prime")
    if M < 1:
        raise ValueError("precision must be at least 1")
    fbar = polyq.trim([c % p for c in field.minpoly])
    # (local factor, e, f, residue modpoly, type) per prime, in the shape
    # `montes.factor_block` returns
    factors = []
    for gbar, mult in fp_factor(fbar, p):
        blk = [1]
        for _ in range(mult):
            blk = polyq.mul_mod(blk, gbar, p)
        rest = polyq.divmod_monic(fbar, blk, p)[0]

        def lift(B, blk=blk, rest=rest):
            return _hensel_pair(field.minpoly, blk, rest, p, B)[0]

        if mult == 1:
            factors.append((lift(M), 1, len(gbar) - 1, gbar,
                            _Order1(p, gbar, M)))
        else:
            from . import montes
            factors.extend(montes.factor_block(lift, gbar, mult, p, M))
    result = [PAdicEmbedding(field, p, M, G, e, f, rbar, j, vtype)
              for j, (G, e, f, rbar, vtype) in enumerate(factors)]
    total = sum(emb.e * emb.residue_degree for emb in result)
    assert total == field.degree
    return result


def teichmuller(p, a, M):
    """The (p-1)-st root of unity congruent to a mod p, as an int mod p^M."""
    if not (1 <= a % p <= p - 1):
        raise ValueError("a must be a unit mod p")
    if M < 1:
        raise ValueError("precision must be at least 1")
    pM = p ** M
    x = a % pM
    for _ in range(M + 2):
        x = pow(x, p, pM)
    assert pow(x, p - 1, pM) == 1
    return x
