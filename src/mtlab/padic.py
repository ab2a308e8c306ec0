"""Number fields, primes above p, valuations, residue fields, Teichmuller lifts.

A number field is Q[y]/(minpoly) with an exact Fraction-vector representation
for its elements.  A PAdicEmbedding fixes one irreducible p-adic factor of the
minimal polynomial, Hensel-lifted to precision p^M, together with its
ramification index e and residue degree f.  Valuations are exact rationals
with denominator dividing e; reductions land in an explicit finite field
F_p[t]/(u(t)).

Local (p-adic) arithmetic happens in LocalElement, a truncated representation
of an element of the local field as vec * p^(-shift) with vec in
(Z/p^M)[y]/(local_factor).  Every LocalElement tracks its certified absolute
precision so that valuations are only ever reported when certified.

Polynomials factor here too, in exact integer arithmetic: over F_p by
square-free, distinct-degree and equal-degree (Cantor-Zassenhaus) splitting,
and monic squarefree integer polynomials by Zassenhaus's algorithm on the
same Hensel lifting that finds the local factors.
"""

from fractions import Fraction
from itertools import combinations, count
from math import gcd, isqrt, lcm
from operator import mul

from . import polyq
from .errors import (
    ReduciblePolynomial,
    PrecisionTooLow,
    PrecisionExhausted,
    NegativeValuation,
)


# ---------------------------------------------------------------------------
# integer polynomial helpers modulo q (lists, lowest degree first)
# ---------------------------------------------------------------------------

def _ptrim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _padd(a, b, q):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % q
                   for i in range(n)])


def _psub(a, b, q):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % q
                   for i in range(n)])


def _pmul(a, b, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return _ptrim(out)


def _pscale(a, c, q):
    return _ptrim([(x * c) % q for x in a])


def _pdivmod_monic(a, b, q):
    """Divide a by monic b in (Z/q)[y]."""
    a = list(a)
    d = len(b) - 1
    quo = [0] * max(0, len(a) - d)
    while len(_ptrim(a)) - 1 >= d and _ptrim(a):
        a = _ptrim(a)
        if len(a) - 1 < d:
            break
        c = a[-1] % q
        k = len(a) - 1 - d
        quo[k] = c
        for i in range(d + 1):
            a[k + i] = (a[k + i] - c * b[i]) % q
        a[-1] = 0
    return _ptrim([x % q for x in quo]), _ptrim([x % q for x in a])


def _pmod(a, b, q):
    return _pdivmod_monic(a, b, q)[1]


def _fp_inv(a, p):
    return pow(a % p, p - 2, p)


def _fp_xgcd(a, b, p):
    """Extended gcd in F_p[y]: returns (g, s, t) monic g with s*a + t*b = g."""
    r0, r1 = _ptrim([x % p for x in a]), _ptrim([x % p for x in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        quo, rem = _pdivmod_monic_field(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _psub(s0, _pmul(quo, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(quo, t1, p), p)
    if r0:
        c = _fp_inv(r0[-1], p)
        r0 = _pscale(r0, c, p)
        s0 = _pscale(s0, c, p)
        t0 = _pscale(t0, c, p)
    return r0, s0, t0


def _pdivmod_monic_field(a, b, p):
    """Division in F_p[y] with arbitrary nonzero leading coefficient."""
    inv = _fp_inv(b[-1], p)
    bm = _pscale(b, inv, p)
    quo, rem = _pdivmod_monic(a, bm, p)
    return _pscale(quo, inv, p), rem


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

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return "NumberField(%s)" % (list(self.minpoly),)

    def element(self, coeffs):
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            vec = [Fraction(c) for c in
                   polyq.mod(vec, list(self.minpoly))]
        vec += [Fraction(0)] * (self.degree - len(vec))
        return NFElement(self, tuple(vec))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def gen(self):
        if self.degree == 1:
            return self.element([-self.minpoly[0]])
        return self.element([0, 1])

    def from_rational(self, r):
        return self.element([Fraction(r)])


class NFElement:
    """Element of a NumberField as a Fraction vector in the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __eq__(self, other):
        if isinstance(other, NFElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self.field.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.minpoly, self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        return NFElement(self.field, tuple(a + b for a, b in
                                           zip(self.coeffs, other.coeffs)))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, NFElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.from_rational(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElement(self.field, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        prod = polyq.mul(list(self.coeffs), list(other.coeffs))
        prod = polyq.mod(prod, list(self.field.minpoly))
        prod = [Fraction(c) for c in prod]
        prod += [Fraction(0)] * (self.field.degree - len(prod))
        return NFElement(self.field, tuple(prod))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        g, u, _ = polyq.xgcd(list(self.coeffs), list(self.field.minpoly))
        if len(g) != 1:
            raise ReduciblePolynomial("minimal polynomial is not irreducible")
        inv = polyq.mod(u, list(self.field.minpoly))
        inv = [Fraction(c) for c in inv]
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        return NFElement(self.field, tuple(inv))

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __repr__(self):
        return "NFElement(%s)" % (list(self.coeffs),)


# ---------------------------------------------------------------------------
# finite fields F_p[t]/(u)
# ---------------------------------------------------------------------------

class FF:
    """The finite field F_p[t]/(modpoly) with modpoly irreducible mod p."""

    def __init__(self, p, modpoly):
        self.p = p
        mod = _ptrim([c % p for c in modpoly])
        inv = _fp_inv(mod[-1], p)
        self.modpoly = tuple(_pscale(mod, inv, p))
        self.degree = len(self.modpoly) - 1

    def __eq__(self, other):
        return (isinstance(other, FF) and self.p == other.p
                and self.modpoly == other.modpoly)

    def __hash__(self):
        return hash((self.p, self.modpoly))

    def __repr__(self):
        return "FF(%d, %s)" % (self.p, list(self.modpoly))

    @property
    def size(self):
        return self.p ** self.degree

    def element(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        vec = [c % self.p for c in coeffs]
        # a vector of at most `degree` coefficients is already reduced
        if len(vec) > self.degree:
            vec = _pmod(vec, list(self.modpoly), self.p)
        vec += [0] * (self.degree - len(vec))
        return FFElement(self, tuple(vec))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def gen(self):
        if self.degree == 1:
            return self.element([(-self.modpoly[0]) % self.p])
        return self.element([0, 1])

    def elements(self):
        """All field elements, in lexicographic coefficient order."""
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


class FFElement:
    __slots__ = ("parent", "coeffs")

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = coeffs

    def __eq__(self, other):
        if isinstance(other, FFElement):
            return self.parent == other.parent and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.parent.element(other)
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

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = self.parent.p
        return FFElement(self.parent, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.parent.p
            return FFElement(self.parent,
                             tuple((a * other) % p for a in self.coeffs))
        other = self._coerce(other)
        return self.parent.element(
            _pmul(list(self.coeffs), list(other.coeffs), self.parent.p))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in finite field")
        g, s, _ = _fp_xgcd(list(self.coeffs), list(self.parent.modpoly),
                           self.parent.p)
        assert g == [1]
        return self.parent.element(s)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.parent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def minimal_polynomial(self):
        """Minimal polynomial over F_p, as a monic int list (lowest first)."""
        p = self.parent.p
        powers = [self.parent.one()]
        for _ in range(self.parent.degree):
            powers.append(powers[-1] * self)
        # find the first linear dependence among 1, x, x^2, ...
        for d in range(1, self.parent.degree + 1):
            rows = [list(powers[i].coeffs) for i in range(d)]
            target = [c % p for c in powers[d].coeffs]
            sol = _fp_solve(rows, target, p)
            if sol is not None:
                return [(-c) % p for c in sol] + [1]
        raise AssertionError("no minimal polynomial found")

    def __repr__(self):
        return "FFElement(%s)" % (list(self.coeffs),)


def _fp_solve(rows, target, p):
    """Solve sum c_i rows[i] = target over F_p; None if inconsistent."""
    m = len(rows)
    if m == 0:
        return [] if all(t % p == 0 for t in target) else None
    n = len(target)
    aug = [[rows[i][j] % p for i in range(m)] + [target[j] % p]
           for j in range(n)]
    piv = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if aug[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = _fp_inv(aug[r][c], p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][m] % p:
            return None
    sol = [0] * m
    for i, c in enumerate(piv):
        sol[c] = aug[i][m]
    return sol


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------

def _hensel_pair(f, g, h, p, M):
    """Lift f = g*h from mod p to mod p^M; g, h monic, coprime mod p.

    Linear lifting, one base-p digit per step: with f = g*h mod p^m, the
    corrections u (to g) and v (to h) satisfy g*v + h*u = e mod p with
    deg u < deg g, deg v < deg h, where e = (f - g*h)/p^m.
    """
    g = _ptrim([c % p for c in g])
    h = _ptrim([c % p for c in h])
    _, a, b = _fp_xgcd(g, h, p)  # a*g + b*h = 1 mod p
    for m in range(1, M):
        q2 = p ** (m + 1)
        err = _psub([c % q2 for c in f], _pmul(g, h, q2), q2)
        e0 = _ptrim([(c // p ** m) % p for c in err])
        if not e0:
            continue
        _, u0 = _pdivmod_monic_field(_pmul(e0, b, p), g, p)
        num = _psub(e0, _pmul(h, u0, p), p)
        v0, r0 = _pdivmod_monic_field(num, g, p)
        assert not r0, "Hensel correction failed to divide"
        g = _padd([c % q2 for c in g], _pscale(u0, p ** m, q2), q2)
        h = _padd([c % q2 for c in h], _pscale(v0, p ** m, q2), q2)
    pM = p ** M
    return ([c % pM for c in g] or [0]), ([c % pM for c in h] or [0])


def _hensel_blocks(f, blocks, p, M):
    """Lift pairwise-coprime monic blocks of f mod p to factors mod p^M."""
    if len(blocks) == 1:
        return [_ptrim([c % (p ** M) for c in f])]
    first = blocks[0]
    rest_poly = [1]
    for blk in blocks[1:]:
        rest_poly = _pmul(rest_poly, blk, p)
    g, h = _hensel_pair(f, first, rest_poly, p, M)
    return [g] + _hensel_blocks(h, blocks[1:], p, M)


# ---------------------------------------------------------------------------
# factoring over F_p and over Z
# ---------------------------------------------------------------------------

def _fp_powmod(a, e, f, p):
    """a^e modulo the monic f in F_p[y]."""
    out, a = [1], _pmod(a, f, p)
    while e:
        if e & 1:
            out = _pmod(_pmul(out, a, p), f, p)
        e >>= 1
        if e:
            a = _pmod(_pmul(a, a, p), f, p)
    return out


def _fp_squarefree(f, p):
    """[(g, m)] with f = prod g^m, the g monic, squarefree and coprime.

    f is monic. The loop splits off the factors whose multiplicity is prime
    to p; what remains is a p-th power, whose root is taken coefficientwise.
    """
    c = _fp_xgcd(f, polyq.derivative(f), p)[0]
    w = _pdivmod_monic(f, c, p)[0]
    out = []
    m = 1
    while len(w) > 1:
        y = _fp_xgcd(w, c, p)[0]
        z = _pdivmod_monic(w, y, p)[0]
        if len(z) > 1:
            out.append((z, m))
        w, c = y, _pdivmod_monic(c, y, p)[0]
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
        g = _fp_xgcd(f, _psub(h, [0, 1], p), p)[0]
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod_monic(f, g, p)[0]
            h = _pmod(h, f, p)
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
        for g in (_fp_xgcd(f, a, p)[0],
                  _fp_xgcd(f, _psub(_fp_powmod(a, half, f, p), [1], p), p)[0]):
            if 1 < len(g) < len(f):
                return _fp_edf(g, d, p) + \
                    _fp_edf(_pdivmod_monic(f, g, p)[0], d, p)


def fp_factor(f, p):
    """Monic irreducible factors of f over F_p, p odd, with multiplicities.

    Square-free, then distinct-degree, then equal-degree factorization.
    Factors come by degree, then by coefficients from the leading one down.
    """
    f = _ptrim([c % p for c in f])
    f = _pscale(f, _fp_inv(f[-1], p), p)
    out = []
    for part, mult in _fp_squarefree(f, p):
        for g, d in _fp_ddf(part, p):
            out.extend((h, mult) for h in _fp_edf(g, d, p))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0][::-1]))


def _zassenhaus_prime(g):
    """The least odd prime l with g squarefree mod l, and g's factors mod l."""
    dg = polyq.derivative(g)
    for ell in count(3, 2):
        if prime_divisors(ell) == [ell] and len(_fp_xgcd(g, dg, ell)[0]) == 1:
            return ell, [h for h, _ in fp_factor(g, ell)]


def factor_monic_int(g):
    """Irreducible factors over Z of a monic squarefree integer polynomial.

    Zassenhaus: factor g mod the least odd prime l at which it stays
    squarefree, lift the factors to l^k > 2B (B = 2^deg g * |g|_2 bounds
    every coefficient of a factor, after Mignotte), and try products of
    lifted factors, smallest subsets first, by exact division.
    Factors come in the order they are found; the last is the cofactor.
    Raises ValueError when g is not squarefree: no prime l would do then.
    """
    if polyq.resultant_int(g, polyq.derivative(g)) == 0:
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
                cand = _pmul(cand, lifted[i], q)
            cand = [c - q if 2 * c > q else c for c in cand]
            quo, rem = polyq.divmod_poly(g, cand)
            if not rem:
                factors.append(cand)
                g = [int(c) for c in quo]
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return factors + [g]


# ---------------------------------------------------------------------------
# p-adic embeddings
# ---------------------------------------------------------------------------

class PAdicEmbedding:
    """One prime above p in a number field, with explicit local data.

    Attributes: field, p, M (absolute precision), local_factor (monic, as an
    int tuple mod p^M, lowest degree first), e (ramification index),
    residue_degree, residue_field (an FF), index (position in primes_above).

    residue_gen, when not None, is a pair (coeffs, s): the residue field
    generator is represented by w = sum(coeffs[i] y^i) / p^s.  It is needed
    when the local factor is reducible mod p, because then the power basis
    of y is not integral and the residue of y generates only a subfield.
    monogenic records whether the power basis of y is a local integral
    basis (e = 1 and local factor irreducible mod p); only then can
    valuations and residues be read off the coefficients directly.

    The reduction matrix, built once per embedding, has in column k the
    coefficients of y^k mod (local factor, p^M) for k below the field
    degree, so that `local_ints` reduces a power-basis vector of the field
    with one integer matrix-vector product (none when the local degree is
    the field degree and the matrix is the identity).
    """

    def __init__(self, field, p, M, local_factor, e, residue_degree,
                 residue_modpoly, index, residue_gen=None):
        self.field = field
        self.p = p
        self.M = M
        self.pM = p ** M
        self.local_factor = tuple(int(c) % self.pM for c in local_factor)
        self.e = e
        self.residue_degree = residue_degree
        self.residue_field = FF(p, residue_modpoly)
        self.residue_modpoly = list(residue_modpoly)
        self.residue_gen = residue_gen
        self.monogenic = (e == 1 and residue_gen is None)
        self.index = index
        self.degree = len(self.local_factor) - 1
        assert self.e * self.residue_degree == self.degree
        # the identity when the prime is the only one above p
        self._reduction = (None if self.degree == field.degree
                           else self._reduction_rows())
        self._res_gen_powers = None
        if residue_gen is not None:
            self._check_residue_gen()

    def _reduction_rows(self):
        """Rows of the integer matrix whose column k is y^k mod
        (local factor, p^M), for k below the field degree."""
        d, pM = self.degree, self.pM
        cols = []
        for k in range(self.field.degree):
            if k < d:
                col = [int(i == k) for i in range(d)]
            else:
                # y * col, with y^d replaced by y^d - local factor
                top = col[-1]
                col = [(c - top * h) % pM
                       for c, h in zip([0] + col[:-1], self.local_factor)]
            cols.append(col)
        return [tuple(row) for row in zip(*cols)]

    def _check_residue_gen(self):
        coeffs, s = self.residue_gen
        if self.M <= s:
            raise PrecisionTooLow(
                "precision %d cannot represent the residue generator "
                "(denominator p^%d)" % (self.M, s))
        w = LocalElement(self, list(coeffs), s, self.M)
        if w.valuation() != 0:
            raise PrecisionTooLow("residue generator is not a unit")
        uw = w * 0
        for c in reversed(self.residue_modpoly):
            uw = uw * w + c
        raw = uw._raw_valuation()
        if raw is not None and raw - uw.shift <= 0:
            raise PrecisionTooLow(
                "residue generator does not satisfy the residue polynomial")

    def residue_generator_powers(self):
        """Powers w^0 .. w^(f-1) of the residue field generator."""
        if self._res_gen_powers is None:
            if self.residue_gen is None:
                w = LocalElement(self, [0, 1], 0, self.M)
            else:
                coeffs, s = self.residue_gen
                w = LocalElement(self, list(coeffs), s, self.M)
            pows = [self.local(1)]
            for _ in range(self.residue_degree - 1):
                pows.append(pows[-1] * w)
            self._res_gen_powers = pows
        return self._res_gen_powers

    def __repr__(self):
        return ("PAdicEmbedding(p=%d, e=%d, f=%d, M=%d, index=%d)"
                % (self.p, self.e, self.residue_degree, self.M, self.index))

    # -- embedding of exact elements -------------------------------------

    def local(self, x):
        """Embed an exact field element as a LocalElement."""
        if isinstance(x, (int, Fraction)):
            x = self.field.from_rational(x)
        if x.field != self.field:
            raise ValueError("element of a different field")
        den = lcm(*(c.denominator for c in x.coeffs))
        return self.local_ints([int(c * den) for c in x.coeffs], den)

    def local_ints(self, nums, den):
        """Embed the field element with power-basis coefficients nums / den.

        nums are integers (the field degree of them) and den > 0.  The
        content gcd(den, nums) is divided out first, so the result has the
        vector, shift and precision of `local` of the same element: with
        den = p^t u, p not dividing u, the vector is the reduction matrix
        times nums, times u^-1 mod p^M, the shift t and the precision M - t.
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

    def valuation(self, x):
        """Exact valuation of a nonzero field element, ord_p(p) = 1."""
        if isinstance(x, (int, Fraction)):
            x = self.field.from_rational(x)
        if x.is_zero():
            raise ValueError("valuation of zero is undefined")
        return self.local(x).valuation()

    def reduce(self, x):
        """Image of an integral element in the residue field."""
        if isinstance(x, (int, Fraction)):
            x = self.field.from_rational(x)
        return self.local(x).reduce()


class LocalElement:
    """Truncated local-field element vec * p^(-shift), vec in (Z/p^M)[y]/(H).

    prec is the certified absolute precision: the representation agrees with
    the true element up to an error of valuation >= prec.  It is an exact
    int, and a Fraction only where a valuation read by the norm formula (an
    embedding that is not monogenic) enters it.  It never exceeds M - shift
    for the shift the element is built with: vec is known mod p^M, and
    dividing a vector divisible by p down to a smaller shift adds no digits.
    An embedded exact element thus has precision M - v_p(den), and exact
    values are embedded once each (`PAdicEmbedding.local_ints`), so that
    their digits do not pass through sums of truncated terms.  A product
    x * y has precision min(prec(x) + v(y), prec(y) + v(x), M).  An int or
    Fraction factor r is not embedded: it counts as exact to M - v_p(den r)
    (the precision `PAdicEmbedding.local` would give it), so x * r has
    exactly the vector, shift and precision of x * emb.local(r).
    """

    __slots__ = ("emb", "vec", "shift", "prec")

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

    def _raw_valuation(self):
        """Valuation of the numerator vector, or None if it is 0 mod p^M."""
        emb = self.emb
        if not any(self.vec):
            return None
        p = emb.p
        m = min(_vp(c, p) for c in self.vec if c != 0)
        if emb.monogenic:
            return m
        # norm formula v(x) = v_p(Res(H, x)) / deg(H); the content p^m is
        # divided out first so that v_p of the remaining resultant stays
        # below the certified precision p^(M - m)
        vec = [c // p ** m for c in self.vec]
        res = polyq.resultant_int(list(emb.local_factor), vec)
        res = res % p ** (emb.M - m)
        if res == 0:
            return None
        return m + Fraction(_vp(res, p), emb.degree)

    def valuation(self):
        raw = self._raw_valuation()
        if raw is None or raw - self.shift >= self.prec:
            raise PrecisionExhausted(
                "valuation >= %s cannot be certified at precision %d"
                % (self.prec, self.emb.M))
        return raw - self.shift

    def is_zero_to_precision(self, floor=0):
        """True when the element vanishes to its certified precision.

        Raises PrecisionExhausted when the certified precision is below
        `floor`, so that identity checks never silently pass with no digits.
        """
        if self.prec < floor:
            raise PrecisionExhausted(
                "certified precision %s below required floor %s"
                % (self.prec, floor))
        raw = self._raw_valuation()
        return raw is None or raw - self.shift >= self.prec

    def _coerce(self, other):
        if isinstance(other, LocalElement):
            if other.emb is not self.emb and other.emb.local_factor != self.emb.local_factor:
                raise ValueError("elements of different embeddings")
            return other
        return self.emb.local(self.emb.field.from_rational(other))

    def __add__(self, other):
        other = self._coerce(other)
        emb = self.emb
        s = max(self.shift, other.shift)
        a = _pscale(list(self.vec), emb.p ** (s - self.shift), emb.pM)
        b = _pscale(list(other.vec), emb.p ** (s - other.shift), emb.pM)
        return LocalElement(emb, _padd(a, b, emb.pM), s,
                            min(self.prec, other.prec))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return LocalElement(self.emb, [(-c) % self.emb.pM for c in self.vec],
                            self.shift, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._mul_rational(other)
        other = self._coerce(other)
        emb = self.emb
        vec = _pmul(list(self.vec), list(other.vec), emb.pM)
        vec = _pmod(vec, list(emb.local_factor), emb.pM)
        va = self._raw_valuation()
        vb = other._raw_valuation()
        big = emb.M
        va = big if va is None else va - self.shift
        vb = big if vb is None else vb - other.shift
        prec = min(self.prec + vb, other.prec + va, big)
        return LocalElement(emb, vec, self.shift + other.shift, prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _mul_rational(self, r):
        """self * r without embedding r; equal to self * emb.local(r).

        With r = num / (p^t den'), p not dividing den', the factor is
        u p^(-t) for u = num / den' mod p^M: the product is vec * u with
        shift + t and precision min(prec + vb, M - t + va, M), where
        va = v(self) and vb = v_p(u) - t (M when u = 0 mod p^M).
        """
        if r == 1:
            return self
        emb = self.emb
        p, pM = emb.p, emb.pM
        den = r.denominator
        t = 0
        while den % p == 0:
            den //= p
            t += 1
        u = r.numerator * pow(den, -1, pM) % pM
        vec = [c * u % pM for c in self.vec]
        if u % p:
            # vb = -t, and prec <= M - shift <= M + va, so the rule gives
            # prec - t
            return LocalElement(emb, vec, self.shift + t, self.prec - t)
        # p divides u only when t = 0
        big = emb.M
        va = self._raw_valuation()
        va = big if va is None else va - self.shift
        vb = big if u == 0 else _vp(u, p)
        prec = min(self.prec + vb, big + va, big)
        return LocalElement(emb, vec, self.shift, prec)

    def divided_by_p_power(self, t):
        """self / p^t: the same digits with t added to the shift, certified
        to t fewer digits; no product is formed."""
        return LocalElement(self.emb, self.vec, self.shift + t, self.prec - t)

    def inverse(self):
        emb = self.emb
        v = self.valuation()
        # invert the numerator in Q[y]/(H); the p-part of the denominator
        # of the Bezout coefficient becomes the shift of the result
        g, s, _ = polyq.xgcd([Fraction(c) for c in self.vec],
                             [Fraction(c) for c in emb.local_factor])
        if len(g) != 1 or g[0] != 1:
            raise PrecisionExhausted(
                "numerator shares a factor with the local factor; "
                "raise the working precision")
        den = 1
        for c in s:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in s]
        t = 0
        while den % emb.p == 0:
            den //= emb.p
            t += 1
        dinv = pow(den % emb.pM, -1, emb.pM)
        vec = _pmod([(c * dinv) % emb.pM for c in ints],
                    list(emb.local_factor), emb.pM)
        # 1/x = (numerator inverse) * p^shift; error of 1/x has valuation
        # at least prec(x) - 2 v(x)
        prec = self.prec - 2 * v
        if self.shift:
            vec = _pscale(vec, pow(emb.p, self.shift, emb.pM), emb.pM)
        return LocalElement(emb, vec, t, prec)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def reduce(self):
        """Image in the residue field; requires nonnegative valuation."""
        emb = self.emb
        try:
            v = self.valuation()
            if v < 0:
                raise NegativeValuation("element has valuation %s" % v)
        except PrecisionExhausted:
            v = None  # zero to precision reduces to zero
        F = emb.residue_field
        if v is None:
            if self.prec <= 0:
                raise PrecisionExhausted(
                    "no certified digits remain for reduction")
            return F.zero()
        if emb.monogenic:
            p = emb.p
            ps = p ** self.shift
            vec = [(c // ps) % p for c in self.vec]
            return F.element(vec)
        # general case: search for the residue among lifts built from the
        # residue field generator (the power basis need not be integral,
        # so coefficients cannot be read off directly)
        pows = emb.residue_generator_powers()
        for cand in F.elements():
            lift = emb.local(0)
            for a, w in zip(cand.coeffs, pows):
                if int(a):
                    lift = lift + int(a) * w
            diff = self - lift
            raw = diff._raw_valuation()
            if raw is None or raw - diff.shift > 0:
                return cand
        raise PrecisionExhausted("no residue found at current precision")

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

    One embedding per irreducible p-adic factor of the minimal polynomial.
    Factors that are irreducible mod p give unramified primes directly.
    Repeated factors are analyzed through a one-level Newton polygon over
    the residue extension; only the single-segment case with coprime slope
    data is resolved, anything deeper raises PrecisionTooLow.
    """
    if p == 2 or prime_divisors(p) != [p]:
        raise ValueError("p must be an odd prime")
    if M < 1:
        raise ValueError("precision must be at least 1")
    # blocks, each (gbar lowest-first, multiplicity), deterministic order
    blocks = fp_factor(field.minpoly, p)
    block_polys = []
    for gbar, mult in blocks:
        blk = [1]
        for _ in range(mult):
            blk = _pmul(blk, gbar, p)
        block_polys.append(blk)
    lifted = _hensel_blocks([c % p ** M for c in field.minpoly],
                            block_polys, p, M)
    embs = []
    for idx, ((gbar, mult), H) in enumerate(zip(blocks, lifted)):
        d = len(gbar) - 1
        if mult == 1:
            embs.append(dict(local_factor=H, e=1, residue_degree=d,
                             residue_modpoly=gbar))
            continue
        try:
            # phi-adic Newton polygon at first order
            e, fdeg = _newton_polygon_block(H, gbar, p, M)
            embs.append(dict(local_factor=H, e=e, residue_degree=fdeg,
                             residue_modpoly=gbar))
        except PrecisionTooLow:
            # complete factorization of the block in tame local models
            B = M + 12
            factors = None
            for _ in range(4):
                lifted_B = _hensel_blocks(
                    [c % p ** B for c in field.minpoly], block_polys, p, B)
                HB = lifted_B[idx]
                dHB = [i * c for i, c in enumerate(HB)][1:]
                resB = polyq.resultant_int(list(HB), dHB) % p ** B
                D = _vp(resB, p) if resB else B
                if B >= M + 2 * D + 12:
                    factors = _factor_block_tame(HB, gbar, mult, p, M, B)
                    break
                B = M + 2 * D + 12
            if factors is None:
                raise PrecisionTooLow(
                    "local block discriminant too deep at precision %d" % B)
            for G, e, fdeg, rbar, gen in factors:
                embs.append(dict(local_factor=G, e=e, residue_degree=fdeg,
                                 residue_modpoly=rbar, residue_gen=gen))
    result = []
    for j, data in enumerate(embs):
        result.append(PAdicEmbedding(field, p, M, data["local_factor"],
                                     data["e"], data["residue_degree"],
                                     data["residue_modpoly"], j,
                                     data.get("residue_gen")))
    total = sum(emb.e * emb.residue_degree for emb in result)
    assert total == field.degree
    return result


def _newton_polygon_block(H, phibar, p, M):
    """Ramification data of a block H with H = phibar^m mod p.

    Expands H phi-adically and reads the Newton polygon.  Returns (e, f)
    when the polygon certifies irreducibility; raises PrecisionTooLow
    otherwise.
    """
    pM = p ** M
    d = len(phibar) - 1
    m = (len(H) - 1) // d
    phi = [c % pM for c in phibar]
    rem = [c % pM for c in H]
    coeffs = []
    for _ in range(m + 1):
        rem, r = _pdivmod_monic(rem, phi, pM)
        coeffs.append(r)
    vals = []
    for i, A in enumerate(coeffs):
        if not A:
            vals.append(None)
        else:
            vals.append(min(_vp(c, p) for c in A if c != 0))
    if vals[0] is None or vals[0] >= M:
        raise PrecisionTooLow(
            "constant phi-adic coefficient vanishes at precision %d" % M)
    v0 = vals[0]
    if gcd(v0, m) != 1:
        raise PrecisionTooLow(
            "Newton polygon slope %d/%d is not in lowest terms; "
            "deeper factorization required" % (v0, m))
    # single segment from (0, v0) to (m, 0): all points on or above it
    for i in range(1, m):
        if vals[i] is None:
            continue
        if Fraction(vals[i]) < Fraction(v0) * (m - i) / m:
            raise PrecisionTooLow(
                "Newton polygon has several segments; "
                "deeper factorization required")
    return m, d


# ---------------------------------------------------------------------------
# complete factorization of tame blocks via explicit local models
# ---------------------------------------------------------------------------

_modpoly_cache = {}


def _irreducible_modpoly(p, F):
    """The lexicographically first monic irreducible of degree F mod p."""
    key = (p, F)
    cached = _modpoly_cache.get(key)
    if cached is not None:
        return cached
    if F == 1:
        _modpoly_cache[key] = [0, 1]
        return [0, 1]
    for code in range(p ** F):
        coeffs = []
        c = code
        for _ in range(F):
            coeffs.append(c % p)
            c //= p
        poly = coeffs + [1]
        if _fp_ddf(poly, p) == [(poly, F)]:
            _modpoly_cache[key] = poly
            return poly
    raise AssertionError("no irreducible polynomial found")


class _TameModel:
    """The ring (Z/p^B)[t, pi] / (u(t), pi^E - c p), c a Teichmuller unit.

    A finite-precision model of the tame local field U_F(pi) with
    pi^E = c p; elements are lists of E coefficient polynomials in t.
    Used to locate roots of local factors and reconstruct their minimal
    polynomials; every tame extension of Q_p with e | E and f | F embeds
    into such a model for a suitable c.
    """

    def __init__(self, p, B, E, F, cres):
        self.p = p
        self.B = B
        self.E = E
        self.F = F
        self.pB = p ** B
        self.q = p ** F
        self.u = _irreducible_modpoly(p, F)
        self.c = self._teich(_ptrim([r % p for r in cres]))
        self.cinv = self._s_inv_unit(self.c)

    # -- coefficient ring S = (Z/p^B)[t]/(u) ------------------------------

    def _s_mul(self, a, b):
        return _pmod(_pmul(a, b, self.pB), self.u, self.pB)

    def _s_vp(self, a):
        vals = [_vp(c, self.p) for c in a if c % self.pB]
        return min(vals) if vals else None

    def _s_pow(self, a, n):
        out = [1]
        base = a
        while n:
            if n & 1:
                out = self._s_mul(out, base)
            base = self._s_mul(base, base)
            n >>= 1
        return out

    def _teich(self, res):
        x = list(res)
        for _ in range(self.B + 1):
            x = self._s_pow(x, self.q)
        return x

    def _s_inv_unit(self, a):
        F = FF(self.p, self.u)
        r = F.element([c % self.p for c in a])
        x = [int(c) for c in r.inverse().coeffs]
        steps = 1
        while (1 << steps) < self.B + 2:
            steps += 1
        for _ in range(steps + 1):
            prod = self._s_mul(a, x)
            two_minus = _psub([2], prod, self.pB)
            x = self._s_mul(x, two_minus)
        return x

    # -- elements: lists of E coefficient polynomials ----------------------

    def zero(self):
        return [[] for _ in range(self.E)]

    def one(self):
        return [[1]] + [[] for _ in range(self.E - 1)]

    def from_int(self, n):
        n %= self.pB
        return [([n] if n else [])] + [[] for _ in range(self.E - 1)]

    def from_res(self, digits):
        return [_ptrim([d % self.p for d in digits])] \
            + [[] for _ in range(self.E - 1)]

    def key(self, x):
        return tuple(tuple(a) for a in x)

    def add(self, x, y):
        return [_padd(a, b, self.pB) for a, b in zip(x, y)]

    def neg(self, x):
        return [_ptrim([(-c) % self.pB for c in a]) for a in x]

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        out = [[] for _ in range(self.E)]
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b:
                    continue
                prod = self._s_mul(a, b)
                k = i + j
                if k >= self.E:
                    k -= self.E
                    prod = _pscale(self._s_mul(prod, self.c), self.p, self.pB)
                out[k] = _padd(out[k], prod, self.pB)
        return out

    def mul_pi(self, x):
        head = _pscale(self._s_mul(x[-1], self.c), self.p, self.pB)
        return [head] + x[:-1]

    def div_pi(self, x):
        a0 = x[0]
        if any(c % self.p for c in a0):
            return None
        tail = self._s_mul([c // self.p for c in a0], self.cinv)
        return x[1:] + [tail]

    def val(self, x):
        best = None
        for i, a in enumerate(x):
            v = self._s_vp(a)
            if v is None:
                continue
            cand = Fraction(i, self.E) + v
            if best is None or cand < best:
                best = cand
        return best

    def eval_poly(self, coeffs, x):
        acc = self.zero()
        for c in reversed(coeffs):
            acc = self.mul(acc, x)
            acc = self.add(acc, self.from_int(c))
        return acc

    def inv_unit(self, x):
        Fq = FF(self.p, self.u)
        r = Fq.element([c % self.p for c in x[0]])
        y = self.from_res([int(c) for c in r.inverse().coeffs])
        steps = 1
        while (1 << steps) < (self.B * self.E + 2):
            steps += 1
        two = self.from_int(2)
        for _ in range(steps + 1):
            y = self.mul(y, self.sub(two, self.mul(x, y)))
        return y

    def flatten(self, x):
        out = []
        for a in x:
            out.extend(list(a) + [0] * (self.F - len(a)))
        return out


def _tame_newton_root(H, dH, L, start):
    x = start
    last = None
    for _ in range(64):
        fx = L.eval_poly(H, x)
        vfx = L.val(fx)
        if vfx is None:
            return x
        if last is not None and vfx <= last:
            return x
        last = vfx
        dfx = L.eval_poly(dH, x)
        vd = L.val(dfx)
        if vd is None:
            return x
        j = int(vd * L.E)
        u = dfx
        for _ in range(j):
            u = L.div_pi(u)
            if u is None:
                return x
        w = L.mul(fx, L.inv_unit(u))
        ok = True
        for _ in range(j):
            w = L.div_pi(w)
            if w is None:
                ok = False
                break
        if not ok:
            return x
        x = L.sub(x, w)
    return x


def _taylor_shift(L, H, b):
    """Ascending coefficients of H(b + z), by repeated synthetic division."""
    cur = [L.from_int(c) for c in H]
    out = []
    while cur:
        rem = cur[-1]
        quot = [None] * (len(cur) - 1)
        for i in range(len(cur) - 2, -1, -1):
            quot[i] = rem
            rem = L.add(L.mul(rem, b), cur[i])
        out.append(rem)
        cur = quot
    return out


def _ball_may_contain_root(L, tay, m):
    """Newton polygon test: can H(b + z) vanish for some v(z) >= m?"""
    v0 = L.val(tay[0])
    if v0 is None:
        return True
    for j in range(1, len(tay)):
        vj = L.val(tay[j])
        if vj is not None and vj + j * m <= v0:
            return True
    return False


def _roots_in_model(H, L, maxdepth, vmin=None):
    """All roots of the (squarefree) integer polynomial H in the model L.

    A Newton limit point is only accepted as a root when H vanishes on it
    to valuation at least vmin (None means exact vanishing at the working
    precision), which filters out stalled non-roots.
    """
    dH = [i * c for i, c in enumerate(H)][1:]
    reps = []
    for code in range(L.q):
        digits = []
        c = code
        for _ in range(L.F):
            digits.append(c % L.p)
            c //= L.p
        reps.append(L.from_res(digits))
    pi_pow = L.one()
    certified = []
    start = L.zero()
    candidates = [(start, _taylor_shift(L, H, start))]
    for k in range(maxdepth + 1):
        nxt = []
        for a, tay in candidates:
            # no further root lies strictly inside the uniqueness radius of
            # a certified root; a subtree contained in that ball (depth
            # beyond the radius) can be dropped entirely
            dropped = False
            for r0, w0 in certified:
                if Fraction(k, L.E) <= w0:
                    continue
                vd0 = L.val(L.sub(a, r0))
                if vd0 is None or vd0 > w0:
                    dropped = True
                    break
            if dropped:
                continue
            va = L.val(tay[0])
            vda = L.val(tay[1]) if len(tay) > 1 else None
            if va is None or (vda is not None and va > 2 * vda):
                known = False
                for r0, w0 in certified:
                    vd0 = L.val(L.sub(a, r0))
                    if vd0 is None or vd0 > w0:
                        known = True
                        break
                if not known:
                    r = _tame_newton_root(H, dH, L, a)
                    vr = L.val(L.eval_poly(H, r))
                    if vr is None or vmin is None or vr >= vmin:
                        w = vda if vda is not None else Fraction(L.B)
                        dup = False
                        for r0, w0 in certified:
                            vd0 = L.val(L.sub(r, r0))
                            if vd0 is None or vd0 > max(w, w0):
                                dup = True
                                break
                        if not dup:
                            certified.append((r, w))
            for rep in reps:
                cand = L.add(a, L.mul(rep, pi_pow))
                tc = _taylor_shift(L, H, cand)
                if _ball_may_contain_root(L, tc, Fraction(k + 1, L.E)):
                    nxt.append((cand, tc))
        candidates = nxt
        if not candidates:
            break
        pi_pow = L.mul_pi(pi_pow)
    return [r for r, _ in certified]


def _solve_mod_prime_power(cols, rhs, p, B):
    """Solve sum_i g_i cols[i] = rhs mod p^B; returns (g, loss) or None.

    Pivots of positive valuation are allowed; loss is the largest pivot
    valuation, and the solution is certified mod p^(B - loss).
    """
    pB = p ** B
    n = len(cols)
    m = len(rhs)
    aug = [[cols[i][r] % pB for i in range(n)] + [rhs[r] % pB]
           for r in range(m)]
    pivots = []
    loss = 0
    unused = set(range(m))
    free_cols = set(range(n))
    # global min-valuation pivoting keeps pivot valuations nondecreasing,
    # so elimination multipliers stay integral; used rows are never
    # eliminated from, the triangular system is back-substituted instead
    while free_cols:
        best = None
        for r in unused:
            for c in free_cols:
                a = aug[r][c]
                if a == 0:
                    continue
                v = _vp(a, p)
                if best is None or v < best[2]:
                    best = (r, c, v)
        if best is None:
            return None
        r0, c0, v0 = best
        unused.discard(r0)
        free_cols.discard(c0)
        pivots.append(best)
        loss = max(loss, v0)
        u = aug[r0][c0] // p ** v0
        uinv = pow(u, -1, pB)
        for r in unused:
            a = aug[r][c0]
            if a == 0:
                continue
            if _vp(a, p) < v0:
                return None
            mult = (a // p ** v0) * uinv % pB
            aug[r] = [(x - mult * y) % pB
                      for x, y in zip(aug[r], aug[r0])]
    check = p ** max(B - loss - 2, 1)
    for r in unused:
        if aug[r][n] % check:
            return None
    sol = [0] * n
    for r0, c0, v0 in reversed(pivots):
        acc = aug[r0][n]
        for c in range(n):
            if c != c0:
                acc -= aug[r0][c] * sol[c]
        acc %= pB
        if acc % p ** v0:
            return None
        u = aug[r0][c0] // p ** v0
        sol[c0] = (acc // p ** v0) * pow(u, -1, pB) % (pB // p ** v0)
    return sol, loss


def _minpoly_from_root(L, theta, maxdeg, loss_max):
    vecs = [L.flatten(L.one())]
    x = L.one()
    for _ in range(maxdeg):
        x = L.mul(x, theta)
        vecs.append(L.flatten(x))
    for n in range(1, maxdeg + 1):
        cols = vecs[:n]
        rhs = [(-v) % L.pB for v in vecs[n]]
        res = _solve_mod_prime_power(cols, rhs, L.p, L.B)
        if res is None:
            continue
        sol, loss = res
        if loss > loss_max:
            continue
        return [int(c) for c in sol] + [1], loss
    return None


def _tame_unit_reps(p, e, f):
    """Coset representatives of F_q^x modulo e-th powers, q = p^f.

    Models pi^e = c p and pi^e = c' p are isomorphic when c'/c is an e-th
    power in the residue field, so only one c per coset needs searching.
    """
    modpoly = _irreducible_modpoly(p, f)

    def mul(a, b):
        _, r = _pdivmod_monic(_pmul(a, b, p), modpoly, p)
        return r

    def key(a):
        padded = [x % p for x in a] + [0] * f
        return tuple(padded[:f])

    elems = []
    for code in range(1, p ** f):
        digits = []
        c = code
        for _ in range(f):
            digits.append(c % p)
            c //= p
        elems.append(_ptrim(digits))
    powers = set()
    for a in elems:
        x = [1]
        for _ in range(e):
            x = mul(x, a)
        powers.add(key(x))
    reps = []
    covered = set()
    for a in elems:
        if key(a) in covered:
            continue
        reps.append(a)
        for s in powers:
            covered.add(key(mul(list(s), a)))
    return reps


def _block_segment_candidates(H, gbar, mult, p, B):
    """Candidate (e, f) pairs for the primes inside a Hensel block.

    The phi-adic Newton polygon of the block constrains the ramification:
    a segment of slope with denominator e0 and horizontal length l only
    carries primes with e0 | e, d | f and e f <= d l (d = deg gbar).
    """
    d = len(gbar) - 1
    pB = p ** B
    phi = [c % pB for c in gbar]
    rem = [c % pB for c in H]
    coeffs = []
    for _ in range(mult + 1):
        rem, r = _pdivmod_monic(rem, phi, pB)
        coeffs.append(r)
    vals = []
    for A in coeffs:
        if not A or all(c % pB == 0 for c in A):
            vals.append(None)
        else:
            vals.append(min(_vp(c, p) for c in A if c % pB))
    if vals[0] is None:
        raise PrecisionTooLow(
            "constant phi-adic coefficient of a block vanishes at the "
            "working precision")
    pts = [(i, v) for i, v in enumerate(vals) if v is not None]
    hull = [pts[0]]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    if hull[-1][0] != mult or hull[-1][1] != 0:
        raise PrecisionTooLow(
            "phi-adic Newton polygon of a block does not end at height 0")
    cands = set()
    for s in range(len(hull) - 1):
        (x1, y1), (x2, y2) = hull[s], hull[s + 1]
        e0 = Fraction(y1 - y2, x2 - x1).denominator
        l = x2 - x1
        e = e0
        while e <= l:
            if e % p:
                f = d
                while e * f <= d * l:
                    cands.add((e, f))
                    f += d
            e += e0
    return sorted(cands, key=lambda ef: (ef[0] * ef[1], ef[0]))


def _residue_gen_from_root(L, theta, deg, loss_max):
    """Express the model's residue generator t in powers of a root.

    Solves p^s t = sum(coeffs[i] theta^i) in the model for the smallest
    admissible denominator exponent s; returns (coeffs, s) or None.
    """
    t = L.from_res([0, 1])
    vecs = [L.flatten(L.one())]
    x = L.one()
    for _ in range(deg - 1):
        x = L.mul(x, theta)
        vecs.append(L.flatten(x))
    tflat = L.flatten(t)
    for s in range(L.B):
        ps = L.p ** s
        rhs = [(c * ps) % L.pB for c in tflat]
        res = _solve_mod_prime_power(vecs, rhs, L.p, L.B)
        if res is None:
            continue
        sol, loss = res
        if loss > loss_max:
            continue
        return [int(c) for c in sol], s
    return None


def _factor_block_tame(H, gbar, mult, p, M, B):
    """Factor a Hensel block completely, assuming tame ramification.

    Roots of H are located in explicit tame models U_F(pi), pi^E = c p,
    and each irreducible factor is reconstructed as the minimal polynomial
    of a root.  Returns [(factor mod p^M, e, f, residue_modpoly,
    residue_gen)] or raises PrecisionTooLow when the block cannot be
    resolved (e.g. wild ramification).

    residue_gen is None when the residue field is generated by the root
    itself (f = deg gbar); otherwise it is (coeffs, s) expressing the
    model's residue generator t as sum(coeffs[i] theta^i) / p^s.
    """
    d = len(gbar) - 1
    blockdeg = d * mult
    pM = p ** M
    Hints = [c % p ** B for c in H]
    dH = [i * c for i, c in enumerate(Hints)][1:]
    res = polyq.resultant_int(Hints, dH) % p ** B
    if res == 0:
        raise PrecisionTooLow(
            "discriminant of a local block vanishes at precision %d" % B)
    D = _vp(res, p)
    loss_max = max((B - M) // 2, 1)
    # any point of a wrong model is within total root-distance D of the
    # roots, so H evaluates there to valuation at most D; genuine Newton
    # limits evaluate to valuation near B = M + 2D + 12
    vmin = Fraction(D + 2)
    pB = p ** B
    found = {}
    total = 0
    # found factors are divided out, so later models search a smaller
    # quotient and do not waste time rediscovering known roots
    R = list(Hints)
    for e, f in _block_segment_candidates(Hints, gbar, mult, p, B):
        if total == blockdeg:
            break
        reps = _tame_unit_reps(p, e, f) if e > 1 else [[1]]
        for digits in reps:
            if total == blockdeg or len(R) - 1 < e * f:
                break
            L = _TameModel(p, B, e, f, digits)
            maxdepth = e * (2 * D + 6)
            for theta in _roots_in_model(R, L, maxdepth, vmin):
                # conjugates of an already divided-out factor are no
                # longer roots of the quotient
                vt = L.val(L.eval_poly(R, theta))
                if vt is not None and vt < vmin:
                    continue
                mp = _minpoly_from_root(L, theta, e * f, loss_max)
                if mp is None:
                    continue
                G, _ = mp
                # only full-size factors: then e, f of the prime are forced
                # to be the model's; smaller factors appear in the smaller
                # models, which are searched first
                if len(G) - 1 != e * f:
                    continue
                GM = tuple(c % pM for c in G)
                if GM in found:
                    continue
                gf = fp_factor(G, p)
                if len(gf) != 1:
                    continue
                rbar = gf[0][0]
                if rbar != list(gbar):
                    continue
                gen = None
                if f > d:
                    # the residue of theta only generates F_(p^d); express
                    # the model's residue generator t in powers of theta so
                    # the embedding can reach the full residue field
                    gen = _residue_gen_from_root(L, theta, e * f, loss_max)
                    if gen is None:
                        raise PrecisionTooLow(
                            "residue generator of a non-monogenic factor "
                            "not resolved at precision %d" % B)
                    rbar = list(L.u)
                found[GM] = (list(GM), e, f, rbar, gen)
                total += e * f
                R, _ = _pdivmod_monic(R, [c % pB for c in G], pB)
                if total == blockdeg or len(R) - 1 < e * f:
                    break
    if total != blockdeg:
        raise PrecisionTooLow(
            "local block of degree %d resolved only %d dimensions; "
            "deeper (or wild) factorization required" % (blockdeg, total))
    prod = [1]
    for GM in found:
        prod = _pmul(prod, list(GM), pM)
    if _psub(prod, [c % pM for c in H], pM):
        raise PrecisionTooLow(
            "reconstructed factors do not multiply back to the block")
    # order factors by base-p digits from the low digit up: unlike integer
    # order on residues mod p^M, this is stable when M is raised, so the
    # embedding index identifies the same prime at every precision
    def digit_key(GM):
        return tuple(tuple((c // p ** j) % p for j in range(M))
                     for c in GM)

    return [found[k] for k in sorted(found, key=digit_key)]


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
