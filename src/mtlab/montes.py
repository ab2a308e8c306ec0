"""Montes' algorithm to order 2: the primes of a Hensel block.

`padic.primes_above` imports this module for every repeated block
H = phibar^m mod p, and for nothing else.  The primes of the block are the
leaves of a tree of types (Guardia-Montes-Nart, Trans. AMS 364, 2012); a
block whose phi-adic Newton polygon is one side of slope h/m, h prime to m,
has one leaf at order 1, with e = m and f = deg phibar.  At order 1 each side
of slope h/e of the phi-adic Newton polygon of H has a residual polynomial
over F_q = F_p[t]/(phibar), and by Ore's theorem each irreducible factor
psi of it that is simple gives one prime, with e the slope's denominator
and f = deg phibar deg psi.  A repeated root r on a side of integral slope
h re-centres phi to phi - p^h r, of the same degree, and the polygon is read
again above slope h; any other repeated factor psi goes to order 2, where
the key polynomial phi_2 = sum psi_j phi^(j e) p^((deg psi - j) h) takes
the place of phi, the valuation v_2 of Z_p[x] the place of v_p, and the
residues of phi^e / p^h the place of those of t, by the same steps.  Over
F_q with q > p only the roots of a residual polynomial are found, and a
block that needs order 3 raises PrecisionTooLow.

Each leaf's key polynomial is a monic approximation of its prime's factor
of H, which single-factor lifting (Guardia-Nart-Pauli, J. Symb. Comp. 47,
2012) refines by Newton's method mod p^B (`_lift`).  The working precision
B starts at 2M and is raised only when a polygon or a Newton step shows
that it is too low.
Each prime also keeps its type, the valuation one level above its leaf
(`_Order2`), through which `padic.LocalElement` reads its elements.
"""

from functools import cache
from math import gcd

from . import padic, polyq
from .errors import PrecisionTooLow
from .linalg import charpoly_rational


class _Short(Exception):
    """The working precision is too low: at least p^B is needed."""

    def __init__(self, B):
        super().__init__(B)
        self.B = B


def factor_block(lift, phibar, m, p, M):
    """The primes of the block H = phibar^m mod p, where lift(B) is H mod
    p^B: [(factor mod p^M, e, f, residue_modpoly, vtype)], in the order of
    `_by_digits`.

    residue_modpoly is phibar when f = deg phibar, and otherwise the
    lexicographically first monic irreducible u of degree f.  vtype is the
    prime's type (`_analyse`), None when the factor is phibar mod p.  The
    factors must multiply back to H mod p^M.
    """
    d, pM, B = len(phibar) - 1, p ** M, 2 * M
    for _ in range(8):
        H = lift(B)
        leaves = []
        try:
            _analyse(H, _Order1(p, phibar, B), list(phibar), 0, 0, leaves)
            out = [_prime(H, phibar, leaf, p, M, B) for leaf in leaves]
        except _Short as short:
            B = max(short.B, B + 1)
            continue
        prod = [1]
        for G, *_ in out:
            prod = polyq.mul_mod(prod, G, pM)
        if not polyq.sub_mod(prod, H, pM):
            return _by_digits(out, p, M)
        B *= 2
    raise PrecisionTooLow("local block of degree %d not resolved at "
                          "precision %d" % (d * m, B))


def _by_digits(factors, p, M):
    """The tuples of `factor_block` for one block, in the order of the
    base-p digits of G's coefficients from the low digit up.  Factors whose
    first coefficients agree mod p^M are ordered by later ones, so the
    order can change when M is raised (`cli._same_primes` matches primes)."""
    return sorted(factors, key=lambda fac: [[c // p ** j % p for j in range(M)]
                                            for c in fac[0]])


# -- the valuations of orders 1 and 2 ------------------------------------------

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
    """v_p and the residues mod (p, phibar) of integer polynomials of degree
    below deg phibar, so that a(x) / p^v(a) has a nonzero residue at every
    root of phibar; e = 1 and h = 0, so p^w has value w."""

    order, e, h, phi = 1, 1, 0, None

    def __init__(self, p, phibar, B):
        self.p, self.pB = p, p ** B
        self.F = padic.FF(p, phibar)
        self.z = self.F.one()

    def val(self, a):
        return min(padic._vp(c, self.p) for c in a if c)

    def res(self, a, w):
        return self.F.element([c // self.p ** w for c in a])

    def lift(self, r, w):
        return [self.p ** w * c for c in r.coeffs]


class _Order2(_Level):
    """The valuation v_2 = e [v_p; phi, h / e] of MacLane, in units of
    1 / e, on integer polynomials of degree below e f deg phi, for a type of
    order 1 with slope h / e and a residual factor psi of degree f: a root
    z, or z = t mod psi over F_p when f > 1, where deg phibar = 1 and the
    residue field grows to F_p[t]/(psi).  On a level of order 2 in place
    of v_p, h the value of phi in its units, it reads an order-2 leaf.

    A root theta of the type has v(phi(theta)) = h / e, and
    phi(theta)^e / p^h has residue z.  For a = sum b_k phi^k, b_k of degree
    below deg phi, v(a(theta)) = v_2(a) / e = min(e v(b_k) + k h) / e, and
    a(theta) divided by p^alpha phi(theta)^beta, with e alpha + h beta =
    v_2(a) and 0 <= beta < e (`norm`), has the residue sum over the minimal
    terms of res(b_k / p^v(b_k)) z^((k - beta) / e) (`res`), times the
    power of the lower z by which the lower normalizations fail to
    multiply.  They are exact for every a of degree below that of a leaf's
    factor (Guardia-Montes-Nart, Trans. AMS 364, 2012).
    """

    order = 2

    def __init__(self, lower, phi, h, e, psi):
        self.lower, self.phi, self.h, self.e = lower, phi, h, e
        self.p, self.pB = lower.p, lower.pB
        if len(psi) == 2:
            self.F, self.z = lower.F, -psi[0]
        else:
            self.F = padic.FF(self.p, [c.coeffs[0] for c in psi])
            self.z = self.F.element([0, 1])

    def _terms(self, a):
        """(k, b_k, e v(b_k) + k h) for the nonzero phi-adic digits of a."""
        digits = _expand(a, self.phi, self.pB)
        return [(k, b, self.e * self.lower.val(b) + k * self.h)
                for k, b in enumerate(digits) if b]

    def val(self, a):
        return min(w for _, _, w in self._terms(a))

    def res(self, a, w):
        alpha, beta = self.norm(w)
        low = self.lower
        acc = self.F.zero()
        for k, b, wk in self._terms(a):
            if wk == w:
                j = (k - beta) // self.e
                v = alpha - j * self.h
                c = low.res(b, v) * low.zpow(
                    (j * low.beta(self.h) + low.beta(v) - low.beta(alpha))
                    // low.e)
                acc = acc + self.F.element(list(c.coeffs)) * self.zpow(j)
        return acc

    def lift(self, r, w):
        alpha, beta = self.norm(w)
        parts = [r] if self.F is self.lower.F else \
            [self.lower.F.element(c) for c in r.coeffs]
        out = []
        for tau, c in enumerate(parts):
            if not c.is_zero():
                out = polyq.add_mod(out, polyq.mul(
                    _power(self.phi, beta + self.e * tau),
                    self.lower.lift(c, alpha - self.h * tau)), self.pB)
        return out


def _power(a, n):
    out = [1]
    for _ in range(n):
        out = polyq.mul(out, a)
    return out


def _factor(R, F):
    """[(psi, multiplicity)] for the monic irreducible factors psi of R over
    F, as lists of F elements lowest first; R(0) != 0.  Over F_p by
    `padic.fp_factor`; over a larger F only linear factors are found, and
    any other raises PrecisionTooLow."""
    if F.degree == 1:
        return [([F.element(c) for c in psi], mult) for psi, mult in
                padic.fp_factor([c.coeffs[0] for c in R], F.p)]
    out = []
    for r in F.elements():
        mult = 0
        while len(R) > 1:
            # synthetic division by y - r, highest coefficient first
            quo = [R[-1]]
            for c in reversed(R[:-1]):
                quo.append(c + quo[-1] * r)
            if not quo.pop().is_zero():
                break
            R, mult = quo[::-1], mult + 1
        if mult:
            out.append(([-r, F.one()], mult))
    if len(R) > 1:
        raise PrecisionTooLow("a residual polynomial has an irreducible "
                              "factor of degree > 1 over F_%d^%d"
                              % (F.p, F.degree))
    return out


# -- the tree of types ---------------------------------------------------------

def _expand(a, phi, q):
    """The phi-adic digits of a mod q, phi monic, lowest first: [] for a
    zero digit."""
    digits = []
    while a:
        a, b = polyq.divmod_monic(a, phi, q)
        digits.append(b)
    return digits


def _lower_hull(pts):
    """The vertices of the lower convex hull of points in increasing x."""
    hull = [pts[0]]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _analyse(H, level, phi, V, floor, leaves):
    """Append to leaves the types of H below this one: for each side of
    slope h / e > floor of the Newton polygon of H for phi at this level,
    and each factor psi of its residual polynomial, (g, e, f, vtype) with g
    the key polynomial of the leaf, e and f its prime's indices over Q_p,
    and vtype = `_Order2(level, phi, e V + h, e, psi)` the valuation one
    level above the leaf; phi is a leaf of this level when it divides H.

    The points are (i, v(a_i) + i V) for the phi-adic digits a_i of H, V
    the value of phi.  On a side through (x1, y1), the point of i = x1 + j e
    gives the residual polynomial's coefficient of degree j,
    res(a_i) z^((beta(w_i) + j beta(W) - beta(w_x1)) / e_1), w_i = v(a_i)
    and W = e V + h the value of phi^e, so that its roots are the residues
    of phi(theta)^e / p^alpha phi_1(theta)^beta (`_representative`).
    """
    digits = _expand(H, phi, level.pB)
    points = [(i, level.val(a) + i * V) for i, a in enumerate(digits) if a]
    if points[0][0]:
        # phi divides H mod p^B: it is a leaf, on a side of infinite slope
        leaves.append((phi, level.e, level.F.degree, level))
    hull = _lower_hull(points)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if y1 - y2 <= floor * (x2 - x1):
            continue
        g = gcd(y1 - y2, x2 - x1)
        h, e = (y1 - y2) // g, (x2 - x1) // g
        W, w0 = e * V + h, y1 - x1 * V
        R = []
        for j in range((x2 - x1) // e + 1):
            a, w = digits[x1 + j * e], w0 - j * W
            R.append(level.res(a, w) * level.zpow(
                (level.beta(w) + j * level.beta(W) - level.beta(w0))
                // level.e) if a and level.val(a) == w else level.F.zero())
        for psi, mult in _factor(R, level.F):
            key = _representative(level, phi, psi, e, W)
            if mult == 1:
                leaves.append((key, e * level.e,
                               level.F.degree * (len(psi) - 1),
                               _Order2(level, phi, W, e, psi)))
            elif e == 1 and len(psi) == 2:
                _analyse(H, level, key, V, h, leaves)
            elif level.order == 1 and (len(psi) == 2 or level.F.degree == 1):
                _analyse(H, _Order2(level, phi, h, e, psi), key,
                         e * h * (len(psi) - 1), 0, leaves)
            else:
                raise PrecisionTooLow("a local block needs order 3 of "
                                      "Montes' algorithm")


def _representative(level, phi, psi, e, W):
    """The key polynomial sum_j c_j phi^(j e) of the type psi: c_j of value
    (k - j) W, k = deg psi, with the residue that makes its residual
    polynomial psi times a constant; monic, with c_k = 1."""
    k, key = len(psi) - 1, []
    for j, c in enumerate(psi):
        if not c.is_zero():
            i = k - j
            r = c * level.zpow((i * level.beta(W) - level.beta(i * W))
                               // level.e)
            key = polyq.add_mod(key, polyq.mul(level.lift(r, i * W),
                                               _power(phi, j * e)), level.pB)
    return key


# -- the factor of each leaf ---------------------------------------------------

def _prime(H, phibar, leaf, p, M, B):
    """The tuple of `factor_block` for one leaf."""
    key, e, f, vtype = leaf
    G = [c % p ** M for c in _lift(H, key, p, M, B)]
    if f > len(phibar) - 1:
        return G, e, f, list(_irreducible_modpoly(p, f)), vtype
    return G, e, f, list(phibar), None if e == 1 else vtype


def _evaluate(H, g, q):
    """(quotient, remainder) of H by g in (Z/q)[x]: H(theta) and H'(theta)
    at the roots theta of g, in one division."""
    return polyq.divmod_monic(H, g, q)


def _lift(H, g, p, M, B):
    """The factor of H that the key polynomial g approximates, mod p^M.

    With H = q g + r mod p^B, g is refined to g + r / q mod g: Newton's
    method on the factor, one division of H by g each step (`_evaluate`).
    1 / q = w / c mod g (`_inverse`), and p^t is the p-part of the
    denominator of w / c in lowest terms.  By Hensel's lemma, once
    k = v(r) > 2t, H has a factor G = g mod p^(k - t), and G = g + r / q
    mod p^(2k - 3t); the loop stops when that reaches p^M.  r / q is known
    mod p^(B - t), which must reach p^M too.
    """
    pB = p ** B
    for _ in range(2 * B.bit_length() + 2):
        q, r = _evaluate(H, g, pB)
        w, c = _inverse(polyq.rem_monic(q, g, pB), g, p, B)
        if not c:
            break
        t0 = padic._vp(c, p)
        pt = p ** t0
        t = t0 - min([padic._vp(x, p) for x in w if x % pt] + [t0])
        k = min([padic._vp(x, p) for x in r if x], default=B)
        num = polyq.rem_monic(polyq.mul(r, w), g, pB * pt)
        if any(x % pt for x in num):
            break
        unit = pow(c // pt, -1, pB)
        g = polyq.add_mod(g, [x // pt * unit for x in num], pB)
        if k > 2 * t and 2 * k - 3 * t >= M:
            if B - t < M:
                raise _Short(M + t)
            return g
    raise _Short(2 * B)


def _inverse(a, g, p, B):
    """(w, c) with a w = c mod (g, p^(B + v_p(c))), c = -N(a) the negated
    norm of a over the monic g: by the Cayley-Hamilton theorem for the
    multiplication matrix of a, whose characteristic polynomial chi has
    chi(a) = 0.  c = 0 when a and g share a factor."""
    n = len(g) - 1
    cols = padic._power_columns(a + [0] * (n - len(a)), g, n)
    chi = charpoly_rational([list(row) for row in zip(*cols)])
    if not chi[0]:
        return [], 0
    q = p ** (B + padic._vp(chi[0], p))
    w = []
    for x in reversed(chi[1:]):
        w = polyq.add_mod(polyq.rem_monic(polyq.mul(w, a), g, q), [x], q)
    return w, -chi[0]


# -- residue fields larger than F_p[t]/(phibar) --------------------------------

@cache
def _irreducible_modpoly(p, f):
    """The lexicographically first monic irreducible of degree f mod p, as
    a tuple: the cached value is shared by every caller."""
    for code in range(p ** f):
        poly = [code // p ** i % p for i in range(f)] + [1]
        if padic._fp_ddf(poly, p) == [(poly, f)]:
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")
