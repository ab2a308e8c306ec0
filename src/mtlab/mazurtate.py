"""Group rings over G_n, Mazur-Tate elements, and finite-level invariants.

The full group ring sits over (Z/p^n)^*; the cyclic quotient G_n of order
p^n is generated by the image of 1 + p.  Coefficients are integer
vectors while an element is built, and local elements at certified
precision once it is embedded.

Every Mazur-Tate element is built exactly, as integer vectors: the
level-n element of an eigenclass is built once per (p, n), each
coefficient folded from the coset values met along the continued-fraction
walk of a/p^n as the walk goes, so no table of path weights is kept.
An eigenclass of sign e has x_(p^n - a) = e x_a (iota = diag(-1, 1)), so
only the units below p^n/2 are walked.  Every prime above p, precision and
twist shares the element.
theta_{n,i} of a normalized symbol is projected before it is embedded: its
coefficient j is the integer vector sum w(a)^i x_a over the units a that
map to j, with the Teichmuller lifts w(a) taken mod p^(M+v), v the
valuation of the symbol's denominator, and it is embedded once; by the
same symmetry the sum needs only one unit of each pair a, -a.  The
truncation of the lifts then costs nothing below p^M, so p-adic digits
enter only when valuations are read.  The ordinary p-stabilization is a
combination of these thetas, theta_n(phi_alpha) = theta_n(phi) -
alpha^(-1) p^(k-2) nu(theta_(n-1)(phi)), so the unit root alpha is its
only p-adic number and no level-Np symbol is built.

lambda is read off residues and does not change when every coefficient is
multiplied by one unit, so an element whose mu is an integer is reduced
after a shift by p^mu, with no product, and its binomial transform is
searched top digit first, never formed whole.
"""

from math import comb
from operator import add, mul

from . import modsym, padic
from .errors import NotOrdinary, OutOfBudget, PrecisionExhausted


def _units(p, n):
    pn = p ** n
    return [a for a in range(1, pn) if a % p != 0]


class FullGroupRingElement:
    """Element sum c_a sigma_a of R[(Z/p^n)^*], n >= 1.

    sign, when not None, records that c_(-a) = sign * c_a for every a.
    """

    def __init__(self, p, n, coeffs, sign=None):
        if n < 1:
            raise ValueError("full group ring elements need level n >= 1")
        self.p = p
        self.n = n
        self.coeffs = dict(coeffs)
        self.sign = sign
        expected = p ** (n - 1) * (p - 1)
        if len(self.coeffs) != expected:
            raise ValueError("expected %d coefficients, got %d"
                             % (expected, len(self.coeffs)))

    def coefficient_list(self):
        return [self.coeffs[a] for a in _units(self.p, self.n)]

    def __repr__(self):
        return ("FullGroupRingElement(p=%d, n=%d, %d coefficients)"
                % (self.p, self.n, len(self.coeffs)))


class CyclicGroupRingElement:
    """Element sum_j d_j gamma_n^j of R[G_n], G_n cyclic of order p^n."""

    _mu = None  # set by mu_invariant, reused by lambda_invariant

    def __init__(self, p, n, coeffs):
        if n < 0:
            raise ValueError("level must be nonnegative")
        self.p = p
        self.n = n
        self.coeffs = list(coeffs)
        if len(self.coeffs) != p ** n:
            raise ValueError("expected %d coefficients, got %d"
                             % (p ** n, len(self.coeffs)))

    def _check(self, other):
        if not isinstance(other, CyclicGroupRingElement):
            raise TypeError("cannot combine with %r" % (other,))
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("group rings differ")

    def __add__(self, other):
        self._check(other)
        return CyclicGroupRingElement(
            self.p, self.n,
            [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclicGroupRingElement(
            self.p, self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, x):
        return CyclicGroupRingElement(
            self.p, self.n, [x * c for c in self.coeffs])

    def coefficient_list(self):
        return list(self.coeffs)

    def is_zero_to_precision(self, floor=0):
        return all(c.is_zero_to_precision(floor) for c in self.coeffs)

    def __repr__(self):
        return ("CyclicGroupRingElement(p=%d, n=%d, %d coefficients)"
                % (self.p, self.n, len(self.coeffs)))


class InvariantPair:
    """The mu and lambda invariants of a group-ring element."""

    def __init__(self, mu, lam, certified):
        self.mu = mu
        self.lam = lam
        self.certified = certified

    def __eq__(self, other):
        return (isinstance(other, InvariantPair)
                and (self.mu, self.lam) == (other.mu, other.lam))

    def __repr__(self):
        return ("InvariantPair(mu=%s, lambda=%d, certified=%s)"
                % (self.mu, self.lam, self.certified))


# ---------------------------------------------------------------------------
# Mazur-Tate elements

EVALUATION_BUDGET = 500000


def check_budget(p, n):
    """Raise OutOfBudget when the level-n element is over the budget.

    Its cost is the number of units mod p^n times n, the bound on the
    continued-fraction steps of each path, counted for the full walk even
    where the sign halves it.  The budget bounds the time and memory of a
    job.  Measured raw on one core of a 2-vCPU x86-64 host,
    `invariants --level 11 --weight 2 --p 5 --nmax 6` builds level 7
    (437,500 evaluations, under the cap) in 0.9-1.2 s at 32 MB peak RSS;
    nmax 7, level 8 (2,500,000 evaluations, refused here), took 5.2 s at
    93 MB with the cap lifted.
    """
    cost = (p - 1) * p ** (n - 1) * n if n >= 1 else 0
    if cost > EVALUATION_BUDGET:
        raise OutOfBudget(
            "level %d needs %d units x %d steps = %d evaluations, over the "
            "budget of %d" % (n, cost // n, n, cost, EVALUATION_BUDGET))


def mazur_tate_values(space, get_value, p, n, sign=None):
    """The level-n element of the symbol with the given coset values.

    The a-th coefficient is the path value of the symbol on {oo} - {a/p^n}:
    each matrix of the continued-fraction walk of a/p^n, of which only the
    bottom row (c, d) is formed (`modsym._convergent_bottoms`), with class
    B, adds Phi(B)(c, d) = sum_r c^r d^(g-r) Phi(B)[r], folded into the
    coefficient as the walk goes.  Values are exact: get_value(B)
    gives the g+1 entries of Phi(B) as integer vectors (an eigenclass's
    exact data over its denominator, or an integer image of them), and
    the coefficients are integer vectors over the same denominator.

    With a sign, the values are those of an eigenclass of iota =
    diag(-1, 1) of that sign.  iota fixes the Y^g coefficient and maps the
    path to a/p^n to the path to -a/p^n, so x_(p^n - a) = sign * x_a in
    integers: only the units a < p^n/2 are walked, half the cost, and the
    other half is filled in.  Without a sign every unit is walked, as an
    identity check's independent side must be.
    """
    check_budget(p, n)
    pn = p ** n
    M, index, g = space.M, space.plist.index, space.g
    cosets = {}   # (c mod M, d mod M) -> Phi(B), looked up once

    def fold(a):
        # the g+1 vectors Phi(B)[r] of every step are stacked, and each
        # coordinate is one dot product with the weights c^r d^(g-r) (one
        # sum at g = 0, where every weight is 1)
        rows, weights = [], []
        for c, d in modsym._convergent_bottoms(a, pn):
            key = (c % M, d % M)
            value = cosets.get(key)
            if value is None:
                value = cosets[key] = get_value(index(c, d))
            rows += value
            if g:
                weights += [c ** r * d ** (g - r) for r in range(g + 1)]
        if g:
            return tuple(sum(map(mul, weights, col)) for col in zip(*rows))
        return tuple(map(sum, zip(*rows)))

    units = _units(p, n)
    if sign is None:
        return FullGroupRingElement(p, n, {a: fold(a) for a in units})
    half = units[:len(units) // 2]
    coeffs = {a: fold(a) for a in half}
    for a in reversed(half):
        x = coeffs[a]
        coeffs[pn - a] = x if sign == 1 else tuple(-c for c in x)
    return FullGroupRingElement(p, n, coeffs, sign)


def exact_element(cls, p, n):
    """The level-n element of an eigenclass, coefficients as integer
    vectors over cls.denominator; built once per (p, n) and kept on the
    class for every prime above p, precision and twist."""
    key = (p, n)
    if key not in cls.elements:
        cls.elements[key] = mazur_tate_values(cls.space, cls.exact_value,
                                              p, n, cls.sign)
    return cls.elements[key]


def twists(p, sign):
    """The i in 0 .. p-2 with (-1)^i = sign.

    The other omega^i-projections of a symbol of this sign vanish.
    """
    return [i for i in range(p - 1) if (-1) ** i == sign]


def omega_decompose(theta, i, digits):
    """The omega^i-projection Z[(Z/p^(n+1))^*] -> (Z/p^digits)[G_n] of an
    element whose coefficients are integer vectors.

    sigma_a maps to omega(a)^i gamma_n^j where a = omega(a) (1+p)^j, so
    each residue b mod p is walked as a = omega(b) (1+p)^j, j < p^n, with
    one Teichmuller lift and no discrete logarithm.  The Teichmuller factors
    and the sums are taken mod p^digits.  omega(a) mod p^digits differs
    from omega(a) by a multiple of p^digits, so a sum of integer vectors
    over a denominator of valuation v is certified to p^(digits - v).

    -a has the same j as a and omega(-a)^i = (-1)^i omega(a)^i, so on an
    element with a sign the terms of a and -a are equal when (-1)^i is the
    sign: the sum runs over b < p/2 and is doubled, half the cost.  For the
    other parity they cancel, and the projection is exactly zero.
    """
    p = theta.p
    n1 = theta.n
    n = n1 - 1
    pn1 = p ** n1
    if not (0 <= i <= p - 2):
        raise ValueError("i must lie in 0 .. p-2")
    pd = p ** digits
    sign = theta.sign
    if sign is None:
        residues, twice = range(1, p), 1
    else:
        residues, twice = range(1, (p + 1) // 2), 1 + sign * (-1) ** i
    powers = [1]   # (1+p)^j mod p^(n+1) for j < p^n
    for _ in range(p ** n - 1):
        powers.append(powers[-1] * (1 + p) % pn1)
    coeffs = theta.coeffs
    acc = None
    for b in residues:
        w = padic.teichmuller(p, b, max(digits, n1))
        wi = twice * pow(w, i, pd)
        # the coordinates of the terms of a = w (1+p)^j, in the order of j
        flat = [wi * x for g in powers for x in coeffs[w * g % pn1]]
        acc = flat if acc is None else list(map(add, acc, flat))
    f = len(coeffs[1])
    return CyclicGroupRingElement(
        p, n, list(zip(*[iter([x % pd for x in acc])] * f)))


def embedded_projection(norm, full, i):
    """The omega^i-projection of a full element with integer-vector
    coefficients over the eigenclass's denominator, taken with
    `norm.digits` Teichmuller digits, each coefficient S_j embedded once.

    S_j is the true integer sum up to a multiple of p^(M+v), v the
    valuation of the symbol's denominator, an error of valuation >= M after
    the division by the denominator, so the embedding's precision
    M - t(S_j) <= M is certified.  The content of S_j is at least the
    least content of its terms, so that precision is no lower than the
    least one of the embedded terms.
    """
    exact = omega_decompose(full, i, norm.digits)
    return CyclicGroupRingElement(exact.p, exact.n,
                                  [norm.embed(x) for x in exact.coeffs])


def theta_element(norm, n, i):
    """theta_{n,i} of a normalized symbol, built once and kept on it: the
    `embedded_projection` of its eigenclass's exact level-(n+1) element."""
    if (n, i) not in norm._thetas:
        norm._thetas[n, i] = embedded_projection(
            norm, exact_element(norm.eigensymbol, norm.embedding.p, n + 1), i)
    return norm._thetas[n, i]


# ---------------------------------------------------------------------------
# the pi and nu maps


def pi_project(theta):
    """The natural projection O[G_n] -> O[G_(n-1)]."""
    if theta.n < 1:
        raise ValueError("cannot project below level 0")
    p = theta.p
    pm = p ** (theta.n - 1)
    out = [None] * pm
    for j, c in enumerate(theta.coeffs):
        r = j % pm
        out[r] = c if out[r] is None else out[r] + c
    return CyclicGroupRingElement(p, theta.n - 1, out)


def nu_corestrict(theta):
    """The corestriction O[G_(n-1)] -> O[G_n]."""
    p = theta.p
    n = theta.n + 1
    pm = p ** theta.n
    out = [None] * (p ** n)
    for j, c in enumerate(theta.coeffs):
        for t in range(p):
            out[j + t * pm] = c
    return CyclicGroupRingElement(p, n, out)


# ---------------------------------------------------------------------------
# invariants


def mu_invariant(theta):
    """min ord_p of the coefficients, certified below the precision.

    The result is kept on the element, so that `lambda_invariant` of the
    same element does not compute it again.
    """
    best = None
    for c in theta.coefficient_list():
        v = c.certified_valuation()
        if v is not None and (best is None or v < best):
            best = v
    if best is None:
        raise PrecisionExhausted(
            "all coefficients vanish to the working precision")
    theta._mu = best
    return best


def lambda_invariant(theta):
    """Order in the augmentation filtration of the unit-scaled reduction.

    The element is scaled to a unit and reduced to the residue field F,
    giving r_j in F[G_n] = F[T]/(T^(p^n)) with gamma_n = 1 + T.  Its
    T-coefficients are s_t = sum_j C(j, t) r_j, and lambda is the lowest t
    with s_t != 0.  The map r -> s is F-linear, so multiplying every r_j by
    one nonzero constant leaves lambda unchanged: when mu is an integer the
    scale is p^(-mu), read off the digits of each coefficient with no
    product (`LocalElement.reduce`), and the r_j differ from those of
    c_j / c* (c* a coefficient of valuation mu) by the residue of
    p^(-mu) c*.  Only a fractional mu needs the inverse of c*.  F is a
    vector space over F_p, so lambda is the least over the coordinates of
    `_first_nonzero_transform`, which reads it top digit first in
    O(p^(n+1)) at most and about p^n when lambda is small.
    """
    if not isinstance(theta, CyclicGroupRingElement):
        raise TypeError("lambda is defined on cyclic group rings")
    mu = theta._mu if theta._mu is not None else mu_invariant(theta)
    if mu.denominator == 1:
        red = [c.reduce(int(mu)).coeffs for c in theta.coeffs]
    else:
        cstar = next(c for c in theta.coeffs if c.certified_valuation() == mu)
        red = [c.reduce().coeffs
               for c in theta.scale(cstar.inverse()).coeffs]
    firsts = [_first_nonzero_transform(col, theta.p, theta.n)
              for col in zip(*red)]
    firsts = [t for t in firsts if t is not None]
    if not firsts:
        raise AssertionError("scaled reduction of a unit element is zero")
    return min(firsts)


def _first_nonzero_transform(vals, p, n):
    """The least t with sum_j C(j, t) vals[j] != 0 mod p, or None.

    With j = J p^(n-1) + j' and t = T p^(n-1) + t', Lucas' theorem gives
    C(j, t) = C(J, T) C(j', t') mod p, so the block of t with top digit T
    is the transform of u_T = sum_J C(J, T) vals[J p^(n-1) + .] on the
    lower digits.  That transform is unipotent, hence invertible mod p:
    the block vanishes iff u_T does, and the least t lies in the block of
    the least T with u_T != 0, where the search goes on in u_T.
    """
    if not any(v % p for v in vals):
        return None
    t = 0
    for d in reversed(range(n)):
        size = p ** d
        blocks = [vals[J * size:(J + 1) * size] for J in range(p)]
        for T in range(p):
            weights = [comb(J, T) for J in range(T, p)]
            vals = [sum(map(mul, weights, col)) % p
                    for col in zip(*blocks[T:])]
            if any(vals):
                break
        t += T * size
    return t


def invariants(theta):
    mu = mu_invariant(theta)
    lam = lambda_invariant(theta)
    prec = min(c.prec for c in theta.coefficient_list())
    return InvariantPair(mu, lam, mu < prec)


def q_n(n, p):
    """The alternating sum p^(n-1) - p^(n-2) + ... + p - 1 (q_0 = q_1 = 0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return 0
    return p ** (n - 1) - p ** (n - 2) + q_n(n - 2, p)


# ---------------------------------------------------------------------------
# p-stabilization


def unit_root(embedding, ap, k):
    """The unit root of x^2 - a_p x + p^(k-1) by Newton iteration, a_p
    given as (nums, den)."""
    p = embedding.p
    if not any(ap[0]):
        raise NotOrdinary("a_%d vanishes" % p)
    x = apl = embedding.local_ints(*ap)
    if x.valuation() != 0:
        raise NotOrdinary("a_%d has positive valuation" % p)
    c = embedding.local(p ** (k - 1))
    for _ in range(embedding.M + 2):
        fx = x * x - apl * x + c
        if fx.is_zero_to_precision(1):
            break
        x = x - fx * (x + x - apl).inverse()
    assert (x * x - apl * x + c).is_zero_to_precision(1)
    return x


def p_stabilize(normalized):
    """The unit root alpha of the ordinary p-stabilization
    phi_alpha = phi - alpha^(-1) phi|(p,0;0,1), eigen for U_p at level Mp
    with eigenvalue alpha."""
    space = normalized.space
    emb = normalized.embedding
    if space.M % emb.p == 0:
        raise NotOrdinary("the level is already divisible by p")
    return unit_root(emb, normalized.eigensymbol.a(emb.p), space.k)


def stabilized_theta(norm, alpha, n, i):
    """theta_{n,i}(phi_alpha) for phi_alpha = phi - alpha^(-1) phi|(p,0;0,1),
    from the exact thetas of phi.

    phi|(p,0;0,1) has theta_{n,i} = p^g nu(theta_{n-1,i}(phi)) for n >= 1
    (Mazur-Tate-Teitelbaum), the identity `verify --mode degen` checks.
    At n = 0 its level-1 element gives each of the p-1 units the value
    p^g E0, E0 the Y^g coefficient of phi({oo} - {0}), so its theta_{0,i}
    is (p-1) p^g E0 for i = 0 and 0 for every other twist.  Its mu and
    lambda are those of alpha^(-n) theta_{n,i}(phi_alpha), the level-n
    approximant of the p-adic L-function: alpha is a unit.
    """
    emb = norm.embedding
    p = emb.p
    theta = theta_element(norm, n, i)
    if n == 0 and i:
        return theta
    factor = alpha.inverse() * emb.local(p ** norm.space.g)
    if n:
        # scaled before nu: p^(n-1) products, not p^n
        return theta - nu_corestrict(
            theta_element(norm, n - 1, i).scale(factor))
    e0 = norm.evaluate(norm.space.plist.index(0, 1), 0, 1)
    return CyclicGroupRingElement(
        p, 0, [theta.coeffs[0] - factor * (e0 * (p - 1))])

