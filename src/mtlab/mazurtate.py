"""Group rings over G_n, Mazur-Tate elements, and finite-level invariants.

The full group ring sits over (Z/p^n)^*; the cyclic quotient G_n of order
p^n is generated by the image of 1 + p.  Coefficients are local elements
at certified precision (or residue-field elements for mod-p identities).
"""

from fractions import Fraction

from . import modsym, padic
from .errors import NotOrdinary, OutOfBudget, PrecisionExhausted


def _units(p, n):
    pn = p ** n
    return [a for a in range(1, pn) if a % p != 0]


class FullGroupRingElement:
    """Element sum c_a sigma_a of R[(Z/p^n)^*], n >= 1."""

    def __init__(self, p, n, coeffs):
        if n < 1:
            raise ValueError("full group ring elements need level n >= 1")
        self.p = p
        self.n = n
        self.coeffs = dict(coeffs)
        expected = p ** (n - 1) * (p - 1)
        if len(self.coeffs) != expected:
            raise ValueError("expected %d coefficients, got %d"
                             % (expected, len(self.coeffs)))

    def _check(self, other):
        if not isinstance(other, FullGroupRingElement):
            raise TypeError("cannot combine with %r" % (other,))
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("group rings differ")

    def __add__(self, other):
        self._check(other)
        return FullGroupRingElement(
            self.p, self.n,
            {a: c + other.coeffs[a] for a, c in self.coeffs.items()})

    def __neg__(self):
        return FullGroupRingElement(
            self.p, self.n, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, x):
        return FullGroupRingElement(
            self.p, self.n, {a: x * c for a, c in self.coeffs.items()})

    def coefficient_list(self):
        return [self.coeffs[a] for a in _units(self.p, self.n)]

    def __repr__(self):
        return ("FullGroupRingElement(p=%d, n=%d, %d coefficients)"
                % (self.p, self.n, len(self.coeffs)))


class CyclicGroupRingElement:
    """Element sum_j d_j gamma_n^j of R[G_n], G_n cyclic of order p^n."""

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

    def twist_generator(self, u):
        """The image under the group automorphism gamma_n -> gamma_n^u."""
        pn = self.p ** self.n
        if u % self.p == 0:
            raise ValueError("u must be prime to p")
        out = [None] * pn
        for j, c in enumerate(self.coeffs):
            out[(j * u) % pn] = c
        return CyclicGroupRingElement(self.p, self.n, out)

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


def mazur_tate_values(space, get_value, p, n, budget=200000):
    """The level-n element of the symbol with the given coset values.

    The a-th coefficient is the value of the symbol on {oo} - {a/p^n}
    evaluated at (X, Y) = (0, 1), i.e. the Y^(k-2)-coefficient.
    """
    units = _units(p, n)
    if len(units) * max(n, 1) > budget:
        raise OutOfBudget("%d evaluations exceed the budget" % len(units))
    coeffs = {}
    for a in units:
        divisor = modsym.RationalDivisor(((1, (1, 0)), (-1, (a, p ** n))))
        vec = space.evaluate_divisor(get_value, divisor)
        coeffs[a] = vec[0]
    return FullGroupRingElement(p, n, coeffs)


def mazur_tate(sym, n, budget=200000):
    """The level-n Mazur-Tate element of a normalized or stabilized symbol."""
    return mazur_tate_values(sym.space, sym.value, sym.embedding.p, n,
                             budget=budget)


def _dlog_table(p, n1):
    """Map (1+p)^j mod p^n1 -> j for j = 0 .. p^(n1-1) - 1."""
    pn1 = p ** n1
    table = {}
    x = 1
    for j in range(p ** (n1 - 1)):
        table[x] = j
        x = (x * (1 + p)) % pn1
    return table


def twists(p, sign):
    """The i in 0 .. p-2 with (-1)^i = sign.

    The other omega^i-projections of a symbol of this sign vanish.
    """
    return [i for i in range(p - 1) if (-1) ** i == sign]


def omega_decompose(theta, i):
    """The omega^i-projection O[(Z/p^(n+1))^*] -> O[G_n].

    sigma_a maps to omega(a)^i gamma_n^dlog<a> where a = omega(a)<a>.
    """
    p = theta.p
    n1 = theta.n
    n = n1 - 1
    pn1 = p ** n1
    if not (0 <= i <= p - 2):
        raise ValueError("i must lie in 0 .. p-2")
    dlog = _dlog_table(p, n1)
    out = [None] * (p ** n)
    for a, c in theta.coeffs.items():
        prec = getattr(c, "prec", None)
        M = c.emb.M if prec is not None else n1
        w = padic.teichmuller(p, a, M)
        pM = p ** M
        winv = pow(w, -1, pM)
        j = dlog[(a * winv) % pn1]
        term = c * pow(w, i, pM)
        out[j] = term if out[j] is None else out[j] + term
    return CyclicGroupRingElement(p, n, out)


def theta_element(sym, n, i, budget=200000):
    """theta_{n,i} of a symbol, defined from the level-(n+1) element."""
    return omega_decompose(mazur_tate(sym, n + 1, budget=budget), i)


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
    """min ord_p of the coefficients, certified below the precision."""
    best = None
    for c in theta.coefficient_list():
        if c.is_zero_to_precision():
            continue
        v = c.valuation()
        if best is None or v < best:
            best = v
    if best is None:
        raise PrecisionExhausted(
            "all coefficients vanish to the working precision")
    return best


def lambda_invariant(theta):
    """Order in the augmentation filtration of the unit-scaled reduction.

    The element is scaled by the inverse of a coefficient of minimal
    valuation, reduced to the residue field, and expanded in
    F[T]/(T^(p^n)) with gamma_n = 1 + T; lambda is the lowest nonzero
    degree.
    """
    if not isinstance(theta, CyclicGroupRingElement):
        raise TypeError("lambda is defined on cyclic group rings")
    mu = mu_invariant(theta)
    cstar = None
    for c in theta.coeffs:
        if c.is_zero_to_precision():
            continue
        if c.valuation() == mu:
            cstar = c
            break
    scaled = theta.scale(cstar.inverse())
    red = [c.reduce() for c in scaled.coeffs]
    p = theta.p
    pn = p ** theta.n
    for t in range(pn):
        acc = None
        for j in range(t, pn):
            if red[j].is_zero():
                continue
            b = _binom_mod_p(j, t, p)
            if b == 0:
                continue
            term = red[j] * b
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            return t
    raise AssertionError("scaled reduction of a unit element is zero")


def _binom_mod_p(j, t, p):
    """C(j, t) mod p by Lucas' theorem."""
    out = 1
    while t > 0 or j > 0:
        jd, td = j % p, t % p
        if td > jd:
            return 0
        num, den = 1, 1
        for s in range(td):
            num = num * (jd - s) % p
            den = den * (s + 1) % p
        out = out * num * pow(den, -1, p) % p
        j //= p
        t //= p
    return out


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


class StabilizedSymbol:
    """The ordinary p-stabilization of a normalized eigensymbol.

    Values live at level N*p and are eigen for U_p with eigenvalue alpha,
    the unit root of x^2 - a_p x + p^(k-1).  The normalization of the
    input symbol is kept, not recomputed.
    """

    def __init__(self, space, embedding, alpha, values, source):
        self.space = space
        self.embedding = embedding
        self.alpha = alpha
        self._values = values
        self.source = source

    @property
    def sign(self):
        return self.source.sign

    def value(self, A):
        return self._values[A]

    def all_values(self):
        return [self._values[A] for A in range(len(self.space.plist))]

    def evaluate(self, divisor):
        return self.space.evaluate_divisor(self.value, divisor)


def unit_root(embedding, ap, k):
    """The unit root of x^2 - a_p x + p^(k-1) by Newton iteration."""
    p = embedding.p
    if (isinstance(ap, int) and ap == 0) or \
            (not isinstance(ap, int) and ap.is_zero()):
        raise NotOrdinary("a_%d vanishes" % p)
    if embedding.valuation(ap) != 0:
        raise NotOrdinary("a_%d has positive valuation" % p)
    pk = Fraction(p) ** (k - 1)
    x = embedding.local(ap)
    apl = embedding.local(ap)
    c = embedding.local(pk)
    for _ in range(embedding.M + 2):
        fx = x * x - apl * x + c
        if fx.is_zero_to_precision(1):
            break
        x = x - fx * (x + x - apl).inverse()
    assert (x * x - apl * x + c).is_zero_to_precision(1)
    return x


def p_stabilize(normalized):
    """The level-Np stabilization phi - (1/alpha) phi|(p,0;0,1)."""
    space = normalized.space
    emb = normalized.embedding
    p = emb.p
    if space.M % p == 0:
        raise NotOrdinary("the level is already divisible by p")
    ap = normalized.eigensymbol.a(p)
    alpha = unit_root(emb, ap, space.k)
    target = modsym.ManinSymbolSpace(space.M * p, space.k)
    vals = normalized.all_values()
    v1 = modsym.degeneracy_values(space, target, 1, vals)
    vp = modsym.degeneracy_values(space, target, p, vals)
    ainv = alpha.inverse()
    values = {A: [a - ainv * b for a, b in zip(v1[A], vp[A])]
              for A in v1}
    return StabilizedSymbol(target, emb, alpha, values, normalized)


def lp_approx(stab, i, n, budget=200000):
    """The approximant psi_{n,i} = alpha^(-n) theta_{n,i} with invariants."""
    theta = theta_element(stab, n, i, budget=budget)
    ainv = stab.alpha.inverse()
    scale = stab.embedding.local(1)
    for _ in range(n):
        scale = scale * ainv
    psi = theta.scale(scale)
    return psi, invariants(psi)


# ---------------------------------------------------------------------------
# serialization


def _coefficient_string(c):
    if isinstance(c, padic.LocalElement):
        digits = []
        for v in c.vec:
            ds = []
            p = c.emb.p
            x = v
            for _ in range(c.emb.M):
                ds.append(str(x % p))
                x //= p
            digits.append(".".join(ds))
        return "p^-%d*(%s)" % (c.shift, ";".join(digits))
    return str(c)


def element_to_json(theta):
    group = "full" if isinstance(theta, FullGroupRingElement) else "cyclic"
    return {
        "p": theta.p,
        "n": theta.n,
        "group": group,
        "coeffs": [_coefficient_string(c) for c in theta.coefficient_list()],
    }
