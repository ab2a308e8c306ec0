"""Complete factorization of tame Hensel blocks in explicit local models.

`padic.primes_above` imports this module only for a block whose phi-adic
Newton polygon does not certify it irreducible and that the order-1 step
(`montes.order_one_split`) does not split: a ramified block, one whose
primes have residue degree above deg phibar, or one whose residual
polynomial has a repeated root.  Its roots are located in models
U_F(pi), pi^E = c p, of tame local fields, and each factor is the minimal
polynomial of a root; wild ramification raises PrecisionTooLow.

The roots are searched in balls a + pi^k O, one residue digit at a time.
At a node a of depth k the Taylor coefficients of H(a + z) give the
residual polynomial rho of H(a + pi^k y) (the second-order step of
Guardia-Montes-Nart): a child a + d pi^k can hold a root only when
rho(d) = 0, so only those children are Taylor-shifted and tested against
their Newton polygon.  A ball where v(H(a)) > 2 v(H'(a)) holds one root,
which Newton's method finds; roots are handed out as they are found, so
the search stops once the block is factored.  Valuations are ints in units
of v(pi) = 1/E.
"""

from functools import cache
from math import gcd

from . import padic, polyq
from .errors import PrecisionTooLow


@cache
def _irreducible_modpoly(p, F):
    """The lexicographically first monic irreducible of degree F mod p, as
    a tuple: the cached value is shared by every caller."""
    if F == 1:
        return (0, 1)
    for code in range(p ** F):
        coeffs = []
        c = code
        for _ in range(F):
            coeffs.append(c % p)
            c //= p
        poly = coeffs + [1]
        if padic._fp_ddf(poly, p) == [(poly, F)]:
            return tuple(poly)
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
        self.u = _irreducible_modpoly(p, F)
        self.residues = padic.FF(p, self.u)
        self.c = self._teich(polyq.trim([r % p for r in cres]))
        self.cinv = self.inv_unit([self.c] + [[]] * (E - 1))[0]
        self._cbar_inv = self.residues.element(self.cinv)

    # -- coefficient ring S = (Z/p^B)[t]/(u) ------------------------------

    def _s_mul(self, a, b):
        return polyq.rem_monic(polyq.mul(a, b), self.u, self.pB)

    def _s_vp(self, a):
        vals = [padic._vp(c, self.p) for c in a if c % self.pB]
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
            y = self._s_pow(x, self.p ** self.F)
            if y == x:
                break
            x = y
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
        return [polyq.trim([d % self.p for d in digits])] \
            + [[] for _ in range(self.E - 1)]

    def add(self, x, y):
        return [polyq.add_mod(a, b, self.pB) for a, b in zip(x, y)]

    def sub(self, x, y):
        return [polyq.sub_mod(a, b, self.pB) for a, b in zip(x, y)]

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
                    prod = polyq.scale_mod(self._s_mul(prod, self.c),
                                           self.p, self.pB)
                out[k] = polyq.add_mod(out[k], prod, self.pB)
        return out

    def mul_pi(self, x):
        head = polyq.scale_mod(self._s_mul(x[-1], self.c), self.p, self.pB)
        return [head] + x[:-1]

    def div_pi(self, x):
        a0 = x[0]
        if any(c % self.p for c in a0):
            return None
        tail = self._s_mul([c // self.p for c in a0], self.cinv)
        return x[1:] + [tail]

    def val(self, x):
        """E v(x), an int: the valuation in units of v(pi); None for 0."""
        best = None
        for i, a in enumerate(x):
            v = self._s_vp(a)
            if v is None:
                continue
            cand = i + self.E * v
            if best is None or cand < best:
                best = cand
        return best

    def lead(self, x, n):
        """The residue of x / pi^n in the residue field, for n = val(x)
        below E B: with n = i + E v, x is a pi^i + O(pi^(n+1)) with a
        divisible by p^v, and p^v = c^-v pi^(E v)."""
        v, i = divmod(n, self.E)
        pv = self.p ** v
        return self.residues.element([a // pv for a in x[i]]) \
            * self._cbar_inv ** v

    def eval_poly(self, coeffs, x):
        acc = self.zero()
        for c in reversed(coeffs):
            acc = self.mul(acc, x)
            acc = self.add(acc, self.from_int(c))
        return acc

    def inv_unit(self, x):
        """The inverse of a unit x, refined from the inverse of its
        residue."""
        return self.refine_inverse(
            x, self.from_res(self.residues.element(x[0]).inverse().coeffs))

    def refine_inverse(self, x, y):
        """The inverse of the unit x by Newton's iteration y -> y (2 - x y)
        from y, which doubles the digits of y that are right; from the
        inverse of x's residue when y does not invert x mod pi."""
        one = self.one()
        xy = self.mul(x, y)
        if self.val(self.sub(one, xy)) == 0:
            return self.inv_unit(x)
        two = self.from_int(2)
        while xy != one:
            y = self.mul(y, self.sub(two, xy))
            xy = self.mul(x, y)
        return y

    def flatten(self, x):
        out = []
        for a in x:
            out.extend(list(a) + [0] * (self.F - len(a)))
        return out

    def flat_powers(self, x, n):
        """flatten(x^i) for i below n."""
        powers = [self.one()]
        for _ in range(n - 1):
            powers.append(self.mul(powers[-1], x))
        return [self.flatten(y) for y in powers]


def _tame_newton_root(H, dH, L, x, fx, dfx):
    """The limit of Newton's method for H from x, where H(x) = fx and
    H'(x) = dfx, and the valuation of H there; each step refines the
    previous step's inverse of the derivative's unit part."""
    last = inv = None
    for _ in range(64):
        vfx = L.val(fx)
        if vfx is None or (last is not None and vfx <= last):
            return x, vfx
        last = vfx
        if dfx is None:
            dfx = L.eval_poly(dH, x)
        j = L.val(dfx)
        if j is None:
            return x, vfx
        u = dfx
        for _ in range(j):
            u = L.div_pi(u)
            if u is None:
                return x, vfx
        inv = L.inv_unit(u) if inv is None else L.refine_inverse(u, inv)
        w = L.mul(fx, inv)
        for _ in range(j):
            w = L.div_pi(w)
            if w is None:
                return x, vfx
        x = L.sub(x, w)
        fx, dfx = L.eval_poly(H, x), None
    return x, L.val(fx)


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
    """Newton polygon test: can H(b + z) vanish for some E v(z) >= m?"""
    v0 = L.val(tay[0])
    if v0 is None:
        return True
    for j in range(1, len(tay)):
        vj = L.val(tay[j])
        if vj is not None and vj + j * m <= v0:
            return True
    return False


def _residual_digits(L, tay, vals, k, digits):
    """The digits d whose child a + d pi^k may hold a root of H: the roots
    of the residual polynomial rho(y) of H(a + pi^k y), read from the
    Taylor coefficients tay of H(a + z) and their valuations vals.

    On the ball of a child with rho(d) != 0, E v(H) is the constant mu, so
    no root lies there; when mu is not below E B every digit is kept.
    """
    mu = min(v + j * k for j, v in enumerate(vals) if v is not None)
    if mu >= L.E * L.B:
        return digits
    rho = [L.lead(tay[j], v) if v is not None and v + j * k == mu
           else None for j, v in enumerate(vals)]
    kept = []
    for d in digits:
        acc = None
        for c in reversed(rho):
            if acc is not None:
                acc = acc * d
            if c is not None:
                acc = c if acc is None else acc + c
        if acc.is_zero():
            kept.append(d)
    return kept


def _near(L, x, r, w):
    """Whether x lies strictly inside the ball of radius w about r."""
    v = L.val(L.sub(x, r))
    return v is None or v > w


def _roots_in_model(H, L, maxdepth, vmin, wanted=None):
    """Yield the roots of the squarefree integer polynomial H in the model L.

    A Newton limit point is only accepted as a root when H vanishes on it
    to valuation at least vmin (in units of v(pi)), which filters out
    stalled non-roots.  wanted(), when given, is the factor of H whose
    roots are still sought: a ball whose one root is not a root of it is
    recorded without running Newton's method.
    """
    dH = polyq.derivative(H)
    digits = list(L.residues.elements())
    reps = {d: L.from_res(d.coeffs) for d in digits}
    pi_pow = L.one()
    balls = []    # (centre, radius w), each holding exactly one root of H
    start = L.zero()
    candidates = [(start, _taylor_shift(L, H, start))]
    for k in range(maxdepth + 1):
        nxt = []
        for a, tay in candidates:
            # no further root lies strictly inside the uniqueness radius of
            # a known root; a subtree contained in that ball (depth beyond
            # the radius) can be dropped entirely
            if any(k > w0 and _near(L, a, r0, w0) for r0, w0 in balls):
                continue
            vals = [L.val(t) for t in tay]
            va, vda = vals[0], vals[1]
            if (va is None or (vda is not None and va > 2 * vda)) \
                    and not any(_near(L, a, r0, w0) for r0, w0 in balls):
                w = vda if vda is not None else L.E * L.B
                R = wanted() if wanted is not None else H
                # the Newton limit r has v(r - a) > w, so R(r) and R(a)
                # agree in valuation when R(a) has valuation at most w
                vq = L.val(L.eval_poly(R, a)) if R is not H else None
                if vq is not None and vq < vmin and vq <= w:
                    balls.append((a, w))
                else:
                    r, vr = _tame_newton_root(H, dH, L, a, tay[0], tay[1])
                    if (vr is None or vr >= vmin) and not any(
                            _near(L, r, r0, max(w, w0)) for r0, w0 in balls):
                        balls.append((r, w))
                        yield r
            for d in _residual_digits(L, tay, vals, k, digits):
                cand = L.add(a, L.mul(reps[d], pi_pow))
                tc = _taylor_shift(L, H, cand)
                if _ball_may_contain_root(L, tc, k + 1):
                    nxt.append((cand, tc))
        candidates = nxt
        if not candidates:
            break
        pi_pow = L.mul_pi(pi_pow)


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
                v = padic._vp(a, p)
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
            if padic._vp(a, p) < v0:
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
    """The monic integer polynomial of least degree, at most maxdeg, that
    theta satisfies in the model with a solve losing at most loss_max
    digits; None when there is none."""
    vecs = L.flat_powers(theta, maxdeg + 1)
    for n in range(1, maxdeg + 1):
        cols = vecs[:n]
        rhs = [(-v) % L.pB for v in vecs[n]]
        res = _solve_mod_prime_power(cols, rhs, L.p, L.B)
        if res is None:
            continue
        sol, loss = res
        if loss > loss_max:
            continue
        return [int(c) for c in sol] + [1]
    return None


def _tame_unit_reps(p, e, f):
    """Coset representatives of F_q^x modulo e-th powers, q = p^f, as
    elements of FF(p, _irreducible_modpoly(p, f)): the first of each coset
    in the order of `FF.elements`.

    Models pi^e = c p and pi^e = c' p are isomorphic when c'/c is an e-th
    power in the residue field, so only one c per coset needs searching.
    """
    F = padic.FF(p, _irreducible_modpoly(p, f))
    if e == 1:
        return [F.one()]
    units = list(F.elements())[1:]
    powers = {a ** e for a in units}
    reps = []
    covered = set()
    for a in units:
        if a not in covered:
            reps.append(a)
            covered.update(s * a for s in powers)
    return reps


def _block_segment_candidates(H, gbar, mult, p, B):
    """Candidate (e, f) pairs for the primes inside a Hensel block.

    The phi-adic Newton polygon of the block constrains the ramification:
    a segment of slope with denominator e0 and horizontal length l only
    carries primes with e0 | e, d | f and e f <= d l (d = deg gbar).
    """
    d = len(gbar) - 1
    hull = padic._newton_polygon(H, gbar, mult, p, p ** B)[0]
    cands = set()
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        l = x2 - x1
        e0 = l // gcd(y1 - y2, l)
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
    vecs = L.flat_powers(theta, deg)
    tflat = L.flatten(L.from_res([0, 1]))
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


def _factor_block_tame(H, gbar, mult, p, M, B, D):
    """Factor a Hensel block completely, assuming tame ramification.

    H is the block mod p^B, and D the valuation of its discriminant, with
    B >= M + 2D + 12.  Roots of H are located in explicit tame models
    U_F(pi), pi^E = c p, and each irreducible factor is reconstructed as
    the minimal polynomial of a root.  Returns [(factor mod p^M, e, f,
    residue_modpoly, residue_gen)] or raises PrecisionTooLow when the block
    cannot be resolved (e.g. wild ramification).

    residue_gen is None when the residue field is generated by the root
    itself (f = deg gbar); otherwise it is (coeffs, s) expressing the
    model's residue generator t as sum(coeffs[i] theta^i) / p^s.
    """
    d = len(gbar) - 1
    blockdeg = d * mult
    pM = p ** M
    loss_max = max((B - M) // 2, 1)
    found = {}
    total = 0
    # found factors are divided out, so later models search a smaller
    # quotient and do not waste time rediscovering known roots
    R = H
    for e, f in _block_segment_candidates(H, gbar, mult, p, B):
        if total == blockdeg:
            break
        for c in _tame_unit_reps(p, e, f):
            if total == blockdeg or len(R) - 1 < e * f:
                break
            L = _TameModel(p, B, e, f, c.coeffs)
            maxdepth = e * (2 * D + 6)
            # any point of a wrong model is within total root-distance D of
            # the roots, so H evaluates there to valuation at most D;
            # genuine Newton limits evaluate to valuation near
            # B = M + 2D + 12
            vmin = e * (D + 2)
            # the quotient R is read as it shrinks: balls of the divided-out
            # factors' roots are not Newton-iterated
            for theta in _roots_in_model(R, L, maxdepth, vmin, lambda: R):
                # conjugates of an already divided-out factor are no
                # longer roots of the quotient
                vt = L.val(L.eval_poly(R, theta))
                if vt is not None and vt < vmin:
                    continue
                G = _minpoly_from_root(L, theta, e * f, loss_max)
                if G is None:
                    continue
                # only full-size factors: then e, f of the prime are forced
                # to be the model's; smaller factors appear in the smaller
                # models, which are searched first
                if len(G) - 1 != e * f:
                    continue
                GM = tuple(c % pM for c in G)
                if GM in found:
                    continue
                gf = padic.fp_factor(G, p)
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
                R = polyq.divmod_monic(R, G, p ** B)[0]
                if total == blockdeg or len(R) - 1 < e * f:
                    break
    if total != blockdeg:
        raise PrecisionTooLow(
            "local block of degree %d resolved only %d dimensions; "
            "deeper (or wild) factorization required" % (blockdeg, total))
    prod = [1]
    for GM in found:
        prod = polyq.mul_mod(prod, GM, pM)
    if polyq.sub_mod(prod, H, pM):
        raise PrecisionTooLow(
            "reconstructed factors do not multiply back to the block")
    return padic._by_digits(list(found.values()), p, M)
