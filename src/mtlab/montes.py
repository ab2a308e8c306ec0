"""The order-1 step of Montes' algorithm: unramified primes of a Hensel block.

`padic.primes_above` imports this module only for a repeated block
H = phibar^m mod p whose phi-adic Newton polygon does not certify it
irreducible, and tries it before the tame models of `tame`.  By Ore's
theorem (Guardia-Montes-Nart, Trans. AMS 364, 2012) such a block is a
product of unramified primes of residue degree d = deg phibar, one for
each root of its residual polynomials, when every side of the polygon has
an integral slope and a residual polynomial over F_q = F_p[t]/(phibar)
with as many distinct roots in F_q as its degree.  Each prime's factor is
found from its root alone, by Newton's method in the unramified ring
W = Z_p[t]/(phi), with no search.
"""

from . import padic, polyq
from .errors import PrecisionTooLow
from .linalg import charpoly_rational


def order_one_split(H, phibar, m, p, M, B):
    """The primes of the block H = phibar^m mod p, known mod p^B, as
    `tame._factor_block_tame` lists them, when the order-1 step splits it;
    None otherwise.

    On a side of slope lam through the points (i, c - lam i), a root r of
    the residual polynomial gives the simple root r / phibar'(t) of
    H(t + p^lam y) / p^c mod p, so H has one root t + p^lam y in W, where
    v(H') = s = c - lam; it is found mod p^M by Newton's method in
    W mod p^(M + s), and its factor is the characteristic polynomial of
    multiplication by it on W, mod p^M.  The factors must multiply back to
    H mod p^M.
    """
    try:
        hull, expansion = padic._newton_polygon(H, phibar, m, p, p ** B)
    except PrecisionTooLow:
        return None
    F, d, pM = padic.FF(p, phibar), len(phibar) - 1, p ** M
    dphi = F.element(polyq.derivative(phibar))
    out, prod = [], [1]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        lam, frac = divmod(y1 - y2, x2 - x1)
        s = y1 + (x1 - 1) * lam
        if frac or M + s > B:
            return None
        # highest coefficient first; A_i / p^(c - lam i) is 0 mod p where
        # the point of A_i lies above the side
        rho = [F.element([a // p ** (y1 - (i - x1) * lam)
                          for a in expansion[i]])
               for i in range(x2, x1 - 1, -1)]
        roots = []
        for r in F.elements():
            acc = F.zero()
            for c in rho:
                acc = acc * r + c
            if acc.is_zero() and not r.is_zero():
                roots.append(r)
        if len(roots) != x2 - x1:
            return None
        q = p ** (M + s)
        t = polyq.rem_monic([0, 1], phibar, q)
        for r in roots:
            y = [p ** lam * c for c in (r / dphi).coeffs]
            x = _newton(H, phibar, polyq.add_mod(t, y, q), p, s, M)
            if x is None:
                return None
            cols = padic._power_columns(x + [0] * (d - len(x)), phibar, d)
            G = [c % pM for c in charpoly_rational(list(zip(*cols)))]
            out.append((G, 1, d, phibar, None))
            prod = polyq.mul_mod(prod, G, pM)
    return None if polyq.sub_mod(prod, H, pM) else padic._by_digits(out, p, M)


def _mul(a, b, phi, q):
    """a * b in (Z/q)[t]/(phi)."""
    return polyq.rem_monic(polyq.mul(a, b), phi, q)


def _evaluate(H, x, phi, q):
    """H(x) and H'(x) in (Z/q)[t]/(phi), by Horner's rule."""
    f, df = [], []
    for c in reversed(H):
        df = polyq.add_mod(_mul(df, x, phi, q), f, q)
        f = polyq.add_mod(_mul(f, x, phi, q), [c], q)
    return f, df


def _newton(H, phi, x, p, s, M):
    """The root of H mod p^M in Z_p[t]/(phi) that Newton's method reaches
    from x, where v(H') = s, or None when it does not converge.  It runs
    in (Z/p^(M+s))[t]/(phi): x -> x - (H(x) / p^s) w, w an inverse of the
    unit u = H'(x) / p^s, taken from u mod p and refined once per step,
    w -> w (2 - u w), which keeps the convergence quadratic."""
    q, ps = p ** (M + s), p ** s
    w = None
    for _ in range(M.bit_length() + 2):
        fx, dfx = _evaluate(H, x, phi, q)
        if not fx:
            return x
        u = [c // ps for c in dfx]
        w = w or polyq.fp_xgcd(u, phi, p)[1]
        w = polyq.sub_mod(w, _mul(w, polyq.sub_mod(
            _mul(u, w, phi, q), [1], q), phi, q), q)
        x = polyq.sub_mod(x, _mul([c // ps for c in fx], w, phi, q), q)
    return None
