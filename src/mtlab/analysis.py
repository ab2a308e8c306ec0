"""Experiments on Mazur-Tate invariants: mu_min, and invariant tables with
their lambda-growth patterns.  The identity checks of ``verify`` are in
`verify`.
"""

from math import comb

from . import mazurtate
from .errors import OutOfBudget, PrecisionExhausted
from .mazurtate import invariants, q_n, theta_element


def form_id(space, index):
    return "N%dk%dc%d" % (space.M, space.k, index)


# ---------------------------------------------------------------------------
# mu_min


def _balls(p, m, cosets):
    """The balls (chart, center, A) of radius p^-m, in scan order: around
    (1, center) on chart 0 and (center, 1), p | center, on chart 1."""
    pm = p ** m
    return ([(0, d, A) for d in range(pm) for A in cosets]
            + [(1, c, A) for c in range(0, pm, p) for A in cosets])


def _ball_term(normalized, ball, s):
    """The embedded T_s in sum_s T_s h^s, the value of Phi(A) at
    (1, center + h) or (center + h, 1): T_s = sum_r C(e_r, s)
    center^(e_r - s) Phi(A)[r] with e_r = g - r on chart 0 and r on chart
    1, so T_0 is the value at the center (`NormalizedSymbol.evaluate`)."""
    chart, center, A = ball
    g = normalized.space.g
    q, powers = normalized.modulus, [1]
    for _ in range(g):
        powers.append(powers[-1] * center % q)
    exps = range(g, -1, -1) if chart == 0 else range(g + 1)
    return normalized.combine(A, [comb(e, s) * powers[e - s] if e >= s
                                  else 0 for e in exps])


def _ball_open(normalized, ball, m, low, best):
    """Whether a ball of radius p^-m with low <= v(T_0) is split: never once
    best <= m, else when low or a term v(T_s) + m s, s < best / m, is below
    best (an integral T_s with no certified digits counts as 0)."""
    if best is None or m < best and low < best:
        return True
    for s in range(1, normalized.space.g + 1):
        if m * s >= best:
            return False
        x = _ball_term(normalized, ball, s)
        v = x.certified_valuation() if x.prec > 0 else 0
        if (x.prec if v is None else v) + m * s < best:
            return True
    return False


def mu_min(normalized):
    """(mu_min, witness): the minimum valuation of (0,1)-evaluations over
    all degree-0 divisors, and a value of that valuation.

    That is the least valuation of Phi(A)(c, d) over the cosets A and the
    points of P^1(Z_p), found by branch and bound over the balls of its two
    charts (`_balls`), level by level.  On a ball of radius p^-m the value
    is sum_s T_s (p^m t)^s with integral T_s (`_ball_term`).  T_0 bounds
    the minimum above, and the search stops at the floor 0.  min(v(T_0), m)
    bounds the ball below, so level m settles every ball once the best
    value is at most m; before that, balls whose Taylor bound reaches it
    are dropped (`_ball_open`) and the rest split into p balls.  Values
    that vanish to their precision are skipped, as in the full scan, and a
    search still open at level M - 1 raises OutOfBudget.

    The witness is the center value T_0 at which the best value last
    fell.  A ball holding a certified value below the best is never
    dropped, so at the first level where mu_min occurs every center of
    that valuation is searched, in scan order: the witness is the first
    value of valuation mu_min at the centers of `_balls`, level by level.
    """
    emb = normalized.embedding
    p = emb.p
    balls = _balls(p, 1, range(len(normalized.space.plist)))
    best = witness = None
    for m in range(1, emb.M):
        lows = []
        for ball in balls:
            x = _ball_term(normalized, ball, 0)
            v = x.certified_valuation()
            if v is not None and (best is None or v < best):
                if v == 0:
                    return v, x
                best, witness = v, x
            lows.append(x.prec if v is None else v)
        balls = [ball for ball, low in zip(balls, lows)
                 if _ball_open(normalized, ball, m, low, best)]
        if not balls:
            return best, witness
        balls = sorted((chart, center + j * p ** m, A)
                       for j in range(p) for chart, center, A in balls)
    raise OutOfBudget(
        "mu_min >= %d cannot be certified at precision %d" % (emb.M, emb.M))


# ---------------------------------------------------------------------------
# invariant tables and lambda-growth patterns


class InvariantReport:
    """Rows (n, i, mu, lambda, certified) with a fitted growth pattern."""

    def __init__(self, rows, pattern, constants):
        self.rows = rows
        self.pattern = pattern
        self.constants = constants

    def __repr__(self):
        return ("InvariantReport(%d rows, pattern=%s)"
                % (len(self.rows), self.pattern))


def _template_values(name, p, n, parity_constants):
    if name == "maximal":
        return p ** n - 1
    if name == "constant-lambda":
        return p ** n - p ** (n - 1) + parity_constants[n % 2]
    if name == "supersingular":
        return p ** n - p ** (n - 1) + q_n(n - 1, p) + parity_constants[n % 2]
    if name == "shifted":
        return p ** n - p ** (n - 2) + parity_constants[n % 2]
    if name == "shifted-supersingular":
        return p ** n - p ** (n - 2) + q_n(n - 2, p) + parity_constants[n % 2]
    raise ValueError(name)


_PARITY_SPLIT = {"supersingular"}
_TEMPLATES = ("maximal", "constant-lambda", "shifted", "supersingular",
              "shifted-supersingular")


def _fit_pattern(p, pairs):
    """First template matching every (n, lambda) with n >= 2."""
    fit_rows = [(n, lam) for n, lam in pairs if n >= 2]
    if not fit_rows:
        return "none", {}
    for name in _TEMPLATES:
        split = name in _PARITY_SPLIT
        constants = {}
        ok = True
        for n, lam in fit_rows:
            key = n % 2 if split else 0
            base = _template_values(name, p, n, {n % 2: 0, 0: 0, 1: 0})
            c = lam - base
            if key in constants and constants[key] != c:
                ok = False
                break
            constants[key] = c
        if name == "maximal" and any(c != 0 for c in constants.values()):
            ok = False
        if ok:
            if name == "maximal":
                return name, {}
            return name, constants
    return "none", {}


def invariant_table(f_norm, n_max):
    """Invariants of theta_{n,i}(f) for n <= n_max with pattern fitting."""
    p = f_norm.embedding.p
    mazurtate.check_budget(p, n_max + 1)
    twists = mazurtate.twists(p, f_norm.sign)
    rows = []
    for n in range(n_max + 1):
        for i in twists:
            try:
                inv = invariants(theta_element(f_norm, n, i))
                rows.append((n, i, inv.mu, inv.lam, inv.certified))
            except PrecisionExhausted:
                rows.append((n, i, None, None, False))
    pattern = None
    constants = {}
    for i in twists:
        pairs = [(n, lam) for n, ti, _, lam, cert in rows
                 if ti == i and cert]
        name, consts = _fit_pattern(p, pairs)
        if pattern is None:
            pattern = name
        elif pattern != name:
            pattern = "none"
        constants[i] = consts
    return InvariantReport(rows, pattern or "none", constants)
