"""Experiments on Mazur-Tate invariants: mu_min, and invariant tables with
their lambda-growth patterns.  The identity checks of ``verify`` are in
`verify`.  mu_min is read off Mahler coefficients, with no search; only
`verify` asks for a value of that valuation (`mu_min_witness`).  Only the
invariant rows and tables import `mazurtate`, each when called, so a
mu-min job does not compile it.
"""

from . import padic
from .errors import PrecisionExhausted


def form_id(space, index):
    return "N%dk%dc%d" % (space.M, space.k, index)


# ---------------------------------------------------------------------------
# mu_min


def _stirling2(g):
    """S[e][j] for e, j <= g: x^e = sum_j S[e][j] j! C(x, j)."""
    S = [[1] + [0] * g]
    for _ in range(g):
        S.append([0] + [j * S[-1][j] + S[-1][j - 1] for j in range(1, g + 1)])
    return S


def mu_min(normalized):
    """The least valuation of Phi(A)(c, d) over the cosets A and the points
    of P^1(Z_p), the minimum over all degree-0 divisors of the
    (0,1)-evaluations, or None when it is not certified at this precision.

    On chart 0, (1 : x), the value is sum_r x^e_r Phi(A)[r], e_r = g - r;
    on chart 1, (py : 1), it is sum_r p^r y^e_r Phi(A)[r], e_r = r.  The
    binomials C(x, j) are an orthonormal basis of C(Z_p, O) (Mahler), so
    the least valuation on Z_p is min_j v(j! c_j), c_j = sum_r S(e_r, j)
    Phi(A)[r] (S the Stirling numbers of the second kind, times p^r on
    chart 1): one `NormalizedSymbol.combine` per j, chart and coset.
    The loop runs over j, then the charts, then the cosets.  c_j is
    integral, and p^j | c_j on chart 1, so a (chart, j) whose floor
    j * chart + v_p(j!) reaches the best value is skipped.  A c_j that
    vanishes to its precision, or has a negative one, bounds v(j! c_j)
    below by max(precision, floor) + v_p(j!) only, and the best value is
    certified when it is at most every such bound; a certified 0 ends the
    loop.
    """
    p, q, g = normalized.embedding.p, normalized.modulus, normalized.space.g
    S = _stirling2(g)
    best = bound = None
    vfact = 0
    for j in range(g + 1):
        vfact += padic._vp(j, p) if j else 0
        for chart in (0, 1):
            if best is not None and j * chart + vfact >= best:
                continue
            weights = [S[r][j] * p ** r % q if chart else S[g - r][j]
                       for r in range(g + 1)]
            for A in range(len(normalized.space.plist)):
                c = normalized.combine(A, weights)
                # a negative precision leaves no digits of the integral c_j
                v = c.certified_valuation() if c.prec >= 0 else None
                if v is None:
                    low = max(c.prec, j * chart) + vfact
                    bound = low if bound is None else min(bound, low)
                elif best is None or v + vfact < best:
                    best = v + vfact
                    if best == 0:
                        return best
    if best is not None and (bound is None or best <= bound):
        return best
    return None


def mu_min_witness(normalized):
    """(mu_min, witness), the witness being the first evaluation
    (`NormalizedSymbol.evaluate`) of valuation mu_min at the points (1, d),
    d < p^m, then (c, 1), p | c < p^m, cosets innermost, for m = 1, 2, ...
    Values are integral, so a point of valuation mu < m has a center of
    that valuation at level m, and the scan ends by m = floor(mu) + 1.
    Raises PrecisionExhausted when mu_min or its witness is not certified.
    """
    mu = mu_min(normalized)
    p = normalized.embedding.p
    if mu is not None:
        for m in range(1, int(mu) + 2):
            for c, d in ([(1, d) for d in range(p ** m)]
                         + [(c, 1) for c in range(0, p ** m, p)]):
                for A in range(len(normalized.space.plist)):
                    x = normalized.evaluate(A, c, d)
                    if x.certified_valuation() == mu:
                        return mu, x
    raise PrecisionExhausted(
        "no value of valuation mu_min is certified at precision %d"
        % normalized.embedding.M)


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
    from .mazurtate import q_n
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


_PARITY_SPLIT = {"supersingular", "shifted-supersingular"}
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


def invariant_rows(element, norm, n_max):
    """(n, i, mu, lambda, certified) of element(norm, n, i) for n <= n_max
    and each twist i of the symbol's sign; a row whose element vanishes to
    the working precision is (n, i, None, None, False)."""
    from . import mazurtate
    rows = []
    for n in range(n_max + 1):
        for i in mazurtate.twists(norm.embedding.p, norm.sign):
            try:
                inv = mazurtate.invariants(element(norm, n, i))
                rows.append((n, i, inv.mu, inv.lam, inv.certified))
            except PrecisionExhausted:
                rows.append((n, i, None, None, False))
    return rows


def invariant_table(f_norm, n_max):
    """Invariants of theta_{n,i}(f) for n <= n_max with pattern fitting."""
    from . import mazurtate
    p = f_norm.embedding.p
    mazurtate.check_budget(p, n_max + 1)
    twists = mazurtate.twists(p, f_norm.sign)
    rows = invariant_rows(mazurtate.theta_element, f_norm, n_max)
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
