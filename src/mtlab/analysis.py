"""Experiments on Mazur-Tate invariants: mu_min, residual congruences
between eigenforms of different weights, old-space decompositions, and
classification of lambda-growth patterns.
"""

from fractions import Fraction

from . import linalg, mazurtate, modsym, padic
from .errors import (
    EmbeddingAmbiguity,
    NotInSpan,
    OutOfBudget,
    PrecisionExhausted,
)
from .mazurtate import invariants, nu_corestrict, q_n, theta_element


def sturm_bound(N, k):
    """k * [SL_2(Z) : Gamma_0(N)] / 12, rounded up.

    The index is N * prod (1 + 1/q) over the primes q | N.
    """
    index = N
    for q in padic.prime_divisors(N):
        index = index // q * (q + 1)
    return -(-k * index // 12)


# ---------------------------------------------------------------------------
# mu_min


def _p1_pairs(p, m):
    """Representatives of P^1(Z/p^m): (1, d) and (p*c, 1)."""
    pm = p ** m
    pairs = [(1, d) for d in range(pm)]
    pairs += [(c, 1) for c in range(0, pm, p)]
    return pairs


def _mu_min_witness(normalized):
    """(mu_min, witness LocalElement of that valuation).

    mu_min is the minimum over degree-0 divisors of the valuation of the
    Y^(k-2)-coefficient of the value.  Since every divisor is an integer
    combination of unimodular paths and values on paths are the generator
    polynomials evaluated at primitive pairs, it suffices to scan the
    generator values at representatives of P^1(Z/p^m).  A pair class whose
    evaluation has valuation < m is certified: lifting the pair changes
    the evaluation by multiples of p^m.  Iterative deepening stops once
    the running minimum is below the depth.
    """
    space = normalized.space
    emb = normalized.embedding
    p = emb.p
    g = space.g
    values = normalized.all_values()
    best = None
    witness = None
    for m in range(1, emb.M + 1):
        if best is not None and best < m:
            return best, witness
        for c, d in _p1_pairs(p, m):
            scalars = [pow(c, j) * pow(d, g - j) for j in range(g + 1)]
            for vec in values:
                acc = None
                for x, s in zip(vec, scalars):
                    if s == 0:
                        continue
                    term = x * s
                    acc = term if acc is None else acc + term
                if acc is None or acc.is_zero_to_precision():
                    continue
                try:
                    v = acc.valuation()
                except PrecisionExhausted:
                    continue
                if best is None or v < best:
                    best = v
                    witness = acc
    raise OutOfBudget(
        "mu_min >= %d cannot be certified at precision %d" % (emb.M, emb.M))


def mu_min(normalized):
    """Minimum valuation of (0,1)-evaluations over all degree-0 divisors."""
    return _mu_min_witness(normalized)[0]


# ---------------------------------------------------------------------------
# residual congruences with weight-2 forms


class CongruenceMatch:
    """A weight-2 class residually matching a higher-weight eigenform."""

    def __init__(self, target_id, sturm, checked_primes,
                 residual_field_degree, embedding_choice, target_class,
                 target_embedding):
        self.target_id = target_id
        self.sturm_bound = sturm
        self.checked_primes = list(checked_primes)
        self.residual_field_degree = residual_field_degree
        self.embedding_choice = embedding_choice
        self.target_class = target_class
        self.target_embedding = target_embedding

    def __repr__(self):
        return ("CongruenceMatch(%s, %d primes to %d)"
                % (self.target_id, len(self.checked_primes),
                   self.sturm_bound))


def form_id(space, index):
    return "N%dk%dc%d" % (space.M, space.k, index)


def _residue_homs(source_field, target_field):
    """All field maps F_(p^a) -> F_(p^b), as images of the generator."""
    if source_field.degree == 1:
        return [target_field.one()]
    mp = source_field.modpoly
    roots = []
    for x in target_field.elements():
        acc = target_field.zero()
        power = target_field.one()
        for c in mp:
            acc = acc + power * c
            power = power * x
        if acc.is_zero():
            roots.append(x)
    return roots


def _apply_hom(x, image, target_field):
    acc = target_field.zero()
    power = target_field.one()
    for c in x.coeffs:
        acc = acc + power * c
        power = power * image
    return acc


def find_congruent_weight2(eigensymbol, embedding, classes):
    """The weight-2 classes whose residual eigensystem matches.

    classes are the sign +1 cuspidal eigensymbols of weight 2 at the level
    of the eigensymbol, in report order. Matching compares reductions of
    a_ell for every prime ell != p up to the Sturm bound; classes over
    larger coefficient fields are compared through minimal polynomials
    first, then through an explicit embedding of residue fields that must
    align every checked prime at once.
    """
    space = eigensymbol.space
    p = embedding.p
    bound = sturm_bound(space.M, space.k)
    ells = [ell for ell in padic.primes_up_to(bound) if ell != p]
    F = embedding.residue_field
    source_red = {ell: embedding.reduce(eigensymbol.a(ell)) for ell in ells}
    matches = []
    for idx, cls in enumerate(classes):
        for gemb in padic.primes_above(cls.field, p, embedding.M):
            Fg = gemb.residue_field
            if F.degree % Fg.degree != 0:
                continue
            target_red = {ell: gemb.reduce(cls.a(ell)) for ell in ells}
            if any(source_red[ell].minimal_polynomial()
                   != target_red[ell].minimal_polynomial() for ell in ells):
                continue
            homs = _residue_homs(Fg, F)
            consistent = [h for h in homs
                          if all(_apply_hom(target_red[ell], h, F)
                                 == source_red[ell] for ell in ells)]
            if not consistent:
                raise EmbeddingAmbiguity(
                    "minimal polynomials match for %s but no residue-field "
                    "embedding aligns all checked primes"
                    % form_id(cls.space, idx))
            matches.append(CongruenceMatch(
                form_id(cls.space, idx), bound, ells, F.degree,
                homs.index(consistent[0]), cls, gemb))
            break
    return matches


def verify_congruence(f_norm, g_norm, n_max, mode="medweight", twists=None):
    """Check reduce(theta_{n,i}(f) / c) = u * nu(reduce(theta_{n-1,i}(g))).

    The scaling element c has valuation mu_min(f) in lowslope mode and is
    1 in medweight mode; the residue-field unit u is fitted at the
    smallest level and reused for every (n, i).
    """
    if mode not in ("medweight", "lowslope"):
        raise ValueError("mode must be medweight or lowslope")
    emb = f_norm.embedding
    p = emb.p
    if g_norm.embedding.p != p:
        raise ValueError("symbols live over different primes")
    if twists is None:
        twists = mazurtate.twists(p, f_norm.sign)
    if mode == "lowslope":
        mu, witness = _mu_min_witness(f_norm)
        scale = witness.inverse()
    else:
        mu = Fraction(0)
        scale = emb.local(1)
    F = emb.residue_field
    Fg = g_norm.embedding.residue_field
    homs = _residue_homs(Fg, F)
    if not homs:
        raise EmbeddingAmbiguity("no residue-field embedding available")
    hom = homs[0]
    unit = None
    rows = []
    for n in range(1, n_max + 1):
        for i in twists:
            lhs = [(scale * c).reduce()
                   for c in theta_element(f_norm, n, i).coeffs]
            rhs_elt = nu_corestrict(theta_element(g_norm, n - 1, i))
            rhs = [_apply_hom(c.reduce(), hom, F) for c in rhs_elt.coeffs]
            if unit is None:
                for a, b in zip(lhs, rhs):
                    if not b.is_zero() and not a.is_zero():
                        unit = a / b
                        break
            if unit is None:
                ok = all(a.is_zero() for a in lhs) \
                    and all(b.is_zero() for b in rhs)
            else:
                ok = all(a == unit * b for a, b in zip(lhs, rhs))
            rows.append((n, i, ok))
    return {
        "mode": mode,
        "mu_min": mu,
        "unit": None if unit is None else list(unit.coeffs),
        "rows": rows,
        "all_passed": all(ok for _, _, ok in rows),
    }


# ---------------------------------------------------------------------------
# old-space decomposition at level N p^r


class OldspaceDecomposition(list):
    """Coordinates a_1..a_r in the basis of degeneracy images of g."""

    span_dimension = None


def oldspace_decompose(f_norm, g_norm, r):
    """Coordinates of the reduced alpha-image of f at level N p^r.

    The alpha map evaluates the generator polynomials at the bottom rows
    of coset lifts and divides by an element of valuation mu_min(f); the
    result is expanded in the basis phi-bar_g | (p^t, 0; 0, 1), t = 1..r,
    by linear algebra over the residue field.
    """
    space = f_norm.space
    emb = f_norm.embedding
    p = emb.p
    N = space.M
    g = space.g
    if g_norm.space.k != 2 or g_norm.space.M != N:
        raise ValueError("the partner must be a weight-2 symbol at level N")
    target = modsym.ManinSymbolSpace(N * p ** r, 2)
    F = emb.residue_field
    Fg = g_norm.embedding.residue_field
    homs = _residue_homs(Fg, F)
    if not homs:
        raise EmbeddingAmbiguity("no residue-field embedding available")
    hom = homs[0]
    size = len(target.plist)
    basis = []
    gvals = g_norm.all_values()
    for t in range(1, r + 1):
        img = modsym.degeneracy_values(g_norm.space, target, p ** t, gvals)
        basis.append([_apply_hom(img[A][0].reduce(), hom, F)
                      for A in range(size)])
    _, witness = _mu_min_witness(f_norm)
    scale = witness.inverse()
    fvals = f_norm.all_values()
    tvec = []
    for A in range(size):
        (_, _), (c, d) = target.plist.lift(A)
        vec = fvals[space.plist.index(c, d)]
        acc = None
        for j, x in enumerate(vec):
            s = pow(c, j) * pow(d, g - j)
            if s == 0:
                continue
            term = x * s
            acc = term if acc is None else acc + term
        tvec.append(F.zero() if acc is None else (acc * scale).reduce())
    span = linalg.rank(basis, F)
    cols = [[basis[t][A] for t in range(r)] for A in range(size)]
    sol = linalg.solve(cols, tvec, F)
    if sol is None:
        raise NotInSpan(
            "the reduced alpha-image is not in the degeneracy span "
            "(dimension %d)" % span, span_dimension=span)
    out = OldspaceDecomposition(sol)
    out.span_dimension = span
    return out


# ---------------------------------------------------------------------------
# invariant tables and lambda-growth patterns


class InvariantReport:
    """Rows (n, i, mu, lambda, certified) with a fitted growth pattern."""

    def __init__(self, p, rows, pattern, constants, n0=2):
        self.p = p
        self.rows = rows
        self.pattern = pattern
        self.constants = constants
        self.n0 = n0

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


def _fit_pattern(p, pairs, n0=2):
    """First template matching every (n, lambda) with n >= n0."""
    fit_rows = [(n, lam) for n, lam in pairs if n >= n0]
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


def invariant_table(f_norm, n_max, twists=None):
    """Invariants of theta_{n,i}(f) for n <= n_max with pattern fitting."""
    emb = f_norm.embedding
    p = emb.p
    if twists is None:
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
    return InvariantReport(p, rows, pattern or "none", constants)


def verify_weight2_patterns(g_norm, n_max, i=0):
    """Pattern checks for a weight-2 symbol, routed on ord_p(a_p).

    Supersingular route: reports lambda(theta_{n,i}) - q_n per level and
    whether it is constant from n = 2 on, plus the parity-split mu values.
    Ordinary route: reports "maximal" when lambda = p^n - 1 throughout
    (the reducible anomaly), otherwise compares theta invariants with the
    stabilized psi invariants and reports where they stabilize.
    """
    emb = g_norm.embedding
    p = emb.p
    ap = g_norm.eigensymbol.a(p)
    ordinary = not ap.is_zero() and emb.valuation(ap) == 0
    rows = []
    for n in range(n_max + 1):
        inv = invariants(theta_element(g_norm, n, i))
        rows.append((n, i, inv.mu, inv.lam, inv.certified))
    if not ordinary:
        diffs = [(n, lam - q_n(n, p)) for n, _, _, lam, _ in rows if n >= 2]
        mu_even = sorted(set(mu for n, _, mu, _, _ in rows
                             if n >= 2 and n % 2 == 0))
        mu_odd = sorted(set(mu for n, _, mu, _, _ in rows
                            if n >= 2 and n % 2 == 1))
        return {
            "branch": "supersingular",
            "rows": rows,
            "lambda_minus_qn": diffs,
            "constant": len(set(d for _, d in diffs)) <= 1,
            "mu_even": mu_even,
            "mu_odd": mu_odd,
        }
    if all(lam == p ** n - 1 for n, _, _, lam, _ in rows if n >= 1):
        return {"branch": "ordinary", "pattern": "maximal", "rows": rows}
    stab = mazurtate.p_stabilize(g_norm)
    psi_rows = []
    for n in range(n_max + 1):
        _, inv = mazurtate.lp_approx(stab, i, n)
        psi_rows.append((n, i, inv.mu, inv.lam, inv.certified))
    stabilized_at = None
    for n in range(1, n_max + 1):
        if psi_rows[n][2:4] == psi_rows[n - 1][2:4]:
            stabilized_at = n - 1
            break
    return {
        "branch": "ordinary",
        "pattern": "stable",
        "rows": rows,
        "psi_rows": psi_rows,
        "stabilized_at": stabilized_at,
        "mu_vanishes": all(mu == 0 for n, _, mu, _, _ in rows if n >= 1),
        "theta_matches_psi": [
            (n, rows[n][3] == psi_rows[n][3]) for n in range(n_max + 1)],
    }
