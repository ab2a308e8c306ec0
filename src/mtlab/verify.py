"""The identity checks of the ``verify`` command, one per --mode.

`cli` imports this module only for that command.  The per-prime modes run
through the job driver `cli._records`, and every report is written by
`cli._emit`.
"""

from . import analysis, cli, linalg, mazurtate, modsym, padic, polyq
from .errors import EmbeddingAmbiguity, NotInSpan


def sturm_bound(N, k):
    """k * [SL_2(Z) : Gamma_0(N)] / 12, rounded up.

    The index is N * prod (1 + 1/q) over the primes q | N.
    """
    index = N
    for q in padic.prime_divisors(N):
        index = index // q * (q + 1)
    return -(-k * index // 12)


def _mu_min_witness(normalized):
    """(mu_min, witness LocalElement of that valuation): the first value
    of valuation `mu_min` at the centers of `_balls`, level by level, on
    which a scan for the least valuation settles."""
    mu = analysis.mu_min(normalized)
    cosets = range(len(normalized.space.plist))
    for m in range(1, normalized.embedding.M):
        for ball in analysis._balls(normalized.embedding.p, m, cosets):
            x = analysis._ball_term(normalized, ball, 0)
            if x.certified_valuation() == mu:
                return mu, x


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


def find_congruent_weight2(eigensymbol, embedding, classes, primes_above):
    """The weight-2 classes whose residual eigensystem matches.

    classes are the sign +1 cuspidal eigensymbols of weight 2 at the level
    of the eigensymbol, in report order, and primes_above(field, M) gives
    the primes above p of a class's field (the job's memo). Matching
    compares reductions of a_ell for every prime ell != p up to the Sturm
    bound; classes over larger coefficient fields are compared through
    minimal polynomials first, then through an explicit embedding of
    residue fields that must align every checked prime at once.
    """
    space = eigensymbol.space
    p = embedding.p
    bound = sturm_bound(space.M, space.k)
    ells = [ell for ell in padic.primes_up_to(bound) if ell != p]
    F = embedding.residue_field
    source_red = {ell: embedding.local_ints(*eigensymbol.a(ell)).reduce()
                  for ell in ells}
    matches = []
    for idx, cls in enumerate(classes):
        for gemb in primes_above(cls.field, embedding.M):
            Fg = gemb.residue_field
            if F.degree % Fg.degree != 0:
                continue
            target_red = {ell: gemb.local_ints(*cls.a(ell)).reduce()
                          for ell in ells}
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
                    % analysis.form_id(cls.space, idx))
            matches.append(CongruenceMatch(
                analysis.form_id(cls.space, idx), bound, ells, F.degree,
                homs.index(consistent[0]), cls, gemb))
            break
    return matches


def verify_congruence(f_norm, g_norm, n_max, mode):
    """Check reduce(theta_{n,i}(f) / c) = u * nu(reduce(theta_{n-1,i}(g))).

    The scaling element c has valuation mu_min(f) in lowslope mode and is
    1 in medweight mode; the residue-field unit u is fitted at the
    smallest level and reused for every (n, i).
    """
    if mode not in ("medweight", "lowslope"):
        raise ValueError("mode must be medweight or lowslope")
    emb = f_norm.embedding
    p = emb.p
    mazurtate.check_budget(p, n_max + 1)
    if g_norm.embedding.p != p:
        raise ValueError("symbols live over different primes")
    if mode == "lowslope":
        mu, witness = _mu_min_witness(f_norm)
        scale = witness.inverse()
    else:
        mu = 0
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
        for i in mazurtate.twists(p, f_norm.sign):
            lhs = [(scale * c).reduce()
                   for c in mazurtate.theta_element(f_norm, n, i).coeffs]
            rhs_elt = mazurtate.nu_corestrict(
                mazurtate.theta_element(g_norm, n - 1, i))
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


class OldspaceDecomposition(list):
    """Coordinates a_1..a_r in the basis of degeneracy images of g."""

    span_dimension = None


def _degeneracy_images(cls, target, r):
    """The values of phi|(r, 0; 0, 1) at the target level for an eigenclass
    phi, in integers: Phi(A) as g + 1 integer vectors over cls.denominator,
    mapped one coordinate of the exact values at a time."""
    space = cls.space
    images = [modsym.degeneracy_values(
        space, target, r, [[x[t] for x in cls.exact_value(A)]
                           for A in range(len(space.plist))])
        for t in range(cls.field.degree)]
    return [list(zip(*(img[A] for img in images)))
            for A in range(len(target.plist))]


def oldspace_decompose(f_norm, g_norm, images, target):
    """Coordinates of the reduced alpha-image of f in target, level N p^r.

    The alpha map evaluates the generator polynomials at the bottom rows
    of coset lifts and divides by an element of valuation mu_min(f); the
    result is expanded in the basis phi-bar_g | (p^t, 0; 0, 1), t = 1..r,
    by linear algebra over the residue field.  images[t - 1] is the exact
    degeneracy image of g at p^t (`_degeneracy_images`), and each basis
    vector is its reduction, embedded once per coset.
    """
    space = f_norm.space
    emb = f_norm.embedding
    N = space.M
    if g_norm.space.k != 2 or g_norm.space.M != N:
        raise ValueError("the partner must be a weight-2 symbol at level N")
    F = emb.residue_field
    Fg = g_norm.embedding.residue_field
    homs = _residue_homs(Fg, F)
    if not homs:
        raise EmbeddingAmbiguity("no residue-field embedding available")
    hom = homs[0]
    size = len(target.plist)
    basis = [[_apply_hom(g_norm.embed(img[A][0]).reduce(), hom, F)
              for A in range(size)] for img in images]
    _, witness = _mu_min_witness(f_norm)
    scale = witness.inverse()
    tvec = []
    for A in range(size):
        _, (c, d) = target.plist.lift(A)
        acc = f_norm.evaluate(space.plist.index(c, d), c, d)
        tvec.append((acc * scale).reduce())
    span = linalg.rank(basis, F)
    cols = [list(col) for col in zip(*basis)]
    sol = linalg.solve(cols, tvec, F)
    if sol is None:
        raise NotInSpan(
            "the reduced alpha-image is not in the degeneracy span "
            "(dimension %d)" % span, span_dimension=span)
    out = OldspaceDecomposition(sol)
    out.span_dimension = span
    return out


def verify_weight2_patterns(g_norm, n_max):
    """Pattern checks for a weight-2 symbol, routed on ord_p(a_p).

    Returns {i: report} for every twist i of the symbol's sign.
    Supersingular route: reports lambda(theta_{n,i}) - q_n per level and
    whether it is constant from n = 2 on.
    Ordinary route: reports "maximal" when lambda = p^n - 1 throughout
    (the reducible anomaly), otherwise compares theta invariants with the
    invariants of the p-stabilization, built from the exact thetas with
    the unit root alpha found once for all twists, and reports where they
    stabilize.
    """
    emb = g_norm.embedding
    p = emb.p
    mazurtate.check_budget(p, n_max + 1)
    ap = g_norm.eigensymbol.a(p)
    ordinary = any(ap[0]) and emb.local_ints(*ap).valuation() == 0
    alpha = None
    reports = {}
    for i in mazurtate.twists(p, g_norm.sign):
        rows = []
        for n in range(n_max + 1):
            inv = mazurtate.invariants(mazurtate.theta_element(g_norm, n, i))
            rows.append((n, i, inv.mu, inv.lam, inv.certified))
        if not ordinary:
            diffs = [(n, lam - mazurtate.q_n(n, p)) for n, _, _, lam, _ in rows
                     if n >= 2]
            reports[i] = {
                "branch": "supersingular",
                "rows": rows,
                "lambda_minus_qn": diffs,
                "constant": len(set(d for _, d in diffs)) <= 1,
            }
            continue
        if all(lam == p ** n - 1 for n, _, _, lam, _ in rows if n >= 1):
            reports[i] = {"branch": "ordinary", "pattern": "maximal",
                          "rows": rows}
            continue
        if alpha is None:
            alpha = mazurtate.p_stabilize(g_norm)
        psi_rows = []
        for n in range(n_max + 1):
            _, inv = mazurtate.lp_approx(g_norm, alpha, i, n)
            psi_rows.append((n, i, inv.mu, inv.lam, inv.certified))
        stabilized_at = None
        for n in range(1, n_max + 1):
            if psi_rows[n][2:4] == psi_rows[n - 1][2:4]:
                stabilized_at = n - 1
                break
        reports[i] = {
            "branch": "ordinary",
            "pattern": "stable",
            "rows": rows,
            "psi_rows": psi_rows,
            "stabilized_at": stabilized_at,
            "mu_vanishes": all(mu == 0 for n, _, mu, _, _ in rows if n >= 1),
            "theta_matches_psi": [
                (n, rows[n][3] == psi_rows[n][3]) for n in range(n_max + 1)],
        }
    return reports


# ---------------------------------------------------------------------------
# the verify modes


def _prime_checks(config, space, step):
    """The check rows of step(normalized) for every prime above p.

    A prime whose symbol cannot be normalized at any rung of the ladder
    gets one failed row noting that precision ran out.
    """
    checks = []
    for _, cid, j, rows in cli._records(config, space, cli._each(step)):
        if rows is None:
            rows = [{"n": None, "i": None, "ok": False,
                     "note": "precision exhausted"}]
        checks.extend({"class": cid, "embedding": j, **row} for row in rows)
    return checks


def _verify_three_term(config):
    p = config.p
    mazurtate.check_budget(p, config.n_max + 1)

    def step(norm):
        emb = norm.embedding
        ap = emb.local_ints(*norm.eigensymbol.a(p))
        pk = emb.local(p ** (config.k - 2))
        rows = []
        for i in mazurtate.twists(p, norm.sign):
            thetas = [mazurtate.theta_element(norm, n, i)
                      for n in range(config.n_max + 1)]
            for n in range(1, config.n_max):
                lhs = mazurtate.pi_project(thetas[n + 1])
                rhs = thetas[n].scale(ap) \
                    - mazurtate.nu_corestrict(thetas[n - 1]).scale(pk)
                ok = (lhs - rhs).is_zero_to_precision(1)
                rows.append({"n": n, "i": i, "ok": bool(ok)})
        return rows

    return _prime_checks(config, config.space(), step)


def _verify_degen(config):
    p = config.p
    mazurtate.check_budget(p, config.n_max + 1)
    space = config.space()
    target = config.space(level=config.N * p)
    fulls = {}   # eigenclass -> its level-Np elements, for every prime

    def step(norm):
        cls = norm.eigensymbol
        pg = norm.embedding.local(p ** space.g)
        if cls not in fulls:
            vp = _degeneracy_images(cls, target, p)
            fulls[cls] = [mazurtate.mazur_tate_values(
                target, vp.__getitem__, p, n + 2)
                for n in range(config.n_max)]
        rows = []
        for i in mazurtate.twists(p, norm.sign):
            for n in range(config.n_max):
                lhs = mazurtate.embedded_projection(norm, fulls[cls][n], i)
                rhs = mazurtate.nu_corestrict(
                    mazurtate.theta_element(norm, n, i)).scale(pg)
                ok = (lhs - rhs).is_zero_to_precision(1)
                rows.append({"n": n, "i": i, "ok": bool(ok)})
        return rows

    return _prime_checks(config, space, step)


def _old_prime(config, cls):
    """A prime q exactly dividing N at which the class is q-old, or None.

    A newform has a_q^2 = q^(k-2) at such q.  The U_q eigenvalue of a
    q-old class is a root of x^2 - a_q(g) x + q^(k-1) for a form g of
    level N / q, of absolute value q^((k-1)/2) by Deligne's bound, so its
    square is never q^(k-2).
    """
    for q in padic.prime_divisors(config.N):
        if config.N % (q * q):
            nums, den = cls.a(q)
            square = cls.field.exact(polyq.mul(nums, nums), den * den)
            if square != cls.field.exact([q ** (config.k - 2)], 1):
                return q
    return None


def _verify_atkin_lehner(config):
    """w_N on each eigenclass, in integers: H = D w_N squares to
    N^(k-2) D^2 on the whole space, so an eigenvalue of w_N is
    +-N^(k/2-1), and the class is an eigenvector exactly when
    H nums = +-N^(k/2-1) D nums, one power-basis coordinate at a time.
    w_N acts by a scalar only on newforms, so on a class certified old
    (`_old_prime`) the check is not applicable."""
    checks = []
    space = config.space()
    H = space.hecke_matrix("wN")
    plus = config.N ** (config.k // 2 - 1) * space.denominator
    for sign, cid, cls in cli._class_records(config, space):
        cols = [list(col) for col in zip(*cls.numerators)]
        out = [linalg.mat_vec(H, col) for col in cols]
        fe_sign = next((s for s in (1, -1)
                        if all(o == s * plus * w
                               for got, col in zip(out, cols)
                               for o, w in zip(got, col))), None)
        entry = {"class": cid, "sign": sign, "eigen": fe_sign is not None,
                 "ok": fe_sign is not None}
        old = None if fe_sign is not None else _old_prime(config, cls)
        if fe_sign is not None:
            entry["fe_sign"] = fe_sign
        elif old is None:
            entry["note"] = "not a wN eigenvector (old class)"
        else:
            entry.update(ok=None, status="not-applicable",
                         reason="old at q = %d: a_q^2 != q^(k-2), so wN "
                                "need not act by a scalar" % old)
        checks.append(entry)
    return checks


def _verify_alphastick(config):
    p = config.p
    g = config.k - 2
    if g <= 0 or g % (p - 1):
        raise cli.ConfigError(
            "the alpha map needs k > 2 with (p - 1) dividing k - 2")
    mazurtate.check_budget(p, config.n_max)
    target = config.space(level=config.N * p, weight=2)

    def step(norm):
        avals = modsym.alpha_map(norm, target)
        rows = []
        for n in range(1, config.n_max + 1):
            lhs = mazurtate.mazur_tate_values(target, avals.__getitem__, p, n)
            rhs = mazurtate.exact_element(norm.eigensymbol, p, n)
            ok = all(norm.embed(x).reduce()
                     == norm.embed(rhs.coeffs[a]).reduce()
                     for a, x in lhs.coeffs.items())
            rows.append({"n": n, "ok": bool(ok)})
        return rows

    return _prime_checks(config, config.space(), step)


def _weight2_matches(config, norm, w2_classes):
    """(match, normalized weight-2 partner) for each congruent class."""
    for m in find_congruent_weight2(
            norm.eigensymbol, norm.embedding, w2_classes,
            config.primes_above):
        yield m, modsym.normalize(m.target_class, m.target_embedding)


def _verify_congruence(config):
    w2_classes = modsym.cuspidal_eigensymbols(config.space(weight=2), 1)

    def step(norm):
        rows = []
        for m, gnorm in _weight2_matches(config, norm, w2_classes):
            res = verify_congruence(norm, gnorm, config.n_max,
                                    config.congruence_mode)
            rows.append({
                "target": m.target_id,
                "mode": res["mode"], "mu_min": cli._fmt(res["mu_min"]),
                "rows": [{"n": n, "i": i, "ok": ok}
                         for n, i, ok in res["rows"]],
                "ok": res["all_passed"],
            })
        return rows

    return _prime_checks(config, config.space(), step)


def _verify_wt2_patterns(config):
    def step(norm):
        entries = []
        for i, rep in verify_weight2_patterns(norm, config.n_max).items():
            entry = {"i": i, "branch": rep["branch"]}
            entry["rows"] = [
                {"n": n, "i": i, "mu": cli._fmt(mu), "lambda": cli._fmt(lam),
                 "certified": cert} for n, _, mu, lam, cert in rep["rows"]]
            if rep["branch"] == "supersingular":
                entry["lambda_minus_qn"] = [
                    {"n": n, "value": cli._fmt(v)}
                    for n, v in rep["lambda_minus_qn"]]
                entry["constant"] = rep["constant"]
                entry["ok"] = rep["constant"]
            else:
                entry["pattern"] = rep["pattern"]
                if rep["pattern"] == "stable":
                    entry["stabilized_at"] = rep["stabilized_at"]
                    entry["mu_vanishes"] = rep["mu_vanishes"]
                    entry["theta_matches_psi"] = [
                        {"n": n, "ok": ok}
                        for n, ok in rep["theta_matches_psi"]]
                    entry["ok"] = rep["stabilized_at"] is not None
                else:
                    entry["ok"] = True
            entries.append(entry)
        return entries

    return _prime_checks(config, config.space(weight=2), step)


def _verify_oldspace(config):
    w2_classes = modsym.cuspidal_eigensymbols(config.space(weight=2), 1)
    target = config.space(level=config.N * config.p ** config.r, weight=2)
    images = {}   # partner class -> its degeneracy images at p^t, t = 1..r

    def step(norm):
        rows = []
        for m, gnorm in _weight2_matches(config, norm, w2_classes):
            cls = gnorm.eigensymbol
            if cls not in images:
                images[cls] = [_degeneracy_images(cls, target, config.p ** t)
                               for t in range(1, config.r + 1)]
            try:
                dec = oldspace_decompose(norm, gnorm, images[cls], target)
            except NotInSpan as exc:
                rows.append({"target": m.target_id, "ok": False,
                             "span_dimension": exc.span_dimension,
                             "note": "not in the degeneracy span"})
                continue
            rows.append({
                "target": m.target_id,
                "span_dimension": dec.span_dimension,
                "coefficients": [
                    {"t": t + 1, "value": cli._fmt(c),
                     "nonzero": not c.is_zero()}
                    for t, c in enumerate(dec)],
                "ok": True,
            })
        return rows

    return _prime_checks(config, config.space(), step)


_VERIFY_MODES = {
    "three-term": _verify_three_term,
    "degen": _verify_degen,
    "atkin-lehner": _verify_atkin_lehner,
    "alphastick": _verify_alphastick,
    "congruence": _verify_congruence,
    "wt2-patterns": _verify_wt2_patterns,
    "oldspace": _verify_oldspace,
}


def cmd_verify(config):
    mode = config.verify_mode
    checks = _VERIFY_MODES[mode](config)
    rows = [(c.get("class"), c.get("embedding"), c.get("n"),
             c.get("i"), c.get("ok")) for c in checks]
    cli._emit(config, "verify", {"mode": mode, "checks": checks},
              ("class", "embedding", "n", "i", "ok"), rows)
    # a check that is not applicable (ok null) is no failure
    if any(c["ok"] is False for c in checks):
        return cli.EXIT_IDENTITY
    return cli.EXIT_OK
