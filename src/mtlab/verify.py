"""The identity checks of the ``verify`` command, one per --mode.

`cli` imports this module only for that command.  The per-prime modes run
through the job driver `cli._records`, and every report is written by
`cli._emit`.
"""

from . import analysis, cli, linalg, mazurtate, modsym, padic, polyq


def sturm_bound(N, k):
    """k * [SL_2(Z) : Gamma_0(N)] / 12, rounded up.

    The index is N * prod (1 + 1/q) over the primes q | N.
    """
    index = N
    for q in padic.prime_divisors(N):
        index = index // q * (q + 1)
    return -(-k * index // 12)


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
    """The weight-2 classes whose residual eigensystem matches, as
    (class id, class, prime above p, residue-field map) tuples.

    classes are the sign +1 cuspidal eigensymbols of weight 2 at the level
    of the eigensymbol, in report order, and primes_above(field, M) gives
    the primes above p of a class's field (the job's memo).  Matching
    compares reductions of a_ell for every prime ell != p up to the Sturm
    bound through one search: a prime matches when some map of residue
    fields aligns every checked prime at once, and otherwise the forms are
    not congruent there, even when each reduction is conjugate to its
    partner.  A class's first matching prime is its partner, and its map
    is the first aligning one: the image of the generator of that prime's
    residue field in the residue field of embedding, as `_apply_hom` reads
    it.
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
            hom = next((h for h in _residue_homs(Fg, F)
                        if all(_apply_hom(target_red[ell], h, F)
                               == source_red[ell] for ell in ells)), None)
            if hom is not None:
                matches.append((analysis.form_id(cls.space, idx), cls, gemb,
                                hom))
                break
    return matches


def verify_congruence(f_norm, g_norm, hom, n_max, mode):
    """Check reduce(theta_{n,i}(f) / c) = u * nu(reduce(theta_{n-1,i}(g))).

    g is read in the residue field of f through hom, the residue-field map
    that `find_congruent_weight2` matched it with.  The scaling element c
    is the witness of `analysis.mu_min_witness`, a value of valuation
    mu_min(f), in lowslope mode and is 1 in medweight mode; the
    residue-field unit u is fitted at the smallest level and reused for
    every (n, i).  Returns (mu, [(n, i, ok)]), with mu the valuation of c.
    """
    if mode not in ("medweight", "lowslope"):
        raise ValueError("mode must be medweight or lowslope")
    emb = f_norm.embedding
    p = emb.p
    mazurtate.check_budget(p, n_max + 1)
    if g_norm.embedding.p != p:
        raise ValueError("symbols live over different primes")
    if mode == "lowslope":
        mu, witness = analysis.mu_min_witness(f_norm)
        scale = witness.inverse()
    else:
        mu = 0
        scale = emb.local(1)
    F = emb.residue_field
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
    return mu, rows


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


def oldspace_decompose(f_norm, g_norm, hom, images, target):
    """(span dimension, coordinates a_1..a_r or None) of the reduced
    alpha-image of f in target, level N p^r.

    The alpha map evaluates the generator polynomials at the bottom rows
    of coset lifts and divides by the witness of `analysis.mu_min_witness`,
    a value of valuation mu_min(f); the result is expanded in the basis
    phi-bar_g | (p^t, 0; 0, 1), t = 1..r, by linear algebra over the
    residue field of f.  images[t - 1] is the exact degeneracy image of g
    at p^t (`_degeneracy_images`), and each basis vector is its
    reduction, embedded once per coset and read through hom, the
    residue-field map g was matched with.  The coordinates are None when
    the image is not in the span.
    """
    space = f_norm.space
    emb = f_norm.embedding
    N = space.M
    if g_norm.space.k != 2 or g_norm.space.M != N:
        raise ValueError("the partner must be a weight-2 symbol at level N")
    F = emb.residue_field
    size = len(target.plist)
    basis = [[_apply_hom(g_norm.embed(img[A][0]).reduce(), hom, F)
              for A in range(size)] for img in images]
    _, witness = analysis.mu_min_witness(f_norm)
    scale = witness.inverse()
    tvec = []
    for A in range(size):
        _, (c, d) = target.plist.lift(A)
        acc = f_norm.evaluate(space.plist.index(c, d), c, d)
        tvec.append((acc * scale).reduce())
    cols = [list(col) for col in zip(*basis)]
    return linalg.rank(basis, F), linalg.solve(cols, tvec, F)


def verify_weight2_patterns(g_norm, n_max):
    """The pattern entries of a weight-2 symbol, one per twist i of its
    sign, routed on ord_p(a_p), as the wt2-patterns report lists them.

    Each entry holds mu and lambda of theta_{n,i}, n = 0..n_max.
    Supersingular route: lambda(theta_{n,i}) - q_n per level from n = 2
    on, and whether it is constant.  Ordinary route: the pattern
    "maximal" when lambda = p^n - 1 throughout (the reducible anomaly),
    otherwise "stable", with the level from which the invariants of the
    p-stabilization, built from the exact thetas with the unit root alpha
    found once for all twists, stop changing, and where their lambda
    equals that of theta.
    """
    emb = g_norm.embedding
    p = emb.p
    mazurtate.check_budget(p, n_max + 1)
    ap = g_norm.eigensymbol.a(p)
    ordinary = any(ap[0]) and emb.local_ints(*ap).valuation() == 0
    alpha = None
    entries = []
    for i in mazurtate.twists(p, g_norm.sign):
        invs = [mazurtate.invariants(mazurtate.theta_element(g_norm, n, i))
                for n in range(n_max + 1)]
        entry = {"i": i, "rows": [
            {"n": n, "i": i, "mu": cli._fmt(inv.mu),
             "lambda": cli._fmt(inv.lam), "certified": inv.certified}
            for n, inv in enumerate(invs)]}
        entries.append(entry)
        if not ordinary:
            diffs = [(n, invs[n].lam - mazurtate.q_n(n, p))
                     for n in range(2, n_max + 1)]
            constant = len(set(d for _, d in diffs)) <= 1
            entry.update(branch="supersingular", constant=constant,
                         ok=constant, lambda_minus_qn=[
                             {"n": n, "value": cli._fmt(d)}
                             for n, d in diffs])
            continue
        if all(inv.lam == p ** n - 1 for n, inv in enumerate(invs) if n):
            entry.update(branch="ordinary", pattern="maximal", ok=True)
            continue
        if alpha is None:
            alpha = mazurtate.p_stabilize(g_norm)
        psis = [mazurtate.invariants(
            mazurtate.stabilized_theta(g_norm, alpha, n, i))
            for n in range(n_max + 1)]
        key = [(psi.mu, psi.lam) for psi in psis]
        stabilized_at = next((n - 1 for n in range(1, n_max + 1)
                              if key[n] == key[n - 1]), None)
        entry.update(
            branch="ordinary", pattern="stable",
            stabilized_at=stabilized_at, ok=stabilized_at is not None,
            mu_vanishes=all(inv.mu == 0 for inv in invs[1:]),
            theta_matches_psi=[{"n": n, "ok": inv.lam == psi.lam}
                               for n, (inv, psi)
                               in enumerate(zip(invs, psis))])
    return entries


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
    """(class id, normalized weight-2 partner, residue-field map) for each
    congruent class."""
    for cid, cls, gemb, hom in find_congruent_weight2(
            norm.eigensymbol, norm.embedding, w2_classes,
            config.primes_above):
        yield cid, modsym.normalize(cls, gemb), hom


def _verify_congruence(config):
    w2_classes = modsym.cuspidal_eigensymbols(config.space(weight=2), 1)

    def step(norm):
        rows = []
        for cid, gnorm, hom in _weight2_matches(config, norm, w2_classes):
            mu, checks = verify_congruence(norm, gnorm, hom, config.n_max,
                                           config.congruence_mode)
            rows.append({
                "target": cid,
                "mode": config.congruence_mode, "mu_min": cli._fmt(mu),
                "rows": [{"n": n, "i": i, "ok": ok} for n, i, ok in checks],
                "ok": all(ok for _, _, ok in checks),
            })
        return rows

    return _prime_checks(config, config.space(), step)


def _verify_wt2_patterns(config):
    return _prime_checks(
        config, config.space(weight=2),
        lambda norm: verify_weight2_patterns(norm, config.n_max))


def _verify_oldspace(config):
    w2_classes = modsym.cuspidal_eigensymbols(config.space(weight=2), 1)
    target = config.space(level=config.N * config.p ** config.r, weight=2)
    images = {}   # partner class -> its degeneracy images at p^t, t = 1..r

    def step(norm):
        rows = []
        for cid, gnorm, hom in _weight2_matches(config, norm, w2_classes):
            cls = gnorm.eigensymbol
            if cls not in images:
                images[cls] = [_degeneracy_images(cls, target, config.p ** t)
                               for t in range(1, config.r + 1)]
            span, coords = oldspace_decompose(norm, gnorm, hom, images[cls],
                                              target)
            row = {"target": cid, "span_dimension": span,
                   "ok": coords is not None}
            if coords is None:
                row["note"] = "not in the degeneracy span"
            else:
                row["coefficients"] = [
                    {"t": t, "value": cli._fmt(c), "nonzero": not c.is_zero()}
                    for t, c in enumerate(coords, 1)]
            rows.append(row)
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
