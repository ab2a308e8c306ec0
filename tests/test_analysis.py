"""Tests for the analysis layer: hot paths without re-embedding, budgets,
and mu_min against the full scan it replaces."""

from functools import lru_cache

import pytest

from mtlab import analysis, mazurtate, modsym, padic, verify
from mtlab.errors import OutOfBudget, PrecisionExhausted
from test_modsym import embedded_element


def normalized(level, weight, p, M=8):
    f = modsym.cuspidal_eigensymbols(modsym.ManinSymbolSpace(level, weight),
                                     1)[0]
    return modsym.normalize(f, padic.primes_above(f.field, p, M)[0])


def count_local(monkeypatch):
    """The number of PAdicEmbedding.local calls made from now on."""
    calls = []
    local = padic.PAdicEmbedding.local

    def counted(self, x):
        calls.append(x)
        return local(self, x)

    monkeypatch.setattr(padic.PAdicEmbedding, "local", counted)
    return calls


def test_mazur_tate_element_embeds_nothing(monkeypatch):
    norm = normalized(11, 2, 5)
    calls = count_local(monkeypatch)
    theta = embedded_element(norm, 3)
    assert len(theta.coeffs) == 100
    assert calls == []


def test_mu_min_embeds_nothing(monkeypatch):
    norm = normalized(11, 4, 3)
    calls = count_local(monkeypatch)
    mu, _ = analysis.mu_min(norm)
    assert mu >= 0
    assert calls == []


@pytest.mark.parametrize("entry", ["invariant_table", "verify_congruence",
                                   "verify_weight2_patterns"])
def test_budget_is_checked_before_any_element(entry, monkeypatch):
    norm = normalized(11, 2, 5)
    built = []
    monkeypatch.setattr(mazurtate, "mazur_tate_values",
                        lambda *args: built.append(args))
    run = {
        "invariant_table": lambda: analysis.invariant_table(norm, 7),
        "verify_congruence": lambda: verify.verify_congruence(
            norm, norm, norm.embedding.residue_field.one(), 7, "medweight"),
        "verify_weight2_patterns": lambda: verify.verify_weight2_patterns(
            norm, 7),
    }[entry]
    # level 8: 4 * 5^7 = 312500 units, 8 steps each
    with pytest.raises(OutOfBudget, match="2500000 evaluations.*500000"):
        run()
    assert built == []


def test_check_budget_bounds():
    mazurtate.check_budget(5, 6)  # 12500 units x 6 = 75000
    mazurtate.check_budget(5, 7)  # 62500 units x 7 = 437500
    with pytest.raises(OutOfBudget):
        mazurtate.check_budget(5, 8)
    with pytest.raises(OutOfBudget):
        mazurtate.check_budget(3, 11)  # 118098 units x 11
    mazurtate.check_budget(3, 0)


# ---------------------------------------------------------------------------
# mu_min against the full scan


def reference_evaluate(norm, A, c, d):
    """Phi(A)(c, d) scaled by the unreduced witness scale and embedded: the
    exact sum, with nothing reduced mod p^digits."""
    cls = norm.eigensymbol
    scale, scale_den = cls.witness_scale(*norm.content_certificate)
    x = cls.evaluate(A, c, d)
    return norm.embedding.local_ints(
        [sum(m * y for m, y in zip(row, x)) for row in scale],
        scale_den * cls.denominator)


def p1_pairs(p, m):
    """Representatives of P^1(Z/p^m): (1, d) and (p*c, 1)."""
    pm = p ** m
    return [(1, d) for d in range(pm)] + [(c, 1) for c in range(0, pm, p)]


def reference_mu_min_witness(norm):
    """(mu_min, witness) by scanning every coset at every pair of
    P^1(Z/p^m), m = 1, 2, ..., M, until the least certified valuation is
    below m; the witness is the first evaluation to reach it."""
    emb = norm.embedding
    cosets = range(len(norm.space.plist))
    best = witness = None
    for m in range(1, emb.M + 1):
        if best is not None and best < m:
            return best, witness
        for c, d in p1_pairs(emb.p, m):
            for A in cosets:
                acc = reference_evaluate(norm, A, c, d)
                if acc.is_zero_to_precision():
                    continue
                v = acc.valuation()
                if best is None or v < best:
                    best, witness = v, acc
    raise OutOfBudget("mu_min >= %d" % emb.M)


@lru_cache(maxsize=None)
def eigenclasses(level, weight):
    space = modsym.ManinSymbolSpace(level, weight)
    return [cls for sign in (1, -1)
            for cls in modsym.cuspidal_eigensymbols(space, sign)]


def every_symbol(level, weight, p, M):
    """The normalized symbols of every class, sign and prime above p that
    normalize at precision M."""
    out = []
    for cls in eigenclasses(level, weight):
        for emb in padic.primes_above(cls.field, p, M):
            try:
                out.append(modsym.normalize(cls, emb))
            except PrecisionExhausted:
                pass
    return out


def digits(x):
    return x.vec, x.shift, x.prec


def outcome(run, norm):
    """(mu_min, the witness's digits) of run(norm), or the error type."""
    try:
        mu, witness = run(norm)
    except (OutOfBudget, PrecisionExhausted) as exc:
        return type(exc)
    return mu, digits(witness)


@pytest.mark.parametrize("level, weight, p", [
    (11, 12, 3), (13, 4, 3), (23, 6, 3), (11, 8, 3), (11, 2, 5), (37, 2, 3),
    (11, 20, 3)])
def test_mu_min_and_witness_match_the_full_scan(level, weight, p):
    symbols = every_symbol(level, weight, p, 8)
    assert symbols
    for norm in symbols:
        mu, witness = reference_mu_min_witness(norm)
        got_mu, got = analysis.mu_min(norm)
        assert got_mu == mu
        assert digits(got) == digits(witness)


def test_mu_min_matches_the_full_scan_at_low_precision():
    """At these precisions some symbols run out of budget and one has no
    certified digits at its first evaluations: the search must end with
    the same value and witness, or the same error, as the scan."""
    seen = set()
    for case in [(11, 12, 3, 4), (11, 16, 3, 4), (11, 20, 3, 5)]:
        for norm in every_symbol(*case):
            want = outcome(reference_mu_min_witness, norm)
            seen.add(want if isinstance(want, type) else int)
            assert outcome(analysis.mu_min, norm) == want
    assert seen == {int, OutOfBudget, PrecisionExhausted}


def test_taylor_terms_without_digits_bound_nothing(monkeypatch):
    """A Taylor term with no certified digits is only known to be
    integral: its ball is split, neither pruned nor given up on."""
    symbols = every_symbol(11, 12, 3, 8)
    want = [reference_mu_min_witness(norm)[0] for norm in symbols]
    ball_term = analysis._ball_term

    def blurred(norm, ball, s):
        x = ball_term(norm, ball, s)
        return x if s == 0 else padic.LocalElement(x.emb, x.vec, x.shift, -1)

    monkeypatch.setattr(analysis, "_ball_term", blurred)
    assert [analysis.mu_min(norm)[0] for norm in symbols] == want


# -- lambda-growth patterns --------------------------------------------------

def planted(name, p, constants):
    """(n, lambda) of a template for n = 2..6, after rows n = 0, 1 whose
    lambda fits no template: the fit reads only n >= 2."""
    return [(0, 17), (1, -5)] + [
        (n, analysis._template_values(name, p, n, constants))
        for n in range(2, 7)]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("c", [-2, 0, 3])
def test_fit_pattern_finds_planted_single_constant_templates(p, c):
    assert analysis._fit_pattern(
        p, planted("maximal", p, {0: 0, 1: 0})) == ("maximal", {})
    for name in ("constant-lambda", "shifted", "shifted-supersingular"):
        pairs = planted(name, p, {0: c, 1: c})
        assert analysis._fit_pattern(p, pairs) == (name, {0: c})


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("even,odd", [(0, 0), (1, -3), (4, 2)])
def test_fit_pattern_finds_planted_supersingular_parity_constants(p, even,
                                                                   odd):
    pairs = planted("supersingular", p, {0: even, 1: odd})
    assert analysis._fit_pattern(p, pairs) == ("supersingular",
                                               {0: even, 1: odd})


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fit_pattern_rejects_junk_and_low_levels(p):
    junk = [(2, 5), (3, 1), (4, 9), (5, 2), (6, 40)]
    assert analysis._fit_pattern(p, junk) == ("none", {})
    # one template value off by one
    pairs = planted("constant-lambda", p, {0: 1, 1: 1})
    pairs[-1] = (6, pairs[-1][1] + 1)
    assert analysis._fit_pattern(p, pairs) == ("none", {})
    for low in ([], [(0, 0)], [(0, p - 1), (1, p - 1)]):
        assert analysis._fit_pattern(p, low) == ("none", {})
