"""Tests for the analysis layer: hot paths without re-embedding, budgets,
mu_min against the full scan, and the Mahler identity it rests on."""

from functools import lru_cache
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

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
    mu = analysis.mu_min(norm)
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
    P^1(Z/p^m), m = 1, 2, ..., M; the witness is the first evaluation to
    reach the least certified valuation.  A point of P^1(Z_p) has
    valuation at least min(v, m) for the value v at its center of level
    m, and a value that vanishes to its precision bounds that v below by
    the precision only, so the scan is certified after level m once the
    least valuation is at most m and every such precision."""
    emb = norm.embedding
    cosets = range(len(norm.space.plist))
    best = witness = None
    for m in range(1, emb.M + 1):
        low = m
        for c, d in p1_pairs(emb.p, m):
            for A in cosets:
                acc = reference_evaluate(norm, A, c, d)
                if acc.is_zero_to_precision():
                    low = min(low, acc.prec)
                    continue
                v = acc.valuation()
                if best is None or v < best:
                    best, witness = v, acc
        if best is not None and best <= low:
            return best, witness
    raise PrecisionExhausted("mu_min >= %d" % emb.M)


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
    except PrecisionExhausted as exc:
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
        got_mu, got = analysis.mu_min_witness(norm)
        assert got_mu == mu
        assert digits(got) == digits(witness)


def test_mu_min_matches_the_full_scan_at_low_precision():
    """At these precisions some values vanish to a precision below the
    least certified valuation, and some symbols have no certified digits
    at their first evaluations: mu_min_witness must end with the same
    value and witness, or the same error, as the scan."""
    seen = set()
    for case in [(11, 12, 3, 4), (11, 16, 3, 4), (11, 20, 3, 5)]:
        for norm in every_symbol(*case):
            want = outcome(reference_mu_min_witness, norm)
            seen.add(want if isinstance(want, type) else int)
            assert outcome(analysis.mu_min_witness, norm) == want
    assert seen == {int, PrecisionExhausted}


def count_combine(monkeypatch, plant=None):
    """The number of NormalizedSymbol.combine calls made from now on; the
    first result is replaced by plant(result) when plant is given."""
    calls = []
    combine = modsym.NormalizedSymbol.combine

    def counted(self, A, weights):
        x = combine(self, A, weights)
        calls.append(A)
        return plant(x) if plant and len(calls) == 1 else x

    monkeypatch.setattr(modsym.NormalizedSymbol, "combine", counted)
    return calls


def test_a_value_vanishing_below_mu_min_is_not_certified(monkeypatch):
    """A first combination known only to vanish to precision mu - 1
    bounds mu_min below by mu - 1 and nothing more: no certificate."""
    symbols = [(norm, analysis.mu_min(norm))
               for case in [(11, 12, 3, 8), (11, 16, 3, 8)]
               for norm in every_symbol(*case)]
    symbols = [(norm, mu) for norm, mu in symbols
               if mu is not None and mu >= 2]
    assert len(symbols) == 11
    for norm, mu in symbols:
        with monkeypatch.context() as patch:
            count_combine(patch, lambda x: padic.LocalElement(
                x.emb, [], 0, mu - 1))
            assert analysis.mu_min(norm) is None


def test_a_combination_with_negative_precision_is_not_certified(monkeypatch):
    """At 11/22/3, M = 4, three symbols (sign +1 class 1 at embeddings 1
    and 2, sign -1 class 1 at embedding 1) meet a Mahler combination whose
    certified precision is negative.  The c_j are integral, so that
    combination bounds nothing beyond its floor: mu_min is None there,
    and raises nothing."""
    symbols = every_symbol(11, 22, 3, 4)
    assert [(norm.sign, norm.embedding.index) for norm in symbols] == \
        [(1, 1), (1, 2), (-1, 1)]
    precisions = []
    combine = modsym.NormalizedSymbol.combine

    def recorded(self, A, weights):
        x = combine(self, A, weights)
        precisions.append(x.prec)
        return x

    monkeypatch.setattr(modsym.NormalizedSymbol, "combine", recorded)
    for norm in symbols:
        del precisions[:]
        assert analysis.mu_min(norm) is None
        assert min(precisions) < 0


def test_mu_min_makes_at_most_two_combinations_per_coefficient(monkeypatch):
    """At most 2 (g + 1) combinations per coset: 552 at 11/24/3, where
    three uncertified rows at M = 8 once tried 52,464 each."""
    space = modsym.ManinSymbolSpace(11, 24)
    cap = 2 * (space.g + 1) * len(space.plist)
    assert cap == 552
    symbols = []
    for cls in modsym.cuspidal_eigensymbols(space, 1):
        for emb in padic.primes_above(cls.field, 3, 8):
            try:
                symbols.append(modsym.normalize(cls, emb))
            except PrecisionExhausted:
                pass
    assert symbols
    calls = count_combine(monkeypatch)
    for norm in symbols:
        del calls[:]
        analysis.mu_min(norm)
        assert len(calls) <= cap


# -- Mahler's theorem in integers ---------------------------------------------

def vp(n, p):
    """v_p(n), None for n = 0."""
    return padic._vp(n, p) if n else None


def least(values):
    return min((v for v in values if v is not None), default=None)


def mahler_minimum(coeffs, p):
    """min_j v_p(b_j) for P = sum_e coeffs[e] x^e: b_j = j! c_j with
    c_j = sum_e S(e, j) coeffs[e], as in `analysis.mu_min`."""
    S = analysis._stirling2(len(coeffs) - 1)
    return least(vp(factorial(j) * sum(S[e][j] * a for e, a in
                                       enumerate(coeffs)), p)
                 for j in range(len(coeffs)))


def scan_minimum(coeffs, p, K):
    """The least v_p(P(x)) over x < p^K."""
    def value(x):
        acc = 0
        for a in reversed(coeffs):
            acc = acc * x + a
        return acc
    return least(vp(value(x), p) for x in range(p ** K))


def from_falling(c):
    """The coefficients of sum_j c[j] x (x - 1) ... (x - j + 1)."""
    out, falling = [0] * len(c), [1]
    for j, cj in enumerate(c):
        for e, a in enumerate(falling):
            out[e] += cj * a
        falling = [0] + falling
        for e in range(len(falling) - 1):
            falling[e] -= j * falling[e + 1]
    return out


PRIMES = st.sampled_from([3, 5, 7])
# K with p^K about 2,500: P(x mod p^K) has valuation min(v(P(x)), K) or more
SCAN_DEPTH = {3: 7, 5: 5, 7: 4}


@st.composite
def polynomials(draw):
    """(p, coefficients) of an integer polynomial of degree <= 9: random,
    p^s (x^p - x) Q with mu >= s + 1, or one with zero Mahler
    coefficients."""
    p = draw(PRIMES)
    kind = draw(st.sampled_from(["random", "fermat", "zeros"]))
    small = st.integers(-p ** 3, p ** 3)
    if kind == "random":
        return p, draw(st.lists(small, min_size=1, max_size=10))
    if kind == "fermat":
        s = draw(st.integers(0, 2))
        fermat = [0, -p ** s] + [0] * (p - 2) + [p ** s]
        q = draw(st.lists(small, min_size=1, max_size=10 - p))
        out = [0] * (len(fermat) + len(q) - 1)
        for i, a in enumerate(fermat):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return p, out
    falling = draw(st.lists(st.one_of(st.just(0), small), min_size=1,
                            max_size=10))
    return p, from_falling(falling)


def planted_examples(test):
    """x^p - x (mu = 1), and x (x - 1) ... (x - p + 1), whose Mahler
    coefficients are 0, ..., 0, p! (mu = 1)."""
    for p in (3, 5, 7):
        test = example((p, [0, -1] + [0] * (p - 2) + [1]))(test)
        test = example((p, from_falling([0] * p + [1])))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(polynomials())
@planted_examples
def test_mahler_coefficients_give_the_least_valuation_on_z_p(case):
    p, coeffs = case
    K = SCAN_DEPTH[p]
    want = scan_minimum(coeffs, p, K)
    got = mahler_minimum(coeffs, p)
    if not any(coeffs):
        assert want is got is None
    else:
        assert min(got, K) == min(want, K)


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
    for name in ("constant-lambda", "shifted"):
        pairs = planted(name, p, {0: c, 1: c})
        assert analysis._fit_pattern(p, pairs) == (name, {0: c})
    pairs = planted("shifted-supersingular", p, {0: c, 1: c})
    assert analysis._fit_pattern(p, pairs) == ("shifted-supersingular",
                                               {0: c, 1: c})


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("even,odd", [(0, 0), (1, -3), (4, 2)])
def test_fit_pattern_finds_planted_supersingular_parity_constants(p, even,
                                                                   odd):
    for name in ("supersingular", "shifted-supersingular"):
        pairs = planted(name, p, {0: even, 1: odd})
        assert analysis._fit_pattern(p, pairs) == (name, {0: even, 1: odd})


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
