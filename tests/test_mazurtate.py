"""Tests for group rings, Mazur-Tate elements, invariants, stabilization."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mtlab import analysis, mazurtate, modsym, padic, verify
from mtlab.errors import NotOrdinary, PrecisionExhausted
from mtlab.mazurtate import (
    CyclicGroupRingElement,
    FullGroupRingElement,
    embedded_projection,
    exact_element,
    invariants,
    lambda_invariant,
    mazur_tate_values,
    mu_invariant,
    nu_corestrict,
    omega_decompose,
    p_stabilize,
    pi_project,
    q_n,
    stabilized_theta,
    theta_element,
)
from test_modsym import (
    all_values,
    apply_operator_to_values,
    embedded_element,
    embedded_values,
    path_value,
)
from test_padic import make_field, with_precision

QQ = make_field([0, 1])


def emb_at(p, M=8):
    return padic.primes_above(QQ, p, M)[0]


def cyclic(emb, n, ints):
    return CyclicGroupRingElement(emb.p, n, [emb.local(c) for c in ints])


def conv(p, n, a, b):
    """Convolution product of integer coefficient vectors in Z[G_n]."""
    pn = p ** n
    out = [0] * pn
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % pn] += x * y
    return out


# -- q_n ----------------------------------------------------------------------

def test_qn_small_values():
    for p in (3, 5, 7):
        assert q_n(0, p) == 0
        assert q_n(1, p) == 0
        assert q_n(2, p) == p - 1
        assert q_n(3, p) == p * p - p


def test_qn_alternating_sum():
    # q_n = (p^(n-1) - p^(n-2)) + (p^(n-3) - p^(n-4)) + ..., last pair
    # (p - 1) for even n and (p^2 - p) for odd n
    for p in (3, 5):
        for n in range(2, 9):
            total = sum(p ** j - p ** (j - 1)
                        for j in range(n - 1, 0, -2))
            assert q_n(n, p) == total


def test_qn_rejects_negative():
    with pytest.raises(ValueError):
        q_n(-1, 3)


# -- group ring basics --------------------------------------------------------

def test_full_element_coefficient_count():
    emb = emb_at(3)
    coeffs = {a: emb.local(a) for a in (1, 2, 4, 5, 7, 8)}
    th = FullGroupRingElement(3, 2, coeffs)
    assert len(th.coefficient_list()) == 6
    with pytest.raises(ValueError):
        FullGroupRingElement(3, 2, {1: emb.local(1)})
    with pytest.raises(ValueError):
        FullGroupRingElement(3, 0, {})


def test_cyclic_element_coefficient_count():
    emb = emb_at(3)
    th = cyclic(emb, 1, [1, 2, 3])
    assert len(th.coefficient_list()) == 3
    with pytest.raises(ValueError):
        cyclic(emb, 1, [1, 2])
    with pytest.raises(ValueError):
        CyclicGroupRingElement(3, -1, [])


def test_add_sub_scale():
    emb = emb_at(3)
    a = cyclic(emb, 1, [1, 2, 3])
    b = cyclic(emb, 1, [4, 0, -3])
    s = a + b
    assert (s - a - b).is_zero_to_precision()
    sc = a.scale(emb.local(2))
    assert (sc - a - a).is_zero_to_precision()


def twist_generator(theta, u):
    """The image under the group automorphism gamma_n -> gamma_n^u."""
    pn = theta.p ** theta.n
    if u % theta.p == 0:
        raise ValueError("u must be prime to p")
    out = [None] * pn
    for j, c in enumerate(theta.coeffs):
        out[(j * u) % pn] = c
    return CyclicGroupRingElement(theta.p, theta.n, out)


def test_twist_generator_is_permutation():
    emb = emb_at(3)
    a = cyclic(emb, 2, list(range(1, 10)))
    t = twist_generator(a, 2)
    # gamma^1 goes to gamma^2
    assert (t.coeffs[2] - a.coeffs[1]).is_zero_to_precision()
    with pytest.raises(ValueError):
        twist_generator(a, 3)


# -- pi and nu ----------------------------------------------------------------

def test_pi_nu_composition_is_multiplication_by_p():
    emb = emb_at(3)
    rng = random.Random(101)
    for _ in range(20):
        th = cyclic(emb, 1, [rng.randrange(-9, 10) for _ in range(3)])
        lhs = pi_project(nu_corestrict(th))
        rhs = th.scale(emb.local(3))
        assert (lhs - rhs).is_zero_to_precision()


def test_pi_of_constant():
    emb = emb_at(3)
    th = cyclic(emb, 2, [7] + [0] * 8)
    pr = pi_project(th)
    assert pr.n == 1
    assert (pr.coeffs[0] - emb.local(7)).is_zero_to_precision()
    assert pr.coeffs[1].is_zero_to_precision()


def test_pi_below_level_zero_rejected():
    emb = emb_at(3)
    with pytest.raises(ValueError):
        pi_project(cyclic(emb, 0, [1]))


def test_nu_of_one_is_full_fiber():
    # nu(1) = sum over the p-torsion fiber; lambda = p^n - p^(n-1)
    for p in (3, 5):
        emb = emb_at(p)
        one = cyclic(emb, 1, [1] + [0] * (p - 1))
        img = nu_corestrict(one)
        assert img.n == 2
        inv = invariants(img)
        assert inv.mu == 0
        assert inv.lam == p * p - p


# -- invariants: direct examples ----------------------------------------------

def test_mu_of_unit_is_zero():
    emb = emb_at(5)
    assert mu_invariant(cyclic(emb, 1, [1, 0, 0, 0, 0])) == 0


def test_mu_of_p_gamma_plus_p_squared():
    emb = emb_at(5)
    th = cyclic(emb, 1, [25, 5, 0, 0, 0])
    assert mu_invariant(th) == 1


def test_mu_precision_exhausted_on_zero():
    emb = emb_at(3)
    with pytest.raises(PrecisionExhausted):
        mu_invariant(cyclic(emb, 1, [0, 0, 0]))


def test_lambda_of_gamma_minus_one():
    for p in (3, 5, 7):
        emb = emb_at(p)
        th = cyclic(emb, 1, [-1, 1] + [0] * (p - 2))
        assert lambda_invariant(th) == 1


def test_lambda_of_unit_constant():
    emb = emb_at(3)
    assert lambda_invariant(cyclic(emb, 2, [4] + [0] * 8)) == 0


def test_lambda_of_gamma_minus_one_power():
    # (gamma - 1)^j reduces to T^j, so lambda = j
    p = 3
    emb = emb_at(p)
    for n in (1, 2):
        base = [0] * p ** n
        base[0] = 1
        for j in range(p ** n):
            th = cyclic(emb, n, base)
            assert lambda_invariant(th) == j
            base = conv(p, n, base, [-1, 1] + [0] * (p ** n - 2))


def test_invariants_certified_flag():
    emb = emb_at(3, M=4)
    inv = invariants(cyclic(emb, 1, [9, 0, 0]))
    assert inv.mu == 2 and inv.certified
    assert inv == mazurtate.InvariantPair(2, 0, False)


# -- invariants: random property tests ----------------------------------------

def random_cyclic(emb, n, rng, unit=False):
    pn = emb.p ** n
    ints = [rng.randrange(-40, 41) for _ in range(pn)]
    if unit:
        ints[rng.randrange(pn)] = rng.choice(
            [u for u in range(1, 20) if u % emb.p != 0])
    elif not any(ints):
        ints[0] = 1
    return cyclic(emb, n, ints)


def test_nuninv_on_random_elements():
    emb = emb_at(3, M=10)
    rng = random.Random(20260823)
    for trial in range(1000):
        n = rng.choice((1, 2))
        th = random_cyclic(emb, n, rng, unit=(trial % 2 == 0))
        if trial % 5 == 0:
            th = th.scale(emb.local(3))
        img = nu_corestrict(th)
        assert mu_invariant(img) == mu_invariant(th)
        assert lambda_invariant(img) == (3 ** (n + 1) - 3 ** n
                                         + lambda_invariant(th))


def test_pininv_mu_descent_on_random_elements():
    emb = emb_at(3, M=10)
    rng = random.Random(20260824)
    for _ in range(1000):
        th = random_cyclic(emb, 2, rng)
        try:
            mu_pi = mu_invariant(pi_project(th))
        except PrecisionExhausted:
            continue
        if mu_pi == 0:
            assert mu_invariant(th) == 0


def test_pininv_lambda_on_random_unit_elements():
    # for mu(theta) = 0 and lambda below the target group order,
    # lambda(pi(theta)) = lambda(theta)
    p = 3
    emb = emb_at(p, M=10)
    rng = random.Random(20260825)
    n = 2
    pn = p ** n
    for _ in range(1000):
        unit = [rng.randrange(-9, 10) for _ in range(pn)]
        while sum(unit) % p == 0:
            unit[rng.randrange(pn)] += 1
        j = rng.randrange(p ** (n - 1))
        ints = unit
        for _ in range(j):
            ints = conv(p, n, ints, [-1, 1] + [0] * (pn - 2))
        th = cyclic(emb, n, ints)
        assert mu_invariant(th) == 0
        assert lambda_invariant(th) == j
        assert lambda_invariant(pi_project(th)) == j


def test_invariants_stable_under_unit_scalar_and_twist():
    emb = emb_at(3, M=10)
    rng = random.Random(20260826)
    for _ in range(200):
        th = random_cyclic(emb, 2, rng, unit=True)
        inv = invariants(th)
        u = rng.choice([1, 2, 4, 5, 7, 8])
        assert invariants(th.scale(emb.local(u))) == inv
        assert invariants(twist_generator(th, u)) == inv


# -- the top-digit-first lambda search against the full transform -------------

def binom_mod_p(j, t, p):
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


def pascal_transform(vals, p, n, sign=1):
    """(sum_j sign^(j-t) C(j, t) vals[j] mod p) for t < p^n, one base-p
    digit at a time; sign = -1 gives the inverse transform.

    C(j, t) = prod_k C(j_k, t_k) mod p over the base-p digits (Lucas), so
    the transform along digit k mixes only the p entries that differ in
    that digit, with the p x p Pascal matrix (its inverse has the signs).
    """
    pascal = [[sign ** (j - t) * binom_mod_p(j, t, p) if j >= t else 0
               for j in range(p)] for t in range(p)]
    size = len(vals)
    stride = 1
    for _ in range(n):
        out = [0] * size
        block = p * stride
        for base in range(0, size, block):
            for lo in range(base, base + stride):
                col = vals[lo:lo + block:stride]
                for t in range(p):
                    out[lo + t * stride] = sum(
                        b * v for b, v in zip(pascal[t][t:], col[t:])) % p
        vals = out
        stride = block
    return vals


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 3000),
       st.sampled_from([3, 5, 7, 11]))
def test_binom_mod_p_is_lucas(j, t, p):
    assert binom_mod_p(j, t, p) == comb(j, t) % p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_pascal_transform_is_the_binomial_sum(p, data):
    n = data.draw(st.integers(0, 3 if p < 7 else 2))
    pn = p ** n
    vals = data.draw(st.lists(st.integers(0, p - 1), min_size=pn,
                              max_size=pn))
    want = [sum(comb(j, t) * v for j, v in enumerate(vals)) % p
            for t in range(pn)]
    assert pascal_transform(vals, p, n) == want
    assert pascal_transform(want, p, n, sign=-1) == vals


@st.composite
def planted_residues(draw):
    """(p, n, columns, lam): one or two F_p coordinates of a reduction whose
    transforms have their first nonzero entry at a planted index, or none
    for a zero column (not every column is zero), and lam the least of
    those indices."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(0, 4))
    pn = p ** n
    index = st.one_of(st.just(0), st.just(pn - 1), st.integers(0, pn - 1))
    firsts = draw(st.lists(st.one_of(st.none(), index), min_size=1,
                           max_size=2).filter(
        lambda fs: any(f is not None for f in fs)))
    columns = []
    for first in firsts:
        s = [0] * pn
        if first is not None:
            s[first] = draw(st.integers(1, p - 1))
            rng = random.Random(draw(st.integers(0, 2 ** 32)))
            s[first + 1:] = [rng.randrange(p) for _ in range(first + 1, pn)]
        columns.append(pascal_transform(s, p, n, sign=-1))
    return p, n, columns, min(f for f in firsts if f is not None)


def first_nonzero(vals):
    return next((t for t, v in enumerate(vals) if v), None)


@settings(max_examples=150, deadline=None)
@given(planted_residues())
def test_search_finds_the_first_nonzero_transform_entry(case):
    p, n, columns, lam = case
    firsts = [mazurtate._first_nonzero_transform(col, p, n)
              for col in columns]
    assert firsts == [first_nonzero(pascal_transform(col, p, n))
                      for col in columns]
    assert min(t for t in firsts if t is not None) == lam


@pytest.mark.parametrize("p,n", [(3, 0), (3, 4), (5, 3), (7, 2)])
def test_search_on_a_zero_column(p, n):
    zero = [0] * p ** n
    assert mazurtate._first_nonzero_transform(zero, p, n) is None
    # entries are read mod p
    assert mazurtate._first_nonzero_transform([p] * p ** n, p, n) is None


# -- lambda against a naive binomial sum ---------------------------------------

# (field, p): Q at 3, 5, 7, and x^2 - 2, inert at 3 and 5 (residue degree 2)
LAMBDA_CASES = [(QQ, 3), (QQ, 5), (QQ, 7),
                (make_field([-2, 0, 1]), 3),
                (make_field([-2, 0, 1]), 5)]


def naive_lambda(theta):
    """The lowest t with sum_j C(j, t) r_j != 0, r the unit-scaled reduction."""
    p = theta.p
    live = [c for c in theta.coeffs if not c.is_zero_to_precision()]
    mu = min(c.valuation() for c in live)
    unit = next(c for c in live if c.valuation() == mu).inverse()
    red = [(c * unit).reduce().coeffs for c in theta.coeffs]
    for t in range(len(red)):
        sums = [sum(comb(j, t) * r[k] for j, r in enumerate(red)) % p
                for k in range(len(red[0]))]
        if any(sums):
            return t
    raise AssertionError("the unit-scaled reduction vanishes")


@st.composite
def planted_lambda(draw):
    """(theta, lam): theta = p^mu * unit * T^lam * (unit + T * ...) with
    T = gamma_n - 1, lifted with noise divisible by p."""
    field, p = draw(st.sampled_from(LAMBDA_CASES))
    emb = padic.primes_above(field, p, 6)[0]
    n = draw(st.integers(0, 3))
    pn = p ** n
    lam = draw(st.one_of(st.integers(0, pn - 1), st.just(pn - 1)))
    f = field.degree
    digit = st.integers(0, p - 1)
    lead = draw(st.lists(digit, min_size=f, max_size=f))
    lead[draw(st.integers(0, f - 1))] = draw(st.integers(1, p - 1))
    rest = draw(st.lists(st.lists(digit, min_size=f, max_size=f),
                         min_size=pn - lam - 1, max_size=pn - lam - 1))
    s = [[0] * f] * lam + [lead] + rest
    # T^k = sum_j C(k, j) (-1)^(k - j) gamma^j
    r = [[sum(s[k][a] * comb(k, j) * (-1) ** (k - j) for k in range(j, pn))
          % p for a in range(f)] for j in range(pn)]
    noise = draw(st.lists(st.integers(-20, 20), min_size=pn * f,
                          max_size=pn * f))
    coeffs = [emb.local_ints(
        [r[j][a] + p * noise[j * f + a] for a in range(f)], 1)
        for j in range(pn)]
    mu = draw(st.integers(0, 2))
    # c + p y, with y reduced to the root of the minimal polynomial
    unit, _ = field.exact([draw(st.sampled_from([1, 2, -1, 1 + p])), p], 1)
    theta = CyclicGroupRingElement(p, n, coeffs).scale(
        emb.local_ints([c * p ** mu for c in unit], 1))
    return theta, lam


@settings(max_examples=120, deadline=None)
@given(planted_lambda())
def test_lambda_matches_naive_binomial_sums(case):
    theta, lam = case
    assert naive_lambda(theta) == lam
    assert lambda_invariant(theta) == lam



def planted_units(emb):
    """Units of the embedding's field: small elements of valuation 0, as
    embedded power-basis integer vectors."""
    f = emb.field.degree
    return st.lists(st.integers(-20, 20), min_size=f, max_size=f).filter(
        any).map(lambda u: emb.local_ints(u, 1)).filter(
        lambda u: u.valuation() == 0)


@settings(max_examples=60, deadline=None)
@given(planted_lambda(), st.data())
def test_lambda_is_invariant_under_a_unit_scaling(case, data):
    theta, lam = case
    emb = theta.coeffs[0].emb
    scaled = theta.scale(data.draw(planted_units(emb)))
    assert mu_invariant(scaled) == mu_invariant(theta)
    assert lambda_invariant(scaled) == lambda_invariant(theta) == lam


# x^2 - 3 is ramified at 3: sqrt(3) has valuation 1/2
SQRT3 = make_field([-3, 0, 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.data())
def test_lambda_with_a_fractional_mu(n, data):
    emb = padic.primes_above(SQRT3, 3, 8)[0]
    pn = 3 ** n
    ints = data.draw(st.lists(st.integers(-9, 9), min_size=pn,
                              max_size=pn).filter(
        lambda xs: any(x % 3 for x in xs)))
    root = emb.local_ints([0, 1], 1)
    theta = cyclic(emb, n, ints).scale(root)
    assert mu_invariant(theta) == Fraction(1, 2)
    unit = data.draw(planted_units(emb))
    lam = naive_lambda(theta)
    assert lambda_invariant(theta) == lam
    assert lambda_invariant(theta.scale(unit)) == lam


def test_lambda_of_norm_element_is_maximal():
    # sum_j gamma^j = (gamma - 1)^(p^n - 1) mod p
    for p, n in ((3, 1), (3, 3), (5, 2), (5, 3), (7, 3)):
        th = cyclic(emb_at(p, M=4), n, [1] * p ** n)
        assert lambda_invariant(th) == naive_lambda(th) == p ** n - 1


# -- Mazur-Tate elements of the X_0(11) symbol ---------------------------------

@pytest.fixture(scope="module")
def f11():
    space = modsym.ManinSymbolSpace(11, 2)
    return modsym.cuspidal_eigensymbols(space, 1)[0]


@pytest.fixture(scope="module")
def norm11_5(f11):
    emb = padic.primes_above(f11.field, 5, 10)[0]
    return modsym.normalize(f11, emb)


def test_full_element_coefficient_symmetry(norm11_5):
    # c_{-a} = (sign) c_a; the fixture is a plus symbol
    th = embedded_element(norm11_5, 2)
    pn = 25
    for a, c in th.coeffs.items():
        assert (c - th.coeffs[pn - a]).is_zero_to_precision()


def test_mazur_tate_additive(norm11_5):
    space = norm11_5.space
    D = space.denominator
    rng = random.Random(31)
    coords1 = [Fraction(rng.randrange(-9, 10)) for _ in range(space.dim)]
    coords2 = [Fraction(rng.randrange(-9, 10)) for _ in range(space.dim)]
    # integer vectors (of length 1) over the space's denominator
    vals1 = [[(int(x * D),) for x in vec]
             for vec in all_values(space, coords1)]
    vals2 = [[(int(x * D),) for x in vec]
             for vec in all_values(space, coords2)]
    both = [[(a[0] + b[0],) for a, b in zip(u, v)]
            for u, v in zip(vals1, vals2)]
    lhs = mazur_tate_values(space, lambda A: both[A], 5, 1)
    rhs1 = mazur_tate_values(space, lambda A: vals1[A], 5, 1)
    rhs2 = mazur_tate_values(space, lambda A: vals2[A], 5, 1)
    assert lhs.coefficient_list()[0][0] == \
        rhs1.coefficient_list()[0][0] + rhs2.coefficient_list()[0][0]
    for a, (c,) in lhs.coeffs.items():
        assert c == rhs1.coeffs[a][0] + rhs2.coeffs[a][0]


def exact11_5(norm11_5, n):
    return exact_element(norm11_5.eigensymbol, 5, n)


def test_omega_parity_kill(norm11_5):
    # odd twists of a plus symbol vanish identically
    th = exact11_5(norm11_5, 2)
    for i in (1, 3):
        proj = embedded_projection(norm11_5, th, i)
        assert proj.is_zero_to_precision()


def test_omega_output_size(norm11_5):
    th = exact11_5(norm11_5, 2)
    proj = omega_decompose(th, 0, norm11_5.digits)
    assert len(proj.coefficient_list()) == 5


def test_omega_rejects_bad_twist(norm11_5):
    th = exact11_5(norm11_5, 1)
    with pytest.raises(ValueError):
        omega_decompose(th, 4, norm11_5.digits)


def test_teichmuller_lifts_once_per_residue(norm11_5, monkeypatch):
    # the lifts depend only on (a mod p, digits): at most p - 1 per
    # projection
    calls = []
    teichmuller = padic.teichmuller

    def counted(p, a, M):
        calls.append((a % p, M))
        return teichmuller(p, a, M)

    monkeypatch.setattr(padic, "teichmuller", counted)
    for n in range(1, 4):
        th = exact11_5(norm11_5, n)
        for i in range(4):
            calls.clear()
            proj = omega_decompose(th, i, norm11_5.digits)
            assert len(calls) <= 4
            assert len(set(calls)) == len(calls)
            assert len(proj.coefficient_list()) == 5 ** (n - 1)


# -- half the walks and half the projection by the iota-symmetry ---------------

# (level, weight, p): both signs of every class, fields of degree 1 to 6
HALF_WALK_CASES = [(11, 2, 5), (23, 6, 3), (11, 4, 3), (22, 4, 3), (37, 2, 3),
                   (11, 8, 5)]


@lru_cache(maxsize=None)
def classes_of_both_signs(N, k):
    space = modsym.ManinSymbolSpace(N, k)
    return [cls for sign in (1, -1)
            for cls in modsym.cuspidal_eigensymbols(space, sign)]


def full_omega_sum(theta, i, digits):
    """The omega^i-projection of an element with integer-vector
    coefficients, summed over every unit: sigma_a goes to
    omega(a)^i gamma^dlog<a>, the sums taken mod p^digits."""
    p, n1 = theta.p, theta.n
    pn1, pd = p ** n1, p ** digits
    dlog = dlog_table(p, n1)
    out = [[0] * len(theta.coeffs[1]) for _ in range(p ** (n1 - 1))]
    for a, c in theta.coeffs.items():
        w = padic.teichmuller(p, a, max(digits, n1))
        j = dlog[(a * pow(w, -1, pn1)) % pn1]
        out[j] = [s + pow(w, i, pd) * x for s, x in zip(out[j], c)]
    return [tuple(s % pd for s in acc) for acc in out]


@pytest.mark.parametrize("N,k,p", HALF_WALK_CASES)
def test_half_walk_matches_the_full_walk(N, k, p):
    # the signed element walks the units below p^n/2 and fills in
    # x_(p^n - a) = sign * x_a; the full walk is its reference
    classes = classes_of_both_signs(N, k)
    assert {cls.sign for cls in classes} == {1, -1}
    for cls in classes:
        for n in range(1, 5):
            half = mazur_tate_values(cls.space, cls.exact_value, p, n,
                                     cls.sign)
            full = mazur_tate_values(cls.space, cls.exact_value, p, n)
            assert (half.sign, full.sign) == (cls.sign, None)
            assert list(half.coeffs.items()) == list(full.coeffs.items())


@pytest.mark.parametrize("N,k,p", HALF_WALK_CASES)
def test_half_projection_matches_the_full_sum(N, k, p):
    # every twist of a signed element equals the sum over every unit; the
    # twists of the other parity are exact zeros
    digits = 7
    for cls in classes_of_both_signs(N, k):
        for n in range(1, 5):
            half = exact_element(cls, p, n)
            assert half.sign == cls.sign
            full = mazur_tate_values(cls.space, cls.exact_value, p, n)
            for i in range(p - 1):
                want = full_omega_sum(full, i, digits)
                assert omega_decompose(half, i, digits).coeffs == want
                assert omega_decompose(full, i, digits).coeffs == want
                if (-1) ** i != cls.sign:
                    zero = (0,) * cls.field.degree
                    assert want == [zero] * p ** (n - 1)


def test_theta_zero_is_a_unit(norm11_5):
    inv = invariants(theta_element(norm11_5, 0, 0))
    assert inv.mu == 0 and inv.lam == 0


def test_x0_11_theta_invariants(norm11_5):
    # mu = 0 and lambda = 5^n - 1, the maximal lambda at each level
    for n in range(4):
        inv = invariants(theta_element(norm11_5, n, 0))
        assert inv.mu == 0
        assert inv.lam == 5 ** n - 1
        assert inv.certified


def test_three_term_relation(norm11_5):
    # pi(theta_{n+1,i}) = a_p theta_{n,i} - p^(k-2) nu(theta_{n-1,i})
    emb = norm11_5.embedding
    a5 = emb.local_ints(*norm11_5.eigensymbol.a(5))
    thetas = [theta_element(norm11_5, n, 0) for n in range(4)]
    for n in (1, 2):
        lhs = pi_project(thetas[n + 1])
        rhs = thetas[n].scale(a5) - nu_corestrict(thetas[n - 1])
        assert (lhs - rhs).is_zero_to_precision(1)


def test_lemma_degen(norm11_5):
    # theta_{n,i} of phi|(p,0;0,1) = p^g nu(theta_{n-1,i}(phi)); g = 0 here
    f = norm11_5.eigensymbol
    space = f.space
    target = modsym.ManinSymbolSpace(55, 2)
    # the field is Q: one integer coordinate per value
    vals = [[x for x, in f.exact_value(A)] for A in range(len(space.plist))]
    vp = modsym.degeneracy_values(space, target, 5, vals)
    th_full = mazur_tate_values(target, lambda A: [(x,) for x in vp[A]],
                                5, 2)
    lhs = embedded_projection(norm11_5, th_full, 0)
    rhs = nu_corestrict(theta_element(norm11_5, 0, 0))
    assert (lhs - rhs).is_zero_to_precision(1)


def _count_elements(monkeypatch):
    """The level of every Mazur-Tate element built from now on."""
    levels = []
    build = mazur_tate_values

    def counted(space, get_value, p, n, sign=None):
        levels.append(n)
        return build(space, get_value, p, n, sign)

    monkeypatch.setattr(mazurtate, "mazur_tate_values", counted)
    return levels


def test_twists_share_each_level(monkeypatch):
    # p = 5, sign +1: twists i = 0 and 2 of theta_{n,i} for n = 0, 1, 2; a
    # fresh class, since the f11 fixture keeps the elements other tests
    # built from it
    f = modsym.cuspidal_eigensymbols(modsym.ManinSymbolSpace(11, 2), 1)[0]
    norm = modsym.normalize(f, padic.primes_above(f.field, 5, 8)[0])
    levels = _count_elements(monkeypatch)
    rep = analysis.invariant_table(norm, 2)
    assert [(n, i) for n, i, *_ in rep.rows] == [
        (0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2)]
    assert levels == [1, 2, 3]


def test_each_walk_runs_once_per_class_and_level(monkeypatch):
    # 23/6, sign +1, p = 3: two classes with five primes above 3 between
    # them, each at two precisions; the walk of each unit's path runs once
    # per class, when its exact element is built, and only for the units
    # below 3^n/2: the sign gives the others
    space = modsym.ManinSymbolSpace(23, 6)
    classes = modsym.cuspidal_eigensymbols(space, 1)
    walks = []
    walk = modsym._convergent_bottoms

    def counted(a, b):
        walks.append(b)
        return walk(a, b)

    monkeypatch.setattr(modsym, "_convergent_bottoms", counted)
    levels = _count_elements(monkeypatch)
    symbols = [modsym.normalize(cls, emb) for cls in classes for M in (8, 16)
               for emb in padic.primes_above(cls.field, 3, M)]
    assert len(symbols) == 10
    embedded = []
    embed = modsym.NormalizedSymbol.embed

    def counted_embed(norm, x):
        embedded.append(x)
        return embed(norm, x)

    monkeypatch.setattr(modsym.NormalizedSymbol, "embed", counted_embed)
    for norm in symbols:
        analysis.invariant_table(norm, 2)
    assert sorted(Counter(walks).items()) == [(3, 2), (9, 6), (27, 18)]
    # one exact element per class and level, and one embedding per
    # coefficient of each symbol's theta_{n,0}, n = 0, 1, 2, projected
    # before it is embedded
    assert sorted(levels) == [1, 1, 2, 2, 3, 3]
    assert len(embedded) == 10 * (1 + 3 + 9)


def test_exact_elements_are_kept_per_prime(f11):
    # the class keeps one exact element per (p, n): levels at p = 5 (from
    # the norm11_5 fixture or built here) are not reused at p = 3
    for p in (5, 3):
        norm = modsym.normalize(f11, padic.primes_above(f11.field, p, 8)[0])
        theta = embedded_element(norm, 1)
        assert list(theta.coeffs) == list(range(1, p))
        assert mazurtate.exact_element(f11, p, 1).p == p



# -- theta_{n,i} from exact integer sums --------------------------------------

# (level, weight, p), both signs and every prime above p: 11/4/3 is
# ramified (e = 2); p = 7 and p = 5 have irrational omega; all of them
# have symbols whose denominator is divisible by p
EXACT_THETA_CASES = [(11, 2, 5), (23, 6, 3), (11, 4, 3), (11, 6, 7),
                     (23, 4, 5)]


def normalized_symbols(N, k, p, M=8):
    space = modsym.ManinSymbolSpace(N, k)
    return [modsym.normalize(cls, emb) for sign in (1, -1)
            for cls in modsym.cuspidal_eigensymbols(space, sign)
            for emb in padic.primes_above(cls.field, p, M)]


def dlog_table(p, n1):
    """Map (1+p)^j mod p^n1 -> j for j = 0 .. p^(n1-1) - 1."""
    pn1 = p ** n1
    table = {}
    x = 1
    for j in range(p ** (n1 - 1)):
        table[x] = j
        x = (x * (1 + p)) % pn1
    return table


def local_omega_decompose(theta, i):
    """The omega^i-projection of a full element with LocalElement
    coefficients: Teichmuller factors mod p^M of the embedding, and the
    sums in LocalElement arithmetic."""
    p, n1 = theta.p, theta.n
    pn1 = p ** n1
    M = theta.coeffs[1].emb.M
    dlog = dlog_table(p, n1)
    out = [None] * (p ** (n1 - 1))
    for a, c in theta.coeffs.items():
        w = padic.teichmuller(p, a, max(M, n1))
        j = dlog[(a * pow(w, -1, pn1)) % pn1]
        term = c * pow(w, i, p ** M)
        out[j] = term if out[j] is None else out[j] + term
    return CyclicGroupRingElement(p, n1 - 1, out)


def reference_theta(norm, n, i):
    """theta_{n,i} as the projection of the embedded level-(n+1) element:
    one embedding per unit, Teichmuller factors mod p^M, and the sums in
    LocalElement arithmetic."""
    return local_omega_decompose(embedded_element(norm, n + 1), i)


def each_theta(norm, nmax=2):
    for n in range(nmax + 1):
        for i in mazurtate.twists(norm.embedding.p, norm.sign):
            yield n, i, theta_element(norm, n, i)


@pytest.mark.parametrize("N,k,p", EXACT_THETA_CASES)
def test_exact_theta_matches_the_embedded_projection(N, k, p):
    symbols = normalized_symbols(N, k, p)
    assert any(norm.digits > norm.embedding.M for norm in symbols)
    for norm in symbols:
        for n, i, theta in each_theta(norm):
            ref = reference_theta(norm, n, i)
            for c, r in zip(theta.coeffs, ref.coeffs):
                assert c.prec >= r.prec
                assert (c - r).is_zero_to_precision()


@pytest.mark.parametrize("N,k,p", EXACT_THETA_CASES)
def test_exact_theta_agrees_with_twice_the_precision(N, k, p):
    # the digits theta_{n,i} certifies at M are those of theta_{n,i} at 2M:
    # the Teichmuller lifts taken mod p^(M+v) lose nothing below p^M
    M = 8
    for norm in normalized_symbols(N, k, p, M):
        emb = norm.embedding
        wide = modsym.normalize(norm.eigensymbol, with_precision(emb, 2 * M))
        assert wide.content_certificate == norm.content_certificate
        assert tuple(c % emb.pM for c in wide.embedding.local_factor) == \
            emb.local_factor
        for n, i, theta in each_theta(norm):
            for c, w in zip(theta.coeffs, theta_element(wide, n, i).coeffs):
                narrowed = padic.LocalElement(emb, w.vec, w.shift, w.prec)
                assert narrowed.prec >= c.prec
                assert (c - narrowed).is_zero_to_precision()


# -- p-stabilization and L_p approximants ---------------------------------------

@pytest.fixture(scope="module")
def alpha11_5(norm11_5):
    return p_stabilize(norm11_5)


def stabilized_values(norm, alpha, target):
    """The coset values of phi_alpha = phi - alpha^(-1) phi|(p,0;0,1) at
    level Np: the degeneracy images of the embedded values, summed in
    LocalElement arithmetic."""
    space, p = norm.space, norm.embedding.p
    vals = embedded_values(norm)
    v1 = modsym.degeneracy_values(space, target, 1, vals)
    vp = modsym.degeneracy_values(space, target, p, vals)
    ainv = alpha.inverse()
    return [[a - ainv * b for a, b in zip(v1[A], vp[A])]
            for A in range(len(target.plist))]


def reference_full_element(values, target, p, n):
    """The level-n element of the level-Np symbol with the given
    LocalElement values: the path value of every unit a/p^n."""
    pn = p ** n
    return FullGroupRingElement(p, n, {
        a: path_value(target, values.__getitem__, a, pn)
        for a in range(1, pn) if a % p})


# (level, weight, p): g = 0, 2 and 4, p = 3, 5 and 7, 11/4/3 ramified
STABILIZED_CASES = [(11, 2, 5), (11, 2, 3), (23, 6, 3), (11, 4, 3),
                    (11, 6, 7)]


@pytest.mark.parametrize("N,k,p", STABILIZED_CASES)
def test_stabilized_theta_matches_the_level_np_symbol(N, k, p):
    target = modsym.ManinSymbolSpace(N * p, k)
    checked = 0
    for norm in normalized_symbols(N, k, p):
        try:
            alpha = p_stabilize(norm)
        except NotOrdinary:
            continue
        values = stabilized_values(norm, alpha, target)
        for n in range(4):
            full = reference_full_element(values, target, p, n + 1)
            for i in mazurtate.twists(p, norm.sign):
                theta = stabilized_theta(norm, alpha, n, i)
                ref = local_omega_decompose(full, i)
                for c, r in zip(theta.coeffs, ref.coeffs):
                    assert c.prec >= r.prec
                    assert (c - r).is_zero_to_precision()
                checked += 1
    assert checked


def test_unit_root_reduction(alpha11_5, norm11_5):
    emb = norm11_5.embedding
    a5 = norm11_5.eigensymbol.a(5)
    assert alpha11_5.reduce() == emb.local_ints(*a5).reduce()
    # a_5 = 1 for X_0(11), so alpha = 1 mod 5
    assert alpha11_5.reduce() == emb.residue_field.one()


def test_unit_root_satisfies_quadratic(alpha11_5, norm11_5):
    emb = norm11_5.embedding
    a5 = emb.local_ints(*norm11_5.eigensymbol.a(5))
    al = alpha11_5
    assert (al * al - a5 * al + emb.local(5)).is_zero_to_precision(1)


def test_stabilized_symbol_is_up_eigen(alpha11_5, norm11_5):
    # the level-Np reference that the stabilized thetas are compared with
    space = modsym.ManinSymbolSpace(55, 2)
    vals = stabilized_values(norm11_5, alpha11_5, space)
    out = apply_operator_to_values(space, "U5", vals,
                                   range(len(space.plist)))
    for A in range(len(space.plist)):
        for got, want in zip(out[A], vals[A]):
            assert (got - alpha11_5 * want).is_zero_to_precision(1)


def test_two_term_relation(alpha11_5, norm11_5):
    # pi(theta_{n,i}(f_alpha)) = alpha theta_{n-1,i}(f_alpha)
    for i in (0, 2):
        prev = stabilized_theta(norm11_5, alpha11_5, 0, i)
        for n in (1, 2):
            cur = stabilized_theta(norm11_5, alpha11_5, n, i)
            diff = pi_project(cur) - prev.scale(alpha11_5)
            assert diff.is_zero_to_precision(1)
            prev = cur


def test_weight2_patterns_stabilize_once_for_all_twists(monkeypatch):
    f = modsym.cuspidal_eigensymbols(modsym.ManinSymbolSpace(11, 2), -1)[0]
    norm = modsym.normalize(f, padic.primes_above(f.field, 5, 8)[0])
    stabilized = []

    def counted(normalized):
        stabilized.append(normalized)
        return p_stabilize(normalized)

    monkeypatch.setattr(mazurtate, "p_stabilize", counted)
    entries = verify.verify_weight2_patterns(norm, 2)
    assert [(e["i"], e["pattern"]) for e in entries] == [
        (1, "stable"), (3, "stable")]
    assert stabilized == [norm]


def test_stabilized_mu_is_positive(alpha11_5, norm11_5):
    # a_5 = 1 mod 5 makes the stabilized symbol divisible by 5
    for n in (0, 1):
        inv = invariants(stabilized_theta(norm11_5, alpha11_5, n, 0))
        assert inv.mu >= 1


def test_not_ordinary_at_supersingular_prime():
    space = modsym.ManinSymbolSpace(17, 2)
    f = modsym.cuspidal_eigensymbols(space, 1)[0]
    assert f.a(3) == ([0], 1)
    emb = padic.primes_above(f.field, 3, 8)[0]
    norm = modsym.normalize(f, emb)
    with pytest.raises(NotOrdinary):
        p_stabilize(norm)


def test_not_ordinary_at_bad_prime(f11):
    emb = padic.primes_above(f11.field, 11, 6)[0]
    norm = modsym.normalize(f11, emb)
    with pytest.raises(NotOrdinary):
        p_stabilize(norm)


# -- Lemma alphastick -----------------------------------------------------------

def test_lemma_alphastick():
    # level 11, weight 6, p = 5: g = 4 is divisible by p - 1 = 4
    space = modsym.ManinSymbolSpace(11, 6)
    f = modsym.cuspidal_eigensymbols(space, 1)[0]
    emb = padic.primes_above(f.field, 5, 8)[0]
    norm = modsym.normalize(f, emb)
    target = modsym.ManinSymbolSpace(55, 2)
    avals = modsym.alpha_map(norm, target)
    lhs = mazur_tate_values(target, lambda A: avals[A], 5, 1)
    rhs = exact_element(f, 5, 1)
    for a in lhs.coeffs:
        assert norm.embed(lhs.coeffs[a]).reduce() == \
            norm.embed(rhs.coeffs[a]).reduce()


# -- serialization ----------------------------------------------------------------

def coefficient_string(c):
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
        "coeffs": [coefficient_string(c) for c in theta.coefficient_list()],
    }


def test_element_to_json(norm11_5):
    th = theta_element(norm11_5, 1, 0)
    data = element_to_json(th)
    assert data["p"] == 5 and data["n"] == 1 and data["group"] == "cyclic"
    assert len(data["coeffs"]) == 5
    assert all(isinstance(s, str) for s in data["coeffs"])
    again = element_to_json(theta_element(norm11_5, 1, 0))
    assert again == data


def test_full_element_to_json(norm11_5):
    data = element_to_json(embedded_element(norm11_5, 1))
    assert data["group"] == "full"
    assert len(data["coeffs"]) == 4
