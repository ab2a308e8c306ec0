"""Tests for number fields, embeddings, valuations and residue fields."""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

from mtlab import padic, polyq
from mtlab.errors import (
    ReduciblePolynomial,
    PrecisionExhausted,
    NegativeValuation,
)


def make_field(minpoly):
    """A NumberField, rejecting reducible defining polynomials."""
    K = padic.NumberField(minpoly)  # rejects constant and non-monic ones
    if K.degree > 1:
        try:
            irreducible = len(padic.factor_monic_int(list(K.minpoly))) == 1
        except ValueError:  # a repeated factor
            irreducible = False
        if not irreducible:
            raise ReduciblePolynomial("polynomial factors over the rationals")
    return K


def with_precision(emb, M):
    """The same prime as emb with its local factor lifted to precision M."""
    return padic.primes_above(emb.field, emb.p, M)[emb.index]


QQ = make_field([0, 1])


def test_make_field_rational():
    assert QQ.degree == 1


def test_make_field_quadratic():
    K = make_field([1, 0, 1])
    assert K.degree == 2


def test_make_field_rejects_reducible():
    with pytest.raises(ReduciblePolynomial):
        make_field([-1, 0, 1])  # x^2 - 1
    with pytest.raises(ReduciblePolynomial):
        make_field([0, 0, 1])  # x^2
    with pytest.raises(ReduciblePolynomial):
        make_field([1, 2])  # not monic


def test_field_arithmetic():
    K = make_field([1, 0, 1])
    # i * i = -1 once the product is reduced modulo y^2 + 1
    assert K.exact(polyq.mul([0, 1], [0, 1]), 1) == ([-1, 0], 1)
    # 1 / (2 + i) = (2 - i) / 5, whose columns are (2 - i) and (2 - i) i
    m, d = K.inverse_matrix([2, 1], 1)
    assert (m, d) == ([[2, 1], [-1, 2]], 5)
    assert [sum(map(mul, row, [2, 1])) for row in m] == [d, 0]
    # the content is divided out, and zero is 0 / 1
    assert K.exact([6, -4], 10) == ([3, -2], 5)
    assert K.exact([0, 0], 7) == ([0, 0], 1)


def test_primes_above_rational():
    embs = padic.primes_above(QQ, 5, 4)
    assert len(embs) == 1
    assert embs[0].e == 1 and embs[0].residue_degree == 1


def test_primes_above_inert():
    K = make_field([-2, 0, 1])  # x^2 - 2, inert at 3
    embs = padic.primes_above(K, 3, 3)
    assert len(embs) == 1
    assert embs[0].e == 1 and embs[0].residue_degree == 2


def test_primes_above_ramified():
    K = make_field([-5, 0, 1])  # x^2 - 5, ramified at 5
    embs = padic.primes_above(K, 5, 4)
    assert len(embs) == 1
    assert embs[0].e == 2 and embs[0].residue_degree == 1
    # the generator is a uniformizer: squaring gives valuation 1
    s = [0, 1]
    assert embs[0].local_ints(s, 1).valuation() == Fraction(1, 2)
    assert embs[0].local_ints(*K.exact(polyq.mul(s, s), 1)).valuation() == 1


def test_primes_above_split():
    K = make_field([1, 0, 1])  # x^2 + 1 splits at 5
    embs = padic.primes_above(K, 5, 5)
    assert len(embs) == 2
    reductions = sorted(emb.local_ints([0, 1], 1).reduce().coeffs[0]
                        for emb in embs)
    assert reductions == [2, 3]


def test_degree_identity_on_constructed_fields():
    fields = [QQ,
              make_field([1, 0, 1]),
              make_field([-2, 0, 1]),
              make_field([-5, 0, 1]),
              make_field([1, 1, 0, 1]),
              make_field([2, 0, 0, 0, 1])]
    for K in fields:
        for p in (3, 5, 7):
            try:
                embs = padic.primes_above(K, p, 6)
            except padic.PrecisionTooLow:
                continue
            total = sum(e.e * e.residue_degree for e in embs)
            assert total == K.degree


def test_valuation_normalization():
    emb = padic.primes_above(QQ, 5, 4)[0]
    assert emb.local(5).valuation() == 1
    assert emb.local_ints([1], 5).valuation() == -1
    assert emb.local(7).valuation() == 0


def test_valuation_of_zero_rejected():
    # zero vanishes to every precision, so no valuation is certified
    emb = padic.primes_above(QQ, 5, 4)[0]
    with pytest.raises(PrecisionExhausted):
        emb.local(0).valuation()


def test_valuation_precision_exhausted():
    emb = padic.primes_above(QQ, 5, 3)[0]
    with pytest.raises(PrecisionExhausted):
        emb.local(5 ** 3).valuation()


def test_reduce_basics():
    emb = padic.primes_above(QQ, 5, 4)[0]
    assert emb.local(5).reduce().is_zero()
    assert emb.local(6).reduce() == emb.residue_field.one()
    assert emb.local(-2).reduce() == emb.residue_field.element(3)


def test_reduce_negative_valuation():
    emb = padic.primes_above(QQ, 5, 4)[0]
    with pytest.raises(NegativeValuation):
        emb.local_ints([1], 5).reduce()


def test_reduce_is_ring_hom_random():
    rng = random.Random(20260823)
    K = make_field([-2, 0, 1])
    emb = padic.primes_above(K, 3, 6)[0]

    def red(nums):
        return emb.local_ints(nums, 1).reduce()

    for _ in range(1000):
        x = [rng.randrange(-50, 50), rng.randrange(-50, 50)]
        y = [rng.randrange(-50, 50), rng.randrange(-50, 50)]
        xy, _ = K.exact(polyq.mul(x, y), 1)
        assert red(xy) == red(x) * red(y)
        assert red([a + b for a, b in zip(x, y)]) == red(x) + red(y)


@given(a=st.integers(min_value=-400, max_value=400).filter(lambda n: n != 0),
       b=st.integers(min_value=-400, max_value=400).filter(lambda n: n != 0))
@settings(max_examples=200, deadline=None)
def test_valuation_multiplicative_and_ultrametric(a, b):
    K = make_field([-5, 0, 1])
    emb = padic.primes_above(K, 5, 12)[0]

    def val(nums):
        return emb.local_ints(nums, 1).valuation()

    x, y = [a, b], [b, a]   # a + b s and b + a s, s^2 = 5
    vx = val(x)
    vy = val(y)
    assert val(K.exact(polyq.mul(x, y), 1)[0]) == vx + vy
    z = [a + b, a + b]
    if any(z):
        vz = val(z)
        assert vz >= min(vx, vy)
        if vx != vy:
            assert vz == min(vx, vy)


def test_teichmuller_values():
    assert padic.teichmuller(5, 1, 2) == 1
    assert padic.teichmuller(5, 4, 3) == 5 ** 3 - 1
    # brute-force oracle: the unique x = 2 mod 5 with x^4 = 1 mod 25
    assert padic.teichmuller(5, 2, 2) == 7
    candidates = [x for x in range(25)
                  if x % 5 == 2 and pow(x, 4, 25) == 1]
    assert candidates == [7]


def test_teichmuller_root_of_unity():
    for p in (3, 5, 7):
        for M in range(1, 7):
            for a in range(1, p):
                t = padic.teichmuller(p, a, M)
                assert pow(t, p - 1, p ** M) == 1
                assert t % p == a


def test_local_element_division_tracks_precision():
    emb = padic.primes_above(QQ, 5, 6)[0]
    x = emb.local(25)
    inv = x.inverse()
    assert inv.valuation() == -2
    assert inv.prec <= 6 - 4


@given(n=st.integers(min_value=-5, max_value=10 ** 6))
@settings(max_examples=300, deadline=None)
def test_prime_divisors_match_sympy(n):
    expected = sympy.primefactors(n) if n >= 1 else []
    assert padic.prime_divisors(n) == expected


@given(bound=st.integers(min_value=-5, max_value=3000))
@settings(max_examples=100, deadline=None)
def test_primes_up_to_match_sympy(bound):
    assert padic.primes_up_to(bound) == list(sympy.primerange(2, bound + 1))


# a unit, then (monic factor, multiplicity) pairs of total degree 1 to 8
fp_planted = st.sampled_from([3, 5, 7, 11]).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(1, p - 1),
    st.lists(st.tuples(st.integers(1, 4).flatmap(
        lambda d: st.lists(st.integers(0, p - 1), min_size=d, max_size=d)),
        st.integers(1, 4)), min_size=1, max_size=4).filter(
            lambda fs: sum(len(low) * m for low, m in fs) <= 8)))


@given(fp_planted)
@settings(max_examples=400, deadline=None)
def test_fp_factor_matches_gf_factor(planted):
    p, unit, factors = planted
    f = [unit]
    for low, mult in factors:
        for _ in range(mult):
            f = polyq.mul_mod(f, low + [1], p)
    _, expected = gf_factor([ZZ(c) for c in reversed(f)], p, ZZ)
    expected = [([int(c) for c in reversed(g)], m) for g, m in
                sorted(expected, key=lambda t: (len(t[0]), t[0]))]
    assert padic.fp_factor(f, p) == expected


@given(st.lists(st.tuples(st.lists(st.integers(-9, 9), min_size=1,
                                   max_size=3),
                          st.integers(1, 2)),
                min_size=1, max_size=3).filter(
    lambda fs: sum(m for _, m in fs) >= 2))
@settings(max_examples=100, deadline=None)
def test_make_field_rejects_planted_products(planted):
    f = [1]
    for low, mult in planted:
        for _ in range(mult):
            f = polyq.mul(f, low + [1])
    with pytest.raises(ReduciblePolynomial):
        make_field(f)


def test_make_field_accepts_irreducible_mod_no_prime():
    # x^4 + 1 is irreducible over Q but splits modulo every prime
    assert make_field([1, 0, 0, 0, 1]).degree == 4


def test_with_precision_relift():
    K = make_field([-5, 0, 1])
    emb = padic.primes_above(K, 5, 3)[0]
    emb8 = with_precision(emb, 8)
    assert emb8.M == 8
    assert [c % 5 ** 3 for c in emb8.local_factor] == list(emb.local_factor)


def test_finite_field_arithmetic():
    F9 = padic.FF(3, [1, 0, 1])  # t^2 + 1 irreducible mod 3
    t = F9.element([0, 1])
    assert t * t == F9.element(-1)
    assert (t + 1) * (t + 1).inverse() == F9.one()
    assert len(list(F9.elements())) == 9
    assert (t ** 8) == F9.one()


# t^2 + 1 mod 3 and mod 7, t^3 - t + 1 mod 3, t + 2 mod 5
RESIDUE_FIELDS = [padic.FF(3, [1, 0, 1]), padic.FF(7, [1, 0, 1]),
                  padic.FF(3, [1, 2, 0, 1]), padic.FF(5, [2, 1])]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_finite_field_element_reduced_or_not(data):
    F = data.draw(st.sampled_from(RESIDUE_FIELDS))
    ints = st.integers(-10 ** 4, 10 ** 4)
    vec = data.draw(st.lists(ints, max_size=F.degree))
    quo = data.draw(st.lists(ints, min_size=1, max_size=5))
    # vec + quo * modpoly, longer than the degree, with the same residue
    big = [0] * (len(quo) + F.degree)
    for i, q in enumerate(quo):
        for j, m in enumerate(F.modpoly):
            big[i + j] += q * m
    for i, c in enumerate(vec):
        big[i] += c
    want = tuple(c % F.p for c in vec) + (0,) * (F.degree - len(vec))
    assert F.element(vec).coeffs == want
    assert F.element(big).coeffs == want


# -- local factorization of Hecke eigenvalue fields ---------------------------
#
# Minimal polynomials of Hecke eigenvalue generators for the cuspidal
# eigenforms of weight 18 at levels 11 and 17 (computed once with the
# modsym module and frozen here).  Their factorizations over Q_3 exercise
# the multi-segment block factorization: repeated residual factors,
# several ramification indices inside one block, and residue degree > 1.

HECKE_11_18_DEG6 = [
    97017233783671363023031956936726810497801111372425,
    2715555334068149836412052932546552901901446,
    31670665117872031909942590996040863,
    196994653515664574326174228,
    689245947953013687,
    1286153286,
    1,
]

HECKE_11_18_DEG8 = [
    4457921008364685414878570730172069588990894570336477489329668010707,
    -166372219227741580529935169246575795481291076308515342797552,
    2716484979092236235707523132597982115732788915992950,
    -25345202035987124790514574795413372925404856,
    147796525470599004851502674561674860,
    -551585276870090141142770896,
    1286592820310448074,
    -1714871304,
    1,
]

HECKE_17_18_DEG10 = [
    272843561166951650109838246997592965156151484088616466689403619942336644186945733416387798492926720,
    391131090112142978124788236903704062817056647088616160636596446731481328423372631421057739,
    252315238993001256374015235883984075449695540625334291503016190702941284697185537,
    96454133210643711415871337954257210420428094193039640828774862965756500,
    24197334064804518900925038832309363752046061350399966159471948,
    4162530181073318042847064386969722914849483209538866,
    497261434471991609106182360377998478604198,
    40733840531476336340742566607028,
    2189753633463280956172,
    69757574395,
    1,
]

HECKE_17_18_DEG12 = [
    13276893913568686701754900727014666110092915242978609532785321593340874975326309813595645315568749535387227543941924650,
    -22839487655257582234616215153926658283032711594546047557688598712629164877133563835389285468716845867749762665,
    18007676209434308668361217232539225751972551335658410687781340692116036022462828159973782328470341721,
    -8604884486677119953502162883703055011936151035805144649036115641878220867036140811504736487,
    2775467773483651450316505568912847192631560189443792146552362942261744517621389097,
    -636597308202852981867732558042172009539980318201424559612936576510397242,
    106468274044201401717317447079487242371271222574456349488364362,
    -13082238137813623026623615744175706569283356583727438,
    1172116268923188180009451018211263312855740,
    -74678709099659191604093182962701,
    3211638704232478145357,
    -83709089819,
    1,
]


def polymul_mod(a, b, m):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return out


HECKE_CASES = [
    (HECKE_11_18_DEG6, [(1, 1), (1, 1), (4, 1)]),
    (HECKE_11_18_DEG8, [(1, 1), (1, 1), (1, 1), (1, 1), (2, 1), (2, 1)]),
    (HECKE_17_18_DEG10, [(1, 1), (1, 1), (1, 2), (2, 1), (2, 2)]),
    (HECKE_17_18_DEG12,
     [(1, 1), (1, 1), (1, 1), (1, 1), (1, 2), (1, 2), (1, 2), (2, 1)]),
]


@pytest.mark.parametrize("minpoly,shape", HECKE_CASES)
def test_hecke_field_splitting_at_3(minpoly, shape):
    K = make_field(minpoly)
    embs = padic.primes_above(K, 3, 8)
    got = sorted((emb.e, emb.residue_degree) for emb in embs)
    assert got == shape
    assert sum(e * f for e, f in got) == K.degree
    # the local factors multiply back to the minimal polynomial mod 3^8
    m = 3 ** 8
    prod = [1]
    for emb in embs:
        assert len(emb.local_factor) - 1 == emb.e * emb.residue_degree
        prod = polymul_mod(prod, list(emb.local_factor), m)
    assert prod == [c % m for c in minpoly]


def test_hecke_field_valuations_at_3():
    # a_3 slopes: the generator of the degree-6 field at level 11 is a
    # 3-adic unit at every prime (its norm is prime to 3)
    K = make_field(HECKE_11_18_DEG6)
    for emb in padic.primes_above(K, 3, 8):
        assert emb.local_ints([0, 1], 1).valuation() == 0


def test_biquadratic_compositum_splitting():
    # Q(sqrt 2, sqrt 3): at 3 one prime with e = f = 2; at 5 both
    # quadratic subfields Q(sqrt 2), Q(sqrt 3) are inert and Q(sqrt 6)
    # splits, giving two unramified primes of degree 2
    K = make_field([1, 0, -10, 0, 1])
    embs3 = padic.primes_above(K, 3, 8)
    assert sorted((e.e, e.residue_degree) for e in embs3) == [(2, 2)]
    embs5 = padic.primes_above(K, 5, 8)
    assert sorted((e.e, e.residue_degree) for e in embs5) == [(1, 2), (1, 2)]


# -- LocalElement times an int: coerced like the embedded factor -------------

RATIONAL_FACTOR_EMBEDDINGS = [
    padic.primes_above(QQ, 5, 6)[0],
    padic.primes_above(make_field([-5, 0, 1]), 5, 6)[0],   # ramified
    padic.primes_above(make_field([-2, 0, 1]), 3, 6)[0],   # inert
    padic.primes_above(make_field([1, 0, -10, 0, 1]), 3, 8)[0],
]


@st.composite
def local_elements(draw):
    emb = draw(st.sampled_from(RATIONAL_FACTOR_EMBEDDINGS))
    pM = emb.pM
    vec = draw(st.lists(st.one_of(st.integers(-2 * pM, 2 * pM),
                                  st.sampled_from([0, emb.p, pM // emb.p])),
                        min_size=emb.degree, max_size=emb.degree))
    shift = draw(st.integers(0, 3))
    e = draw(st.sampled_from([1, 2]))
    prec = Fraction(draw(st.integers(-2 * e, emb.M * e)), e)
    return padic.LocalElement(emb, vec, shift, prec)


def int_factors(p, M):
    pM = p ** M
    return st.one_of(st.integers(-10 ** 6, 10 ** 6),
                     st.sampled_from([0, 1, -1, p, pM, -3 * pM, pM * p]),
                     st.integers(-5, 5).map(lambda k: k * pM))


@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_rational_factor_matches_embedded_factor(data):
    x = data.draw(local_elements())
    emb = x.emb
    r = data.draw(int_factors(emb.p, emb.M))
    slow = x * emb.local(r)
    for fast in (x * r, r * x):
        assert (fast.vec, fast.shift, fast.prec) == \
            (slow.vec, slow.shift, slow.prec)


# -- embedded elements: the certified digits survive a higher precision -------

# p split in Q(i) at 5 and Q(sqrt 2) at 7, ramified in Q(sqrt 3) at 3,
# inert in Q(sqrt 2) at 3, two primes of degree 2 in Q(sqrt 2, sqrt 3) at 5
LIFT_CASES = [(QQ, 3), (make_field([1, 0, 1]), 5),
              (make_field([-2, 0, 1]), 7),
              (make_field([-3, 0, 1]), 3),
              (make_field([-2, 0, 1]), 3),
              (make_field([1, 0, -10, 0, 1]), 5)]

@lru_cache(maxsize=None)
def embeddings(field, p, M):
    return padic.primes_above(field, p, M)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_local_agrees_with_double_precision(data):
    field, p = data.draw(st.sampled_from(LIFT_CASES))
    M = data.draw(st.sampled_from([3, 4, 6]))
    nums = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                              min_size=field.degree, max_size=field.degree))
    den = p ** data.draw(st.integers(1, M - 1)) * \
        data.draw(st.integers(1, 50).filter(lambda d: d % p))
    for emb, emb2 in zip(embeddings(field, p, M),
                         embeddings(field, p, 2 * M)):
        got, want = emb.local_ints(nums, den), emb2.local_ints(nums, den)
        lifted = padic.LocalElement(emb2, got.vec, got.shift, got.prec)
        assert got.prec <= want.prec
        assert (want - lifted).is_zero_to_precision()
        # the lowest-terms form of the same element embeds alike
        low = emb.local_ints(*field.exact(nums, den))
        assert (low.vec, low.shift, low.prec) == \
            (got.vec, got.shift, got.prec)


# -- local_ints: one reduction matrix against a polynomial division -----------

HECKE_23_6 = [  # the Hecke fields of level 23 and weight 6
    make_field([22068998956258400, -250039704736795, 1180343833432,
                      -2971606335, 4208051, -3178, 1]),
    make_field([149129853, 843707, 1591, 1]),
]
# local degree below the field degree: the three primes above 3 of the
# sextic field, the two of the cubic, and 5 split in Q(i)
REDUCTION_EMBEDDINGS = (padic.primes_above(HECKE_23_6[0], 3, 8)
                        + padic.primes_above(HECKE_23_6[1], 3, 8)
                        + padic.primes_above(make_field([1, 0, 1]),
                                             5, 6))


def local_ints_by_division(emb, nums, den):
    """`local_ints` with the vector reduced by dividing by the local
    factor."""
    g = gcd(den, *nums)
    nums = [c // g for c in nums]
    den //= g
    p, pM = emb.p, emb.pM
    t = 0
    while den % p == 0:
        den //= p
        t += 1
    u = pow(den, -1, pM)
    vec = polyq.rem_monic([c * u for c in nums], emb.local_factor, pM)
    return padic.LocalElement(emb, vec, t, emb.M)


def test_reduction_embeddings_are_proper():
    assert len(REDUCTION_EMBEDDINGS) == 7
    assert all(emb.degree < emb.field.degree for emb in REDUCTION_EMBEDDINGS)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_local_ints_matches_division(data):
    emb = data.draw(st.sampled_from(REDUCTION_EMBEDDINGS))
    p, M = emb.p, emb.M
    ints = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                     st.builds(lambda k, t: k * p ** t,
                               st.integers(-10 ** 4, 10 ** 4),
                               st.integers(0, M + 3)))
    nums = data.draw(st.lists(ints, min_size=emb.field.degree,
                              max_size=emb.field.degree))
    den = p ** data.draw(st.integers(0, M + 2)) * \
        data.draw(st.integers(1, 10 ** 6).filter(lambda d: d % p))
    got = emb.local_ints(nums, den)
    want = local_ints_by_division(emb, nums, den)
    assert (got.vec, got.shift, got.prec) == \
        (want.vec, want.shift, want.prec)


# -- norms: one determinant of the multiplication matrix ---------------------
#
# The reference is the resultant from the Sylvester matrix, whose
# determinant Bareiss elimination takes.


def resultant_int(p, q):
    """Res(p, q) of two integer polynomials: the Sylvester determinant."""
    p = polyq.trim(list(p))
    q = polyq.trim(list(q))
    if not p or not q:
        return 0
    m, n = len(p) - 1, len(q) - 1
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    rows = []
    for shifts, poly in ((n, p), (m, q)):
        for i in range(shifts):
            row = [0] * size
            for j, c in enumerate(reversed(poly)):
                row[i + j] = c
            rows.append(row)
    # Bareiss elimination
    sign = 1
    prev = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, size):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[size - 1][size - 1]


@st.composite
def norm_cases(draw):
    """(f, x, shared): f monic of degree 1 to 8 and x of lower degree;
    when shared, f = g h and x = g u for a planted monic g, so x and f
    share a factor and the norm is 0."""
    coeff = st.integers(-20, 20)

    def poly(degree, monic):
        return draw(st.lists(coeff, min_size=degree, max_size=degree)) + \
            ([1] if monic else [draw(coeff)])

    d = draw(st.integers(1, 8))
    if d > 1 and draw(st.booleans()):
        s = draw(st.integers(1, d - 1))
        g = poly(s, True)
        f = polyq.mul(g, poly(d - s, True))
        x = polyq.mul(g, poly(draw(st.integers(0, d - s - 1)), False))
        return f, x, True
    return poly(d, True), draw(st.lists(coeff, max_size=d)), False


@given(norm_cases())
@settings(max_examples=400, deadline=None)
def test_norm_is_the_sylvester_resultant(case):
    f, x, shared = case
    norm = padic._norm(x, f)
    assert norm == resultant_int(f, x)
    if shared:
        assert norm == 0


def test_factor_monic_int_rejects_a_square_factor():
    # (y^2 + 1)^2 (y - 3)
    g = polyq.mul(polyq.mul([1, 0, 1], [1, 0, 1]), [-3, 1])
    assert padic._norm(polyq.derivative(g), g) == 0
    with pytest.raises(ValueError, match="not squarefree"):
        padic.factor_monic_int(g)


# -- Hensel lifting: quadratic against the digit-by-digit lift ----------------

def linear_hensel_pair(f, g, h, p, M):
    """The lift of f = g*h from mod p to mod p^M one base-p digit per step:
    with f = g*h mod p^m, the corrections u (to g) and v (to h) satisfy
    g*v + h*u = e mod p, deg u < deg g, deg v < deg h, e = (f - g*h)/p^m."""
    g = polyq.trim([c % p for c in g])
    h = polyq.trim([c % p for c in h])
    _, a, b = polyq.fp_xgcd(g, h, p)
    for m in range(1, M):
        q2 = p ** (m + 1)
        err = polyq.sub_mod(f, polyq.mul(g, h), q2)
        e0 = polyq.trim([(c // p ** m) % p for c in err])
        if not e0:
            continue
        u0 = polyq.rem_monic(polyq.mul(e0, b), g, p)
        num = polyq.sub_mod(e0, polyq.mul(h, u0), p)
        v0, r0 = polyq.divmod_monic(num, g, p)
        assert not r0
        g = polyq.add_mod(g, polyq.scale_mod(u0, p ** m, q2), q2)
        h = polyq.add_mod(h, polyq.scale_mod(v0, p ** m, q2), q2)
    pM = p ** M
    return ([c % pM for c in g] or [0]), ([c % pM for c in h] or [0])


def monic(p, deg):
    return st.lists(st.integers(0, p - 1), min_size=deg,
                    max_size=deg).map(lambda c: c + [1])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hensel_pair_matches_the_linear_lift(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    M = data.draw(st.integers(1, 40))
    g = data.draw(monic(p, data.draw(st.integers(1, 4))))
    h = data.draw(monic(p, data.draw(st.integers(1, 4))))
    assume(polyq.fp_xgcd(g, h, p)[0] == [1])
    # f = g*h mod p, with random higher digits below the leading 1
    pM = p ** M
    f = [(c + p * data.draw(st.integers(0, pM))) % pM
         for c in polyq.mul(g, h)[:-1]] + [1]
    assert padic._hensel_pair(f, g, h, p, M) == \
        linear_hensel_pair(f, g, h, p, M)


@pytest.mark.parametrize("M,steps", [(2, 1), (8, 3), (33, 6), (106, 7)])
def test_hensel_pair_doubles_the_precision_per_step(M, steps, monkeypatch):
    """Past the Bezout pair mod p, a lift to p^M makes ceil(log2 M) steps
    of 5 products each, the last step 3 (no inverse is lifted after it);
    the digit-by-digit lift made 3 per digit."""
    g, h = [1, 1], [2, 1, 1]
    f = polyq.mul(g, [2 + 3 * 5, 7, 1])
    mul = polyq.mul
    calls = []
    monkeypatch.setattr(polyq, "mul",
                        lambda a, b: calls.append(1) or mul(a, b))
    counts = []
    for prec in (1, M):
        calls.clear()
        G, H = padic._hensel_pair(f, g, h, 3, prec)
        counts.append(len(calls))
        assert polyq.sub_mod(f, mul(G, H), 3 ** prec) == []
    assert counts[1] - counts[0] == 5 * steps - 2


# -- inverses: one solve against the multiplication matrix -------------------
#
# The reference is the extended Euclidean algorithm over Q, on Fraction
# polynomials (lists, lowest degree first).


def poly_sub(p, q):
    return polyq.trim([a - b for a, b in zip_longest(p, q, fillvalue=0)])


def poly_divmod(p, q):
    """Division with remainder over Q; coefficients become Fractions."""
    q = polyq.trim(list(q))
    r = [Fraction(c) for c in p]
    d = len(q) - 1
    quo = [Fraction(0)] * max(0, len(r) - d)
    for k in range(len(quo) - 1, -1, -1):
        c = r[k + d] / q[-1]
        quo[k] = c
        for i in range(d + 1):
            r[k + i] -= c * q[i]
    return polyq.trim(quo), polyq.trim(r[:d])


def poly_xgcd(p, q):
    """(g, u, v) with u p + v q = g, g monic (or zero), over Q."""
    r0, r1 = polyq.trim([Fraction(c) for c in p]), \
        polyq.trim([Fraction(c) for c in q])
    u0, u1, v0, v1 = [Fraction(1)], [], [], [Fraction(1)]
    while r1:
        quo, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, poly_sub(u0, polyq.mul(quo, u1))
        v0, v1 = v1, poly_sub(v0, polyq.mul(quo, v1))
    if r0:
        lead = r0[-1]
        r0, u0, v0 = ([c / lead for c in w] for w in (r0, u0, v0))
    return r0, u0, v0


def xgcd_inverse(field, nums, den):
    """The power-basis coefficients of 1 / x for x = nums / den nonzero,
    from the Bezout coefficient of nums and the minimal polynomial."""
    g, u, _ = poly_xgcd(nums, field.minpoly)
    assert g == [1]
    return [den * c for c in u] + [Fraction(0)] * (field.degree - len(u))


def xgcd_local_inverse(x):
    """LocalElement.inverse from the Bezout coefficient of the numerator
    and the local factor over Q."""
    emb = x.emb
    p, pM = emb.p, emb.pM
    v = x.valuation()
    g, s, _ = poly_xgcd(x.vec, emb.local_factor)
    if g != [1]:
        raise PrecisionExhausted("numerator shares a factor")
    den = lcm(*(c.denominator for c in s))
    t = 0
    while den % p ** (t + 1) == 0:
        t += 1
    u = pow(den // p ** t, -1, pM) * p ** x.shift
    vec = polyq.rem_monic([int(c * den) * u for c in s], emb.local_factor, pM)
    return padic.LocalElement(emb, vec, t, x.prec - 2 * v)


INVERSE_FIELDS = ([QQ] + [make_field(f) for f in (
    [1, 0, 1], [-2, 0, 1], [-3, 0, 1], [-5, 0, 1], [1, 1, 0, 1],
    [2, 0, 0, 0, 1], [1, 0, -10, 0, 1])]
    + [make_field(f) for f, _ in HECKE_CASES] + HECKE_23_6)


# the reference takes up to 0.4 s on the fields of degree 10 and 12
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_field_inverse_matches_xgcd(data):
    K = data.draw(st.sampled_from(INVERSE_FIELDS))
    nums = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                              min_size=K.degree, max_size=K.degree))
    den = data.draw(st.integers(1, 10 ** 3))
    if not any(nums):
        return
    m, d = K.inverse_matrix(nums, den)
    # column 0 of m / d holds the coefficients of 1 / x times 1
    assert [Fraction(row[0], d) for row in m] == xgcd_inverse(K, nums, den)
    # x times 1 / x is 1
    assert [sum(map(mul, row, nums)) for row in m] == \
        [d * den] + [0] * (K.degree - 1)


# -- exact elements against sympy's polynomial arithmetic over Q ------------

Y = sympy.Symbol("y")


def sympy_poly(coeffs):
    """sum coeffs[i] y^i as a sympy polynomial over Q."""
    return sympy.Poly(list(reversed(coeffs)) or [0], Y, domain="QQ")


def sympy_coeffs(poly, degree):
    """The power-basis coefficients of a sympy polynomial, as Fractions."""
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return out + [Fraction(0)] * (degree - len(out))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_exact_reduces_like_sympy_rem(data):
    K = data.draw(st.sampled_from(INVERSE_FIELDS))
    nums = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                              min_size=0, max_size=3 * K.degree + 2))
    den = data.draw(st.integers(1, 10 ** 4))
    got, gden = K.exact(nums, den)
    want = sympy_poly(nums).rem(sympy_poly(K.minpoly)) * sympy.Rational(1, den)
    assert len(got) == K.degree and gden > 0
    assert [Fraction(c, gden) for c in got] == sympy_coeffs(want, K.degree)
    assert gcd(gden, *got) == 1


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_inverse_matrix_inverts_the_multiplication_matrix(data):
    K = data.draw(st.sampled_from(INVERSE_FIELDS))
    nums = data.draw(st.lists(st.integers(-10 ** 4, 10 ** 4),
                              min_size=K.degree, max_size=K.degree))
    den = data.draw(st.integers(1, 10 ** 3))
    if not any(nums):
        return
    m, d = K.inverse_matrix(nums, den)
    f = sympy_poly(K.minpoly)
    x = sympy_poly(nums)
    # column j of the multiplication matrix of nums holds y^j nums mod f
    cols = [sympy_coeffs((x * sympy_poly([0] * j + [1])).rem(f), K.degree)
            for j in range(K.degree)]
    assert [[sum(map(mul, row, col)) for col in cols] for row in m] == \
        [[d * den * (i == j) for j in range(K.degree)]
                 for i in range(K.degree)]
    inv = sympy.invert(x, f) * den
    assert [Fraction(row[0], d) for row in m] == sympy_coeffs(inv, K.degree)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_local_inverse_matches_xgcd(data):
    x = data.draw(local_elements())
    try:
        want = xgcd_local_inverse(x)
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            x.inverse()
        return
    got = x.inverse()
    assert (got.vec, got.shift, got.prec) == (want.vec, want.shift, want.prec)


# -- snapshot of the local data of every prime above p ------------------------
#
# Recorded from this module's own primes_above; a change of the local
# factors, residue data or their order shows here before it reaches a report.
# Record again after an intended change with
#
#     PYTHONPATH=src python tests/test_padic.py

EMBEDDING_SNAPSHOT = Path(__file__).parent / "golden" / "padic-embeddings.json"

SNAPSHOT_CASES = [
    ("11-18-deg6", HECKE_11_18_DEG6, 3),
    ("11-18-deg8", HECKE_11_18_DEG8, 3),
    ("17-18-deg10", HECKE_17_18_DEG10, 3),
    ("17-18-deg12", HECKE_17_18_DEG12, 3),
    ("23-6-deg6", list(HECKE_23_6[0].minpoly), 3),
    ("23-6-deg3", list(HECKE_23_6[1].minpoly), 3),
    ("biquadratic", [1, 0, -10, 0, 1], 3),
    ("biquadratic", [1, 0, -10, 0, 1], 5),
]


def embedding_snapshot():
    """The local data of every prime above p of each snapshot field, at
    precisions 8 and 16, keyed by field, p and M."""
    out = {}
    for name, minpoly, p in SNAPSHOT_CASES:
        K = padic.NumberField(minpoly)
        for M in (8, 16):
            out["%s/p%d/M%d" % (name, p, M)] = [{
                "local_factor": list(emb.local_factor),
                "e": emb.e,
                "residue_degree": emb.residue_degree,
                "residue_modpoly": list(emb.residue_modpoly),
                "residue_gen": (None if emb.residue_gen is None
                                else [list(emb.residue_gen[0]),
                                      emb.residue_gen[1]]),
                "index": emb.index,
            } for emb in padic.primes_above(K, p, M)]
    return out


def test_embedding_snapshot():
    assert embedding_snapshot() == json.loads(EMBEDDING_SNAPSHOT.read_text())


# -- residues of x / p^t -----------------------------------------------------

@lru_cache(maxsize=None)
def snapshot_embeddings(M=8):
    """Every prime above p of the snapshot fields; some are monogenic and
    some ramified or with a residue generator that is not y."""
    return [emb for _, minpoly, p in SNAPSHOT_CASES
            for emb in padic.primes_above(padic.NumberField(minpoly), p, M)]


def divided_residue(x, t):
    """The residue of x / p^t, dividing first: the digits of x with t added
    to the shift, certified to t fewer digits."""
    return padic.LocalElement(x.emb, x.vec, x.shift + t, x.prec - t).reduce()


def outcome(reduce, *args):
    try:
        return reduce(*args)
    except (PrecisionExhausted, NegativeValuation) as exc:
        return type(exc)


def test_snapshot_embeddings_are_mixed():
    assert {emb.monogenic for emb in snapshot_embeddings()} == {True, False}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reduce_by_a_power_of_p_matches_dividing_first(data):
    emb = data.draw(st.sampled_from(snapshot_embeddings()))
    p = emb.p
    content = data.draw(st.integers(0, 5))
    vec = data.draw(st.lists(st.integers(0, emb.pM - 1), min_size=emb.degree,
                             max_size=emb.degree))
    x = padic.LocalElement(emb, [p ** content * c for c in vec],
                           data.draw(st.integers(0, 3)),
                           data.draw(st.integers(-1, emb.M)))
    t = data.draw(st.integers(0, 4))
    assert outcome(x.reduce, t) == outcome(divided_residue, x, t)


@pytest.mark.parametrize("monogenic", [True, False])
def test_reduce_by_a_power_of_p_edge_cases(monogenic):
    emb = next(e for e in snapshot_embeddings() if e.monogenic == monogenic)
    p = emb.p
    unit = padic.LocalElement(emb, [1], 0, emb.M)
    deep = padic.LocalElement(emb, [p ** 5], 0, 3)
    # zero to its precision with digits left: the residue is zero
    assert deep.reduce(1).is_zero() and divided_residue(deep, 1).is_zero()
    # no digits left
    for reduce in (deep.reduce, lambda t: divided_residue(deep, t)):
        with pytest.raises(PrecisionExhausted):
            reduce(3)
    # a negative valuation
    for reduce in (unit.reduce, lambda t: divided_residue(unit, t)):
        with pytest.raises(NegativeValuation):
            reduce(1)
    assert unit.reduce(0) == emb.residue_field.one()
    assert padic.LocalElement(emb, [p], 0, emb.M).reduce(1) == \
        emb.residue_field.one()


if __name__ == "__main__":
    EMBEDDING_SNAPSHOT.write_text(
        json.dumps(embedding_snapshot(), indent=1) + "\n")
