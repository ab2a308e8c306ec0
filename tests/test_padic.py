"""Tests for number fields, embeddings, valuations and residue fields."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from mtlab import padic
from mtlab.errors import (
    ReduciblePolynomial,
    PrecisionExhausted,
    NegativeValuation,
)


QQ = padic.make_field([0, 1])


def test_make_field_rational():
    assert QQ.degree == 1


def test_make_field_quadratic():
    K = padic.make_field([1, 0, 1])
    assert K.degree == 2


def test_make_field_rejects_reducible():
    with pytest.raises(ReduciblePolynomial):
        padic.make_field([-1, 0, 1])  # x^2 - 1
    with pytest.raises(ReduciblePolynomial):
        padic.make_field([0, 0, 1])  # x^2
    with pytest.raises(ReduciblePolynomial):
        padic.make_field([1, 2])  # not monic


def test_field_arithmetic():
    K = padic.make_field([1, 0, 1])
    i = K.gen()
    assert i * i == K.from_rational(-1)
    x = i + 2
    assert x * x.inverse() == K.one()
    assert (x - x).is_zero()


def test_primes_above_rational():
    embs = padic.primes_above(QQ, 5, 4)
    assert len(embs) == 1
    assert embs[0].e == 1 and embs[0].residue_degree == 1


def test_primes_above_inert():
    K = padic.make_field([-2, 0, 1])  # x^2 - 2, inert at 3
    embs = padic.primes_above(K, 3, 3)
    assert len(embs) == 1
    assert embs[0].e == 1 and embs[0].residue_degree == 2


def test_primes_above_ramified():
    K = padic.make_field([-5, 0, 1])  # x^2 - 5, ramified at 5
    embs = padic.primes_above(K, 5, 4)
    assert len(embs) == 1
    assert embs[0].e == 2 and embs[0].residue_degree == 1
    # the generator is a uniformizer: squaring gives valuation 1
    s = K.gen()
    assert embs[0].valuation(s) == Fraction(1, 2)
    assert embs[0].valuation(s * s) == 1


def test_primes_above_split():
    K = padic.make_field([1, 0, 1])  # x^2 + 1 splits at 5
    embs = padic.primes_above(K, 5, 5)
    assert len(embs) == 2
    reductions = sorted(emb.reduce(K.gen()).coeffs[0] for emb in embs)
    assert reductions == [2, 3]


def test_degree_identity_on_constructed_fields():
    fields = [QQ,
              padic.make_field([1, 0, 1]),
              padic.make_field([-2, 0, 1]),
              padic.make_field([-5, 0, 1]),
              padic.make_field([1, 1, 0, 1]),
              padic.make_field([2, 0, 0, 0, 1])]
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
    assert emb.valuation(5) == 1
    assert emb.valuation(Fraction(1, 5)) == -1
    assert emb.valuation(7) == 0


def test_valuation_of_zero_rejected():
    emb = padic.primes_above(QQ, 5, 4)[0]
    with pytest.raises(ValueError):
        emb.valuation(0)


def test_valuation_precision_exhausted():
    emb = padic.primes_above(QQ, 5, 3)[0]
    with pytest.raises(PrecisionExhausted):
        emb.local(QQ.from_rational(5 ** 3)).valuation()


def test_reduce_basics():
    emb = padic.primes_above(QQ, 5, 4)[0]
    assert emb.reduce(5).is_zero()
    assert emb.reduce(6) == emb.residue_field.one()
    assert emb.reduce(-2) == emb.residue_field.element(3)


def test_reduce_negative_valuation():
    emb = padic.primes_above(QQ, 5, 4)[0]
    with pytest.raises(NegativeValuation):
        emb.reduce(QQ.from_rational(Fraction(1, 5)))


def test_reduce_is_ring_hom_random():
    rng = random.Random(20260823)
    K = padic.make_field([-2, 0, 1])
    emb = padic.primes_above(K, 3, 6)[0]
    for _ in range(1000):
        x = K.element([rng.randrange(-50, 50), rng.randrange(-50, 50)])
        y = K.element([rng.randrange(-50, 50), rng.randrange(-50, 50)])
        assert emb.reduce(x * y) == emb.reduce(x) * emb.reduce(y)
        assert emb.reduce(x + y) == emb.reduce(x) + emb.reduce(y)


@given(a=st.integers(min_value=-400, max_value=400).filter(lambda n: n != 0),
       b=st.integers(min_value=-400, max_value=400).filter(lambda n: n != 0))
@settings(max_examples=200, deadline=None)
def test_valuation_multiplicative_and_ultrametric(a, b):
    K = padic.make_field([-5, 0, 1])
    emb = padic.primes_above(K, 5, 12)[0]
    s = K.gen()
    x = K.from_rational(a) + s * b
    y = K.from_rational(b) + s * a
    if x.is_zero() or y.is_zero():
        return
    vx = emb.valuation(x)
    vy = emb.valuation(y)
    assert emb.valuation(x * y) == vx + vy
    z = x + y
    if not z.is_zero():
        vz = emb.valuation(z)
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
    x = emb.local(QQ.from_rational(25))
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


def test_with_precision_relift():
    K = padic.make_field([-5, 0, 1])
    emb = padic.primes_above(K, 5, 3)[0]
    emb8 = emb.with_precision(8)
    assert emb8.M == 8
    assert [c % 5 ** 3 for c in emb8.local_factor] == list(emb.local_factor)


def test_finite_field_arithmetic():
    F9 = padic.FF(3, [1, 0, 1])  # t^2 + 1 irreducible mod 3
    t = F9.gen()
    assert t * t == F9.element(-1)
    assert (t + 1) * (t + 1).inverse() == F9.one()
    assert len(list(F9.elements())) == 9
    assert (t ** 8) == F9.one()


def test_finite_field_minimal_polynomial():
    F9 = padic.FF(3, [1, 0, 1])
    t = F9.gen()
    assert t.minimal_polynomial() == [1, 0, 1]
    assert F9.one().minimal_polynomial() == [2, 1]  # x - 1 over F_3


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
    K = padic.make_field(minpoly)
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
    K = padic.make_field(HECKE_11_18_DEG6)
    for emb in padic.primes_above(K, 3, 8):
        assert emb.valuation(K.gen()) == 0


def test_biquadratic_compositum_splitting():
    # Q(sqrt 2, sqrt 3): at 3 one prime with e = f = 2; at 5 both
    # quadratic subfields Q(sqrt 2), Q(sqrt 3) are inert and Q(sqrt 6)
    # splits, giving two unramified primes of degree 2
    K = padic.make_field([1, 0, -10, 0, 1])
    embs3 = padic.primes_above(K, 3, 8)
    assert sorted((e.e, e.residue_degree) for e in embs3) == [(2, 2)]
    embs5 = padic.primes_above(K, 5, 8)
    assert sorted((e.e, e.residue_degree) for e in embs5) == [(1, 2), (1, 2)]
