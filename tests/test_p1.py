"""Tests for the projective line over Z/M."""

import random
from math import gcd

import pytest

from mtlab import p1


def psi(N):
    # index of Gamma_0(N) in SL_2(Z)
    val = N
    q = 2
    n = N
    while q * q <= n:
        if n % q == 0:
            val = val // q * (q + 1)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        val = val // n * (n + 1)
    return val


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 11, 12, 17, 21, 25, 27, 55, 297])
def test_size_matches_index_formula(N):
    assert len(p1.P1List(N)) == psi(N)


def test_normalize_is_idempotent_and_unit_invariant():
    rng = random.Random(11)
    for N in (12, 17, 21, 55):
        for _ in range(200):
            u = rng.randrange(N)
            v = rng.randrange(N)
            r = p1.normalize(N, u, v)
            if r == (0, 0):
                assert gcd(gcd(u, v), N) > 1
                continue
            assert p1.normalize(N, *r) == r
            units = [t for t in range(1, N) if gcd(t, N) == 1]
            t = rng.choice(units)
            assert p1.normalize(N, u * t, v * t) == r


@pytest.mark.parametrize("N", [1, 2, 12, 17, 21, 25, 27, 30, 49, 60])
def test_normalize_is_the_least_unit_multiple(N):
    units = [t for t in range(N) if gcd(t, N) == 1] or [0]
    for u in range(-1, N + 1):
        for v in range(-1, N + 1):
            want = (0, 0) if gcd(gcd(u, v), N) > 1 or N == 1 else \
                min(((t * u) % N, (t * v) % N) for t in units)
            assert p1.normalize(N, u, v) == want


def test_lift_to_sl2z():
    rng = random.Random(12)
    for N in (11, 17, 21, 297):
        plist = p1.P1List(N)
        for i in range(len(plist)):
            m = plist.lift(i)
            (a, b), (c, d) = m
            assert a * d - b * c == 1
            u, v = plist[i]
            assert p1.normalize(N, c, d) == (u, v)


def test_apply_right_matches_matrix_product():
    rng = random.Random(13)
    for N in (11, 21):
        plist = p1.P1List(N)
        for _ in range(100):
            i = rng.randrange(len(plist))
            g1 = plist.lift(rng.randrange(len(plist)))
            g2 = plist.lift(rng.randrange(len(plist)))
            j = plist.apply_right(plist.apply_right(i, g1), g2)
            prod = ((g1[0][0] * g2[0][0] + g1[0][1] * g2[1][0],
                     g1[0][0] * g2[0][1] + g1[0][1] * g2[1][1]),
                    (g1[1][0] * g2[0][0] + g1[1][1] * g2[1][0],
                     g1[1][0] * g2[0][1] + g1[1][1] * g2[1][1]))
            assert j == plist.apply_right(i, prod)


def test_index_rejects_imprimitive_pairs():
    plist = p1.P1List(12)
    with pytest.raises(ValueError):
        plist.index(2, 4)
    with pytest.raises(ValueError):
        plist.index(0, 0)
    # lookup answers None instead, and the index otherwise
    assert plist.lookup(2, 4) is None and plist.lookup(0, 0) is None
    assert [plist.lookup(u, v) for u, v in plist.reps] == \
        list(range(len(plist)))


def test_level_one_is_a_point():
    plist = p1.P1List(1)
    assert len(plist) == 1
    assert plist.lift(0) == ((1, 0), (0, 1))
