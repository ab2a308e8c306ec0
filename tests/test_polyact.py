"""Tests for the right action on homogeneous polynomials."""

import random
from fractions import Fraction

from mtlab import polyact

IDENTITY = ((1, 0), (0, 1))


def act(coeffs, gamma):
    """The right action on a coefficient list over any ring, through the
    integer matrix of `polyact.act_matrix`: the reference every action
    matrix is checked against."""
    g = len(coeffs) - 1
    m = polyact.act_matrix(gamma, g)
    out = []
    for i in range(g + 1):
        acc = None
        for j in range(g + 1):
            mij = m[i][j]
            if mij == 0:
                continue
            term = coeffs[j] * mij
            acc = term if acc is None else acc + term
        if acc is None:
            acc = coeffs[0] * 0
        out.append(acc)
    return out


def random_matrix(rng, bound=5):
    return ((rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1)),
            (rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1)))


def evaluate(coeffs, c, d):
    """Evaluate sum b_j X^j Y^(g-j) at (c, d) over any ring, skipping zero
    weights."""
    g = len(coeffs) - 1
    acc = None
    for j, b in enumerate(coeffs):
        w = c ** j * d ** (g - j)
        if w:
            term = b * w
            acc = term if acc is None else acc + term
    return coeffs[0] * 0 if acc is None else acc


def random_poly(rng, g):
    return [Fraction(rng.randrange(-9, 10)) for _ in range(g + 1)]


def test_identity_acts_trivially():
    rng = random.Random(1)
    for g in (0, 2, 6, 16):
        p = random_poly(rng, g)
        assert act(p, IDENTITY) == p


def test_action_is_antihomomorphism_free():
    # (P|g1)|g2 = P|(g1 g2) with this convention
    rng = random.Random(2)
    for _ in range(50):
        g = rng.choice([0, 2, 4, 8])
        p = random_poly(rng, g)
        m1 = random_matrix(rng)
        m2 = random_matrix(rng)
        lhs = act(act(p, m1), m2)
        rhs = act(p, polyact.mat_mul(m1, m2))
        assert lhs == rhs


def test_evaluation_after_action():
    # (P|gamma)(0, 1) = P(-c, a)
    rng = random.Random(3)
    for _ in range(50):
        g = rng.choice([2, 4, 10])
        p = random_poly(rng, g)
        m = random_matrix(rng)
        (a, b), (c, d) = m
        assert evaluate(act(p, m), 0, 1) == evaluate(p, -c, a)


def test_sigma_and_tau_orders():
    rng = random.Random(4)
    for g in (0, 2, 8):
        p = random_poly(rng, g)
        q = p
        for _ in range(4):
            q = act(q, polyact.SIGMA)
        assert q == p
        q = p
        for _ in range(3):
            q = act(q, polyact.TAU)
        assert q == p
        assert act(act(p, polyact.IOTA), polyact.IOTA) == p


def test_minus_identity_trivial_for_even_weight():
    rng = random.Random(5)
    minus = ((-1, 0), (0, -1))
    for g in (0, 2, 6):
        p = random_poly(rng, g)
        assert act(p, minus) == p


def test_weight_zero_action_is_trivial():
    m = ((3, 1), (2, 1))
    assert act([Fraction(7)], m) == [Fraction(7)]


def test_unimodular_inverse():
    rng = random.Random(6)
    for _ in range(100):
        a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
        # complete (a, b) to determinant 1 when possible
        found = None
        for c in range(-9, 10):
            for d in range(-9, 10):
                if a * d - b * c == 1:
                    found = ((a, b), (c, d))
                    break
            if found:
                break
        if found is None:
            continue
        inv = polyact.mat_inv_unimodular(found)
        assert polyact.mat_mul(found, inv) == IDENTITY
