"""Tests for Manin-symbol presentations, evaluation and Hecke operators."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from mtlab import linalg, mazurtate, modsym, padic, polyact
from mtlab.errors import InvalidOperator, PrecisionExhausted
from mtlab.modsym import ManinSymbolSpace
from test_linalg import QQ, mat_mat
from test_padic import sympy_coeffs, sympy_poly
from test_polyact import act, evaluate


# -- coset values of arbitrary coordinates (references) ----------------------

def times(x, n, d):
    """x * n / d: an embedded value times the embedded rational, any other
    value times a Fraction."""
    if isinstance(x, padic.LocalElement):
        return x * x.emb.local_ints([n], d)
    return x * Fraction(n, d)


def coset_value(space, coords, A):
    """Value vector Phi(A) of the symbol with the given coordinates.

    Entry r is sum n * coords[j] over the (j, n) of row r = (d, terms)
    of values_basis[A], divided once by d (not at all when d = 1).
    """
    out = []
    for d, terms in space.values_basis[A]:
        acc = None
        for j, n in terms:
            term = coords[j] * n
            acc = term if acc is None else acc + term
        if acc is None:
            acc = coords[0] * 0
        elif d != 1:
            acc = times(acc, 1, d)
        out.append(acc)
    return out


def all_values(space, coords):
    return [coset_value(space, coords, A) for A in range(len(space.plist))]


def apply_operator_to_values(space, op, values, cosets=None):
    """Values of phi|op at the given cosets (default: basis positions)."""
    if cosets is None:
        cosets = space._position_cosets
    return space.apply_plan_to_values(space._plan(op, cosets), values)


def coords_from_values(space, values):
    """Coordinates of a symbol given its coset values."""
    return [values[c][j] for c, j in space.positions]


def operator_on_coords(space, op, coords):
    """Coordinates of phi|op: H coords / D for H = hecke_matrix(op)."""
    zero = coords[0] * 0
    return [times(sum((c * x for c, x in zip(row, coords) if c), zero),
                  1, space.denominator)
            for row in space.hecke_matrix(op)]


# -- exact field elements as sympy polynomials over Q (references) -----------

def field_poly(x):
    """The field element x = (nums, den) as a sympy polynomial over Q."""
    nums, den = x
    return sympy_poly(nums) * Fraction(1, den)


def poly_ints(x):
    """A sympy polynomial over Q as (nums, den): integers over one
    denominator."""
    cs = sympy_coeffs(x, 0)
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def field_coords(f):
    """The coordinates of an eigenclass as sympy polynomials over Q."""
    E = f.denominator // f.space.denominator
    return [field_poly((nums, E)) for nums in f.numerators]


def field_product(f, x, y):
    """x * y in the Hecke field of the eigenclass f."""
    return (x * y).rem(sympy_poly(f.field.minpoly))


def field_inverse(f, x):
    """1 / x in the Hecke field of the eigenclass f."""
    return x.invert(sympy_poly(f.field.minpoly))


def embedded_values(norm):
    """The coset values of a normalized symbol: each exact value of its
    eigenclass embedded once (`NormalizedSymbol.embed`)."""
    return [[norm.embed(x) for x in norm.eigensymbol.exact_value(A)]
            for A in range(len(norm.space.plist))]


def embedded_element(norm, n):
    """The level-n element of a normalized symbol: each coefficient of its
    eigenclass's exact element embedded once."""
    exact = mazurtate.exact_element(norm.eigensymbol, norm.embedding.p, n)
    return mazurtate.FullGroupRingElement(
        exact.p, n, {a: norm.embed(x) for a, x in exact.coeffs.items()})


# -- oracles ----------------------------------------------------------------

def psi(N):
    val = N
    n = N
    q = 2
    while q * q <= n:
        if n % q == 0:
            val = val // q * (q + 1)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        val = val // n * (n + 1)
    return val


def prime_divisors(n):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def nu2(N):
    if N % 4 == 0:
        return 0
    val = 1
    for q in prime_divisors(N):
        if q == 2:
            continue
        val *= 1 + (1 if q % 4 == 1 else -1)
    return val


def nu3(N):
    if N % 9 == 0:
        return 0
    val = 1
    for q in prime_divisors(N):
        if q == 3:
            continue
        val *= 1 + (1 if q % 3 == 1 else -1)
    return val


def euler_phi(n):
    val = n
    for q in prime_divisors(n):
        val = val // q * (q - 1)
    return val


def num_cusps(N):
    total = 0
    d = 1
    while d <= N:
        if N % d == 0:
            total += euler_phi(gcd(d, N // d))
        d += 1
    return total


def genus(N):
    return 1 + Fraction(psi(N), 12) - Fraction(nu2(N), 4) \
        - Fraction(nu3(N), 3) - Fraction(num_cusps(N), 2)


def dim_cusp_forms(N, k):
    """dim S_k(Gamma_0(N)) for even k >= 2."""
    g = genus(N)
    if k == 2:
        return int(g)
    val = (k - 1) * (g - 1) + (Fraction(k, 2) - 1) * num_cusps(N) \
        + nu2(N) * (k // 4) + nu3(N) * (k // 3)
    return int(val)


def curve_ap(coeffs, ell, bad=False):
    """a_ell of an elliptic curve by point counting on a Weierstrass model.

    coeffs = (a1, a2, a3, a4, a6).  Counts smooth points; for good primes
    a_ell = ell + 1 - #E(F_ell), while for multiplicative primes (bad=True)
    the smooth locus has ell - a_ell points.
    """
    a1, a2, a3, a4, a6 = coeffs
    count = 1
    for x in range(ell):
        for y in range(ell):
            f = (y * y + a1 * x * y + a3 * y
                 - (x ** 3 + a2 * x * x + a4 * x + a6)) % ell
            if f != 0:
                continue
            fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % ell
            fy = (2 * y + a1 * x + a3) % ell
            if fx == 0 and fy == 0:
                continue
            count += 1
    if bad:
        return ell - count
    return ell + 1 - count


# -- references: divisors, their values and path values ----------------------

class RationalDivisor:
    """Formal integer combination of cusps; (1, 0) denotes oo."""

    def __init__(self, terms):
        merged = {}
        for coeff, cusp in terms:
            cusp = _normalize_cusp(cusp)
            merged[cusp] = merged.get(cusp, 0) + coeff
        self.terms = tuple(sorted((c, pt) for pt, c in merged.items()
                                  if c != 0))

    def degree(self):
        return sum(c for c, _ in self.terms)

    @staticmethod
    def path(src, dst):
        """The divisor {dst} - {src}."""
        return RationalDivisor([(1, dst), (-1, src)])

    @staticmethod
    def from_string(text):
        """Parse strings like "oo - 3/25" or "1/2 - 0 + 2*oo"."""
        terms = []
        pending_sign = 1
        for chunk in text.replace("-", " - ").replace("+", " + ").split():
            if chunk == "-":
                pending_sign = -1
            elif chunk == "+":
                pending_sign = 1
            else:
                coeff = pending_sign
                if "*" in chunk:
                    mult, chunk = chunk.split("*", 1)
                    coeff *= int(mult)
                terms.append((coeff, _parse_cusp(chunk)))
                pending_sign = 1
        return RationalDivisor(terms)


def _parse_cusp(text):
    if text in ("oo", "inf", "infinity"):
        return (1, 0)
    if "/" in text:
        a, b = text.split("/")
        return (int(a), int(b))
    return (int(text), 1)


def _normalize_cusp(cusp):
    a, b = cusp
    if b == 0:
        return (1, 0)
    if b < 0:
        a, b = -a, -b
    g = gcd(abs(a), b)
    return (a // g, b // g)


def add(u, v):
    return [a + b for a, b in zip(u, v)]


def path_terms(space, a, b):
    """(coset B, g^(-1)) with phi({oo} - {a/b}) = sum Phi(B)|g^(-1) over
    the continued-fraction matrices g of a/b, B the class of g."""
    terms = []
    for gmat in modsym._convergent_matrices(a, b):
        B = space.plist.index(gmat[1][0], gmat[1][1])
        terms.append((B, polyact.mat_inv_unimodular(gmat)))
    return terms


def evaluate_divisor(space, get_value, divisor):
    """phi(D) for the symbol whose coset values come from get_value: each
    path {oo} - {a/b} is sum Phi(B)|g^(-1) over its continued-fraction
    matrices g."""
    assert divisor.degree() == 0
    acc = [get_value(0)[0] * 0] * (space.g + 1)
    for coeff, (a, b) in divisor.terms:
        for B, ginv in path_terms(space, a, b):
            acc = add(acc, [x * -coeff
                            for x in act(get_value(B), ginv)])
    return acc


def path_value(space, get_value, a, b):
    """The Y^g coefficient of phi({oo} - {a/b}), b != 0: row 0 of each
    Phi(B)|g^(-1) is Phi(B) evaluated at the bottom row (c, d) of g."""
    acc = None
    for _, (c, d) in modsym._convergent_matrices(a, b):
        term = evaluate(get_value(space.plist.index(c, d)), c, d)
        acc = term if acc is None else acc + term
    return acc


E11 = (0, -1, 1, -10, -20)
E17 = (1, -1, 1, -1, -14)
E21 = (1, 0, 0, -4, -1)


def random_coords(space, rng):
    return [Fraction(rng.randrange(-9, 10)) for _ in range(space.dim)]


# -- presentation ------------------------------------------------------------

@pytest.mark.parametrize("N,k", [(11, 2), (17, 2), (21, 2), (11, 6), (14, 4)])
def test_dimension_matches_formula(N, k):
    space = ManinSymbolSpace(N, k)
    s = dim_cusp_forms(N, k)
    eis = num_cusps(N) - 1 if k == 2 else num_cusps(N)
    assert space.dim == 2 * s + eis
    for sign in (1, -1):
        rows, _ = space.cuspidal_subspace(sign)
        assert len(rows) == s


def test_coset_count():
    assert len(ManinSymbolSpace(11, 2).plist) == 12
    assert len(ManinSymbolSpace(17, 2).plist) == 18


def test_weight_must_be_even():
    with pytest.raises(ValueError):
        ManinSymbolSpace(11, 3)


def test_manin_relations_hold():
    rng = random.Random(7)
    for N, k in ((11, 2), (15, 2), (11, 4), (13, 6)):
        space = ManinSymbolSpace(N, k)
        coords = random_coords(space, rng)
        values = all_values(space, coords)
        for i in range(len(space.plist)):
            si = space.plist.apply_right(i, polyact.SIGMA)
            lhs = add(values[si], act(values[i], polyact.SIGMA))
            assert all(x == 0 for x in lhs)
            ti = space.plist.apply_right(i, polyact.TAU)
            tti = space.plist.apply_right(ti, polyact.TAU)
            lhs = add(values[i], add(act(values[ti], polyact.TAU2),
                                     act(values[tti], polyact.TAU)))
            assert all(x == 0 for x in lhs)


def test_coords_roundtrip():
    rng = random.Random(8)
    space = ManinSymbolSpace(13, 4)
    coords = random_coords(space, rng)
    values = all_values(space, coords)
    assert coords_from_values(space, values) == coords


# -- evaluation ---------------------------------------------------------------

def test_divisor_parsing():
    div = RationalDivisor.from_string("oo - 3/25")
    assert div.terms == ((-1, (3, 25)), (1, (1, 0)))
    assert div.degree() == 0
    div2 = RationalDivisor.from_string("1/2 - 0 + 2*oo - 2*oo")
    assert div2.terms == ((-1, (0, 1)), (1, (1, 2)))


def test_evaluate_identity_path():
    rng = random.Random(9)
    space = ManinSymbolSpace(11, 4)
    coords = random_coords(space, rng)
    values = all_values(space, coords)
    # {oo} - {0} is the path of the identity coset
    div = RationalDivisor.from_string("oo - 0")
    got = evaluate_divisor(space, lambda A: values[A], div)
    assert got == values[space.plist.index(0, 1)]


def test_evaluate_additive_and_antisymmetric():
    rng = random.Random(10)
    space = ManinSymbolSpace(15, 2)
    coords = random_coords(space, rng)
    values = all_values(space, coords)

    def ev(text):
        return evaluate_divisor(space, lambda A: values[A],
                                RationalDivisor.from_string(text))

    lhs = ev("oo - 1/3")
    rhs = [-x for x in ev("1/3 - oo")]
    assert lhs == rhs
    assert ev("oo - 2/7") == add(ev("oo - 1/3"), ev("1/3 - 2/7"))


def test_evaluate_gamma_invariance():
    rng = random.Random(11)
    for N, k in ((11, 2), (13, 4)):
        space = ManinSymbolSpace(N, k)
        coords = random_coords(space, rng)
        values = all_values(space, coords)
        for _ in range(20):
            # random element of Gamma_0(N): bottom row (c, d) with N | c
            c = N * rng.randrange(-3, 4)
            d = rng.randrange(-5, 6)
            while d == 0 or gcd(abs(c), abs(d)) != 1:
                c = N * rng.randrange(-3, 4)
                d = rng.randrange(1, 6)
            a, b = _complete_row(c, d)
            gamma = ((a, b), (c, d))
            assert a * d - b * c == 1
            x = Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
            y = Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
            if x == y:
                continue
            div = RationalDivisor.path((x.numerator, x.denominator),
                                       (y.numerator, y.denominator))
            gdiv = RationalDivisor.path(_apply_moebius(gamma, x),
                                        _apply_moebius(gamma, y))
            lhs = act(
                evaluate_divisor(space, lambda A: values[A], gdiv), gamma)
            rhs = evaluate_divisor(space, lambda A: values[A], div)
            assert lhs == rhs


@pytest.mark.parametrize("N,k", [(11, 2), (13, 4), (11, 6)])
def test_path_value_is_row_zero_of_divisor_value(N, k):
    rng = random.Random(N + k)
    space = ManinSymbolSpace(N, k)
    values = all_values(space, random_coords(space, rng))
    cusps = [(0, 1), (1, 1), (2, 5), (-3, 25), (7, 27), (-13, 125),
             (124, 125), (-80, 81), (5, 3)]
    cusps += [(rng.randrange(-50, 51), rng.randrange(1, 60))
              for _ in range(20)]
    for a, b in cusps:
        div = RationalDivisor([(1, (1, 0)), (-1, (a, b))])
        assert path_value(space, values.__getitem__, a, b) == \
            evaluate_divisor(space, values.__getitem__, div)[0]


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
def test_convergent_bottoms_are_the_bottom_rows(a, b):
    # the bottom rows of the determinant-checked matrices, signs included
    want = [bottom for _, bottom in modsym._convergent_matrices(a, b)]
    assert list(modsym._convergent_bottoms(a, b)) == want


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _complete_row(c, d):
    g, s, t = _xgcd(d, -c)
    if g == -1:
        g, s, t = 1, -s, -t
    assert g == 1
    return s, t


def _apply_moebius(gamma, x):
    (a, b), (c, d) = gamma
    num = a * x.numerator + b * x.denominator
    den = c * x.numerator + d * x.denominator
    return (num, den)


# -- Hecke operators -----------------------------------------------------------

def test_iota_is_involution():
    for N, k in ((11, 2), (13, 4)):
        space = ManinSymbolSpace(N, k)
        # iota = J / D for the integer matrix J
        J = space.hecke_matrix("iota")
        J2 = mat_mat(J, J)
        D = space.denominator
        for r in range(space.dim):
            for c in range(space.dim):
                assert J2[r][c] == (D * D if r == c else 0)


def test_hecke_commutativity():
    space = ManinSymbolSpace(11, 4)
    t2 = space.hecke_matrix("T2")
    t3 = space.hecke_matrix("T3")
    J = space.hecke_matrix("iota")
    assert mat_mat(t2, t3) == mat_mat(t3, t2)
    assert mat_mat(t2, J) == mat_mat(J, t2)


def test_invalid_operators():
    space = ManinSymbolSpace(11, 2)
    with pytest.raises(InvalidOperator):
        space.hecke_matrix("T11")
    with pytest.raises(InvalidOperator):
        space.hecke_matrix("U2")
    with pytest.raises(InvalidOperator):
        space.hecke_matrix("Q7")


@pytest.mark.parametrize("N,curve", [(11, E11), (17, E17), (21, E21)])
def test_weight2_eigenvalues_match_point_counts(N, curve):
    space = ManinSymbolSpace(N, 2)
    classes = modsym.cuspidal_eigensymbols(space, 1)
    assert len(classes) == 1
    f = classes[0]
    assert f.field.degree == 1
    for ell in (2, 3, 5, 7, 13):
        expected = curve_ap(curve, ell, bad=(N % ell == 0))
        got = f.a(ell)
        assert got == ([expected], 1), (N, ell, got, expected)


def test_weight2_level11_up_eigenvalue():
    space = ManinSymbolSpace(11, 2)
    f = modsym.cuspidal_eigensymbols(space, 1)[0]
    assert f.a(11) == ([curve_ap(E11, 11, bad=True)], 1)


def test_eigensymbol_is_actual_eigenvector():
    space = ManinSymbolSpace(11, 6)
    for sign in (1, -1):
        for f in modsym.cuspidal_eigensymbols(space, sign):
            coords = field_coords(f)
            a2 = field_poly(f.a(2))
            out = operator_on_coords(space, "T2", coords)
            for got, want in zip(out, coords):
                assert got == field_product(f, a2, want)
            # iota scales by the stated sign
            values = all_values(space, coords)
            iv = apply_operator_to_values(space, "iota", values)
            for idx, (c, j) in enumerate(space.positions):
                assert iv[c][j] == coords[idx] * f.sign


def test_cyclic_krylov_basis():
    # the companion matrix of x^3 - 2x - 5: e_0 is cyclic
    companion = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert modsym._cyclic_krylov_basis(companion, 1) == [
        ([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1)]
    # no unit vector is cyclic for a diagonal matrix; (2^j) is, and each
    # S^m v is kept in lowest terms
    assert modsym._cyclic_krylov_basis(
        [[1, 0, 0], [0, 2, 0], [0, 0, 3]], 2) == [
        ([1, 2, 4], 1), ([1, 4, 12], 2), ([1, 8, 36], 4)]
    assert modsym._cyclic_krylov_basis(
        [[2, 0, 0], [0, 4, 0], [0, 0, 6]], 2) == [
        ([1, 2, 4], 1), ([1, 4, 12], 1), ([1, 8, 36], 1)]
    # nothing is cyclic for a scalar matrix
    assert modsym._cyclic_krylov_basis([[2, 0], [0, 2]], 1) is None


def test_splitting_over_q_is_fraction_free(monkeypatch):
    # every elimination of the presentation and the splitting at 23/6 runs
    # the integer loop, none the field loop
    calls = {"field": 0, "integer": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(linalg, "_eliminate",
                        counted("field", linalg._eliminate))
    monkeypatch.setattr(linalg, "_cross_eliminate",
                        counted("integer", linalg._cross_eliminate))
    space = ManinSymbolSpace(23, 6)
    classes = modsym.cuspidal_eigensymbols(space, 1)
    assert [f.field.degree for f in classes] == [3, 6]
    assert calls["field"] == 0
    assert calls["integer"] > 0


def test_presentation_is_built_without_fractions(monkeypatch):
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for N, k in ((23, 6), (13, 4), (25, 2)):
        ManinSymbolSpace(N, k)
    assert made == []


def test_eigensymbol_minus_space_matches_plus_eigenvalues():
    space = ManinSymbolSpace(11, 2)
    plus = modsym.cuspidal_eigensymbols(space, 1)
    minus = modsym.cuspidal_eigensymbols(space, -1)
    assert len(plus) == len(minus) == 1
    for ell in (2, 3, 5):
        assert plus[0].a(ell) == minus[0].a(ell)


def test_a_reads_one_coset_per_class_and_prime(monkeypatch):
    # eigenforms at 23/6/3, both signs: each of the 4 classes reads each
    # of the 8 primes up to 20 off one coset, one plan per class and prime,
    # and builds no operator matrix past those of the splitting
    space = ManinSymbolSpace(23, 6)
    classes = [modsym.cuspidal_eigensymbols(space, sign) for sign in (1, -1)]
    assert [len(c) for c in classes] == [2, 2]
    plans, built = [], []
    plan, hecke_matrix = ManinSymbolSpace._plan, ManinSymbolSpace.hecke_matrix

    def counted_plan(self, op, cosets):
        plans.append((op, list(cosets)))
        return plan(self, op, cosets)

    def counted_hecke_matrix(self, op):
        built.append(op)
        return hecke_matrix(self, op)

    monkeypatch.setattr(ManinSymbolSpace, "_plan", counted_plan)
    monkeypatch.setattr(ManinSymbolSpace, "hecke_matrix", counted_hecke_matrix)
    eigenvalues = [[[f.a(ell) for ell in padic.primes_up_to(20)]
                    for f in c] for c in classes]
    assert len(plans) == 4 * 8
    assert all(len(cosets) == 1 for _, cosets in plans)
    assert built == []
    splitters = {op for combo in modsym._splitting_candidates(space)
                 for op, _ in combo}
    assert set(space._hecke_matrices) <= splitters | {"iota"}
    # each class has its own eigenvalues, in lowest terms over its own
    # field
    for c, values in zip(classes, eigenvalues):
        assert [len(v[0][0]) for v in values] == [f.field.degree for f in c]
        assert all(gcd(den, *nums) == 1 for v in values for nums, den in v)
        assert values[0] != values[1]


def krylov_eigenvalues(space, sign, bound):
    """{minimal polynomial: [a_ell for the primes ell <= bound]} for the
    classes of a sign, by the Krylov algebra of the splitting that
    `cuspidal_eigensymbols` picks: with the Krylov vectors S^j v = N_j / f_j
    of its operator S in full coordinates, solving H N_0 = sum u_j N_j for
    H = D * T_ell gives T_ell = sum u_j f_j / (D f_0) S^j on the cuspidal
    subspace, and a_ell is that sum at the eigenvalue of S, the generator
    of the class's field."""
    basis = space.cuspidal_subspace(sign)
    rows, c = basis
    ds = len(rows)
    for combo in modsym._splitting_candidates(space):
        mats = [space._restrict_operator(op, basis) for op, _ in combo]
        d = lcm(*(dm for _, dm in mats))
        smat = [[sum(w * (d // dm) * m[r][col]
                     for (_, w), (m, dm) in zip(combo, mats))
                 for col in range(ds)] for r in range(ds)]
        charpoly = [x // d ** (ds - i)
                    for i, x in enumerate(linalg.charpoly_rational(smat))]
        try:
            factors = padic.factor_monic_int(charpoly)
        except ValueError:
            continue
        krylov = modsym._cyclic_krylov_basis(smat, d)
        if krylov is not None:
            break
    full = [linalg.lowest([modsym._combine(u, rows)], e * c)
            for u, e in krylov]
    columns = [list(col) for col in zip(*(N for (N,), _ in full))]
    (N0,), f0 = full[0]
    out = {tuple(fac): [] for fac in factors}
    for ell in padic.primes_up_to(bound):
        H = space.hecke_matrix(("U%d" if space.M % ell == 0 else "T%d")
                               % ell)
        u, uden = linalg.solve(columns, linalg.mat_vec(H, N0))
        nums = [x * f for x, (_, f) in zip(u, full)]
        for fac, values in out.items():
            values.append(padic.NumberField(fac).exact(
                nums, uden * space.denominator * f0))
    return out


# the spaces of the golden reports, and 33/2 and 14/4, which have old
# classes
A_ELL_CASES = [(N, k, 40) for N, k in ((11, 2), (11, 4), (11, 6), (11, 8),
                                       (23, 4), (23, 6), (22, 4), (37, 2),
                                       (33, 2), (14, 4))] + [(389, 2, 20)]


@pytest.mark.parametrize("N,k,bound", A_ELL_CASES)
def test_a_matches_the_krylov_reference(N, k, bound):
    space = ManinSymbolSpace(N, k)
    for sign in (1, -1):
        classes = modsym.cuspidal_eigensymbols(space, sign)
        want = krylov_eigenvalues(space, sign, bound)
        assert sorted(want) == sorted(f.field.minpoly for f in classes)
        for f in classes:
            got = [f.a(ell) for ell in padic.primes_up_to(bound)]
            assert got == want[f.field.minpoly]


def test_wn_involution_on_eigensymbol():
    space = ManinSymbolSpace(11, 2)
    f = modsym.cuspidal_eigensymbols(space, 1)[0]
    assert f.field.degree == 1
    E = f.denominator // space.denominator
    coords = [Fraction(nums[0], E) for nums in f.numerators]
    out = operator_on_coords(space, "wN", coords)
    # phi | w_N = +- N^(k/2-1) phi; at weight 2 the factor is +-1
    ratio = None
    for got, want in zip(out, coords):
        if want != 0:
            ratio = got / want
            break
    assert ratio in (Fraction(1), Fraction(-1))
    for got, want in zip(out, coords):
        assert got == ratio * want


# the spaces on which H = D w_N was found to square to N^(k-2) D^2
WN_SQUARE_SPACES = [(11, 2), (11, 4), (23, 2), (22, 4), (37, 2), (23, 6),
                    (13, 4), (33, 2), (45, 2), (25, 2), (11, 8), (389, 2)]


@pytest.mark.parametrize("N,k", WN_SQUARE_SPACES)
def test_wn_squares_to_a_scalar(N, k):
    # w_N^2 = N^(k-2) on the whole space, so the w_N-eigenvalue of an
    # eigenclass is +-N^(k/2-1): `verify --mode atkin-lehner` reads fe_sign
    # from that alone
    space = ManinSymbolSpace(N, k)
    H = space.hecke_matrix("wN")
    scalar = N ** (k - 2) * space.denominator ** 2
    assert mat_mat(H, H) == [[scalar * (i == j) for j in range(space.dim)]
                             for i in range(space.dim)]


# the prime levels N <= 79 at weight 2 and N <= 37 at weights 4 and 6
GATED_SPACES = [(N, 2) for N in padic.primes_up_to(79)] + \
    [(N, k) for k in (4, 6) for N in padic.primes_up_to(37)]


def um_and_minus_wn(space, sign):
    """U_M and -w_N restricted to the cuspidal part of a sign, as (B, d)."""
    basis = space.cuspidal_subspace(sign)
    um = space._restrict_operator("U%d" % space.M, basis)
    wn, d = space._restrict_operator("wN", basis)
    return um, ([[-x for x in row] for row in wn], d)


def test_um_is_minus_wn_on_the_cuspidal_part_at_gated_prime_levels():
    # S_k(SL_2(Z)) = 0 at these weights, so every cuspidal class of prime
    # level M is new, with a_M = -M^(k/2-1) times its w_N sign
    compared = 0
    for N, k in GATED_SPACES:
        space = ManinSymbolSpace(N, k)
        for sign in (1, -1):
            if space.cuspidal_subspace(sign)[0]:
                um, minus_wn = um_and_minus_wn(space, sign)
                assert um == minus_wn, (N, k, sign)
                compared += 1
    assert compared == 76


@pytest.mark.parametrize("N,k", [(11, 12), (11, 22), (13, 12)])
def test_um_is_not_minus_wn_where_level_one_forms_exist(N, k):
    # the oldforms from level one have U_M eigenvalues the roots of
    # x^2 - a_M x + M^(k-1), not -+M^(k/2-1)
    space = ManinSymbolSpace(N, k)
    for sign in (1, -1):
        um, minus_wn = um_and_minus_wn(space, sign)
        assert um != minus_wn


@pytest.mark.parametrize("N,k,gated", [(23, 6, True), (389, 2, True),
                                       (11, 22, False), (11, 12, False),
                                       (22, 4, False)])
def test_splitting_candidates_use_minus_wn_exactly_at_gated_levels(N, k,
                                                                   gated):
    space = ManinSymbolSpace(N, k)
    level_terms = {term for combo in modsym._splitting_candidates(space)
                   for term in combo if not term[0].startswith("T")}
    assert level_terms == ({("wN", -1)} if gated else
                           {("U%d" % q, 1) for q in padic.prime_divisors(N)})


@pytest.mark.parametrize("N,k", [(11, 2), (37, 2), (23, 6)])
def test_minus_wn_splits_into_the_classes_of_um(N, k, monkeypatch):
    def classes(space):
        return [(f.field.minpoly, f.numerators, f.denominator)
                for sign in (1, -1)
                for f in modsym.cuspidal_eigensymbols(space, sign)]

    gated = ManinSymbolSpace(N, k)
    want = classes(gated)
    assert "wN" in gated._hecke_matrices
    assert "U%d" % N not in gated._hecke_matrices
    candidates = modsym._splitting_candidates

    def with_um(space):
        for combo in candidates(space):
            yield [("U%d" % N, 1) if term == ("wN", -1) else term
                   for term in combo]

    monkeypatch.setattr(modsym, "_splitting_candidates", with_um)
    assert classes(ManinSymbolSpace(N, k)) == want


def test_degeneracy_commutes_with_hecke():
    rng = random.Random(12)
    src = ManinSymbolSpace(11, 2)
    dst = ManinSymbolSpace(33, 2)
    coords = random_coords(src, rng)
    values = all_values(src, coords)
    for r in (1, 3):
        img = modsym.degeneracy_values(src, dst, r, values)
        img_list = [img[A] for A in range(len(dst.plist))]
        # T_2 after degeneracy equals degeneracy after T_2
        lhs = apply_operator_to_values(dst, "T2", img_list,
                                       range(len(dst.plist)))
        tv = apply_operator_to_values(src, "T2", values,
                                      range(len(src.plist)))
        tv_list = [tv[A] for A in range(len(src.plist))]
        rhs = modsym.degeneracy_values(src, dst, r, tv_list)
        for A in range(len(dst.plist)):
            assert lhs[A] == rhs[A]


def test_degeneracy_image_satisfies_relations():
    rng = random.Random(13)
    src = ManinSymbolSpace(11, 2)
    dst = ManinSymbolSpace(55, 2)
    coords = random_coords(src, rng)
    img = modsym.degeneracy_values(src, dst, 5, all_values(src, coords))
    values = [img[A] for A in range(len(dst.plist))]
    got = coords_from_values(dst, values)
    back = all_values(dst, got)
    for A in range(len(dst.plist)):
        assert back[A] == values[A]


OPERATOR_SPACES = [(11, 2), (11, 4), (13, 4), (23, 6), (33, 2)]


def operators(space):
    """T2 and T3 (U2, U3 when they divide the level), U_q for q | level,
    iota and w_N."""
    ops = ["%s%d" % ("U" if space.M % ell == 0 else "T", ell)
           for ell in (2, 3)]
    ops += ["U%d" % q for q in prime_divisors(space.M)]
    return list(dict.fromkeys(ops)) + ["iota", "wN"]


@pytest.mark.parametrize("N,k", OPERATOR_SPACES)
def test_hecke_matrix_matches_per_vector_reference(N, k):
    space = ManinSymbolSpace(N, k)
    for op in operators(space):
        mat = space.hecke_matrix(op)
        for i in range(space.dim):
            unit = [Fraction(int(j == i)) for j in range(space.dim)]
            out = apply_operator_to_values(space, op, all_values(space, unit))
            column = [out[c][j] for c, j in space.positions]
            assert [Fraction(row[i], space.denominator)
                    for row in mat] == column, (op, i)


def reference_deltas(op):
    """Coset representatives of T_ell, (1 r; 0 ell) and (ell 0; 0 1), or of
    U_q, (1 r; 0 q)."""
    n = int(op[1:])
    deltas = [((1, r), (0, n)) for r in range(n)]
    return tuple(deltas + [((n, 0), (0, 1))] if op[0] == "T" else deltas)


def reference_hecke_matrix(space, op):
    """D times the matrix of T_ell or U_q from the path plan of its coset
    representatives, each cusp split into continued-fraction terms, summed
    in Fractions."""
    plan = space._operator_plan(space, reference_deltas(op),
                                tuple(space._position_cosets))
    rows = []
    for A, j in space.positions:
        acc = [Fraction(0)] * space.dim
        for B, m in plan[A]:
            for c, w in enumerate(m[j]):
                d, terms = space.values_basis[B][c]
                for k, n in terms:
                    acc[k] += Fraction(w * n, d)
        rows.append([x * space.denominator for x in acc])
    return rows


# T_ell and U_q, with q | N, q^2 | N and U_N at prime N
HECKE_GRID = {(11, 2): ["T2"], (11, 4): ["T3"], (23, 6): ["T2", "T3", "U23"],
              (13, 4): ["T2"], (33, 2): ["U3"], (33, 4): ["U3", "T2"],
              (11, 8): ["T5"], (22, 2): ["U2"], (22, 4): ["U11"],
              (69, 6): ["U3", "T2"], (45, 2): ["U3"], (45, 4): ["U5"],
              (50, 2): ["U5"], (27, 4): ["U3"], (389, 2): ["T2", "T3"]}


@pytest.mark.parametrize("N,k", sorted(HECKE_GRID))
def test_hecke_matrix_matches_path_plan_reference(N, k):
    space = ManinSymbolSpace(N, k)
    for op in HECKE_GRID[N, k]:
        assert space.hecke_matrix(op) == reference_hecke_matrix(space, op), op


def test_heilbronn_merel_sets():
    sizes = {2: 4, 3: 7, 23: 143, 389: 6317}
    for n, size in sizes.items():
        xn = modsym.heilbronn_merel(n)
        assert len(xn) == len(set(xn)) == size
        for (a, b), (c, d) in xn:
            assert a * d - b * c == n
            assert a > b >= 0 and d > c >= 0
    # every such matrix has a <= n and d <= n
    for n in range(1, 25):
        assert sorted(modsym.heilbronn_merel(n)) == sorted(
            ((a, b), (c, d)) for a in range(1, n + 1) for b in range(a)
            for d in range(1, n + 1) for c in range(d) if a * d - b * c == n)


def test_hecke_matrix_builds_one_action_matrix_per_heilbronn_matrix(
        monkeypatch):
    space = ManinSymbolSpace(23, 6)
    calls = []
    act_matrix = polyact.act_matrix

    def counted(gamma, g):
        calls.append(gamma)
        return act_matrix(gamma, g)

    monkeypatch.setattr(polyact, "act_matrix", counted)
    space.hecke_matrix("U23")
    assert 0 < len(calls) <= len(modsym.heilbronn_merel(23))


def test_iota_is_the_coset_permutation_and_action():
    rng = random.Random(14)
    for N, k in ((11, 4), (13, 4)):
        space = ManinSymbolSpace(N, k)
        values = all_values(space, random_coords(space, rng))
        cosets = range(len(space.plist))
        out = apply_operator_to_values(space, "iota", values, cosets)
        for A in cosets:
            u, v = space.plist[A]
            assert out[A] == act(values[space.plist.index(-u, v)],
                                         polyact.IOTA)


def fraction_vectors(basis):
    """The vectors of a basis (integer rows, denominator) as Fractions."""
    rows, den = basis
    return [[Fraction(x, den) for x in row] for row in rows]


# -- the elimination references of the splitting -----------------------------

def poly_of_matrix(coeffs, mat):
    """f(mat) for an integer polynomial f (lowest degree first) and an
    integer matrix, by Horner's rule."""
    cols = list(zip(*mat))
    n = len(mat)
    out = [[coeffs[-1] if r == c else 0 for c in range(n)] for r in range(n)]
    for ci in reversed(coeffs[:-1]):
        out = [[sum(x * y for x, y in zip(row, col)) for col in cols]
               for row in out]
        for r in range(n):
            out[r][r] += ci
    return out


def reference_restrict_operator(space, op, basis):
    """(B, d) of an operator on the span of a basis (rows, den) by one rref
    of [rows | H rows] as columns, H = D * op: the images lie in the span
    exactly when the pivots are the basis columns, and column len(rows) + j
    of the reduced rows then holds D times the coordinates of image j."""
    rows, _ = basis
    nb = len(rows)
    H = space.hecke_matrix(op)
    images = [linalg.mat_vec(H, v) for v in rows]
    (red, den), pivots = linalg.rref([list(r) for r in zip(*rows, *images)])
    if pivots != list(range(nb)):
        raise InvalidOperator("%s does not preserve the subspace" % op)
    return linalg.lowest([row[nb:] for row in red], den * space.denominator)


def divide_by_root(f, r):
    """(quotient, remainder) of the integer polynomial f (lowest degree
    first) divided by x - r, by synthetic division."""
    acc = 0
    out = []
    for c in reversed(f):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def reference_cuspidal_subspace(space, sign):
    """(basis, m): the kernel of f(B) for T_ell = B / d on the sign
    eigenspace, f its charpoly with the m factors x - d(1 + ell^(k-1))
    removed, in `linalg.kernel_basis` form."""
    basis = space.sign_subspace(sign)
    rows, den = basis
    ell = next(space.good_primes())
    B, d = reference_restrict_operator(space, "T%d" % ell, basis)
    f = linalg.charpoly_rational(B)
    eis = d * (1 + ell ** (space.k - 1))
    m = 0
    while len(f) > 1:
        quo, rem = divide_by_root(f, eis)
        if rem:
            break
        f, m = quo, m + 1
    ker, kden = linalg.kernel_basis(poly_of_matrix(f, B), len(rows))
    return linalg.lowest([modsym._combine(y, rows) for y in ker],
                         kden * den), m


# (N, k) -> the multiplicity m of the boundary eigenvalue of T_ell on the
# plus and the minus eigenspace; 45/2 does not split (SplittingFailure)
SPLIT_CASES = {(11, 2): (1, 0), (17, 2): (1, 0), (21, 2): (3, 0),
               (14, 4): (4, 0), (22, 4): (4, 0), (11, 4): (2, 0),
               (23, 6): (2, 0), (11, 8): (2, 0), (37, 2): (1, 0),
               (45, 2): (5, 0)}


@pytest.mark.parametrize("N,k", sorted(SPLIT_CASES))
def test_splitting_matches_the_elimination_references(N, k):
    space = ManinSymbolSpace(N, k)
    ell = "T%d" % next(space.good_primes())
    tried = sorted({op for combo in modsym._splitting_candidates(space)
                    for op, _ in combo})
    for sign, m in zip((1, -1), SPLIT_CASES[N, k]):
        basis = space.sign_subspace(sign)
        assert space._restrict_operator(ell, basis) == \
            reference_restrict_operator(space, ell, basis)
        cusp, got_m = reference_cuspidal_subspace(space, sign)
        assert got_m == m
        assert space.cuspidal_subspace(sign) == cusp
        for op in tried:
            assert space._restrict_operator(op, cusp) == \
                reference_restrict_operator(space, op, cusp), (sign, op)


# (N, k) with q^2 | N -> m on the plus and the minus eigenspace: the
# boundary eigenvalue reaches multiplicity 11 (72/2), and the minus side
# keeps it once at 49/2 and 64/2
SQUARE_FACTOR_CASES = {
    (16, 2): (4, 0), (18, 2): (5, 0), (25, 2): (2, 0), (27, 2): (3, 0),
    (32, 2): (5, 0), (36, 2): (8, 0), (45, 2): (5, 0), (49, 2): (2, 1),
    (50, 2): (5, 0), (54, 2): (7, 0), (63, 2): (5, 0), (64, 2): (6, 1),
    (72, 2): (11, 0), (75, 2): (5, 0), (16, 4): (5, 0), (18, 4): (6, 0),
    (25, 4): (3, 0), (27, 4): (4, 0), (32, 4): (6, 0), (36, 4): (9, 0),
    (16, 6): (5, 0), (18, 6): (6, 0), (25, 6): (3, 0), (27, 6): (4, 0)}


@pytest.mark.parametrize("N,k", sorted(SQUARE_FACTOR_CASES))
def test_cuspidal_cut_matches_the_reference_at_square_factor_levels(N, k):
    """The image of B - eis is the kernel of f(B) whatever the
    multiplicity m of eis."""
    space = ManinSymbolSpace(N, k)
    for sign, m in zip((1, -1), SQUARE_FACTOR_CASES[N, k]):
        cusp, got_m = reference_cuspidal_subspace(space, sign)
        assert got_m == m
        assert space.cuspidal_subspace(sign) == cusp


def test_restrict_operator_needs_unit_columns():
    space = ManinSymbolSpace(11, 4)
    rows, den = space.sign_subspace(1)
    # the same span with every row plus the sum of all: no row is alone
    # in any column
    total = [sum(col) for col in zip(*rows)]
    mixed = [[a + b for a, b in zip(row, total)] for row in rows]
    assert len(mixed) > 2
    assert all(sum(1 for x in col if x) != 1 for col in zip(*mixed))
    assert linalg.rank(mixed) == len(rows)
    with pytest.raises(ValueError):
        space._restrict_operator("T2", (mixed, den))


def test_restrict_operator_is_right_or_refuses():
    # random bases of the plus space, half of them moved off it by a minus
    # vector (and half of those echelonized): the restriction equals the
    # elimination's, raises InvalidOperator with it, or raises ValueError
    # for want of unit columns; it never returns a wrong matrix
    rng = random.Random(19)
    space = ManinSymbolSpace(11, 4)
    plus, _ = space.sign_subspace(1)
    minus, _ = space.sign_subspace(-1)
    outcomes = set()
    for trial in range(60):
        rows = [[c * x for x in row]
                for c, row in zip(rng.choices((1, -2, 3), k=len(plus)), plus)]
        for _ in range(rng.randrange(3)):
            i, j = rng.sample(range(len(rows)), 2)
            rows[i] = [a + rng.randrange(1, 4) * b
                       for a, b in zip(rows[i], rows[j])]
        if trial % 2:
            i = rng.randrange(len(rows))
            rows[i] = [a + b for a, b in zip(rows[i], minus[0])]
        basis = linalg.lowest(rows, rng.randrange(1, 5))
        if trial % 4 == 3:  # an echelon basis has unit columns at its pivots
            basis = linalg.rref(rows)[0]
        for op in ("iota", "T2"):
            try:
                want = reference_restrict_operator(space, op, basis)
            except InvalidOperator:
                want = InvalidOperator
            try:
                got = space._restrict_operator(op, basis)
            except (InvalidOperator, ValueError) as exc:
                got = type(exc)
            assert got == want or got is ValueError
            outcomes.add(got if got in (InvalidOperator, ValueError)
                         else "matrix")
    assert outcomes == {"matrix", InvalidOperator, ValueError}


def test_restrict_operator_on_invariant_subspace():
    space = ManinSymbolSpace(11, 4)
    plus = space.sign_subspace(1)
    basis = fraction_vectors(plus)
    sub, d = space._restrict_operator("T2", plus)
    for j, v in enumerate(basis):
        image = operator_on_coords(space, "T2", v)
        assert image == [sum(Fraction(sub[i][j], d) * basis[i][r]
                             for i in range(len(basis)))
                         for r in range(space.dim)]


def test_restrict_operator_rejects_planted_subspace():
    space = ManinSymbolSpace(11, 4)
    # the plus space with a minus-space vector added to its last vector:
    # iota sends that vector to one outside the span; the span's reduced
    # echelon basis has unit columns at its pivots
    plus = fraction_vectors(space.sign_subspace(1))
    minus = fraction_vectors(space.sign_subspace(-1))
    basis = plus[:-1] + [[a + b for a, b in zip(plus[-1], minus[0])]]
    images = [operator_on_coords(space, "iota", v) for v in basis]
    assert linalg.rank(basis + images, QQ) > len(basis)
    basis, _ = linalg.rref(basis, QQ)
    den = lcm(*(x.denominator for v in basis for x in v))
    basis = linalg.lowest([[int(x * den) for x in v] for v in basis], den)
    with pytest.raises(InvalidOperator):
        space._restrict_operator("iota", basis)


def fold_coset_value(space, coords, A):
    """Reference coset value: each coordinate times its own Fraction
    coefficient n / d, summed left to right."""
    out = []
    for d, terms in space.values_basis[A]:
        acc = None
        for j, n in terms:
            term = times(coords[j], n, d)
            acc = term if acc is None else acc + term
        out.append(coords[0] * 0 if acc is None else acc)
    return out


# D = 2800 at 23/6 and 202020 = 2^2 3 5 7 13 37 at 11/8
@pytest.mark.parametrize("N,k,p,p_divides", [(23, 6, 3, False),
                                             (11, 8, 3, True)])
def test_integer_coset_values_match_fraction_fold(N, k, p, p_divides):
    space = ManinSymbolSpace(N, k)
    assert (space.denominator % p == 0) == p_divides
    checked = 0
    for sign in (1, -1):
        for f in modsym.cuspidal_eigensymbols(space, sign):
            E = f.denominator // space.denominator
            exact = field_coords(f)
            for emb in padic.primes_above(f.field, p, 8):
                embedded = [emb.local_ints(nums, E) for nums in f.numerators]
                # the coordinates scaled by the normalizing witness
                A, j = modsym.normalize(f, emb).content_certificate
                scale = field_inverse(f, coset_value(space, exact, A)[j])
                normalized = [emb.local_ints(*poly_ints(
                    field_product(f, c, scale))) for c in exact]
                for coords in (embedded, normalized):
                    for A in range(len(space.plist)):
                        got = coset_value(space, coords, A)
                        want = fold_coset_value(space, coords, A)
                        for (d, _), x, y in zip(space.values_basis[A],
                                                got, want):
                            checked += 1
                            if not p_divides:
                                assert (x.vec, x.shift, x.prec) == \
                                    (y.vec, y.shift, y.prec)
                                continue
                            # one division by d after the sum: the digits
                            # past the precision may differ, and when p | d
                            # the precision may fall short of the fold's
                            assert x.prec <= y.prec
                            assert d % p == 0 or x.prec == y.prec
                            assert (x - y).is_zero_to_precision()
                            zero = x.is_zero_to_precision()
                            assert zero == y.is_zero_to_precision()
                            if not zero:
                                assert x.valuation() == y.valuation()
    assert checked > 1000


# -- exact values embedded once ------------------------------------------------

@lru_cache(maxsize=None)
def eigenclasses(N, k):
    """The cuspidal eigenclasses of both signs at (N, k), built once."""
    space = ManinSymbolSpace(N, k)
    return [f for sign in (1, -1)
            for f in modsym.cuspidal_eigensymbols(space, sign)]


def field_values(f):
    """The coset values of an eigenclass as sympy polynomials over Q."""
    coords = field_coords(f)
    return [coset_value(f.space, coords, A)
            for A in range(len(f.space.plist))]


def reference_witness(f, emb):
    """(coset, monomial) of the first value of least valuation among the
    coset values of the embedded coordinates, summed in LocalElement
    arithmetic."""
    space = f.space
    E = f.denominator // space.denominator
    local_coords = [emb.local_ints(nums, E) for nums in f.numerators]
    best = None
    for A in range(len(space.plist)):
        for j, x in enumerate(coset_value(space, local_coords, A)):
            if x.is_zero_to_precision():
                continue
            val = x.valuation()
            if best is None or val < best[0]:
                best = (val, A, j)
    if best is None:
        raise PrecisionExhausted("every value vanishes")
    return best[1:]


def test_exact_values_are_the_field_values():
    for N, k in ((11, 2), (23, 6), (11, 8)):
        for f in eigenclasses(N, k):
            for A, vec in enumerate(field_values(f)):
                assert [field_poly((x, f.denominator))
                        for x in f.exact_value(A)] == vec


@pytest.mark.parametrize("N,k,p,M", [(11, 2, 5, 8), (23, 6, 3, 8),
                                     (23, 6, 3, 4), (11, 8, 3, 8),
                                     (11, 8, 3, 3), (13, 4, 3, 8),
                                     (37, 2, 3, 8), (29, 4, 5, 6)])
def test_witness_matches_reference_scan(N, k, p, M, monkeypatch):
    # the scan embeds the nonzero coordinates, then the values: when p does
    # not divide D, up to the witness, or every value when none reaches
    # the coordinates' floor; when p | D (11/8/3, 13/4/3), every value whose
    # bound floor - v_p(d) lies below the witness's valuation, and never
    # all of them
    embedded = []
    local_ints = padic.PAdicEmbedding.local_ints

    def counted(emb, nums, den):
        embedded.append(den)
        return local_ints(emb, nums, den)

    stopped_late = False
    for f in eigenclasses(N, k):
        space = f.space
        size = space.g + 1
        full = len(space.plist) * size
        coprime = space.denominator % p != 0
        for emb in padic.primes_above(f.field, p, M):
            try:
                want = reference_witness(f, emb)
            except PrecisionExhausted:
                with pytest.raises(PrecisionExhausted):
                    modsym.normalize(f, emb)
                continue
            embedded.clear()
            with monkeypatch.context() as m:
                m.setattr(padic.PAdicEmbedding, "local_ints", counted)
                A, j = modsym.normalize(f, emb).content_certificate
            assert (A, j) == want
            scanned = len(embedded) - sum(map(any, f.numerators))
            if coprime and scanned == A * size + j + 1 < full:
                stopped_late = stopped_late or A > 0
            elif coprime:
                assert scanned == full
            else:
                assert bounded_below(f, emb, A, j) <= scanned < full
    if (N, k, p, M) == (23, 6, 3, 8):
        # a witness past the first coset: the 22nd of the 120 values
        assert stopped_late


def bounded_below(f, emb, A, j):
    """The number of values whose bound floor - v_p(d) lies below the
    valuation of the value (A, j): floor the least valuation of the
    embedded coordinates, d the denominator of the value's row of
    `values_basis`."""
    E = f.denominator // f.space.denominator
    coords = [emb.local_ints(nums, E) for nums in f.numerators if any(nums)]
    floor = min(x.prec if x.is_zero_to_precision() else x.valuation()
                for x in coords)
    val = emb.local_ints(f.exact_value(A)[j], f.denominator).valuation()
    return sum(floor - padic._vp(d, emb.p) < val
               for block in f.space.values_basis for d, _ in block)


PATH_CASES = [(11, 2, 5), (23, 6, 3), (11, 8, 3)]


@pytest.mark.parametrize("N,k,p", PATH_CASES)
def test_mazur_tate_values_match_path_value(N, k, p):
    # the integer element against path_value on the field values, and its
    # embedding against path_value on the embedded values
    for f in eigenclasses(N, k):
        space = f.space
        exact = field_values(f)
        norm = modsym.normalize(f, padic.primes_above(f.field, p, 8)[0])
        local_values = embedded_values(norm)
        for n in (1, 2, 3):
            pn = p ** n
            units = [a for a in range(1, pn) if a % p]
            ints = mazurtate.mazur_tate_values(space, f.exact_value, p, n)
            local = embedded_element(norm, n)
            for element in (ints, local):
                assert list(element.coeffs) == units
            for a in units:
                want = path_value(space, exact.__getitem__, a, pn)
                assert field_poly((ints.coeffs[a], f.denominator)) == want
                ref = path_value(space, local_values.__getitem__, a, pn)
                assert (local.coeffs[a] - ref).is_zero_to_precision()


# the fused walk past the levels of PATH_CASES: (N, k, p, n)
DEEP_CASES = [(11, 2, 5, 5), (11, 2, 5, 6), (23, 6, 3, 5)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_deep_exact_coefficients_match_path_value(data):
    N, k, p, n = data.draw(st.sampled_from(DEEP_CASES))
    f = data.draw(st.sampled_from(eigenclasses(N, k)))
    # the u-th unit mod p^n in increasing order
    u = data.draw(st.integers(0, (p - 1) * p ** (n - 1) - 1))
    a = u // (p - 1) * p + u % (p - 1) + 1
    coeff = mazurtate.exact_element(f, p, n).coeffs[a]
    want = path_value(f.space, field_values(f).__getitem__, a, p ** n)
    assert field_poly((coeff, f.denominator)) == want


def same_local(x, y):
    return (x.vec, x.shift, x.prec) == (y.vec, y.shift, y.prec)


@pytest.mark.parametrize("N,k,p", PATH_CASES)
def test_values_and_theta_embed_the_exact_elements(N, k, p):
    for f in eigenclasses(N, k):
        space = f.space
        exact = field_values(f)
        for emb in padic.primes_above(f.field, p, 8):
            norm = modsym.normalize(f, emb)
            A, j = norm.content_certificate
            scale = field_inverse(f, exact[A][j])

            def embed_scaled(y):
                return emb.local_ints(*poly_ints(field_product(f, scale, y)))

            for xs, ys in zip(embedded_values(norm), exact):
                for x, y in zip(xs, ys):
                    assert same_local(x, embed_scaled(y))
            for n in (1, 2):
                theta = embedded_element(norm, n)
                for a, c in theta.coeffs.items():
                    want = path_value(space, exact.__getitem__, a, p ** n)
                    assert same_local(c, embed_scaled(want))


# at M = 8 the parent claimed digits here that the M = 16 values refute
@pytest.mark.parametrize("N,k,p", [(23, 6, 3), (11, 8, 3)])
def test_normalized_values_agree_at_double_precision(N, k, p):
    checked = 0
    for f in eigenclasses(N, k):
        embs = zip(padic.primes_above(f.field, p, 8),
                   padic.primes_above(f.field, p, 16))
        for emb, emb2 in embs:
            norm, norm2 = modsym.normalize(f, emb), modsym.normalize(f, emb2)
            assert norm.content_certificate == norm2.content_certificate
            values2 = embedded_values(norm2)
            for A, xs in enumerate(embedded_values(norm)):
                for x, y in zip(xs, values2[A]):
                    lifted = padic.LocalElement(emb2, x.vec, x.shift,
                                                x.prec)
                    assert x.prec <= y.prec
                    assert (y - lifted).is_zero_to_precision()
                    checked += 1
    assert checked > 300
