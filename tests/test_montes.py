"""Tests for the block factoring of Montes' algorithm to order 2.

`golden/padic-blocks.json` freezes every prime above p of each field that
had a block the earlier tame local models factored, as those models
returned it: the Hecke fields of GRID below at p = 3, 5 and 7 and M = 8,
the 11/8 and 11/14 fields at M = 2, 4, 8 and 16, and the 11/20 and 11/22
fields at M = 8 and 16, at p = 3.  A prime list that raised is frozen as
the exception's name.  The file was recorded before that design was
deleted and is not recorded again: it is the oracle for `montes`.

Planted products of Q_p-irreducible factors take each route of the tree
of types.  Their factorization is unique, so the expected factors are the
planted ones mod p^M.
"""

import json
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mtlab import modsym, montes, padic, polyq
from mtlab.errors import (NegativeValuation, PrecisionExhausted,
                          PrecisionTooLow, SplittingFailure)

from test_padic import (SNAPSHOT_CASES, generator_residues, prime_records,
                        prime_shapes, snapshot_key, without_generators)

FROZEN = json.loads((Path(__file__).parent / "golden"
                     / "padic-blocks.json").read_text())

# the primes whose frozen residue generator reduces to t^p, a Frobenius
# conjugate of t, by key and index; every other reduces to t
CONJUGATE_GENERATORS = {"grid-44/p7/M8": [0], "grid-79/p5/M8": [0],
                        "grid-141/p7/M8": [0], "grid-150/p5/M8": [0, 2]}


def assert_generators_reduce_to_t(key, embs):
    """Each residue generator frozen under key reduces to t in its prime of
    embs, or to t^p where CONJUGATE_GENERATORS names it."""
    p, M = snapshot_key(key)[1:]
    residues = generator_residues(FROZEN["primes"][key], embs, M)
    for j, r in residues.items():
        t = r.parent.element([0, 1])
        assert r == (t ** p if j in CONJUGATE_GENERATORS.get(key, ()) else t)


@pytest.mark.parametrize("key", sorted(FROZEN["primes"]))
def test_primes_match_the_frozen_tame_factorizations(key):
    name, p, M = snapshot_key(key)
    K = padic.NumberField(FROZEN["fields"][name])
    want = FROZEN["primes"][key]
    embs = padic.primes_above(K, p, M)
    if isinstance(want, str):
        # the tame models raised here, at M = 2 or 4: the primes are those
        # frozen at M = 16, mod p^M, whose digit order can differ
        assert M < 8
        top = FROZEN["primes"]["%s/p%d/M16" % (name, p)]
        assert prime_shapes(embs, M) == sorted(
            (tuple(c % p ** M for c in rec["local_factor"]), rec["e"],
             rec["residue_degree"], tuple(rec["residue_modpoly"]))
            for rec in top)
        return
    assert prime_records(embs) == without_generators(want)
    assert_generators_reduce_to_t(key, embs)


@pytest.mark.parametrize("key", [key for key, records in FROZEN["primes"]
                                 .items() if key.endswith("/M8") and
                                 any(r["residue_gen"] for r in records)])
def test_residue_generators_do_not_move_with_the_precision(key):
    """A frozen residue generator reduces to the same residue at M and at
    M + 8: the primes of a higher precision read it alike."""
    name, p, M = snapshot_key(key)
    K = padic.NumberField(FROZEN["fields"][name])
    for m in (M, M + 8):
        assert_generators_reduce_to_t(key, padic.primes_above(K, p, m))


# -- the route each block takes ------------------------------------------------

def route_counter(monkeypatch):
    """A list that gains the route of each block `montes` factors from
    now on: "split" when order 1 finds only unramified primes of degree
    deg phibar, "order 1" for any other block resolved at order 1 with the
    first phi, "refined" when phi is re-centred, and "order 2"."""
    routes = []
    factor_block, analyse = montes.factor_block, montes._analyse

    def counted_block(lift, phibar, m, p, M):
        calls = set()
        monkeypatch.setattr(montes, "_analyse", lambda H, level, phi, V,
                            floor, leaves: calls.add((level.order, floor))
                            or analyse(H, level, phi, V, floor, leaves))
        out = factor_block(lift, phibar, m, p, M)
        monkeypatch.setattr(montes, "_analyse", analyse)
        d = len(phibar) - 1
        routes.append(
            "order 2" if max(calls)[0] == 2 else
            "refined" if any(floor for _, floor in calls) else
            "split" if all((e, f) == (1, d) for _, e, f, _, _ in out) else
            "order 1")
        return out

    monkeypatch.setattr(montes, "factor_block", counted_block)
    return routes


# every space of the Eisenstein-defect grid, and the golden spaces whose
# Hecke fields are not among the snapshot cases
GRID = [(N, 2) for N in range(11, 80)] + \
    [(N, k) for k in (4, 6) for N in range(11, 40)]


@cache
def hecke_fields(spaces):
    """The distinct minimal polynomials of degree > 1 of the eigenclasses
    of both signs of the spaces; a sign that does not split is skipped."""
    fields = {}
    for N, k in spaces:
        space = modsym.ManinSymbolSpace(N, k)
        for sign in (1, -1):
            try:
                classes = modsym.cuspidal_eigensymbols(space, sign)
            except SplittingFailure:
                continue
            fields.update((cls.field.minpoly, None) for cls in classes
                          if cls.field.degree > 1)
    return tuple(fields)


def census_fields(which):
    if which == "grid":
        return [(minpoly, p) for minpoly in hecke_fields(tuple(GRID))
                for p in (3, 5, 7)]
    return [(minpoly, p) for _, minpoly, p in SNAPSHOT_CASES] + [
        (minpoly, 3) for name, minpoly in FROZEN["fields"].items()
        if name.startswith("11-")]


@pytest.mark.parametrize("which,counts", [
    ("grid", {"split": 15, "order 1": 84, "refined": 12, "order 2": 2}),
    ("tests", {"split": 3, "order 1": 5, "refined": 6, "order 2": 3}),
])
def test_route_census(which, counts, monkeypatch):
    """The blocks of the grid's Hecke fields at p = 3, 5 and 7, and of the
    snapshot, 11/8, 11/14, 11/20 and 11/22 fields at their p, at M = 8:
    how many each route resolves.  "order 1" holds the blocks whose polygon
    is one side, 66 of the grid's and the biquadratic field's at p = 3.
    None needs order 3, which raises."""
    routes = route_counter(monkeypatch)
    for minpoly, p in census_fields(which):
        padic.primes_above(padic.NumberField(minpoly), p, 8)
    assert Counter(routes) == counts


# -- blocks whose polygon is one side ------------------------------------------
#
# `golden/one-segment-primes.json` freezes every prime that the earlier
# one-segment branch of `primes_above` returned, before `factor_block` took
# those blocks too: the 66 of the grid's Hecke fields at p = 3, 5 and 7 and
# M = 8 (named by their place in `hecke_fields(GRID)`), and the one of the
# biquadratic snapshot field and of the quadratic fields of 11/4 and 11/8 at
# p = 3 and M = 2, 4, 8 and 16.  Each record holds the prime's local data and
# the readings of a fixed list of elements: y^i for i below the degree,
# p y, 1 + y, phi(y), phi(y) v1, phi(y)^2 v2 and seeded integer vectors v1,
# v2 and v3, phi the residue modpoly.  The file is not recorded again.

ONE_SEGMENT = json.loads((Path(__file__).parent / "golden"
                          / "one-segment-primes.json").read_text())


def reading(emb, vec):
    """[v(x), residue of x, residue of x^e / p^(e v(x))] for x = vec at
    emb: the valuation as a string, or None with no unit residue when it is
    not certified; a residue that raises is its exception's name."""
    x = emb.local_ints(vec, 1)
    v = x.certified_valuation()

    def residue(y, t):
        try:
            return list(y.reduce(t).coeffs)
        except (PrecisionExhausted, NegativeValuation) as exc:
            return type(exc).__name__

    if v is None:
        return [None, residue(x, 0), None]
    power = emb.local(1)
    for _ in range(emb.e):
        power = power * x
    return [str(v), residue(x, 0), residue(power, int(emb.e * v))]


@pytest.mark.parametrize("key", sorted(ONE_SEGMENT["primes"]))
def test_one_sided_blocks_keep_their_frozen_primes(key):
    name, p, M = snapshot_key(key)
    embs = padic.primes_above(
        padic.NumberField(ONE_SEGMENT["fields"][name]), p, M)
    for rec in ONE_SEGMENT["primes"][key]:
        emb = embs[rec["index"]]
        assert prime_records([emb]) == [{k: rec[k] for k in (
            "local_factor", "e", "residue_degree", "residue_modpoly",
            "index")}]
        assert [reading(emb, x) for x in rec["elements"]] == rec["readings"]


def test_the_frozen_one_sided_blocks_are_those_of_the_grid():
    assert sum(len(recs) for key, recs in ONE_SEGMENT["primes"].items()
               if key.startswith("grid-")) == 66
    fields = hecke_fields(tuple(GRID))
    for key in ONE_SEGMENT["primes"]:
        name = snapshot_key(key)[0]
        if name.startswith("grid-"):
            assert list(fields[int(name[5:])]) == ONE_SEGMENT["fields"][name]


# -- planted products ----------------------------------------------------------

def planted_primes(factors, p, M):
    """Sorted [(local factor, e, f)] of the primes above p of the product
    of the factors at precision M."""
    H = [1]
    for g in factors:
        H = polyq.mul(H, g)
    return sorted((list(emb.local_factor), emb.e, emb.residue_degree)
                  for emb in padic.primes_above(padic.NumberField(H), p, M))


PHI2 = polyq.mul([-3, 0, 1], [-3, 0, 1])    # (x^2 - 3)^2

PLANTED = [
    # a side of slope 1/2 with residual roots 1 and 2, (y - a)(y - b) for
    # (x^2 - p a)(x^2 - p b)
    ("ramified", "order 1", 3, [([-3, 0, 1], (2, 1)), ([-6, 0, 1], (2, 1))]),
    ("ramified", "order 1", 5,
     [([-10, 0, 1], (2, 1)), ([-15, 0, 1], (2, 1))]),
    # a side of slope 1 with residual polynomial (y^2 - n)(y - a)
    ("quadratic-residual", "order 1", 3,
     [([-18, 0, 1], (1, 2)), ([-3, 1], (1, 1))]),
    ("quadratic-residual", "order 1", 5,
     [([50, 0, 1], (1, 2)), ([-5, 1], (1, 1))]),
    # residual polynomial (y - 1)^2 mod 3: phi = x is re-centred to x - 3,
    # itself a factor
    ("refinement", "refined", 3, [([-3, 1], (1, 1)), ([-12, 1], (1, 1))]),
    # Eisenstein quadratics with residual root 1 at order 1, and the order-2
    # residual roots -b of x^2 - 3 - 9b for b = 1, 2
    ("order-two", "order 2", 3,
     [([-12, 0, 1], (2, 1)), ([-21, 0, 1], (2, 1))]),
    # x^2 - 18 and x^2 - 180 have residual factor y^2 - 2, irreducible mod
    # 3, at order 1: the order-2 residue field is F_9
    ("order-two-repeated-quadratic", "order 2", 3,
     [([-18, 0, 1], (1, 2)), ([-180, 0, 1], (1, 2))]),
    # (x^2 - 3)^2 - 54 has order-2 residual polynomial y^2 + 1 mod 3
    ("order-two-quadratic-residual", "order 2", 3,
     [([PHI2[0] - 54] + PHI2[1:], (2, 2)), ([-12, 0, 1], (2, 1))]),
    # wild sides: e divisible by p
    ("wild-and-linear", "order 1", 3,
     [([-3, 0, 0, 1], (3, 1)), ([-9, 1], (1, 1))]),
    ("wild-pair", "order 1", 3,
     [([-3, 0, 0, 1], (3, 1)), ([-6, 0, 0, 1], (3, 1))]),
    ("wild-and-linear", "order 1", 5,
     [([-5, 0, 0, 0, 0, 1], (5, 1)), ([-25, 1], (1, 1))]),
]


@pytest.mark.parametrize("M", [8, 16])
@pytest.mark.parametrize("name,route,p,factors", PLANTED,
                         ids=["%s-%d" % (c[0], c[2]) for c in PLANTED])
def test_planted_products_factor_by_their_route(name, route, p, factors, M,
                                                monkeypatch):
    routes = route_counter(monkeypatch)
    polys = [g for g, _ in factors]
    assert planted_primes(polys, p, M) == sorted(
        ([c % p ** M for c in g], *ef) for g, ef in factors)
    assert routes == [route]


def test_a_block_needing_order_three_raises():
    # (x^2 - 3)^2 - 27x and (x^2 - 3)^2 - 108x: one order-2 side of slope
    # 3/2 with a double residual root
    with pytest.raises(PrecisionTooLow, match="order 3"):
        planted_primes([[9, -27, -6, 0, 1], [9, -108, -6, 0, 1]], 3, 8)


def shifted(g, a):
    """g(x - a)."""
    out = []
    for c in reversed(g):
        out = polyq.mul(out, [-a, 1]) or [0]
        out[0] += c
    return out


@st.composite
def planted_factor(draw, p):
    """A Q_p-irreducible monic polynomial and its (e, f): a lift of an
    irreducible of degree 1 or 2 mod p, an Eisenstein polynomial of degree
    2 or 3 in x - a, or (x - a)^2 - p^(2k) n with n not a square mod p."""
    a = draw(st.integers(0, 3 * p - 1))
    kind = draw(st.sampled_from(["unramified", "eisenstein", "inert"]))
    if kind == "unramified":
        phibar = draw(st.sampled_from([[c, 1] for c in range(p)] + [
            list(montes._irreducible_modpoly(p, 2))]))
        return [c + p * draw(st.integers(0, p * p)) for c in phibar[:-1]] \
            + [1], (1, len(phibar) - 1)
    if kind == "eisenstein":
        e = draw(st.sampled_from([2, 3]))
        g = [p * draw(st.integers(1, p * p).filter(lambda u: u % p))] + \
            [p * draw(st.integers(0, p * p)) for _ in range(e - 1)] + [1]
        return shifted(g, a), (e, 1)
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    k = draw(st.sampled_from([1, 2]))
    n += p * draw(st.integers(0, p))
    return shifted([-p ** (2 * k) * n, 0, 1], a), (1, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_of_planted_irreducible_factors(data):
    """Products of two or three distinct planted factors, whose blocks take
    every route above with residual roots that often coincide: the primes
    are the planted factors mod p^M."""
    p = data.draw(st.sampled_from([3, 5]))
    factors = data.draw(st.lists(planted_factor(p), min_size=2, max_size=3,
                                 unique_by=lambda fac: tuple(fac[0])))
    M = data.draw(st.sampled_from([8, 16]))
    assert planted_primes([g for g, _ in factors], p, M) == sorted(
        ([c % p ** M for c in g], *ef) for g, ef in factors)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_order_one_splits_planted_factors_with_one_residue(data):
    """H = (phi + p a)(phi + p b), a and b distinct units mod (p, phi):
    the block phibar^2 has one side of slope 1 whose residual polynomial
    (z + a)(z + b) has two roots in F_q, so order 1 splits it into
    exactly these two unramified factors."""
    p = data.draw(st.sampled_from([3, 5, 7]))
    d = data.draw(st.sampled_from([1, 2]))
    M = data.draw(st.sampled_from([4, 8]))
    phibar = list(montes._irreducible_modpoly(p, d))
    units = [x.coeffs for x in padic.FF(p, phibar).elements()][1:]
    a, b = data.draw(st.lists(st.sampled_from(units), min_size=2,
                              max_size=2, unique=True))
    digits = st.lists(st.integers(0, p ** 3), min_size=d, max_size=d)
    factors = [polyq.add_mod(phibar, [p * (x + p * y) for x, y in
                                      zip(c, data.draw(digits))], p ** 9)
               for c in (a, b)]
    H = polyq.mul(*factors)
    got = montes.factor_block(lambda B: [c % p ** B for c in H], phibar, 2,
                              p, M)
    assert sorted(G for G, *_ in got) == \
        sorted([c % p ** M for c in G] for G in factors)
    assert [(e, f) for _, e, f, _, _ in got] == [(1, d), (1, d)]


@pytest.mark.parametrize("factors,shape", [
    # (x^2 - 3)(x - 6): sides of slopes 1 and 1/2, a ramified prime
    ([[-3, 0, 1], [-6, 1]], [(1, 1), (2, 1)]),
    # (x - 3)(x - 12): residual polynomial (z - 1)^2 mod 3, a double root
    ([[-3, 1], [-12, 1]], [(1, 1), (1, 1)]),
], ids=["ramified", "double-root"])
def test_blocks_beyond_the_unramified_split_factor(factors, shape):
    got = planted_primes(factors, 3, 8)
    assert [G for G, _, _ in got] == sorted([c % 3 ** 8 for c in g]
                                            for g in factors)
    assert sorted((e, f) for _, e, f in got) == shape


# -- reading elements through a prime's type -----------------------------------

ORACLE_FIELDS = [(tuple(minpoly), p) for _, minpoly, p in SNAPSHOT_CASES] + \
    sorted({(tuple(FROZEN["fields"][name]), p) for name, p, _ in
            map(snapshot_key, FROZEN["primes"])})


@cache
def oracle_primes(minpoly, p, M):
    return padic.primes_above(padic.NumberField(minpoly), p, M)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_valuations_satisfy_the_product_formula(data):
    """For x in Z[y]/(minpoly), the sum of e f v(x) over the primes above p
    is v_p of the norm of x, whenever every prime certifies v(x): an
    oracle for the valuations read through the primes' types that shares
    none of their code.  x is a random multiple of a power of y - a, so
    that its valuations are often positive and fractional."""
    minpoly, p = data.draw(st.sampled_from(ORACLE_FIELDS))
    M = data.draw(st.sampled_from([8, 16]))
    K = padic.NumberField(minpoly)
    x = data.draw(st.lists(st.integers(-p ** 4, p ** 4), min_size=1,
                           max_size=K.degree).filter(any))
    for _ in range(data.draw(st.integers(0, 3))):
        x = polyq.mul(x, [-data.draw(st.integers(0, p - 1)), 1])
    x, _ = K.exact(x, 1)
    vals = [emb.local_ints(x, 1).certified_valuation()
            for emb in oracle_primes(minpoly, p, M)]
    if None in vals:
        return
    assert sum(emb.e * emb.residue_degree * v for emb, v in
               zip(oracle_primes(minpoly, p, M), vals)) == \
        padic._vp(padic._norm(x, minpoly), p)


# (x^2 - 10)^2 - 125: at order 1 a double root 2 of the residual polynomial
# of the side of slope 1/2 for x; at order 2 the residual polynomial
# 2y^2 - 1 over F_5 for x^2 - 10.  One prime, e = f = 2.
STACKED = padic.NumberField([-25, 0, -20, 0, 1])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_residues_through_an_order_two_type_are_a_ring_map(data):
    """The residue of c x (x^2 - 10) / 25 + d(x), x (x^2 - 10) of value 2,
    takes terms of both phi-adic digits of the type above the order-2
    leaf, whose normalizations differ by a power of the order-1 residual
    root; reduction must respect sums and products."""
    emb, = padic.primes_above(STACKED, 5, data.draw(st.sampled_from([8, 16])))
    assert (emb.e, emb.residue_degree) == (2, 2)

    def unit():
        c = data.draw(st.integers(1, 4))
        d = data.draw(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
        return emb.local_ints([25 * d[0], 25 * d[1] - 10 * c, 25 * d[2],
                               25 * d[3] + c], 25)

    a, b = unit(), unit()
    assert (a * b).reduce() == a.reduce() * b.reduce()
    assert (a + b).reduce() == a.reduce() + b.reduce()
    assert not a.reduce().is_zero()
