"""Tests for the tame block factorization and the order-1 split before it.

`reference_roots_in_model` is the search that tries every residue digit at
every depth and inverts the derivative afresh at every Newton step; the
search in `tame` must find the same roots in the same order, and so the
same factors.  `tame._factor_block_tame` is in turn the reference for
`montes.order_one_split`: wherever the order-1 step splits a block, its
list must be tame's.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from mtlab import modsym, montes, padic, polyq, tame
from mtlab.errors import (PrecisionExhausted, PrecisionTooLow,
                          SplittingFailure)

from test_padic import SNAPSHOT_CASES


def reference_newton_root(H, dH, L, start):
    """Newton's method for H from start, evaluating H and H' and inverting
    the derivative's unit part afresh at every step."""
    x = start
    last = None
    for _ in range(64):
        fx = L.eval_poly(H, x)
        vfx = L.val(fx)
        if vfx is None or (last is not None and vfx <= last):
            return x
        last = vfx
        dfx = L.eval_poly(dH, x)
        j = L.val(dfx)
        if j is None:
            return x
        u = dfx
        for _ in range(j):
            u = L.div_pi(u)
            if u is None:
                return x
        w = L.mul(fx, L.inv_unit(u))
        for _ in range(j):
            w = L.div_pi(w)
            if w is None:
                return x
        x = L.sub(x, w)
    return x


def reference_roots_in_model(H, L, maxdepth, vmin, wanted=None):
    """Every root of H in the model L, found by Taylor-shifting every child
    a + d pi^k of every node and keeping those whose Newton polygon allows
    a root; `wanted` is ignored, so the roots of divided-out factors are
    found too."""
    dH = polyq.derivative(H)
    reps = [L.from_res(a.coeffs) for a in L.residues.elements()]
    pi_pow = L.one()
    certified = []
    start = L.zero()
    candidates = [(start, tame._taylor_shift(L, H, start))]
    for k in range(maxdepth + 1):
        nxt = []
        for a, tay in candidates:
            dropped = False
            for r0, w0 in certified:
                if k <= w0:
                    continue
                vd0 = L.val(L.sub(a, r0))
                if vd0 is None or vd0 > w0:
                    dropped = True
                    break
            if dropped:
                continue
            va = L.val(tay[0])
            vda = L.val(tay[1]) if len(tay) > 1 else None
            if va is None or (vda is not None and va > 2 * vda):
                known = False
                for r0, w0 in certified:
                    vd0 = L.val(L.sub(a, r0))
                    if vd0 is None or vd0 > w0:
                        known = True
                        break
                if not known:
                    r = reference_newton_root(H, dH, L, a)
                    vr = L.val(L.eval_poly(H, r))
                    if vr is None or vr >= vmin:
                        w = vda if vda is not None else L.E * L.B
                        dup = False
                        for r0, w0 in certified:
                            vd0 = L.val(L.sub(r, r0))
                            if vd0 is None or vd0 > max(w, w0):
                                dup = True
                                break
                        if not dup:
                            certified.append((r, w))
            for rep in reps:
                cand = L.add(a, L.mul(rep, pi_pow))
                tc = tame._taylor_shift(L, H, cand)
                if tame._ball_may_contain_root(L, tc, k + 1):
                    nxt.append((cand, tc))
        candidates = nxt
        if not candidates:
            break
        pi_pow = L.mul_pi(pi_pow)
    return [r for r, _ in certified]


# -- every tame block of the snapshot fields and of the 11/20 and 11/22
# Hecke fields at 3: one factorization with each search -----------------------

HECKE_11_20_DEG7 = [
    -405265062229471052100639886111571768604015608666793993674716130135,
    1203103633907801664448613416321776822495660949757188877035,
    -1530700157386882726730068906087167854950412204703,
    1081943818650354214635329546995105351435,
    -458849796702472259568931565021,
    116758263583334714889,
    -16505633837,
    1,
]

HECKE_11_20_DEG9 = [
    2253239746778317292498546470533979136104915089427494893304677828908745657216590940501,
    8600342699575268629968546867930216622119203096982558638823588242153569608887,
    14589539776304075577209885977279136016724586699366802964218102842086,
    14437241516977219344652550091209433559151931071595224020322,
    9184199836410634196479637287601180568901625682712,
    3894997371251472892088904944450447064632,
    1101239432378951914987017692458,
    200157013627562493614,
    21221528707,
    1,
]

HECKE_11_22_DEG8 = [
    204840029545551668693186450214229692933562831708259541223041727355076467283073006625,
    63179758726478660132045629583286684580945217161800848552664222721474635912,
    8525486159596913013545718988289967923600341167137080139832427132,
    657388792347206659906250717708450902022966597503257080,
    31681479523109619007194097080946272768239910,
    977166541524452779725099891320632,
    18837000044031127452860,
    207499397832,
    1,
]

HECKE_11_22_DEG10 = [
    137806123398219182923559027119736252546558532645649843621264033564391869858339752031291163229954442320203,
    -53130226118481656847007867342312630790848261868090296641156469016702139871848283566245671396550,
    9217800965634450083450467578497348267233198229872367394137237248002492721611962941929,
    -947696348159315767731076902810097006294265065488749100228619536239118220116,
    63941144303697256659008453364330153726910017612387259952026818306,
    -2958249492568305189363015449416095938407220055205821120,
    95044436693169175194222330180686413499220822,
    -2093928272266365313624385753859756,
    30273749771965183235187,
    -259374246010,
    1,
]

TAME_CASES = [(name, minpoly, p) for name, minpoly, p in SNAPSHOT_CASES] + [
    ("11-20-deg7", HECKE_11_20_DEG7, 3),
    ("11-20-deg9", HECKE_11_20_DEG9, 3),
    ("11-22-deg8", HECKE_11_22_DEG8, 3),
    ("11-22-deg10", HECKE_11_22_DEG10, 3),
]

# the number of repeated blocks of each field that the one-segment test
# does not certify, and of those the number the order-1 step splits
TAME_BLOCKS = {"11-18-deg6": 1, "11-18-deg8": 1, "17-18-deg10": 3,
               "17-18-deg12": 3, "23-6-deg6": 1, "23-6-deg3": 0,
               "biquadratic": 0, "11-20-deg7": 1, "11-20-deg9": 1,
               "11-22-deg8": 1, "11-22-deg10": 1}
ORDER_ONE = {"17-18-deg10": 1, "17-18-deg12": 1, "23-6-deg6": 1}


def repeated_blocks(minpoly, p, M):
    """[(args, split)] for every block of the field at p and M that the
    one-segment test does not certify: the arguments of
    `tame._factor_block_tame` as `primes_above` lifts the block, and what
    the order-1 step returns on it.  At a low M, where the precision
    ladder skips the rung, the blocks up to the one that fails."""
    blocks = []
    split = montes.order_one_split

    def recorded(H, gbar, mult, p, M, B):
        D = padic._vp(padic._norm(polyq.derivative(H), H) % p ** B, p)
        blocks.append(((H, gbar, mult, p, M, B, D),
                       split(H, gbar, mult, p, M, B)))
        return blocks[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(montes, "order_one_split", recorded)
        try:
            padic.primes_above(padic.NumberField(minpoly), p, M)
        except (PrecisionExhausted, PrecisionTooLow):
            assert M < 8
    return blocks


@pytest.mark.parametrize("M", [8, 16])
@pytest.mark.parametrize("name,minpoly,p", TAME_CASES,
                         ids=["%s-p%d" % (c[0], c[2]) for c in TAME_CASES])
def test_factors_match_the_digit_enumeration(name, minpoly, p, M,
                                              monkeypatch):
    # tame factors every such block, those the order-1 step splits too
    args = [a for a, _ in repeated_blocks(minpoly, p, M)]
    assert len(args) == TAME_BLOCKS[name]
    got = [tame._factor_block_tame(*a) for a in args]
    monkeypatch.setattr(tame, "_roots_in_model", reference_roots_in_model)
    assert [tame._factor_block_tame(*a) for a in args] == got


# -- the order-1 split against tame --------------------------------------------

@pytest.mark.parametrize("M", [2, 4, 8, 16])
@pytest.mark.parametrize("name,minpoly,p", TAME_CASES,
                         ids=["%s-p%d" % (c[0], c[2]) for c in TAME_CASES])
def test_order_one_split_matches_tame(name, minpoly, p, M):
    blocks = repeated_blocks(minpoly, p, M)
    split = [(a, got) for a, got in blocks if got is not None]
    # below M = 8 some fields fail before their last block
    assert len(split) == ORDER_ONE.get(name, 0) or \
        M < 8 and len(split) < ORDER_ONE[name]
    for args, got in split:
        assert got == tame._factor_block_tame(*args)


# every space of the Eisenstein-defect grid, and the golden spaces whose
# Hecke fields are not among TAME_CASES
GRID = [(N, 2) for N in range(11, 80)] + \
    [(N, k) for k in (4, 6) for N in range(11, 40)]
GOLDEN_SPACES = [(11, 8), (11, 14)]


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
    return list(fields)


@pytest.mark.parametrize("spaces,ps,precisions", [
    (GRID, (3, 5, 7), (8,)), (GOLDEN_SPACES, (3,), (2, 4, 8, 16))],
    ids=["grid", "golden"])
def test_order_one_split_matches_tame_on_hecke_fields(spaces, ps,
                                                      precisions):
    outcomes = []
    for minpoly in hecke_fields(spaces):
        for p in ps:
            for M in precisions:
                for args, got in repeated_blocks(minpoly, p, M):
                    outcomes.append(got is not None)
                    if got is not None:
                        assert got == tame._factor_block_tame(*args)
    if spaces is GRID:
        # both routes are taken on the grid
        assert any(outcomes) and not all(outcomes)
    else:
        assert outcomes and not any(outcomes)


def _block_args(H, phibar, m, p, M):
    """The arguments of `tame._factor_block_tame` for the integer block H:
    H mod p^B for B = M + 2D + 12, D the valuation of its discriminant."""
    D = padic._vp(padic._norm(polyq.derivative(H), H), p)
    B = M + 2 * D + 12
    return [c % p ** B for c in H], list(phibar), m, p, M, B, D


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_order_one_splits_planted_factors_with_one_residue(data):
    """H = (phi + p a)(phi + p b), a and b distinct units mod (p, phi):
    the block phibar^2 has one side of slope 1 whose residual polynomial
    (z + a)(z + b) has two roots in F_q, so the step splits it into
    exactly these two unramified factors, as tame does."""
    p = data.draw(st.sampled_from([3, 5, 7]))
    d = data.draw(st.sampled_from([1, 2]))
    M = data.draw(st.sampled_from([4, 8]))
    phibar = tame._irreducible_modpoly(p, d)
    units = [x.coeffs for x in padic.FF(p, phibar).elements()][1:]
    a, b = data.draw(st.lists(st.sampled_from(units), min_size=2,
                              max_size=2, unique=True))
    digits = st.lists(st.integers(0, p ** 3), min_size=d, max_size=d)
    factors = [polyq.add_mod(phibar, [p * (x + p * y) for x, y in
                                      zip(c, data.draw(digits))], p ** 9)
               for c in (a, b)]
    args = _block_args(polyq.mul(*factors), phibar, 2, p, M)
    got = montes.order_one_split(*args[:-1])
    assert got == tame._factor_block_tame(*args)
    assert sorted(G for G, *_ in got) == \
        sorted([c % p ** M for c in G] for G in factors)


@pytest.mark.parametrize("H,m", [
    # (x^2 - 3)(x - 6): sides of slopes 1 and 1/2, a ramified prime
    (polyq.mul([-3, 0, 1], [-6, 1]), 3),
    # (x - 3)(x - 12): residual polynomial (z - 1)^2 mod 3, a double root
    (polyq.mul([-3, 1], [-12, 1]), 2),
], ids=["ramified", "double-root"])
def test_order_one_declines_a_block_it_cannot_split(H, m):
    args = _block_args(H, [0, 1], m, 3, 8)
    assert montes.order_one_split(*args[:-1]) is None
    factors = tame._factor_block_tame(*args)
    assert sorted(e for _, e, *_ in factors) == ([1, 2] if m == 3 else [1, 1])


# -- planted roots -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_search_finds_every_planted_root(data):
    """H is a product of factors whose roots all lie in the model
    pi^E = c p over U_F, c the Teichmuller lift of a: x - r for integers r,
    (x - s)^2 - a p t^2 (roots s +- t pi sqrt(a / c), a / c = 1 mod p) when
    E = 2, and u(x - s) (roots s + the roots of u) when F = 2.  The search
    yields every root once, in the order of the digit enumeration."""
    p = data.draw(st.sampled_from([3, 5]))
    E = data.draw(st.sampled_from([1, 2]))
    F = data.draw(st.sampled_from([1, 2] if p == 3 else [1]))
    a = data.draw(st.integers(1, p - 1))
    small = st.integers(0, p ** 3 - 1)
    factors = [[-r, 1] for r in data.draw(
        st.lists(small, max_size=3, unique=True))]
    if E == 2:
        for s, t in data.draw(st.lists(st.tuples(small, small), max_size=2)):
            t = p * t + 1 + t % (p - 1)     # a unit
            factors.append([s * s - a * p * t * t, -2 * s, 1])
    if F == 2:
        u = tame._irreducible_modpoly(p, 2)
        for s in data.draw(st.lists(small, max_size=1)):
            factors.append([u[0] - u[1] * s + s * s, u[1] - 2 * s, 1])
    assume(factors)
    H = [1]
    for g in factors:
        H = polyq.mul(H, g)
    disc = padic._norm(polyq.derivative(H), H)
    assume(disc)
    D = padic._vp(disc, p)
    L = tame._TameModel(p, 2 * D + 20, E, F, [a])
    maxdepth, vmin = E * (2 * D + 6), E * (D + 2)
    roots = list(tame._roots_in_model(H, L, maxdepth, vmin))
    assert roots == reference_roots_in_model(H, L, maxdepth, vmin)
    assert len(roots) == len(H) - 1
    for g in factors:
        vals = [L.val(L.eval_poly(g, r)) for r in roots]
        assert sum(v is None or v >= vmin for v in vals) == len(g) - 1
