"""The block factorizations of `montes` against those of the retired tame
local models.

`golden/tame-blocks.json` freezes, for each field of TAME_CASES at M = 2,
4, 8 and 16, every repeated block that the one-segment test does not
certify, in the order `primes_above` meets it, with the factors the tame
models returned for it (the tuples `(G, e, f, phibar, residue_gen)` of
`padic.primes_above` then) or the name of the exception they raised, and
the exception `primes_above` raised, if any.  The file was recorded before
that design was deleted and is not recorded again.  `montes` returns a
prime's type in place of its residue generator, so the tuples are compared
without it; `tests/test_montes.py` reads the frozen generators.
"""

import json
from pathlib import Path

import pytest

from mtlab import montes, padic
from mtlab.errors import PrecisionExhausted, PrecisionTooLow

from test_padic import SNAPSHOT_CASES

GOLDEN = Path(__file__).parent / "golden"
TAME = json.loads((GOLDEN / "tame-blocks.json").read_text())
HECKE = json.loads((GOLDEN / "padic-blocks.json").read_text())["fields"]

TAME_CASES = [(name, minpoly, p) for name, minpoly, p in SNAPSHOT_CASES] + [
    (name, HECKE[name], 3)
    for name in ("11-20-deg7", "11-20-deg9", "11-22-deg8", "11-22-deg10")]


def shapes(factors):
    """(G, e, f, residue modpoly) of each block factor."""
    return [[list(G), e, f, list(rbar)] for G, e, f, rbar, *_ in factors]


def montes_blocks(minpoly, p, M, monkeypatch):
    """The factors `montes.factor_block` returns for each block it is
    given while `primes_above` runs at p and M, and the name of the
    exception `primes_above` raised, or None."""
    blocks = []
    factor_block = montes.factor_block

    def recorded(lift, phibar, m, p, M):
        out = factor_block(lift, phibar, m, p, M)
        blocks.append(shapes(out))
        return out

    monkeypatch.setattr(montes, "factor_block", recorded)
    try:
        padic.primes_above(padic.NumberField(minpoly), p, M)
    except (PrecisionExhausted, PrecisionTooLow) as exc:
        return blocks, type(exc).__name__
    return blocks, None


@pytest.mark.parametrize("M", [2, 4, 8, 16])
@pytest.mark.parametrize("name,minpoly,p", TAME_CASES,
                         ids=["%s-p%d" % (c[0], c[2]) for c in TAME_CASES])
def test_order_one_split_matches_tame(name, minpoly, p, M, monkeypatch):
    """Every block is factored as the tame models factored it at the same
    precision.  Where they raised (at M = 2 and 4 only) the factors are
    theirs at M = 16 taken mod p^M, up to order, since the digit order of
    factors of different degree can change with M."""
    frozen = TAME["%s/p%d/M%d" % (name, p, M)]
    top = TAME["%s/p%d/M16" % (name, p)]["blocks"]
    got, raised = montes_blocks(minpoly, p, M, monkeypatch)
    # montes reaches every block; a prime list that raises, below M = 8
    # only, raised with the tame models too
    assert len(got) == len(top)
    assert raised is None or M < 8 and frozen["raised"]
    for j, factors in enumerate(got):
        tame = frozen["blocks"][j]["factors"] \
            if j < len(frozen["blocks"]) else "not reached"
        if isinstance(tame, str):
            assert M < 8
            assert sorted(factors) == sorted(
                [[c % p ** M for c in G], *rest]
                for G, *rest in shapes(top[j]["factors"]))
        else:
            assert factors == shapes(tame)
