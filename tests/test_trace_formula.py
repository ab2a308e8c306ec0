"""Hecke data against the Eichler-Selberg trace formula (`trace_formula`).

For each sign, the cuspidal eigenclasses of a space are the Galois orbits
of the newforms and oldforms of S_k(Gamma_0(N)), so the sum over classes
of Tr_{K/Q}(a_ell) is Tr T_ell on S_k(Gamma_0(N)) for every ell prime to N.
The grid is every space at N = 11-79, k = 2 and N = 11-39, k = 4 and 6
(`grid.GRID`, split once per session by `grid.classes`).  Its signed
spaces that raise SplittingFailure are skipped, and those whose cuspidal
cut keeps Eisenstein classes fail (ROADMAP items 4 and 2).
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import grid
from grid import GRID
from test_modsym import dim_cusp_forms
from trace_formula import hecke_trace

# the signed spaces whose cuspidal cut keeps Eisenstein series E(chi,
# chibar) with cond(chi)^2 | N: the class degrees sum to more than
# dim S_k(Gamma_0(N))
EISENSTEIN = {
    (16, 2, -1), (18, 2, -1), (25, 2, 1), (25, 2, -1), (36, 2, -1),
    (49, 2, 1), (49, 2, -1), (50, 2, 1), (50, 2, -1), (63, 2, -1),
    (75, 2, 1), (75, 2, -1), (18, 4, -1), (25, 4, 1), (25, 4, -1),
    (36, 4, -1), (18, 6, -1), (25, 6, 1), (25, 6, -1), (36, 6, -1),
}

ELLS = (2, 3, 5, 7, 11, 13)


def power_sums(minpoly, n):
    """Tr(y^i) for i < n in Q[y]/(minpoly), by Newton's identities."""
    d = len(minpoly) - 1
    out = [d]
    for i in range(1, n):
        s = -i * minpoly[d - i] if i <= d else 0
        s -= sum(minpoly[d - j] * out[i - j] for j in range(1, min(i, d + 1)))
        out.append(s)
    return out


def field_trace(minpoly, coeffs):
    """Tr_{K/Q} of sum coeffs[i] y^i, K = Q[y]/(minpoly)."""
    return sum(Fraction(c) * s for c, s in
               zip(coeffs, power_sums(minpoly, len(coeffs))))


def test_trace_of_t1_is_the_dimension():
    assert [hecke_trace(1, k, N) for N, k in GRID] == \
        [dim_cusp_forms(N, k) for N, k in GRID]


def test_known_traces():
    # tau(2), tau(3), tau(4) and tau(5); a_2, a_3 and a_9 of 11a; the sum
    # 2 * 540 of the two a_2 of S_24(SL_2(Z))
    assert [hecke_trace(n, 12, 1) for n in (2, 3, 4, 5)] == \
        [-24, 252, -1472, 4830]
    assert [hecke_trace(n, 2, 11) for n in (2, 3, 9)] == [-2, -1, -2]
    assert hecke_trace(2, 24, 1) == 1080


GOLDEN = sorted(Path(__file__).parent.joinpath("golden")
                .glob("eigenforms*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_golden_eigenforms_match_the_trace_formula(path):
    report = json.loads(path.read_text())
    N, k = report["config"]["level"], report["config"]["weight"]
    for sign in report["config"]["signs"]:
        classes = [c for c in report["classes"] if c["sign"] == sign]
        assert classes
        ells = {int(ell) for c in classes for ell in c["eigenvalues"]}
        for ell in sorted(ell for ell in ells if N % ell):
            assert sum(field_trace([int(c) for c in cls["minpoly"]],
                                   cls["eigenvalues"][str(ell)])
                       for cls in classes) == hecke_trace(ell, k, N), \
                (sign, ell)


SIGNED = [pytest.param(N, k, sign, marks=pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="Eisenstein classes (ROADMAP item 2)"))
    if (N, k, sign) in EISENSTEIN else (N, k, sign)
    for N, k in GRID for sign in (1, -1)]


@pytest.mark.parametrize("N,k,sign", SIGNED)
def test_grid_classes_match_the_trace_formula(N, k, sign):
    classes = grid.classes(N, k, sign)
    if classes is None:
        pytest.skip("SplittingFailure (ROADMAP item 4)")
    for ell in ELLS:
        if N % ell:
            traces = [field_trace(cls.field.minpoly, nums) / den
                      for cls in classes for nums, den in [cls.a(ell)]]
            assert sum(traces) == hecke_trace(ell, k, N), ell
