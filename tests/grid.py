"""The grid of symbol spaces that the trace-formula and Montes tests survey.

GRID is every space at N = 11-79, k = 2 and N = 11-39, k = 4 and 6.  Each
signed space of it is split once per test session (`classes`), and every
module that reads its eigenclasses shares that split.
"""

from functools import cache

from mtlab import modsym
from mtlab.errors import SplittingFailure

GRID = [(N, 2) for N in range(11, 80)] + \
    [(N, k) for k in (4, 6) for N in range(11, 40)]


@cache
def space(N, k):
    """The space S_k(Gamma_0(N)) of both signs' classes, built once."""
    return modsym.ManinSymbolSpace(N, k)


@cache
def classes(N, k, sign):
    """The cuspidal eigenclasses of the given sign at (N, k), in report
    order, or None when that signed space raises SplittingFailure."""
    try:
        return tuple(modsym.cuspidal_eigensymbols(space(N, k), sign))
    except SplittingFailure:
        return None
