"""The projective line P^1(Z/M) with canonical representatives.

Elements are pairs (u, v) of integers mod M with gcd(u, v, M) = 1, taken up
to scaling by units.  normalize returns the canonical representative of a
class, P1List enumerates all classes with an index lookup, and lift_to_sl2z
produces an integer matrix of determinant 1 whose bottom row reduces to a
given class.
"""

from math import gcd


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


def normalize(M, u, v):
    """Canonical representative of the class of (u, v) in P^1(Z/M).

    Returns (0, 0) when gcd(u, v, M) > 1, i.e. the pair is not a valid
    projective point.
    """
    if M == 1:
        return (0, 0)
    u %= M
    v %= M
    if u == 0:
        return (0, 1) if gcd(v, M) == 1 else (0, 0)
    g = gcd(u, M)
    s = pow(u // g, -1, M // g)
    if gcd(g, v) > 1:
        return (0, 0)
    # s inverts u only mod M/g; shift by multiples of M/g until it is a
    # unit mod M, then scale so the first coordinate is gcd(u, M) and
    # minimize the second coordinate over remaining unit scalings
    if g != 1:
        d = M // g
        while gcd(s, M) != 1:
            s = (s + d) % M
    v = (s * v) % M
    if g == 1:
        return (1, v)
    min_v = v
    t = 1
    Mg = M // g
    vMg = (v * Mg) % M
    for _ in range(2, g + 1):
        v = (v + vMg) % M
        t = (t + Mg) % M
        if v < min_v and gcd(t, M) == 1:
            min_v = v
    return (g, min_v)


def lift_to_sl2z(M, u, v):
    """An integer matrix ((a, b), (c, d)) with det 1 and (c, d) = (u, v) mod M."""
    if M == 1:
        return ((1, 0), (0, 1))
    u %= M
    v %= M
    if gcd(gcd(u, v), M) != 1:
        raise ValueError("(%d, %d) is not a point of P^1(Z/%d)" % (u, v, M))
    if u == 0 and v == 0:
        raise ValueError("zero pair")
    # shift v by multiples of M until gcd(u, v) = 1 in Z
    if u == 0:
        u = M
    w = v
    while gcd(u, w) != 1:
        w += M
    g, s, t = _xgcd(u, w)
    assert g == 1
    return ((t, -s), (u, w))


class P1List:
    """All classes of P^1(Z/M), sorted, with an index lookup."""

    def __init__(self, M):
        if M < 1:
            raise ValueError("modulus must be positive")
        self.M = M
        seen = set()
        if M == 1:
            seen.add((0, 0))
        else:
            for u in range(M):
                for v in range(M):
                    r = normalize(M, u, v)
                    if r != (0, 0):
                        seen.add(r)
        self.reps = sorted(seen)
        self._index = {r: i for i, r in enumerate(self.reps)}

    def __len__(self):
        return len(self.reps)

    def __getitem__(self, i):
        return self.reps[i]

    def lookup(self, u, v):
        """Index of the class of (u, v), or None when gcd(u, v, M) > 1."""
        return self._index.get(normalize(self.M, u, v))

    def index(self, u, v):
        i = self.lookup(u, v)
        if i is None:
            raise ValueError("(%d, %d) is not primitive mod %d"
                             % (u, v, self.M))
        return i

    def apply_right(self, i, gamma):
        """Index of A * gamma for A the i-th class and gamma an integer matrix."""
        u, v = self.reps[i]
        (a, b), (c, d) = gamma
        return self.index(u * a + v * c, u * b + v * d)

    def lift(self, i):
        """A determinant-1 integer matrix whose bottom row is the i-th class."""
        u, v = self.reps[i]
        return lift_to_sl2z(self.M, u, v)
