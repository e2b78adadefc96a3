"""Exact sparse integer linear algebra.

Vectors are dicts mapping hashable, sortable keys to nonzero ints.  Rank
and the torsion certificate share one fraction-free, untracked column
reduction (:class:`Echelon`); a step whose stored pivot divides the
entry it clears is a plain subtraction, made in place on the vector
being reduced, and :func:`snf_invariant_factors` runs only where the
certificate fails.  ``homology`` reduces a coboundary map by pairing
each chain with its largest coface, so an Echelon serves the quotient
ranks and only those coboundary maps where a coface is claimed twice.
No reduction records which inputs a stored vector combines: the one
kernel the package reads, the top cycles of an open poset, is solved in
``homology`` off the top map's rows by pivot.  Every value is an
integer.
"""

from __future__ import annotations

from math import gcd


def vec_add(out, v, c):
    """out += c*v in place, with zero entries pruned."""
    for k, x in v.items():
        val = out.get(k, 0) + c * x
        if val:
            out[k] = val
        else:
            out.pop(k, None)


def vec_combine(a, ca, b, cb):
    """ca*a + cb*b with zero entries pruned."""
    out = {k: ca * x for k, x in a.items()} if ca != 1 else dict(a)
    vec_add(out, b, cb)
    return out


def vec_content(v):
    g = 0
    for x in v.values():
        g = gcd(g, abs(x))
        if g == 1:
            return 1
    return g


def vec_primitive(v):
    g = vec_content(v)
    if g > 1:
        return {k: x // g for k, x in v.items()}
    return v


class Echelon:
    """Incremental integer column reduction with fixed pivots.

    Each stored vector is filed under its largest key, its pivot, and no
    two stored vectors share a pivot, so the rank is the number stored
    (persistence-style reduction: Edelsbrunner-Harer, *Computational
    Topology*, ch. VII).

    ``unimodular`` stays True while every vector installed has pivot entry
    +-1.  Then every reduction step is a unit subtraction, so the stored
    vectors are a Z-basis of the inputs' span with unit pivots in distinct
    keys: the span is a direct summand and every invariant factor of the
    inputs is 1.
    """

    unimodular = True  # the class default; add() clears it per instance

    def __init__(self):
        self.by_pivot = {}   # pivot key -> stored vector

    @property
    def rank(self):
        return len(self.by_pivot)

    def add(self, v):
        """Insert ``v``, which is left as it is; True when the rank grew.
        Its largest key is cleared against the stored vector pivoted
        there until no stored vector has that pivot, one ``max`` per
        step; where the stored pivot divides v's entry the step subtracts
        in place, on a copy of v made once."""
        v = dict(v)
        while v:
            low = max(v)
            prow = self.by_pivot.get(low)
            if prow is None:
                if v[low] not in (1, -1):
                    self.unimodular = False
                self.by_pivot[low] = v
                return True
            c, p = v[low], prow[low]
            if c % p == 0:
                vec_add(v, prow, -(c // p))
            else:
                g = gcd(c, p)
                v = vec_primitive(vec_combine(v, p // g, prow, -(c // g)))
        return False


def rank_of(vectors):
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def snf_invariant_factors(vectors):
    """Invariant factors (positive, divisibility-sorted) of the integer
    matrix whose rows are ``vectors``.

    The fallback for a reduction that installed a non-unit pivot (see
    ``Echelon.unimodular``), so it is short rather than fast: pivot on an
    entry of least absolute value, divide it out of its column by row
    operations and out of its row by column operations, and pivot again
    while a remainder is left; a pivot alone in its row and column is an
    invariant factor up to divisibility.
    """
    rows = [dict(v) for v in vectors if v]
    factors = []
    while rows:
        prow, pk = min(((v, k) for v in rows for k in v),
                       key=lambda e: abs(e[0][e[1]]))
        p = prow[pk]
        for v in rows:
            if v is not prow and pk in v:
                vec_add(v, prow, -(v[pk] // p))
        if all(pk not in v for v in rows if v is not prow):
            # column pk holds p alone, so a column operation changes
            # only the pivot row
            for k in [k for k in prow if k != pk]:
                if prow[k] % p:
                    prow[k] %= p
                else:
                    del prow[k]
            if len(prow) == 1:
                factors.append(abs(p))
                prow.clear()
        rows = [v for v in rows if v]
    # enforce the divisibility chain: (a, b) -> (gcd, lcm) until sorted
    changed = True
    while changed:
        changed = False
        factors.sort()
        for a in range(len(factors)):
            for b in range(a + 1, len(factors)):
                if factors[b] % factors[a]:
                    g = gcd(factors[a], factors[b])
                    factors[a], factors[b] = g, factors[a] * factors[b] // g
                    changed = True
    return factors
