"""Exact sparse integer linear algebra.

Vectors are dicts mapping hashable, sortable keys to nonzero ints.  Rank
is one fraction-free, untracked column reduction (:class:`Echelon`); a
step whose stored pivot divides the entry it clears is a plain
subtraction, made in place on the vector being reduced.  ``homology``
reduces a coboundary map by pairing each chain with its largest coface,
which certifies its rank and its torsion with no elimination, so an
Echelon serves only the quotient ranks (``rank_of``).  No reduction
records which inputs a stored vector combines: the one kernel the
package reads, the top cycles of an open poset, is solved in
``homology`` off the top map's pairs.  Every value is an integer.
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
    """

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
