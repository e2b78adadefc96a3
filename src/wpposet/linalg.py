"""Exact sparse integer linear algebra.

Vectors are dicts mapping hashable, sortable keys to nonzero ints.  Rank,
kernel and the torsion certificate share one fraction-free column
reduction (:class:`Echelon`); a step whose stored pivot divides the entry
it clears is a plain subtraction, made in place on the vector being
reduced, and :func:`snf_invariant_factors` runs only where the
certificate fails.  Every value is an integer.
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
    Topology*, ch. VII).  With ``track`` on, each vector carries the
    integer combination of the added inputs it equals.

    ``unimodular`` stays True while every vector installed has pivot entry
    +-1.  Then every reduction step is a unit subtraction, so the stored
    vectors are a Z-basis of the inputs' span with unit pivots in distinct
    keys: the span is a direct summand and every invariant factor of the
    inputs is 1.
    """

    unimodular = True  # the class default; add() clears it per instance

    def __init__(self, track=False):
        self.by_pivot = {}   # pivot key -> (vector, tracker or None)
        self.track = track

    @property
    def rank(self):
        return len(self.by_pivot)

    def _reduce(self, v, t):
        """Clear v's largest key against the stored vector pivoted there
        until no stored vector has that pivot; t follows every step, so
        v == sum_j t[j] * input_j keeps holding.  v and t belong to the
        caller's reduction alone: where the stored pivot divides v's
        entry the step subtracts in place, without a copy."""
        while v:
            low = max(v)
            stored = self.by_pivot.get(low)
            if stored is None:
                break
            prow, ptrack = stored
            c, p = v[low], prow[low]
            if c % p == 0:
                # p divides c: a plain subtraction, made in place
                b = c // p
                vec_add(v, prow, -b)
                if t is not None:
                    vec_add(t, ptrack, -b)
                continue
            g = gcd(c, p)
            a, b = p // g, c // g
            v = vec_combine(v, a, prow, -b)
            if t is not None:
                t = vec_combine(t, a, ptrack, -b)
            g = vec_content(v)
            if t is not None:
                g = gcd(g, vec_content(t))
            if g > 1:
                v = {k: x // g for k, x in v.items()}
                if t is not None:
                    t = {k: x // g for k, x in t.items()}
        return v, t

    def add(self, v, tag=None):
        """Insert ``v``; returns the tracker combination when the vector is
        dependent (and tracking is on), ``None`` when rank grew, or ``()``
        when dependent without tracking."""
        t = {tag: 1} if self.track else None
        v, t = self._reduce(dict(v), t)
        if not v:
            return t if self.track else ()
        low = max(v)
        if v[low] not in (1, -1):
            self.unimodular = False
        if t is None:
            v = vec_primitive(v)
        self.by_pivot[low] = (v, t)
        return None


def rank_of(vectors):
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def kernel_basis(vectors, ech=None):
    """Integer basis of {x : sum_j x_j vectors[j] = 0}.

    Returned vectors are primitive dicts keyed by the input index j.  The
    reduction runs in ``ech``, an empty ``Echelon(track=True)`` made here
    when none is passed; a caller that passes one reads the rank, the
    unit-pivot certificate and the pivots of the same reduction from it.
    """
    if ech is None:
        ech = Echelon(track=True)
    out = []
    for j, v in enumerate(vectors):
        combo = ech.add(v, tag=j)
        if combo is not None:
            out.append(vec_primitive(combo))
    return out


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
