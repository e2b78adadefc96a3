"""Exact sparse integer linear algebra.

Vectors are dicts mapping hashable, sortable keys to nonzero ints.  Rank,
kernel and witness solve share one fraction-free column reduction
(:class:`Echelon`); rationals (``fractions.Fraction``) appear only in the
witness that :func:`solve_rational` returns.
"""

from __future__ import annotations

from fractions import Fraction
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


def vec_dot(a, b):
    if len(b) < len(a):
        a, b = b, a
    return sum(x * b[k] for k, x in a.items() if k in b)


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


_TARGET = object()  # tracker key of the target in Echelon.solve


class Echelon:
    """Incremental integer column reduction with fixed pivots.

    Each stored vector is filed under its largest key, its pivot, and no
    two stored vectors share a pivot, so the rank is the number stored
    (persistence-style reduction: Edelsbrunner-Harer, *Computational
    Topology*, ch. VII).  With ``track`` on, each vector carries the
    integer combination of the added inputs it equals.
    """

    def __init__(self, track=False):
        self.by_pivot = {}   # pivot key -> (vector, tracker or None)
        self.track = track

    @property
    def rank(self):
        return len(self.by_pivot)

    def _reduce(self, v, t):
        """Clear v's largest key against the stored vector pivoted there
        until no stored vector has that pivot; t follows every step, so
        v == sum_j t[j] * input_j keeps holding."""
        while v:
            low = max(v)
            stored = self.by_pivot.get(low)
            if stored is None:
                break
            prow, ptrack = stored
            c, p = v[low], prow[low]
            # a == 1 exactly when p divides c: a plain integer subtraction
            g = p if c % p == 0 else gcd(c, p)
            a, b = p // g, c // g
            v = vec_combine(v, a, prow, -b)
            if t is not None:
                t = vec_combine(t, a, ptrack, -b)
            if a == 1:
                continue
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
        if t is None:
            v = vec_primitive(v)
        self.by_pivot[max(v)] = (v, t)
        return None

    def solve(self, target):
        """x with sum_j x[j] * input_j = target, as a dict tag ->
        Fraction, or None when target is outside the span.  Needs
        ``track``.

        The reduction keeps D*target = residual + sum_j s_j * input_j
        (its tracker holds D under the key _TARGET and -s_j under j), so
        a zero residual gives x[j] = s_j / D.
        """
        residual, t = self._reduce(dict(target), {_TARGET: 1})
        if residual:
            return None
        d = t.pop(_TARGET)
        return {j: Fraction(-x, d) for j, x in t.items()}


def rank_of(vectors):
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def kernel_basis(vectors):
    """Integer basis of {x : sum_j x_j vectors[j] = 0}.

    Returned vectors are primitive dicts keyed by the input index j.
    """
    ech = Echelon(track=True)
    out = []
    for j, v in enumerate(vectors):
        combo = ech.add(v, tag=j)
        if combo is not None:
            out.append(vec_primitive(combo))
    return out


def solve_rational(vectors, target):
    """x with sum_j x_j vectors[j] = target over the rationals, as a dict
    j -> Fraction, or None when the system is inconsistent."""
    ech = Echelon(track=True)
    for j, v in enumerate(vectors):
        ech.add(v, tag=j)
    return ech.solve(target)


def snf_invariant_factors(vectors):
    """Invariant factors (positive, divisibility-sorted) of the integer
    matrix whose rows are ``vectors``.  Greedy unit-pivot elimination with
    a gcd fallback; suited to sparse incidence-style matrices."""
    rows = {i: dict(v) for i, v in enumerate(vectors) if v}
    cols = {}
    for i, v in rows.items():
        for k in v:
            cols.setdefault(k, set()).add(i)

    def discard(i, k):
        rows[i].pop(k, None)
        s = cols.get(k)
        if s:
            s.discard(i)
            if not s:
                cols.pop(k, None)

    def set_entry(i, k, val):
        if val:
            rows[i][k] = val
            cols.setdefault(k, set()).add(i)
        else:
            discard(i, k)

    factors = []
    while rows:
        best = None
        for i, v in rows.items():
            for k, x in v.items():
                if best is None or abs(x) < best[2]:
                    best = (i, k, abs(x))
            if best and best[2] == 1:
                break
        if best is None:
            break
        pi, pk, _ = best
        # make the pivot the gcd of its row and column, then eliminate
        while True:
            p = rows[pi][pk]
            off = next((i for i in cols[pk] if i != pi and rows[i][pk] % p), None)
            if off is not None:
                q = rows[off][pk] // p
                merged = vec_combine(rows[off], 1, rows[pi], -q)
                for k in list(rows[off]):
                    discard(off, k)
                for k, x in merged.items():
                    set_entry(off, k, x)
                pi = off  # the remainder row has the smaller pivot
                continue
            offk = next((k for k, x in rows[pi].items() if k != pk and x % p), None)
            if offk is not None:
                # column op leaves the remainder at offk; pivot moves there
                q = rows[pi][offk] // p
                for i in list(cols[pk]):
                    set_entry(i, offk, rows[i].get(offk, 0) - q * rows[i][pk])
                pk = offk
                continue
            break
        p = rows[pi][pk]
        for i in list(cols[pk]):
            if i == pi:
                continue
            q = rows[i][pk] // p
            merged = vec_combine(rows[i], 1, rows[pi], -q)
            for k in list(rows[i]):
                discard(i, k)
            for k, x in merged.items():
                set_entry(i, k, x)
            if not rows[i]:
                rows.pop(i)
        # the pivot row's other entries are all divisible by p; clear them
        for k in list(rows[pi]):
            discard(pi, k)
        rows.pop(pi, None)
        factors.append(abs(p))
    if rows:
        raise RuntimeError("SNF elimination failed to terminate")
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


def bareiss_det(matrix):
    """Exact determinant of a dense square integer matrix (list of lists)."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
