"""Exact (co)homology of order complexes of open subposets.

An open poset is a subset of the weighted partition poset on [n]; its
order is read from that poset's covers.  Inside this module a chain of
the order complex is a tuple of the open poset's local indices, strictly
increasing in the poset order, and a coboundary map is reduced over the
positions of the chains in their dimension's list; in the ChainVectors
the module takes (``coboundary_member``, ``rank_in_top_quotient``) and
gives (``chain_vector_of_tree``, ``fundamental_cycle``) a chain is the
tuple of partitions those indices stand for.  The empty chain
generates the degree -1 part of the reduced complex.  A ChainVector is a
sparse dict mapping chains to integers.  Everything is computed over the
integers.  One pass over the coboundary maps, bottom dimension first,
reduces each once, untracked and with clearing; each is the transpose of
a boundary map, so it gives that map's rank and, through its unit-pivot
certificate, its torsion.  The host's one form of its top cycle basis,
the cycle index, from which quotient ranks and coboundary membership are
read, is solved off the top map's stored rows on its first read.
Nothing here keeps a host: it lives, with its chains, ranks and cycle
index, as long as its caller holds it; one past CHAIN_COUNT_CAP is
refused before its poset is built (``chain_count``).
Membership is a yes/no answer, with no witness cochain.  The
fundamental cycle of the boolean subposet Pi_T of a rooted tree needs no
host and no kernel: it is a signed sum of the maximal chains of Pi_T,
written down directly; that such a sum is a cycle is checked once per
edge count, on the edge bitmasks.  The Whitney cohomology ranks are read
off the Mobius function, in ``partitions``.
"""

from __future__ import annotations

from math import comb

from . import chains as ch
from . import linalg
from . import partitions as pt
from . import trees as tr

CHAIN_COUNT_CAP = 2_000_000


class OpenPoset:
    """The subposet of a built poset P induced on the elements keep, with
    its order complex.

    Elements are listed sorted and indexed locally; up[k] is the bitset
    over those indices of the elements strictly above element k.  It is
    filled from P's covers, from the top rank down, so building it costs
    one step per cover inside keep.  That reads the induced order only if
    any two comparable elements of keep are joined by covers of P inside
    keep, as they are when keep is order-convex in P: every open interval
    and proper part is.  Chains of the order complex are listed per
    dimension as tuples of local indices, in lexicographic order; since
    local indices follow the sorted elements, a chain's position in its
    list orders it as its tuple of partitions would.  The host stores the
    rank and certificate of each boundary map (``reductions``) and one
    form of its top cycle basis, the cycle index (``cycle_index``), both
    from one pass over its coboundary maps.
    """

    def __init__(self, name, P, keep):
        self.name = name
        self.elements = sorted(keep)
        self.index = {e: k for k, e in enumerate(self.elements)}
        local = {P.index[e]: k for k, e in enumerate(self.elements)}
        self.up = [0] * len(local)
        # P lists its elements in rank order, so each upper cover of h
        # has a larger index and its up set is complete before h's
        for h in sorted(local, reverse=True):
            k = local[h]
            for g in P.covers[h]:
                j = local.get(g)
                if j is not None:
                    self.up[k] |= 1 << j | self.up[j]
        self._index_chains = None
        self._reductions = None
        self._top_map = None  # (top chains, stored rows) until cycle_index
        self._cycles = None

    def index_chains(self):
        """dict r -> list of r-chains as tuples of local indices, in
        lexicographic order; r = -1 is the empty chain.  Each chain is
        extended by the elements above its last one, in index order; the
        chain cap fired before the host was made (``open_interval``)."""
        if self._index_chains is None:
            above = [pt.bits(u) for u in self.up]
            everything = range(len(above))
            by_dim = {}
            frontier = [()]
            r = -1
            while frontier:
                by_dim[r] = frontier
                frontier = [c + (j,) for c in frontier
                            for j in (above[c[-1]] if c else everything)]
                r += 1
            self._index_chains = by_dim
        return self._index_chains

    @property
    def top_dim(self):
        return max(self.index_chains())

    def top_key(self, c):
        """The index tuple of a top-dimensional chain c of elements;
        ValueError when c is not one."""
        key = tuple(self.index.get(e, -1) for e in c)
        if (len(key) != self.top_dim + 1 or -1 in key
                or any(not self.up[a] >> b & 1 for a, b in zip(key, key[1:]))):
            raise ValueError(
                f"{' < '.join(map(pt.partition_str, c)) or 'the empty chain'}"
                f" is not a top chain of {self.name}")
        return key

    def reductions(self):
        """{r: (rank, unimodular)} of each boundary map d_r: C_r -> C_{r-1},
        r >= 0, from one bottom-up pass over the coboundary maps, computed
        once; the top map's stored rows are kept for the cycle index.

        The coboundary map from the r-chains to the (r+1)-chains is the
        transpose of d_{r+1}, so the reduction (``linalg.Echelon``) of its
        rows (``_coboundary_rows``), added in chain order, gives that
        map's rank and unit-pivot certificate.  The row of an r-chain
        installed as a pivot by the map below is skipped (cohomology with
        clearing: de Silva-Morozov-Vejdemo-Johansson, "Dualities in
        persistent (co)homology", 2011): the reduced coboundary pivoted
        there is a cocycle whose largest chain is that one, so its row
        lies in the span of the rows of the chains before it, would reduce
        to zero and install nothing.  The stored vectors, so the rank and
        the certificate, are those of the whole map.
        """
        if self._reductions is None:
            by_dim = self.index_chains()
            top = max(by_dim)
            self._reductions, cleared = {}, {}
            for r in range(-1, top):
                ech = linalg.Echelon()
                for row in _coboundary_rows(by_dim, r, cleared):
                    ech.add(row)
                    row.clear()  # ech keeps its own copy
                self._reductions[r + 1] = ech.rank, ech.unimodular
                cleared = ech.by_pivot
            self._top_map = by_dim[top], cleared
        return self._reductions

    def cycle_index(self):
        """(index, count): an integer basis z_0 .. z_{count-1} of the top
        cycles, stored by chain: index[c] is the flat tuple (j, z_j[c],
        j', z_j'[c], ...) over the z_j with the top index chain c in their
        support.  There is one per chain, so it is a tuple, not a dict,
        and equal ones are one object.  Solved on the first read, off the
        top map's rows ``reductions`` stored, which are then dropped."""
        if self._cycles is None:
            self.reductions()
            self._cycles, self._top_map = _cycle_index(*self._top_map), None
        return self._cycles


def _cycle_index(chains, rows):
    """(index, count) of ``OpenPoset.cycle_index`` for the top chains,
    read off rows, the stored vectors of the top coboundary map's
    reduction by pivot position.  A top cycle is orthogonal to every
    coboundary row, and the stored rows span them all.

    One pass in chain order: a chain no row is pivoted at is free, and
    the k-th free chain gets z_j = 1 there, j = count - 1 - k: the
    columns count down, so a quotient row's largest key, the one
    ``linalg.Echelon`` pivots on, is its earliest free chain.  At the
    pivot c of a row s, z[c] = -(1/s[c]) * sum of s[k] z[k] over its
    other keys k, each an earlier chain.  Where s[c] is not a unit, every
    entry so far is first multiplied by |s[c]|; one factor for every z_j
    keeps them a basis of the same span.  Each z_j is 0 on every other
    free chain, so they are independent."""
    count = len(chains) - len(rows)
    z, free = [], 0
    for p in range(len(chains)):
        s = rows.get(p)
        if s is None:
            z.append((count - 1 - free, 1))
            free += 1
            continue
        d = s[p]
        if d not in (1, -1):
            g = abs(d)
            z = [tuple(x * g if t & 1 else x for t, x in enumerate(e))
                 for e in z]
        acc = {}
        for k, x in s.items():
            e = z[k] if k != p else ()
            for j, y in zip(e[::2], e[1::2]):
                acc[j] = acc.get(j, 0) + x * y
        z.append(tuple(v for j, x in acc.items() if x for v in (j, -x // d)))
    index, shared = {}, {}
    for c, e in zip(chains, z):
        if e:
            index[c] = shared.setdefault(e, e)
    return index, count


def _coboundary_rows(by_dim, r, cleared=()):
    """The coboundary of each r-chain not in cleared (a collection of
    positions), in chain order, keyed by the positions of the (r+1)-chains
    it is a face of: one scan of those chains' faces builds them all."""
    faces = {c: k for k, c in enumerate(by_dim[r])}
    rows = {k: {} for k in range(len(faces)) if k not in cleared}
    for p, c in enumerate(by_dim[r + 1]):
        for i in range(len(c)):
            row = rows.get(faces[c[:i] + c[i + 1:]])
            if row is not None:
                row[p] = -1 if i & 1 else 1
    return rows.values()


# ---------------------------------------------------------------------------
# hosts
# ---------------------------------------------------------------------------

def _below_top(k, s, i):
    """Whether a weighted partition with k blocks and weight sum s lies
    below [n]^i: exactly when s <= i <= s + k - 1."""
    return s <= i <= s + k - 1


def interval_elements(n, i):
    """The elements of (0-hat, [n]^i), in the order of the weighted poset
    on [n]: those below [n]^i (``_below_top``), without the bottom and
    [n]^i; no order relation is read and no order complex is built."""
    P = pt.build_poset(n, pt.WEIGHTED)
    ends = {pt.bottom(n), (((1 << n) - 1, i),)}
    return [e for e in P.elements if e not in ends
            and _below_top(len(e), sum(w for _m, w in e), i)]


def interval_size(n, i):
    """len(interval_elements(n, i)) without building the poset: the
    partitions below [n]^i by type (``partitions.type_sums``), less the
    bottom and [n]^i, which at n = 1 are one element."""
    counts = pt.type_sums(n, lambda b, w: 1)[n]
    below = sum(c for (k, s), c in counts.items() if _below_top(k, s, i))
    return below - (1 if n == 1 else 2)


def chain_count(n, i=None):
    """The chains, the empty one included, of (0-hat, [n]^i), or of the
    proper part when i is None, counted on block types.  Z_y(m), the
    multichains 0-hat = x_0 <= ... <= x_m = y, is the product of
    Z_[|B|]^w(m) over the blocks B^w of y (Stanley, EC1 3.12), and
    Z_[b]^w(m) sums Z_z(m-1) over the z below [b]^w.  The strict chains
    of length j from 0-hat to y number sum_m (-1)^(j-m) C(j, m) Z_y(m):
    those with j >= 2 to [n]^i are the open interval's, those with
    j >= 1 to any y != 0-hat the proper part's, largest element y."""
    top = {(b, w): 1 for b in range(1, n + 1) for w in range(b)}
    z = [0]  # z[m]: Z_[n]^i(m), or the sum of Z_y(m) over y != 0-hat
    for m in range(1, n):
        sums = pt.type_sums(n, lambda b, w: top[b, w])
        z.append(top[n, i] if i is not None else sum(sums[n].values()) - 1)
        top = {(b, w): sum(c for (k, s), c in sums[b].items()
                           if _below_top(k, s, w)) for b, w in top}
    first = 1 if i is None else 2
    return 1 + sum((-1) ** (j - m) * comb(j, m) * z[m]
                   for j in range(first, n) for m in range(1, j + 1))


def open_interval(n, i):
    """(0-hat, [n]^i) as a new OpenPoset, refused past CHAIN_COUNT_CAP
    before any poset is built; a caller that needs it more than once
    holds on to it."""
    name = f"(0,[{n}]^{i})"
    # past POSET_CAP_N build_poset refuses first, with no count paid for
    if 0 <= i < n <= pt.POSET_CAP_N and chain_count(n, i) > CHAIN_COUNT_CAP:
        raise pt.ResourceCapError(f"chains of {name}", CHAIN_COUNT_CAP)
    return OpenPoset(name, pt.build_poset(n, pt.WEIGHTED),
                     interval_elements(n, i))


def proper_part(n):
    """Pi_n^w minus its bottom, as a new OpenPoset, refused past
    CHAIN_COUNT_CAP before any poset is built; a caller that needs it
    more than once holds on to it."""
    name = f"Pi_{n}^w - 0"
    if 1 <= n <= pt.POSET_CAP_N and chain_count(n) > CHAIN_COUNT_CAP:
        raise pt.ResourceCapError(f"chains of {name}", CHAIN_COUNT_CAP)
    P = pt.build_poset(n, pt.WEIGHTED)
    return OpenPoset(name, P, P.elements[1:])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def betti_numbers(host):
    """Reduced Betti numbers {r: betti_r} plus the nontrivial invariant
    factors of every boundary map d_r, r >= 0, top first: all of them in
    "torsion_every_map", those of the top two in "torsion_nontrivial".
    Each map's rank and unit-pivot certificate come from the host's one
    pass (``OpenPoset.reductions``); where every installed pivot is a
    unit the map's invariant factors are all 1, and only where one is not
    does ``linalg.snf_invariant_factors`` compute them from the whole
    map's transpose, which has the same ones."""
    by_dim = host.index_chains()
    top = max(by_dim)
    maps = host.reductions()
    torsion = {}
    for r in range(top, -1, -1):
        torsion[r] = [] if maps[r][1] else [
            f for f in linalg.snf_invariant_factors(
                list(_coboundary_rows(by_dim, r - 1))) if f != 1]
    rank = {r: m[0] for r, m in maps.items()}
    betti = {r: len(by_dim[r]) - rank.get(r, 0) - rank.get(r + 1, 0)
             for r in sorted(by_dim)}
    top_two = {r: v for r, v in torsion.items() if r >= top - 1}
    return {
        "betti": betti,
        "top_dim": top,
        "torsion_nontrivial": top_two,
        "torsion_free_top": all(not v for v in top_two.values()),
        "torsion_every_map": torsion,
    }


def _quotient_row(host, v):
    """The cycle-index columns of a top-dimensional ChainVector v,
    {j: <v, z_j>}; ValueError on a chain that is not a top chain."""
    index = host.cycle_index()[0]
    row = {}
    for c, coeff in v.items():
        entries = index.get(host.top_key(c), ())
        for j, x in zip(entries[::2], entries[1::2]):
            row[j] = row.get(j, 0) + coeff * x
    return {j: x for j, x in row.items() if x}


def coboundary_member(host, v):
    """Is v (top-dimensional) a coboundary?  Over the rationals this is
    orthogonality to every top-dimensional cycle, so v is a member exactly
    when its cycle-index row is empty.  A chain of v that is not a top
    chain of host raises ValueError."""
    return not v or not _quotient_row(host, v)


def chain_vector_of_tree(t, omit_top=True):
    """c-bar (or c-breve with omit_top False) of a tree as a ChainVector."""
    parts = ch.chain_partitions_of_tree(t)
    hi = len(parts) - 1 if omit_top else len(parts)
    return {tuple(parts[1:hi]): 1}


def fundamental_cycle(T):
    """Generator of the top homology of the open part of Pi_T, normalized
    so the chain of psi(T) has coefficient +1: the sum of sgn(sigma)
    times the maximal chain of the boolean Pi_T adding T's edges in the
    order sigma, bottom and top dropped (Bjorner, "Topological methods",
    1995).  Each call checks the chain of psi(T); the zero boundary is
    checked once per edge count, on the edge bitmasks
    (``chains.edge_orders_form_a_cycle``)."""
    rho = {chain[1:-1]: sign for chain, sign in ch.maximal_chains_of_pi_t(T)}
    coeff = rho.get(tuple(ch.chain_partitions_of_tree(tr.psi(T))[1:-1]))
    if coeff is None:
        raise AssertionError("c(psi(T)) is missing from the fundamental cycle")
    if coeff == -1:
        rho = {c: -x for c, x in rho.items()}
    if not ch.edge_orders_form_a_cycle(len(T.parent)):
        raise AssertionError("the fundamental cycle of Pi_T has a boundary")
    return rho


def rank_in_top_quotient(host, vectors):
    """Rank of the images of top-dimensional cochain vectors in the
    quotient C^top / B^top: each vector becomes the sum of its chains'
    cycle-index rows.  A chain that is not a top chain of host raises
    ValueError."""
    rows = [_quotient_row(host, v) for v in vectors]
    return linalg.rank_of(rows), host.cycle_index()[1]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def homology_report(host):
    data = betti_numbers(host)
    return {
        "poset_id": host.name,
        "dims": {str(r): len(cs) for r, cs in host.index_chains().items()},
        "betti": {str(r): b for r, b in data["betti"].items()},
        "torsion_top": {str(r): v for r, v in data["torsion_nontrivial"].items()},
        "torsion_free_top": data["torsion_free_top"],
    }
