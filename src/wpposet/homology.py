"""Exact (co)homology of order complexes of open subposets.

An open poset is a subset of the weighted partition poset on [n]; its
order is read from that poset's down-set bitsets
(``partitions.Poset.down_sets``).  Inside this module a chain of the
order complex is a tuple of the open poset's local indices, strictly
increasing in the poset order, and a boundary map is reduced over the
positions of the chains in their dimension's list; in the ChainVectors
the module takes (``coboundary_member``, ``rank_in_top_quotient``) and
gives (``chain_vector_of_tree``, ``fundamental_cycle``) a chain is the
tuple of partitions those indices stand for.  The empty chain
generates the degree -1 part of the reduced complex.  A ChainVector is a
sparse dict mapping chains to integers.  Everything is computed over the
integers; one reduction per boundary map, top dimension first, gives its
rank and, through its unit-pivot certificate, the torsion of the top two
maps.  The top map's one reduction is tracked: it also yields the host's
one form of its top cycle basis, the cycle index, from which quotient
ranks and coboundary membership are read, so Betti numbers and the index
share it in either order.  Nothing here keeps a host: it lives, with its
chains, cycle index and pivots, as long as its caller holds it.
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
    over those indices of the elements strictly above element k, read
    from P's down-sets, so building it costs one step per comparable
    pair.  Chains of the order complex are listed per dimension as
    tuples of local indices, in lexicographic order; since
    local indices follow the sorted elements, a chain's position in its
    list orders it as its tuple of partitions would.  The host stores one
    form of its top cycle basis, the cycle index (``cycle_index``), and
    the rank, certificate and pivots of the one reduction of its top
    boundary map that fills it (``top_reduction``).
    """

    def __init__(self, name, P, keep):
        self.name = name
        self.elements = sorted(keep)
        self.index = {e: k for k, e in enumerate(self.elements)}
        hosts = [P.index[e] for e in self.elements]
        local = {h: k for k, h in enumerate(hosts)}
        keep_mask = 0
        for h in hosts:
            keep_mask |= 1 << h
        down_sets = P.down_sets()
        self.up = [0] * len(hosts)
        for k, h in enumerate(hosts):
            for g in pt.bits(down_sets[h] & keep_mask & ~(1 << h)):
                self.up[local[g]] |= 1 << k
        self._index_chains = None
        self._cycles = None
        self._top = None

    def index_chains(self):
        """dict r -> list of r-chains as tuples of local indices, in
        lexicographic order; r = -1 is the empty chain.  The chains are
        counted first (``_chain_count``), and a host with more than
        CHAIN_COUNT_CAP of them, the empty chain included, is refused
        before any is listed.  Each chain is then extended by the
        elements above its last one, in index order."""
        if self._index_chains is None:
            above = [pt.bits(u) for u in self.up]
            if _chain_count(above) > CHAIN_COUNT_CAP:
                raise pt.ResourceCapError(
                    f"chains of {self.name}", CHAIN_COUNT_CAP)
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

    def cycle_index(self):
        """(index, count): an integer basis z_0 .. z_{count-1} of the top
        cycles, stored by chain: index[c] is the flat tuple (j, z_j[c],
        j', z_j'[c], ...) over the z_j with the top index chain c in their
        support.  There is one per chain, so it is a tuple, not a dict,
        and equal ones are one object.  Computed once, by the tracked
        reduction of the top boundary map, which is that map's only
        reduction: its rank, unit-pivot certificate and pivot set are kept
        for ``top_reduction``.  Tracking leaves all three as an untracked
        reduction of the same rows would give them: while every pivot is
        +-1 both take the same steps, and the pivots of a largest-key
        reduction are fixed by the matrix.

        The rows are added one at a time; a row that reduces to zero
        yields a kernel combination, which is made primitive, numbered
        z_j in the order found and folded into the index at once, so no
        list of kernel vectors is ever held."""
        if self._cycles is None:
            by_dim = self.index_chains()
            top = max(by_dim)
            chains = by_dim[top]
            ech = linalg.Echelon(track=True)
            by_pos, count = {}, 0  # keyed by chain position: no tuple hash
            rows = _boundary_rows(chains, _positions(by_dim.get(top - 1, [])))
            for pos, row in enumerate(rows):
                combo = ech.add(row, tag=pos)
                if combo is not None:
                    for k, x in linalg.vec_primitive(combo).items():
                        by_pos.setdefault(k, []).extend((count, x))
                    count += 1
            self._top = ech.rank, ech.unimodular, set(ech.by_pivot)
            del ech  # its stored vectors and trackers, before the tuples
            index, shared = {}, {}
            for k, entries in by_pos.items():
                entries = tuple(entries)
                index[chains[k]] = shared.setdefault(entries, entries)
            self._cycles = index, count
        return self._cycles

    def top_reduction(self):
        """(rank, unimodular, pivots) of the top boundary map, read from
        the reduction that fills the cycle index."""
        self.cycle_index()
        return self._top


def _chain_count(above):
    """The number of chains, the empty one included, of an order whose
    element k lies below exactly the elements in the list above[k], with
    no chain listed: count[k] = 1 + the sum of count[j] over j in above[k]
    is the number of chains whose least element is k.  An element above k
    has fewer elements above it than k has, so filling count in order of
    len(above[k]) takes the top rank down."""
    count = [0] * len(above)
    for k in sorted(range(len(above)), key=lambda k: len(above[k])):
        count[k] = 1 + sum(count[j] for j in above[k])
    return 1 + sum(count)


def _positions(chains):
    return {c: k for k, c in enumerate(chains)}


def _boundary_rows(chains, faces):
    """The boundary of each index chain, one row at a time, keyed by the
    position of each face in ``faces`` (its dimension's list)."""
    for c in chains:
        yield {faces[c[:i] + c[i + 1:]]: -1 if i & 1 else 1
               for i in range(len(c))}


def _reductions(host):
    """(r, rank, unimodular, pivots) of the r-th boundary map's reduction
    (``linalg.Echelon``), top dimension first; pivots is the set of face
    positions its stored vectors are pivoted at.  The top map's come from
    the tracked reduction behind the cycle index (``top_reduction``), so
    a host reduces it once whichever is asked for first; the maps below
    are reduced untracked.

    Rows are streamed in chain order.  An r-chain installed as a pivot by
    the (r+1)-st reduction is skipped (clearing: Chen-Kerber, "Persistent
    homology computation with a twist", 2011): the reduced cycle pivoted
    there shows its boundary to lie in the span of the boundaries of the
    r-chains before it, so it would reduce to zero and install nothing.
    The stored vectors, so the rank and the unit-pivot certificate, are
    those of the whole map.
    """
    by_dim = host.index_chains()
    top = max(by_dim)
    rank, unimodular, cleared = host.top_reduction()
    yield top, rank, unimodular, cleared
    for r in range(top - 1, -2, -1):
        faces = _positions(by_dim.get(r - 1, []))
        ech = linalg.Echelon()
        for row in _boundary_rows(
                (c for k, c in enumerate(by_dim[r]) if k not in cleared),
                faces):
            ech.add(row)
        cleared = set(ech.by_pivot)
        yield r, ech.rank, ech.unimodular, cleared


# ---------------------------------------------------------------------------
# hosts
# ---------------------------------------------------------------------------

def interval_elements(n, i):
    """The elements of (0-hat, [n]^i): the down-set of [n]^i in the
    weighted poset on [n], minus [n]^i and the bottom (index 0); no
    order complex is built."""
    P = pt.build_poset(n, pt.WEIGHTED)
    top = P.index[pt.sort_blocks((((1 << n) - 1, i),))]
    return [P.elements[k]
            for k in pt.bits(P.down_sets()[top] & ~(1 << top | 1))]


def interval_size(n, i):
    """len(interval_elements(n, i)) without building the poset.

    A weighted partition with k blocks and weight sum s lies below [n]^i
    exactly when s <= i <= s + k - 1.  counts[m][(k, s)] counts them on an
    m-set: the block holding the least element has some size b (C(m-1,
    b-1) choices of the rest of it) and weight 0..b-1.  The bottom and
    [n]^i are left out; at n = 1 they are one element.
    """
    counts = [{(0, 0): 1}]
    for m in range(1, n + 1):
        here = {}
        for b in range(1, m + 1):
            ways = comb(m - 1, b - 1)
            for (k, s), c in counts[m - b].items():
                for w in range(b):
                    key = (k + 1, s + w)
                    here[key] = here.get(key, 0) + ways * c
        counts.append(here)
    below = sum(c for (k, s), c in counts[n].items() if s <= i <= s + k - 1)
    return below - (1 if n == 1 else 2)


def open_interval(n, i):
    """(0-hat, [n]^i) as a new OpenPoset; a caller that needs it more than
    once holds on to it."""
    return OpenPoset(f"(0,[{n}]^{i})", pt.build_poset(n, pt.WEIGHTED),
                     interval_elements(n, i))


def proper_part(n):
    """Pi_n^w minus its bottom, as a new OpenPoset; a caller that needs it
    more than once holds on to it."""
    P = pt.build_poset(n, pt.WEIGHTED)
    return OpenPoset(f"Pi_{n}^w - 0", P, P.elements[1:])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def betti_numbers(host):
    """Reduced Betti numbers {r: betti_r} plus the nontrivial invariant
    factors of the top two boundary maps, top first.  Each map is reduced
    once (``_reductions``) for its rank, the top map by the tracked
    reduction that also fills the host's cycle index; where every
    installed pivot is a unit its invariant factors are all 1, and only
    where one is not does ``linalg.snf_invariant_factors`` compute them
    from the whole map."""
    by_dim = host.index_chains()
    top = max(by_dim)
    ranks, torsion = {}, {}
    for r, rank, unimodular, _pivots in _reductions(host):
        ranks[r] = rank
        if r >= 0 and r >= top - 1:
            torsion[r] = [] if unimodular else [
                f for f in linalg.snf_invariant_factors(list(_boundary_rows(
                    by_dim[r], _positions(by_dim.get(r - 1, [])))))
                if f != 1]
    betti = {r: len(by_dim[r]) - ranks[r] - ranks.get(r + 1, 0)
             for r in sorted(by_dim)}
    return {
        "betti": betti,
        "top_dim": top,
        "torsion_nontrivial": torsion,
        "torsion_free_top": all(not v for v in torsion.values()),
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
