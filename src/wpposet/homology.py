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
reduces each once, with clearing; each is the transpose of a boundary
map, so it gives that map's rank.  A coboundary is read straight off
the host's up and down bitsets, so no row is stored: each chain the map
below did not clear is paired with its largest coface, an acyclic
matching with +-1 incidences, so every invariant factor is 1.  A coface
claimed twice is a witness against that certificate, not a case to
reduce another way: it raises AssertionError naming the host, the
coface and both chains.  A lower map hands the next only its pivot
positions; the top map keeps its pairs.  The host's one form of its top
cycle basis, the cycle index, from which quotient ranks and coboundary
membership are read, is solved on its first read off the top map's
pairs, the partners' coboundaries built one at a time.
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

from bisect import bisect_left
from math import comb

from . import chains as ch
from . import linalg
from . import partitions as pt
from . import trees as tr

CHAIN_COUNT_CAP = 2_000_000


def _chain_str(chain):
    """A chain of partitions as the CLI and the witnesses print it."""
    return " < ".join(map(pt.partition_str, chain)) or "the empty chain"


class OpenPoset:
    """The subposet of a built poset P induced on the elements keep, with
    its order complex.

    Elements are listed sorted and indexed locally; up[k] is the bitset
    over those indices of the elements strictly above element k, and
    down[k] of those strictly below it.  Both are filled from P's covers,
    up from the top rank down and down from the bottom rank up, so each
    costs one step per cover inside keep.  That reads the induced order
    only if any two comparable elements of keep are joined by covers of P
    inside keep, as they are when keep is order-convex in P: every open
    interval and proper part is.  A coarser partition sorts after a finer
    one, so local indices are a linear extension of the order.  Chains of
    the order complex are listed per dimension as tuples of local indices,
    in lexicographic order; since local indices follow the sorted
    elements, a chain's position in its list orders it as its tuple of
    partitions would.  The host stores the rank of each boundary map
    (``reductions``) and one form of its top cycle basis, the cycle index
    (``cycle_index``), both from one pass over its coboundary maps.
    """

    def __init__(self, name, P, keep):
        self.name = name
        self.elements = sorted(keep)
        self.index = {e: k for k, e in enumerate(self.elements)}
        local = {P.index[e]: k for k, e in enumerate(self.elements)}
        # P lists its elements in rank order, so each upper cover of h
        # has a larger index: read backwards, the covers complete each up
        # set before it is read, and read forwards, each down set
        covers = [(local[h], j) for h in sorted(local) for g in P.covers[h]
                  if (j := local.get(g)) is not None]
        up = self.up = [0] * len(local)
        down = self.down = [0] * len(local)
        for k, j in reversed(covers):
            up[k] |= 1 << j | up[j]
        for k, j in covers:
            down[j] |= 1 << k | down[k]
        self._index_chains = None
        self._reductions = None
        self._top_pairs = None  # the top map's pairs until cycle_index
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
        key = tuple(map(self.index.get, c))
        if (len(key) != self.top_dim + 1 or None in key
                or any(not self.up[a] >> b & 1 for a, b in zip(key, key[1:]))):
            raise ValueError(f"{_chain_str(c)} is not a top chain of "
                             f"{self.name}")
        return key

    def reductions(self):
        """{r: rank} of each boundary map d_r: C_r -> C_{r-1}, r >= 0, the
        number of pairs of one bottom-up pass over the coboundary maps
        (``_pair``), computed once; AssertionError where a coface is
        claimed twice.  A lower map hands the next only its pivot
        positions; the top map's pairs are kept for the cycle index."""
        if self._reductions is None:
            by_dim = self.index_chains()
            top = max(by_dim)
            reductions, pairs = {}, {}
            for r in range(-1, top):
                # the map below hands on its pivot positions, not its
                # pairs: one byte per chain, set where a pivot is
                cleared = bytearray(len(by_dim[r]))
                for p in pairs:
                    cleared[p] = 1
                del pairs
                pairs = _pair(self, by_dim[r], by_dim[r + 1], cleared)
                reductions[r + 1] = len(pairs)
            self._reductions, self._top_pairs = reductions, pairs
        return self._reductions

    def cycle_index(self):
        """(index, count): an integer basis z_0 .. z_{count-1} of the top
        cycles, stored by chain: index[c] is the flat tuple (j, z_j[c],
        j', z_j'[c], ...) over the z_j with the top index chain c in their
        support.  There is one per chain, so it is a tuple, not a dict,
        and equal ones are one object.  Solved on the first read, off the
        top map's pairs that ``reductions`` kept, which are then
        dropped."""
        if self._cycles is None:
            self.reductions()
            self._cycles = _cycle_index(self.up, self.down,
                                        self.index_chains()[self.top_dim],
                                        self._top_pairs)
            self._top_pairs = None
        return self._cycles


def _cycle_index(up, down, chains, pairs):
    """(index, count) of ``OpenPoset.cycle_index`` for the top chains,
    solved off pairs, the top coboundary map's pairs by pivot position
    (``_pair``): the row pivoted at p is the coboundary of the chain
    paired with p, built once, when p is reached.  A top cycle is
    orthogonal to every coboundary row, and these rows span them all.

    One pass in chain order: a chain no row is pivoted at is free, and
    the k-th free chain gets z_j = 1 there, j = count - 1 - k: the
    columns count down, so a quotient row's largest key, the one
    ``linalg.Echelon`` pivots on, is its earliest free chain.  At the
    pivot p of a row s, z[p] = -s[p] * sum of s[k] z[k] over its other
    keys k, each an earlier chain, since s[p] is +-1; z[k]'s flat tuple
    is read in (j, value) pairs by ``zip(it, it)`` over one iterator.
    Where s has one other key k, z[p] is z[k] times -s[p] * s[k]: the
    same tuple when that is 1.  Each z_j is 0 on every other free chain,
    so they are independent."""
    count = len(chains) - len(pairs)
    z, free = [], 0
    for p in range(len(chains)):
        c = pairs.get(p)
        if c is None:
            z.append((count - 1 - free, 1))
            free += 1
            continue
        s = _coboundary(up, down, chains, c)
        d = -s.pop(p)
        if len(s) == 1:
            ((k, x),) = s.items()
            f, e = x * d, z[k]
            z.append(e if f == 1 else
                     tuple(y * f if t & 1 else y for t, y in enumerate(e)))
            continue
        acc = {}
        for k, x in s.items():
            it = iter(z[k])
            for j, y in zip(it, it):
                acc[j] = acc.get(j, 0) + x * y
        e = []
        for j, x in acc.items():
            if x:
                e += j, x * d
        z.append(tuple(e))
    index, shared = {}, {}
    for c, e in zip(chains, z):
        if e:
            index[c] = shared.setdefault(e, e)
    return index, count


def _gaps(up, down, c):
    """The elements that extend the chain c of local indices, as (g, mask)
    for each gap g they fill, top gap first: at g = len(c) those above
    c[-1], at 0 < g < len(c) those strictly between c[g-1] and c[g], at
    g = 0 those below c[0]; every element when c is empty.  The one face
    scan: each coface of c is c with one element inserted at its gap."""
    if not c:
        if up:
            yield 0, (1 << len(up)) - 1
        return
    mask = up[c[-1]]
    if mask:
        yield len(c), mask
    for g in range(len(c) - 1, 0, -1):
        mask = up[c[g - 1]] & down[c[g]]
        if mask:
            yield g, mask
    mask = down[c[0]]
    if mask:
        yield 0, mask


def _coboundary(up, down, cofaces, c):
    """The coboundary of the chain c of local indices, {position: sign}
    over the positions of its cofaces in cofaces, their dimension's list:
    x inserted at gap g (``_gaps``) gives the coface c[:g] + (x,) + c[g:],
    with sign (-1)^g, the sign of c as its face at position g.  Local
    indices are a linear extension, so x is less than the c[g] it
    precedes, and a coface at a lower gap is the lesser chain: the
    cofaces come in chain order, gap by gap from the bottom and element
    by element, largest last, and each is found by bisect past the one
    before."""
    row, lo = {}, 0
    for g, mask in reversed(list(_gaps(up, down, c))):
        sign = -1 if g & 1 else 1
        head, tail = c[:g], c[g:]
        for x in pt.bits(mask):
            lo = bisect_left(cofaces, head + (x,) + tail, lo)
            row[lo] = sign
            lo += 1
    return row


def _largest_coface(up, down, cofaces, c):
    """The position in cofaces of the largest coface of c, the last key
    of its coboundary: the greatest element of its top nonempty gap,
    inserted there; None when c is a maximal chain."""
    for g, mask in _gaps(up, down, c):
        return bisect_left(cofaces, c[:g] + (mask.bit_length() - 1,) + c[g:])
    return None


def _pair(host, chains, cofaces, cleared):
    """{pivot position: chain}: each chain of the coboundary map from
    chains to cofaces, the transpose of a boundary map, that the map below
    did not clear, paired with its largest coface; cleared holds a nonzero
    byte at the position of each chain the map below paired.

    A cleared chain's row is never built (cohomology with clearing: de
    Silva-Morozov-Vejdemo-Johansson, "Dualities in persistent
    (co)homology", 2011): the coboundary of the chain the map below
    paired with it is a cocycle whose largest chain is that one, with
    coefficient +-1, so its row lies in the integer span of the rows
    before it.  Every other chain, in chain order, claims its largest
    coface, the pivot its row would install at (``_largest_coface``).  No
    two claim the same one, so no row takes an elimination step: the
    map's rank is the number of pairs, every pivot is a +-1 incidence,
    every invariant factor is 1, and the pairs are a Morse matching
    (Kozlov, *Combinatorial Algebraic Topology*, 2008, ch. 11).  A coface
    claimed twice raises AssertionError naming the host, the coface and
    both chains as partitions: no host the package builds has one."""
    up, down, pairs = host.up, host.down, {}
    for c, done in zip(chains, cleared):
        if not done:
            p = _largest_coface(up, down, cofaces, c)
            if p in pairs:
                coface, first, second = (
                    _chain_str(host.elements[k] for k in t)
                    for t in (cofaces[p], pairs[p], c))
                raise AssertionError(f"{host.name}: the coface {coface} is "
                                     f"claimed by {first} and by {second}")
            if p is not None:
                pairs[p] = c
    return pairs


# ---------------------------------------------------------------------------
# hosts
# ---------------------------------------------------------------------------

def _below_top(k, s, i):
    """Whether a weighted partition with k blocks and weight sum s lies
    below [n]^i: exactly when s <= i <= s + k - 1."""
    return s <= i <= s + k - 1


def refuse_weight(n, i):
    """ValueError unless [n]^i is a maximal element of the weighted poset
    on [n], 0 <= i <= n - 1: the one check on a top's weight, made before
    any work."""
    if not 0 <= i < n:
        raise ValueError(f"i must be in 0..{n - 1}, got {i}")


def interval_elements(n, i):
    """The elements of (0-hat, [n]^i), in the order of the weighted poset
    on [n]: those below [n]^i (``_below_top``), without the bottom and
    [n]^i; no order relation is read and no order complex is built.  An i
    outside 0..n-1 is refused with ValueError."""
    refuse_weight(n, i)
    P = pt.build_poset(n, pt.WEIGHTED)
    ends = {pt.bottom(n), (((1 << n) - 1, i),)}
    return [e for e in P.elements if e not in ends
            and _below_top(len(e), sum(w for _m, w in e), i)]


def interval_size(n, i):
    """len(interval_elements(n, i)) without building the poset: the
    partitions below [n]^i by type (``partitions.type_sums``), less the
    bottom and [n]^i, which at n = 1 are one element.  An i outside
    0..n-1 is refused with ValueError."""
    refuse_weight(n, i)
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
    j >= 1 to any y != 0-hat the proper part's, largest element y.  An i
    outside 0..n-1 is refused with ValueError."""
    if i is not None:
        refuse_weight(n, i)
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
    before any poset is built, and with ValueError before that when i is
    outside 0..n-1; a caller that needs it more than once holds on to
    it."""
    refuse_weight(n, i)
    name = f"(0,[{n}]^{i})"
    # past POSET_CAP_N build_poset refuses first, with no count paid for
    if n <= pt.POSET_CAP_N and chain_count(n, i) > CHAIN_COUNT_CAP:
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
    """Reduced Betti numbers {r: betti_r} and the nontrivial invariant
    factors of the top two boundary maps, in "torsion_nontrivial", top
    first.  Each map's rank is its number of pairs in the host's one pass
    (``OpenPoset.reductions``), whose +-1 pivots make every invariant
    factor 1, so each list of factors is empty; a pass that cannot pair
    every chain raises AssertionError instead."""
    by_dim = host.index_chains()
    top = max(by_dim)
    rank = host.reductions()
    betti = {r: len(by_dim[r]) - rank.get(r, 0) - rank.get(r + 1, 0)
             for r in sorted(by_dim)}
    return {
        "betti": betti,
        "top_dim": top,
        "torsion_nontrivial": {r: [] for r in range(top, max(top - 2, -1), -1)},
        "torsion_free_top": True,
    }


def _quotient_row(host, v):
    """The cycle-index columns of a top-dimensional ChainVector v,
    {j: <v, z_j>}; ValueError on a chain that is not a top chain.  Every
    chain the index holds is a top chain, so only a chain it misses is
    checked (``OpenPoset.top_key``)."""
    index = host.cycle_index()[0]
    local = host.index.get
    row = {}
    for c, coeff in v.items():
        entries = index.get(tuple(map(local, c)))
        if entries is None:
            host.top_key(c)
            continue
        it = iter(entries)
        for j, x in zip(it, it):
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
    cycle-index rows.  The rank does not depend on the order of the rows,
    so they are reduced sparsest first, which keeps the stored vectors
    short while the dense rows are cleared against them.  A chain that
    is not a top chain of host raises ValueError."""
    rows = sorted((_quotient_row(host, v) for v in vectors), key=len)
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
