"""Exact (co)homology of order complexes of open subposets.

An open poset is a subset of the weighted partition poset on [n]; its
order is read from that poset's covers.  Inside this module a chain of
the order complex is one integer: its local indices packed, the first
most significant, in the host's width of bits each (``OpenPoset``).  A
dimension's chains are one typed array in numeric order, which is the
lexicographic order of their index tuples, and a coboundary map is
reduced over the positions of the chains in that array; in the
ChainVectors the module takes (``coboundary_member``,
``rank_in_top_quotient``) and gives (``chain_vector_of_tree``,
``fundamental_cycle``) a chain is the tuple of partitions its indices
stand for.  The empty chain, packed to 0, generates the degree -1 part
of the reduced complex.  A ChainVector is a sparse dict mapping chains
to integers.  Everything is computed over the integers.  One pass over
the coboundary maps, bottom dimension first, reduces each once, with
clearing; each is the transpose of a boundary map, so it gives that
map's rank.  A coboundary is read straight off the host's up and down
bitsets, so no row is stored: each chain the map below did not clear is
paired with its largest coface, an acyclic matching with +-1
incidences, so every invariant factor is 1.  A coface claimed twice is
a witness against that certificate, not a case to reduce another way:
it raises AssertionError naming the host, the coface and both chains.
Each map's pairs are one array over its cofaces, which the next map
reads as its cleared chains; the top map's is kept.  The host's one
form of its top cycle basis, the cycle index, from which quotient ranks
and coboundary membership are read, is one list aligned with the top
chains' array, solved on its first read off the top map's pairs.
Nothing here keeps a host: it lives, with its chains, ranks and cycle
index, as long as its caller holds it; one past CHAIN_COUNT_CAP, or
whose longest chain does not pack into 63 bits, is refused before its
poset is built, on its ``chain_counts`` (``_refuse_host``).
Membership is a yes/no answer, with no witness cochain.  The
fundamental cycle of the boolean subposet Pi_T of a rooted tree needs no
host and no kernel: it is a signed sum of the maximal chains of Pi_T,
written down directly; that such a sum is a cycle is checked once per
edge count, on the edge bitmasks.  The Whitney cohomology ranks are read
off the Mobius function, in ``partitions``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from math import comb

from . import chains as ch
from . import linalg
from . import partitions as pt
from . import trees as tr

CHAIN_COUNT_CAP = 2_000_000
BATCH = 16_384  # the chains index_chains extends at a time
# the bits of a packed chain: one signed 64-bit array item
KEY_BITS = 63


def _width(size):
    """The bits of one local index of a host with size elements."""
    return max(1, (size - 1).bit_length())


def _pack(key, bits):
    """The tuple of local indices key as one integer, bits bits an index,
    the first most significant."""
    c = 0
    for k in key:
        c = c << bits | k
    return c


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
    one, so local indices are a linear extension of the order.  A chain
    of the order complex is one integer, its local indices packed ``bits``
    bits each, the first most significant (``unpack`` reads them back);
    the chains of each dimension are one ``array('q')``, ascending, which
    orders them as their index tuples, and so as their tuples of
    partitions, since local indices follow the sorted elements.  Chains of
    different dimensions may pack alike (a leading index 0 adds no bits),
    so a packed chain is read only with its dimension.  The host stores
    the rank of each boundary map (``reductions``) and one form of its top
    cycle basis, the cycle index (``cycle_index``), a list aligned with
    the top chains' array, both from one pass over its coboundary maps.
    """

    def __init__(self, name, P, keep):
        self.name = name
        self.elements = sorted(keep)
        self.index = {e: k for k, e in enumerate(self.elements)}
        self.bits = _width(len(self.elements))
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
        """dict r -> array('q') of the packed r-chains, ascending; r = -1
        is the empty chain, 0.  Each chain is extended by the elements
        above its last one, in index order, BATCH chains at a time; the
        chain cap and the width were checked before the host was made
        (``_refuse_host``)."""
        if self._index_chains is None:
            above = [pt.bits(u) for u in self.up]
            bits, last = self.bits, (1 << self.bits) - 1
            by_dim = {-1: array("q", [0])}
            frontier = array("q", range(len(above)))
            r = 0
            while frontier:
                by_dim[r] = done = frontier
                frontier = array("q")
                for k in range(0, len(done), BATCH):
                    frontier.extend([c << bits | j for c in done[k:k + BATCH]
                                     for j in above[c & last]])
                r += 1
            self._index_chains = by_dim
        return self._index_chains

    @property
    def top_dim(self):
        return max(self.index_chains())

    def unpack(self, c, r):
        """The local indices of the packed r-chain c, first to last."""
        bits, last = self.bits, (1 << self.bits) - 1
        return tuple(c >> bits * k & last for k in range(r, -1, -1))

    def reductions(self):
        """{r: rank} of each boundary map d_r: C_r -> C_{r-1}, r >= 0, the
        number of pairs of one bottom-up pass over the coboundary maps
        (``_pair``), computed once; AssertionError where a coface is
        claimed twice.  Each map reads the pairs of the map below as its
        cleared chains; the top map's pairs are kept for the cycle
        index."""
        if self._reductions is None:
            by_dim = self.index_chains()
            reductions = {}
            # no map below pairs the empty chain
            pairs = bytes(1)
            for r in range(-1, max(by_dim)):
                pairs = _pair(self, by_dim[r], by_dim[r + 1], pairs, r)
                reductions[r + 1] = len(pairs) - pairs.count(0)
            self._reductions, self._top_pairs = reductions, pairs
        return self._reductions

    def cycle_index(self):
        """(z, count): an integer basis z_0 .. z_{count-1} of the top
        cycles, stored by chain in the order of ``index_chains()[top_dim]``:
        z[p] is the flat tuple (j, z_j[c], j', z_j'[c], ...) over the z_j
        whose support holds c, the top chain at position p, and () when
        none does.  Solved on the first read, off the top map's pairs that
        ``reductions`` kept, which are then dropped."""
        if self._cycles is None:
            self.reductions()
            self._cycles = _cycle_index(self, self._top_pairs)
            self._top_pairs = None
        return self._cycles


def _cycle_index(host, pairs):
    """(z, count) of ``OpenPoset.cycle_index`` for the top chains of
    host, solved off pairs, the top coboundary map's pairs (``_pair``):
    the row pivoted at p is the coboundary of the chain paired with p,
    built once, when p is reached.  A top cycle is orthogonal to every
    coboundary row, and these rows span them all.

    One pass in chain order: a chain no row is pivoted at is free, and
    the k-th free chain gets z_j = 1 there, j = count - 1 - k: the
    columns count down, so a quotient row's largest key, the one
    ``linalg.Echelon`` pivots on, is its earliest free chain.  At the
    pivot p of a row s, z[p] = -s[p] * sum of s[k] z[k] over its other
    keys k, each an earlier chain, since s[p] is +-1; z[k]'s flat tuple
    is read in (j, value) pairs by ``zip(it, it)`` over one iterator.
    Each z_j is 0 on every other free chain, so they are independent."""
    up, down, bits = host.up, host.down, host.bits
    by_dim = host.index_chains()
    top = max(by_dim)
    chains, faces = by_dim[top], by_dim.get(top - 1)
    count = pairs.count(0)
    z, free = [], 0
    for p, partner in enumerate(pairs):
        if not partner:
            z.append((count - 1 - free, 1))
            free += 1
            continue
        s = _coboundary(up, down, bits, chains, faces[partner - 1], top - 1)
        d = -s.pop(p)
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
    return z, count


def _gaps(up, down, bits, c, r):
    """The elements that extend the packed r-chain c, as (g, mask) for
    each gap g they fill, top gap first: at g = r + 1 those above its last
    element, at 0 < g <= r those strictly between its elements g - 1 and
    g, at g = 0 those below its first; every element when c is empty.
    Elements are read off c from the last by shift and mask.  The one
    face scan: each coface of c is c with one element inserted at its
    gap."""
    if r < 0:
        if up:
            yield 0, (1 << len(up)) - 1
        return
    last = (1 << bits) - 1
    above = c & last
    mask = up[above]
    if mask:
        yield r + 1, mask
    for g in range(r, 0, -1):
        c >>= bits
        below = c & last
        mask = up[below] & down[above]
        if mask:
            yield g, mask
        above = below
    mask = down[above]
    if mask:
        yield 0, mask


def _coboundary(up, down, bits, cofaces, c, r):
    """The coboundary of the packed r-chain c, {position: sign} over the
    positions of its cofaces in cofaces, their dimension's array: x
    inserted at gap g (``_gaps``) gives the coface that splits c below its
    g-th element, with sign (-1)^g, the sign of c as its face at position
    g.  Local indices are a linear extension, so x is less than the
    element it precedes, and a coface at a lower gap is the lesser chain:
    the cofaces come in chain order, gap by gap from the bottom and
    element by element, largest last, and each is found by bisect past
    the one before."""
    row, lo = {}, 0
    for g, mask in reversed(list(_gaps(up, down, bits, c, r))):
        sign = -1 if g & 1 else 1
        s = bits * (r + 1 - g)
        head, tail = c >> s << bits, c & ((1 << s) - 1)
        for x in pt.bits(mask):
            lo = bisect_left(cofaces, (head | x) << s | tail, lo)
            row[lo] = sign
            lo += 1
    return row


def _largest_coface(up, down, bits, cofaces, c, r):
    """The position in cofaces of the largest coface of the packed
    r-chain c, the last key of its coboundary: the greatest element of its
    top nonempty gap, inserted there; None when c is a maximal chain."""
    for g, mask in _gaps(up, down, bits, c, r):
        s = bits * (r + 1 - g)
        return bisect_left(cofaces, ((c >> s << bits | mask.bit_length() - 1)
                                     << s | c & ((1 << s) - 1)))
    return None


def _pair(host, chains, cofaces, cleared, r):
    """The pairs of the coboundary map from the r-chains chains to
    cofaces, the transpose of a boundary map, as an array('q') over the
    cofaces: 1 + the position of its partner in chains, or 0 where a
    coface is unpaired.  Each chain that the map below did not clear is
    paired with its largest coface; cleared is the map below's array, or
    any sequence as long as chains, nonzero at each chain it paired.

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
    up, down, bits = host.up, host.down, host.bits
    pairs = array("q", [0]) * len(cofaces)
    for k, (c, done) in enumerate(zip(chains, cleared), 1):
        if not done:
            p = _largest_coface(up, down, bits, cofaces, c, r)
            if p is None:
                continue
            if pairs[p]:
                coface, first, second = (
                    pt.chain_str(host.elements[j] for j in host.unpack(t, d))
                    for t, d in ((cofaces[p], r + 1),
                                 (chains[pairs[p] - 1], r), (c, r)))
                raise AssertionError(f"{host.name}: the coface {coface} is "
                                     f"claimed by {first} and by {second}")
            pairs[p] = k
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
    ends = {pt.bottom(n), pt.one_block(n, i)}
    return [e for e in P.elements if e not in ends
            and _below_top(len(e), sum(w for _m, w in e), i)]


def chain_counts(n, i=None):
    """[c_0, c_1, ...]: c_k is the number of chains with k elements of
    (0-hat, [n]^i), or of the proper part when i is None, counted on block
    types, up to the longest; c_0 = 1 is the empty chain and c_1 the
    elements.  Z_y(m), the multichains 0-hat = x_0 <= ... <= x_m = y, is
    the product of Z_[|B|]^w(m) over the blocks B^w of y (Stanley, EC1
    3.12), and Z_[b]^w(m) sums Z_z(m-1) over the z below [b]^w.  The
    strict chains of length j from 0-hat to y number sum_m (-1)^(j-m)
    C(j, m) Z_y(m): those to [n]^i have j - 1 elements inside the open
    interval, those to any y != 0-hat j elements of the proper part,
    largest element y.  No cap applies; an i outside 0..n-1 is refused
    with ValueError."""
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
    return [1] + [sum((-1) ** (j - m) * comb(j, m) * z[m]
                      for m in range(1, j + 1)) for j in range(first, n)]


def _refuse_host(name, n, i=None):
    """ResourceCapError for the host ``name``, (0-hat, [n]^i) or the
    proper part when i is None, before its poset is built: past the
    partition cap (``partitions.refuse_partitions``), then, read off its
    ``chain_counts`` c, with more than CHAIN_COUNT_CAP chains, or when a
    longest chain, len(c) - 1 indices of an element among c_1, does not
    pack into KEY_BITS bits at the host's width (``OpenPoset``)."""
    pt.refuse_partitions(n)
    c = chain_counts(n, i)
    if sum(c) > CHAIN_COUNT_CAP:
        raise pt.ResourceCapError(f"chains of {name}", CHAIN_COUNT_CAP)
    # an empty host, c == [1], packs only the empty chain
    if len(c) > 1 and _width(c[1]) * (len(c) - 1) > KEY_BITS:
        raise pt.ResourceCapError(f"bits of a packed chain of {name}",
                                  KEY_BITS)


def open_interval(n, i):
    """(0-hat, [n]^i) as a new OpenPoset, refused with ValueError when i
    is outside 0..n-1, then by ``_refuse_host``, before any poset is
    built; a caller that needs it more than once holds on to it."""
    refuse_weight(n, i)
    name = f"(0,[{n}]^{i})"
    _refuse_host(name, n, i)
    return OpenPoset(name, pt.build_poset(n, pt.WEIGHTED),
                     interval_elements(n, i))


def proper_part(n):
    """Pi_n^w minus its bottom, as a new OpenPoset, refused by
    ``_refuse_host`` before any poset is built; a caller that needs it
    more than once holds on to it."""
    name = f"Pi_{n}^w - 0"
    _refuse_host(name, n)
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
    {j: <v, z_j>}.  Each chain is found by bisect among the host's top
    chains, with its cycle-index entry at the same position; they are
    every chain of the top length, so a miss is not a top chain and
    raises ValueError.  Only a tuple of the top length with every element
    in the host is packed: a shorter one may pack to a top chain's key."""
    z, top = host.cycle_index()[0], host.top_dim
    chains, local, bits = host.index_chains()[top], host.index.get, host.bits
    row = {}
    for c, coeff in v.items():
        key = tuple(map(local, c))
        packed = (_pack(key, bits)
                  if len(key) == top + 1 and None not in key else -1)
        p = bisect_left(chains, packed)
        if p == len(chains) or chains[p] != packed:
            raise ValueError(f"{pt.chain_str(c)} is not a top chain of "
                             f"{host.name}")
        it = iter(z[p])
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
