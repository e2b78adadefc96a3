"""Chains of the weighted partition poset built from trees.

A bicolored binary tree together with a linear extension of its internal
nodes determines a maximal chain of [0-hat, [n]^i]: walk the extension
and at each step merge the blocks carried by the two child subtrees
(``partitions.merge``), their weights summed plus u, with u = 0 for a
blue node and u = 1 for a red one.  The leaf masks of those blocks are
carried up one postorder pass, and each block's position is counted off
the least leaves of the blocks before it.

A rooted tree T on [n] spans the boolean subposet Pi_T of the weighted
partition poset: one element alpha(T_E) per subset E of its edges.
``pi_subposet`` builds it as a table indexed by edge bitmask, one block
merge per entry, and checks that it embeds the boolean lattice;
``maximal_chains_of_pi_t`` reads one signed maximal chain per ordering
of the edges off that table, and ``edge_orders_form_a_cycle`` checks,
once per edge count and on the bitmasks, that their signed sum has zero
boundary.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import partitions as pt
from . import trees as tr


def chain_partitions_of_tree(t, tau=None):
    """The chain of weighted partitions determined by (t, tau), bottom
    included, as a tuple of partitions.  tau is a sequence of postorder
    indices of the internal nodes and defaults to the identity.

    One postorder pass records, per internal node, whether it is red and
    the least leaf (a one-bit mask) and leaf mask of each child, the
    child with the lesser least leaf first.  The chain keeps the bitmask
    mins of its current blocks' least leaves; the blocks are sorted by
    least leaf, so the block whose least leaf is a sits at position
    (mins & (a - 1)).bit_count().  Each step finds the two children's
    blocks that way, checks that they are the children's whole leaf
    sets, which holds for every node exactly when tau lists each node
    after its children, merges them and clears the greater least leaf
    from mins."""
    nodes = []  # (red, least leaf, leaf mask, and the same of the other)

    def walk(s):
        """The leaf mask of s."""
        if isinstance(s, int):  # a leaf (``trees.is_leaf``), tested inline
            if s < 1:
                raise ValueError("tree leaves must be exactly [n]")
            return 1 << (s - 1)
        lmask = walk(s[1])
        rmask = walk(s[2])
        if lmask & rmask:
            raise ValueError("tree leaves must be exactly [n]")
        a, b, red = lmask & -lmask, rmask & -rmask, int(s[0] == tr.RED)
        nodes.append((red, a, lmask, b, rmask) if a < b
                     else (red, b, rmask, a, lmask))
        return lmask | rmask

    full = walk(t)
    n = full.bit_length()
    if full != (1 << n) - 1:
        raise ValueError("tree leaves must be exactly [n]")
    if tau is None:
        tau = range(len(nodes))
    elif sorted(tau) != list(range(len(nodes))):
        raise ValueError("tau must permute the internal nodes")
    mins = full  # every leaf is the least leaf of its singleton block
    chain = [pt.bottom(n)]
    for k in tau:
        red, a, amask, b, bmask = nodes[k]
        i, j = (mins & (a - 1)).bit_count(), (mins & (b - 1)).bit_count()
        p = chain[-1]
        if p[i][0] != amask or p[j][0] != bmask:
            raise ValueError("tau is not a linear extension")
        chain.append(pt.merge(p, i, j, p[i][1] + p[j][1] + red))
        mins ^= b
    return tuple(chain)


# ---------------------------------------------------------------------------
# the boolean subposets Pi_T
# ---------------------------------------------------------------------------

def pi_subposet(T):
    """alpha(T_E) for every edge subset E of T, as a list indexed by the
    bitmask of E over ``T.parent``.  T must be a tree on [n].

    The entry for E is the entry for E minus its lowest edge (c, p) with
    the blocks of c and p merged (``partitions.merge``), their weights
    summed plus (c < p): a component's weight is its count of descent
    (red) edges.  The table is checked to be the boolean lattice of edge
    subsets, embedded in Pi_n^w (``check_boolean``).
    """
    n = len(T.labels)
    if T.labels != frozenset(range(1, n + 1)):
        raise ValueError("pi_subposet needs a tree on [n]")
    table = [pt.bottom(n)]
    for E in range(1, 1 << len(T.parent)):
        low = E & -E
        c, p = T.parent[low.bit_length() - 1]
        ends = 1 << (c - 1) | 1 << (p - 1)
        below = table[E ^ low]
        i, j = (k for k, (m, _v) in enumerate(below) if m & ends)
        table.append(pt.merge(below, i, j,
                              below[i][1] + below[j][1] + int(c < p)))
    check_boolean(n, table)
    return table


def check_boolean(n, table):
    """AssertionError unless E -> table[E] is injective and an order
    embedding of the boolean lattice of bitmasks into Pi_n^w: for every E
    the elements of the image below table[E], read from the down-set
    bitsets of Pi_n^w, are exactly the images of the subsets of E, whose
    union is built by a pass over the masks in increasing order."""
    P = pt.build_poset(n, pt.WEIGHTED)
    down = P.down_sets()
    at = [P.index[a] for a in table]
    if len(set(at)) != len(at):
        raise AssertionError("alpha(T_E) is not injective")
    image = sum(1 << k for k in at)
    below = []
    for E, k in enumerate(at):
        acc, rest = 1 << k, E
        while rest:
            low = rest & -rest
            acc |= below[E ^ low]
            rest ^= low
        if down[k] & image != acc:
            raise AssertionError("Pi_T is not boolean under inclusion")
        below.append(acc)


@lru_cache(maxsize=None)
def edge_orders_form_a_cycle(m):
    """Whether the signed sum of the mask chains of ``_edge_orders(m)``,
    the empty and the full mask dropped, has zero boundary.  Checked once
    per edge count m: the table of ``pi_subposet`` is injective
    (``check_boolean``), so it maps this sum onto the signed sum of the
    maximal chains of any Pi_T with m edges, and the boundary of one onto
    the boundary of the other."""
    out = {}
    for masks, sign in _edge_orders(m):
        inner = masks[1:-1]
        for i in range(len(inner)):
            face = inner[:i] + inner[i + 1:]
            out[face] = out.get(face, 0) + (-sign if i & 1 else sign)
    return not any(out.values())


@lru_cache(maxsize=None)
def _edge_orders(m):
    """One (masks, sign) pair per ordering of m edges, in
    ``itertools.permutations`` order: the bitmasks of its first 0..m
    edges and the sign of the ordering as a permutation."""
    out = []
    for perm in itertools.permutations(range(m)):
        masks = [0]
        for k in perm:
            masks.append(masks[-1] | 1 << k)
        inversions = sum(a > b for j, a in enumerate(perm) for b in perm[j + 1:])
        out.append((tuple(masks), -1 if inversions & 1 else 1))
    return tuple(out)


def maximal_chains_of_pi_t(T):
    """Every maximal chain of Pi_T, bottom and top included, with its
    sign: one (chain, sign) pair per ordering of T's edges, the chain
    adding them one at a time in that order."""
    table = pi_subposet(T)
    return [(tuple(map(table.__getitem__, masks)), sign)
            for masks, sign in _edge_orders(len(T.parent))]
