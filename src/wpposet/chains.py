"""Chains of the weighted partition poset built from trees and forests.

A bicolored binary tree together with a linear extension of its internal
nodes determines a maximal chain of [0-hat, [n]^i]: walk the extension
and at each step u-merge the blocks carried by the two child subtrees,
with u = 0 for a blue node and u = 1 for a red one.
"""

from __future__ import annotations

from . import partitions as pt
from . import trees as tr


def u_of_color(color):
    return 0 if color == tr.BLUE else 1


def u_merge(p, block_masks, u):
    """Replace the named blocks of p by their union with weight sum+u."""
    if not 0 <= u <= len(block_masks) - 1:
        raise ValueError(f"u={u} out of range for {len(block_masks)} blocks")
    chosen = [b for b in p if b[0] in set(block_masks)]
    if len(chosen) != len(block_masks):
        raise ValueError("some blocks are absent from the partition")
    rest = tuple(b for b in p if b[0] not in set(block_masks))
    mask = 0
    total = 0
    for m, v in chosen:
        mask |= m
        total += v
    return pt.sort_blocks(rest + ((mask, total + u),))


def chain_partitions_of_tree(t, tau=None):
    """The chain of weighted partitions determined by (t, tau), bottom
    included, as a tuple of partitions.  tau defaults to the identity."""
    n = max(tr.leaves(t))
    if set(tr.leaves(t)) != set(range(1, n + 1)):
        raise ValueError("tree leaves must be exactly [n]")
    nodes = tr.postorder_internal(t)
    if tau is None:
        tau = tr.identity_extension(t)
    if sorted(tau) != list(range(len(nodes))):
        raise ValueError("tau must permute the internal nodes")
    merged = set()
    chain = [pt.bottom(n)]
    for k in tau:
        path, node = nodes[k]
        if not all(tr.is_leaf(c) or (path + (s,)) in merged
                   for s, c in (("L", node[1]), ("R", node[2]))):
            raise ValueError("tau is not a linear extension")
        merged.add(path)
        lmask = pt.members_mask(tr.leaves(node[1]))
        rmask = pt.members_mask(tr.leaves(node[2]))
        chain.append(u_merge(chain[-1], [lmask, rmask], u_of_color(node[0])))
    return tuple(chain)


def tree_of_chain(parts):
    """Recover (t, tau) from a maximal chain given as partitions.

    The returned tau follows the chain's own merge order, so
    chain_partitions_of_tree(t, tau) reproduces the input exactly.
    """
    parts = tuple(parts)
    n = pt.ground_size(parts[0])
    if parts[0] != pt.bottom(n) or len(parts) != n or len(parts[-1]) != 1:
        raise ValueError("not a maximal chain of [0-hat, [n]^i]")
    subtree = {1 << (a - 1): a for a in range(1, n + 1)}
    creation = []
    for a, b in zip(parts, parts[1:]):
        new = set(b) - set(a)
        gone = set(a) - set(b)
        if len(new) != 1 or len(gone) != 2:
            raise ValueError("consecutive elements are not a cover")
        ((m, v),) = new
        (m1, v1), (m2, v2) = gone
        if m1 | m2 != m or m1 & m2:
            raise ValueError("consecutive elements are not a cover")
        u = v - (v1 + v2)
        if u not in (0, 1):
            raise ValueError("weight increment out of range")
        if pt.mask_min(m1) > pt.mask_min(m2):
            m1, m2 = m2, m1
        color = tr.BLUE if u == 0 else tr.RED
        subtree[m] = (color, subtree.pop(m1), subtree.pop(m2))
        creation.append(m)
    (t,) = subtree.values()
    pos = {pt.members_mask(tr.leaves(node)): k
           for k, (_p, node) in enumerate(tr.postorder_internal(t))}
    tau = tuple(pos[m] for m in creation)
    return t, tau


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------

def alpha_of_forest(F):
    """The weighted partition of a rooted forest: one block per tree,
    weighted by its descent count."""
    blocks = tuple((pt.members_mask(sorted(T.labels)), T.descent_count())
                   for T in F)
    return pt.sort_blocks(blocks)


# ---------------------------------------------------------------------------
# the boolean subposets Pi_T
# ---------------------------------------------------------------------------

def forest_partition(T, edge_subset):
    """alpha(T_E): blocks are the components of T restricted to the edge
    subset, weighted by their descent (red-edge) counts."""
    keep = set(edge_subset)
    comp = {x: x for x in T.labels}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for c, p in keep:
        comp[find(c)] = find(p)
    groups = {}
    for x in T.labels:
        groups.setdefault(find(x), []).append(x)
    blocks = []
    for members in groups.values():
        mask = pt.members_mask(members)
        w = sum(1 for c, p in keep if c < p and c in members)
        blocks.append((mask, w))
    return pt.sort_blocks(tuple(blocks))


def pi_subposet(T):
    """The induced subposet Pi_T of Pi_n^w on {alpha(T_E) : E subsets of
    E(T)}, with the embedding dict frozenset(E) -> partition.

    Verifies explicitly that E -> alpha(T_E) is an order isomorphism from
    the boolean lattice of edge subsets, reading the order of every pair
    from the down-set bitsets of Pi_n^w.  T must be a tree on [n].
    """
    import itertools
    n = len(T.labels)
    if T.labels != frozenset(range(1, n + 1)):
        raise ValueError("pi_subposet needs a tree on [n]")
    edges = [(c, p) for c, p in T.parent]
    mapping = {}
    for k in range(len(edges) + 1):
        for E in itertools.combinations(edges, k):
            mapping[frozenset(E)] = forest_partition(T, E)
    elems = list(mapping.values())
    if len(set(elems)) != len(elems):
        raise AssertionError("alpha(T_E) is not injective")
    P = pt.build_poset(n, pt.WEIGHTED)
    down = P.down_sets()
    at = [(E, P.index[a]) for E, a in mapping.items()]
    for E1, k1 in at:
        for E2, k2 in at:
            if (E1 <= E2) != bool(down[k2] >> k1 & 1):
                raise AssertionError("Pi_T is not boolean under inclusion")
    return sorted(set(elems), key=lambda p: (pt.ground_size(p) - len(p), p)), mapping


def maximal_chains_of_pi_t(T):
    """All maximal chains of Pi_T (each adds one edge at a time)."""
    import itertools
    edges = [(c, p) for c, p in T.parent]
    chains = []
    for perm in itertools.permutations(edges):
        chain = [forest_partition(T, perm[:k]) for k in range(len(edges) + 1)]
        chains.append(tuple(chain))
    return chains
