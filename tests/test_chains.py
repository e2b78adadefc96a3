import pytest

from wpposet import chains as ch
from wpposet import partitions as pt
from wpposet import trees as tr

from poset_oracles import (ground_size, leq, members_mask, sort_blocks,
                           u_merge)
from tree_oracles import (alpha_of_forest, enumerate_rooted_forests,
                          linear_extensions, postorder_internal)

B, R = tr.BLUE, tr.RED


def nonsingleton_blocks(p):
    return {(tuple(pt.mask_members(m)), w) for m, w in p if m & (m - 1)}


def test_chain_of_small_tree():
    parts = ch.chain_partitions_of_tree((B, (R, 1, 2), 3))
    assert parts[0] == pt.bottom(3)
    assert nonsingleton_blocks(parts[1]) == {((1, 2), 1)}
    assert parts[2] == sort_blocks((((0b111), 1),))


def test_nine_leaf_bracket_chain():
    t = (R,
         (B, (R, (B, 3, 4), 6), (B, 1, 5)),
         (R, (R, (B, 2, 7), 9), 8))
    parts = ch.chain_partitions_of_tree(t)
    assert nonsingleton_blocks(parts[1]) == {((3, 4), 0)}
    assert nonsingleton_blocks(parts[2]) == {((3, 4, 6), 1)}
    assert nonsingleton_blocks(parts[3]) == {((3, 4, 6), 1), ((1, 5), 0)}
    # top: one block of all nine labels, weight = number of red nodes
    assert len(parts[-1]) == 1
    assert parts[-1][0][1] == tr.red_count(t)


def test_top_weight_is_red_count():
    for t in tr.enumerate_bicolored(4):
        parts = ch.chain_partitions_of_tree(t)
        assert len(parts) == 4
        assert parts[-1][0][1] == tr.red_count(t)


def tree_of_chain(parts):
    """Recover (t, tau) from a maximal chain given as partitions; the
    inverse of ch.chain_partitions_of_tree.

    The returned tau follows the chain's own merge order, so
    chain_partitions_of_tree(t, tau) reproduces the input exactly.
    """
    parts = tuple(parts)
    n = ground_size(parts[0])
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
    pos = {members_mask(tr.leaves(node)): k
           for k, (_p, node) in enumerate(postorder_internal(t))}
    tau = tuple(pos[m] for m in creation)
    return t, tau


def test_tree_of_chain_roundtrip_exhaustive():
    seen = set()
    for t in tr.enumerate_bicolored(4):
        for tau in linear_extensions(t):
            parts = ch.chain_partitions_of_tree(t, tau)
            seen.add(parts)
            t2, tau2 = tree_of_chain(parts)
            assert ch.chain_partitions_of_tree(t2, tau2) == parts
    # every maximal chain of [0-hat, [4]^i] arises this way
    P = pt.build_poset(4, pt.WEIGHTED)
    count = 0
    for i in range(4):
        top = sort_blocks((((1 << 4) - 1, i),))
        stack = [(P.index[pt.bottom(4)],)]
        while stack:
            c = stack.pop()
            if P.elements[c[-1]] == top:
                count += 1
                assert tuple(P.elements[k] for k in c) in seen
                continue
            for j in P.covers[c[-1]]:
                if leq(P.elements[j], top):
                    stack.append(c + (j,))
    assert count == 144


@pytest.mark.parametrize("t, tau, message", [
    ((B, 0, 1), None, "exactly"),  # a leaf below 1
    ((B, 1, 3), None, "exactly"),  # 2 is missing
    ((B, 1, 1), None, "exactly"),  # 1 twice
    ((B, (R, 1, 2), 2), None, "exactly"),  # 2 twice, in two subtrees
    ((B, (R, 1, 2), 3), (0, 0), "permute"),
    ((B, (R, 1, 2), 3), (1, 0), "linear extension"),
], ids=["leaf-below-1", "missing-label", "repeated-leaf",
        "repeated-across-subtrees", "tau-not-a-permutation",
        "tau-not-a-linear-extension"])
def test_chain_builder_rejects_bad_input(t, tau, message):
    with pytest.raises(ValueError, match=message):
        ch.chain_partitions_of_tree(t, tau)


def chain_by_u_merge(t, tau=None):
    """The chain of (t, tau) by naming the two child blocks of each
    internal node, in the order tau, and u-merging them."""
    nodes = [node for _path, node in postorder_internal(t)]
    chain = [pt.bottom(len(tr.leaves(t)))]
    for k in range(len(nodes)) if tau is None else tau:
        color, left, right = nodes[k]
        children = [members_mask(tr.leaves(s)) for s in (left, right)]
        chain.append(u_merge(chain[-1], children, int(color == R)))
    return tuple(chain)


def test_chain_matches_the_u_merge_oracle():
    for n in range(1, 6):
        for t in tr.enumerate_bicolored(n):
            assert ch.chain_partitions_of_tree(t) == chain_by_u_merge(t), t
            if tr.is_normalized(t):
                tau = tr.valency_decreasing_tau(t)
                assert (ch.chain_partitions_of_tree(t, tau)
                        == chain_by_u_merge(t, tau)), t


def test_alpha_of_forest():
    F = enumerate_rooted_forests(3)
    # partitions with all weights zero appear for descent-free forests
    alphas = {alpha_of_forest(f) for f in F}
    P = pt.build_poset(3, pt.WEIGHTED)
    assert alphas == set(P.elements)


def forest_partition(T, edge_subset):
    """alpha(T_E) by union-find: blocks are the components of T restricted
    to the edge subset, weighted by their descent (red-edge) counts."""
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
        mask = members_mask(members)
        w = sum(1 for c, p in keep if c < p and c in members)
        blocks.append((mask, w))
    return sort_blocks(tuple(blocks))


def test_pi_subposet_is_boolean():
    T = tr.enumerate_rooted_trees(range(1, 5))[0]
    table = ch.pi_subposet(T)
    assert len(table) == 2 ** 3
    assert len(set(table)) == 2 ** 3


def test_pi_subposet_matches_forest_partition():
    for n in range(1, 6):
        for T in tr.enumerate_rooted_trees(range(1, n + 1)):
            edges = T.parent
            assert ch.pi_subposet(T) == [
                forest_partition(T, [e for k, e in enumerate(edges) if E >> k & 1])
                for E in range(1 << len(edges))]


def test_pi_subposet_matches_the_u_merge_oracle():
    # the entry for E: the entry for E minus its lowest edge (c, p), the
    # blocks holding c and p named and u-merged
    for n in range(1, 6):
        for T in tr.enumerate_rooted_trees(range(1, n + 1)):
            table = [pt.bottom(n)]
            for E in range(1, 1 << len(T.parent)):
                low = E & -E
                c, p = T.parent[low.bit_length() - 1]
                below = table[E ^ low]
                named = [m for m, _v in below if m >> (c - 1) & 1
                         or m >> (p - 1) & 1]
                table.append(u_merge(below, named, int(c < p)))
            assert ch.pi_subposet(T) == table, T


def test_boolean_check_rejects_swapped_images():
    T = tr.RootedTree.from_parent_map(2, {1: 2, 3: 2, 4: 3})
    table = ch.pi_subposet(T)
    ch.check_boolean(4, table)
    # two atoms swapped is an automorphism of the boolean lattice; an atom
    # swapped with the top is not, nor is a repeated image
    table[1], table[-1] = table[-1], table[1]
    with pytest.raises(AssertionError, match="not boolean"):
        ch.check_boolean(4, table)
    table[1] = table[0]
    with pytest.raises(AssertionError, match="not injective"):
        ch.check_boolean(4, table)


def test_maximal_chains_of_pi_t():
    T = tr.enumerate_rooted_trees(range(1, 4))[0]
    chains = ch.maximal_chains_of_pi_t(T)
    assert len(chains) == 2  # 2! edge orders
    assert sorted(sign for _c, sign in chains) == [-1, 1]
    for c, _sign in chains:
        assert c[0] == pt.bottom(3)
        assert len(c[-1]) == 1
    T = tr.RootedTree.from_parent_map(2, {1: 2, 3: 2, 4: 3})
    chains = ch.maximal_chains_of_pi_t(T)
    assert len({c for c, _sign in chains}) == 6
    assert [sign for _c, sign in chains] == [1, -1, -1, 1, 1, -1]
    for c, _sign in chains:
        assert list(map(len, c)) == [4, 3, 2, 1]
        assert all(leq(a, b) for a, b in zip(c, c[1:]))


def test_forest_partition_weights():
    T = tr.RootedTree.from_parent_map(3, {1: 3, 2: 3})
    full = forest_partition(T, [(1, 3), (2, 3)])
    assert len(full) == 1
    assert full[0][1] == T.descent_count()
    empty = forest_partition(T, [])
    assert empty == pt.bottom(3)
