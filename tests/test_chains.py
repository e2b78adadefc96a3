import pytest

from wpposet import chains as ch
from wpposet import partitions as pt
from wpposet import trees as tr

B, R = tr.BLUE, tr.RED


def nonsingleton_blocks(p):
    return {(tuple(pt.mask_members(m)), w) for m, w in p if m & (m - 1)}


def test_chain_of_small_tree():
    parts = ch.chain_partitions_of_tree((B, (R, 1, 2), 3))
    assert parts[0] == pt.bottom(3)
    assert nonsingleton_blocks(parts[1]) == {((1, 2), 1)}
    assert parts[2] == pt.sort_blocks((((0b111), 1),))


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


def test_tree_of_chain_roundtrip_exhaustive():
    seen = set()
    for t in tr.enumerate_bicolored(4):
        for tau in tr.linear_extensions(t):
            parts = ch.chain_partitions_of_tree(t, tau)
            seen.add(parts)
            t2, tau2 = ch.tree_of_chain(parts)
            assert ch.chain_partitions_of_tree(t2, tau2) == parts
    # every maximal chain of [0-hat, [4]^i] arises this way
    P = pt.build_poset(4, pt.WEIGHTED)
    count = 0
    for i in range(4):
        top = pt.sort_blocks((((1 << 4) - 1, i),))
        stack = [(P.index[pt.bottom(4)],)]
        while stack:
            c = stack.pop()
            if P.elements[c[-1]] == top:
                count += 1
                assert tuple(P.elements[k] for k in c) in seen
                continue
            for j in P.covers[c[-1]]:
                if pt.leq(P.elements[j], top):
                    stack.append(c + (j,))
    assert count == 144


def test_u_merge_validates():
    p = pt.bottom(3)
    with pytest.raises(ValueError):
        ch.u_merge(p, [0b001, 0b010], 2)  # u too large for two blocks


def test_alpha_of_forest():
    F = tr.enumerate_rooted_forests(3)
    # partitions with all weights zero appear for descent-free forests
    alphas = {ch.alpha_of_forest(f) for f in F}
    P = pt.build_poset(3, pt.WEIGHTED)
    assert alphas == set(P.elements)


def test_pi_subposet_is_boolean():
    T = tr.enumerate_rooted_trees(range(1, 5))[0]
    elems, mapping = ch.pi_subposet(T)
    assert len(elems) == 2 ** 3
    assert len(mapping) == 2 ** 3


def test_maximal_chains_of_pi_t():
    T = tr.enumerate_rooted_trees(range(1, 4))[0]
    chains = ch.maximal_chains_of_pi_t(T)
    assert len(chains) == 2  # 2! edge orders
    for c in chains:
        assert c[0] == pt.bottom(3)
        assert len(c[-1]) == 1


def test_forest_partition_weights():
    T = tr.RootedTree.from_parent_map(3, {1: 3, 2: 3})
    full = ch.forest_partition(T, [(1, 3), (2, 3)])
    assert len(full) == 1
    assert full[0][1] == T.descent_count()
    empty = ch.forest_partition(T, [])
    assert empty == pt.bottom(3)
