"""Seeded checks past the sizes the criteria enumerate: psi on rooted
trees on [10], [12] and [16], where no enumeration reaches, each drawn
from a fixed seed as a Prufer code and a root; and straightening on
bicolored trees on [7] and [8], past criterion 13's [5], each drawn by
its index.  A sample is not a proof, so no criterion reads these
sizes."""

import random

import pytest

from wpposet import linalg
from wpposet import straighten as st
from wpposet import trees as tr

from tree_oracles import is_liu_lyndon, orient, prufer_decode

TREES_PER_SIZE = 3000


def _drawn_trees(n, seed):
    rng = random.Random(seed)
    A = tuple(range(1, n + 1))
    for _ in range(TREES_PER_SIZE):
        adj = {x: [] for x in A}
        for u, v in prufer_decode(A, [rng.choice(A) for _ in range(n - 2)]):
            adj[u].append(v)
            adj[v].append(u)
        root = rng.choice(A)
        yield tr.RootedTree.from_parent_map(root, orient(adj, root))


@pytest.mark.parametrize("n, seed", [(10, 1), (12, 2), (16, 3)])
def test_psi_past_the_tree_cap(n, seed):
    assert n > tr.TREE_ENUM_CAP
    labels = tuple(range(1, n + 1))
    for T in _drawn_trees(n, seed):
        t = tr.psi(T)
        assert tr.psi_inverse(t) == T, T
        assert tr.red_count(t) == T.descent_count(), T
        assert tuple(sorted(tr.leaves(t))) == labels, T
        assert is_liu_lyndon(t), T


def _relations(t, side):
    # every swap relation of t and the relation of each offending node,
    # each a sum that straightens to zero on side
    for _path, node, wrap in tr.sites(t):
        col, l, r = node
        yield {t: 1, wrap((col, r, l)): -st.swap_sign(side, l, r)}
        if tr.is_offending(node):
            rel = {t: 1}
            for sub, coeff in st.rewrite_terms(node, side):
                linalg.vec_add(rel, {wrap(sub): 1}, -coeff)
            yield rel


# a tree's cost is heavy-tailed (a few ms for most, seconds for a rare
# one), so the seeds and counts are fixed: about 0.3 s in all
@pytest.mark.parametrize("n, seed, count", [(7, 1, 10), (8, 2, 5)])
def test_straightening_past_criterion_13(monkeypatch, n, seed, count):
    rng = random.Random(seed)
    total = tr.bicolored_count(n)
    for _ in range(count):
        t = tr.bicolored_at(n, rng.randrange(total))
        # each tree starts from empty memos, none of which outlives it
        monkeypatch.setattr(st, "_memo", {})
        monkeypatch.setattr(st, "_phi", {})
        for side in (st.COHOMOLOGY, st.LIE2):
            assert all(tr.is_comb(c) for c in st.straighten(t, side)), t
            for rel in _relations(t, side):
                assert not st.straighten_sum(rel, side), (side, rel)
        assert all(tr.is_comb(c) and c[0] == tr.BLUE
                   for c in st.straighten(t, st.FULL)), t
