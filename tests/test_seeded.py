"""Seeded checks of psi past the tree cap: rooted trees on [10], [12] and
[16], where no enumeration reaches, each drawn from a fixed seed as a
Prufer code and a root.  A sample is not a proof, so no criterion reads
these sizes."""

import random

import pytest

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
