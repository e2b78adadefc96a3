import gc
import hashlib
import importlib
import itertools
import json
import pkgutil
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import wpposet
from wpposet import ResourceCapError
from wpposet import acceptance
from wpposet import cli
from wpposet import homology as hm
from wpposet import partitions as pt
from wpposet import straighten as sn
from wpposet import trees as tr

from tree_oracles import (enumerate_normalized, enumerate_rooted_forests,
                          is_liu_lyndon, is_lyndon, is_lyndon_node,
                          linear_extensions, liu_leq, liu_reachability,
                          normalized_uncolored, orient, postorder_internal,
                          recursive_valency, replace_at, tree_sign,
                          unrooted_trees)
from tree_oracles import liu_linear_extension as liu_order
from tree_oracles import enumerate_bicolored as bicolored_by_shape
from tree_oracles import normalize_signed as normalize_by_definition

B, R = tr.BLUE, tr.RED


@st.composite
def bicolored(draw, max_n=5):
    # a uniform index into enumerate_bicolored(n), unranked without the list
    n = draw(st.integers(2, max_n))
    return tr.bicolored_at(n, draw(st.integers(0, tr.bicolored_count(n) - 1)))


def test_enumeration_counts_frozen():
    # |BT_n| = n! * Catalan(n-1) * 2^(n-1)
    assert len(tr.enumerate_bicolored(2)) == 4
    assert len(tr.enumerate_bicolored(3)) == 48
    assert len(tr.enumerate_bicolored(4)) == 960
    assert len(enumerate_normalized(3)) == 12


def test_family_totals_are_tree_counts():
    for n in range(1, 6):
        for fam in ("comb", "lyndon", "liu"):
            assert len(tr.enumerate_family(fam, n)) == n ** (n - 1)


def test_family_per_i_frozen():
    per_i = [len(tr.enumerate_family("comb", 4, i)) for i in range(4)]
    assert per_i == [6, 26, 26, 6]
    assert [len(tr.enumerate_family("lyndon", 4, i)) for i in range(4)] == per_i
    assert [len(tr.enumerate_family("liu", 4, i)) for i in range(4)] == per_i


def test_family_direct_matches_filter():
    # brute force through the family predicates; Liu-Lyndon trees need not
    # be min-leaf normalized, so they are filtered from the full set
    preds = {"comb": tr.is_comb, "lyndon": is_lyndon,
             "liu": is_liu_lyndon}
    for n in range(1, 6):
        for fam in ("comb", "lyndon", "liu"):
            pool = (tr.enumerate_bicolored(n) if fam == "liu"
                    else enumerate_normalized(n))
            filtered = {t for t in pool if preds[fam](t)}
            assert set(tr.enumerate_family(fam, n)) == filtered


def test_family_by_red_count_matches_filter():
    for n in range(1, 7):
        for fam in ("comb", "lyndon", "liu"):
            trees = tr.enumerate_family(fam, n)
            for i in range(-1, n + 1):
                assert tr.enumerate_family(fam, n, i) == \
                    [t for t in trees if tr.red_count(t) == i], (fam, n, i)


FAMILIES = ("comb", "lyndon", "liu")


@pytest.mark.parametrize("fam", FAMILIES)
def test_family_edge_cases(fam):
    assert tr.enumerate_family(fam, 0) == []
    assert tr.enumerate_family(fam, 0, 0) == []
    assert tr.enumerate_family(fam, ()) == []
    assert tr.enumerate_family(fam, 1) == [1]
    assert tr.enumerate_family(fam, 1, 0) == [1]
    assert tr.enumerate_family(fam, (300,)) == [300]
    assert tr.enumerate_family(fam, (300,), 0) == [300]


def test_family_groups_match_their_trees():
    # every label set within [6], [6] included: each tree in group
    # (sig, k) has red count k and the sig its family's rule reads of it
    def colour(t):
        return None if tr.is_leaf(t) else t[0]

    def right(f, t):
        return None if tr.is_leaf(t) else f(t[2])

    sig_of = {
        "comb": colour,
        "lyndon": lambda t: (right(tr.min_leaf, t), colour(t)),
        "liu": lambda t: (recursive_valency(t),
                          right(recursive_valency, t), colour(t)),
    }
    for size in range(1, 7):
        for A in itertools.combinations(range(1, 7), size):
            for fam in FAMILIES:
                for (sig, k), trees in tr._family(fam, A).items():
                    assert trees, (fam, A, sig, k)
                    for t in trees:
                        assert tr.red_count(t) == k, (fam, A, t)
                        assert sig_of[fam](t) == sig, (fam, A, t)


def _digest(trees):
    return hashlib.sha256(repr(trees).encode()).hexdigest()


def test_family_order_is_pinned():
    # sha256 of the repr of every family list and i-bucket on [n], n <= 7,
    # recorded when the three families became one join under three rules
    want = json.loads(
        Path(__file__).with_name("family_order_digests.json").read_text())
    for key, digests in want.items():
        fam, n = key.split()
        n = int(n)
        got = [_digest(tr.enumerate_family(fam, n))]
        got += [_digest(tr.enumerate_family(fam, n, i)) for i in range(n)]
        assert got == digests, key


# What the trees module still holds after the three families on [6], and
# each of their i-buckets, are built and dropped (tracemalloc, Python
# 3.11): 4.1 MiB while each process-lifetime memo kept its (tree, label)
# pairs and the families on [6] themselves, 2.4 MiB while the i-buckets
# were cached for the process, and nothing once every call builds what
# it returns and drops the rest.
RETAINED_BOUND_MIB = 0.25


def test_families_free_what_the_caller_drops():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for fam in FAMILIES:
            trees = tr.enumerate_family(fam, 6)
            assert len(trees) == 6 ** 5
            per_i = [tr.enumerate_family(fam, 6, i) for i in range(6)]
            assert sum(map(len, per_i)) == 6 ** 5
            del trees, per_i
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < RETAINED_BOUND_MIB * 2 ** 20, held / 2 ** 20


# the edge orderings of m edges, m <= 7, are kept for the process on
# purpose: the one memo no check empties
KEPT_PER_EDGE_COUNT = {"chains._edge_orders", "chains.edge_orders_form_a_cycle"}


def memo_sizes():
    """The size of every module-level dict and lru_cache of the package."""
    sizes = {}
    for info in pkgutil.iter_modules(wpposet.__path__):
        module = importlib.import_module(f"wpposet.{info.name}")
        for name, value in vars(module).items():
            key = f"{info.name}.{name}"
            if name.startswith("__") or key in KEPT_PER_EDGE_COUNT:
                continue
            if isinstance(value, dict):
                sizes[key] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[key] = value.cache_info().currsize
    return sizes


# taken when the tests are collected, before any of them runs
AT_IMPORT = memo_sizes()


@pytest.mark.parametrize("fam", FAMILIES)
def test_no_cache_keeps_a_sub_family(fam):
    # nothing a family or a check memoizes outlives it
    tr.enumerate_family(fam, 6)
    tr.enumerate_family(fam, 6, 2)
    for k in range(1, len(acceptance.CRITERIA) + 1):
        assert acceptance.run_criterion(k, 3)[1], k
    assert memo_sizes() == AT_IMPORT


@given(bicolored())
def test_per_i_palindromic_families(t):
    # recoloring every node flips i to (n-1)-i; family sizes must match
    n = len(tr.leaves(t))
    i = tr.red_count(t)
    for fam in ("comb", "lyndon", "liu"):
        assert len(tr.enumerate_family(fam, n, i)) == \
            len(tr.enumerate_family(fam, n, n - 1 - i))


@given(bicolored())
def test_normalize_idempotent(t):
    sign, canon = sn.normalize_signed(t, sn.COHOMOLOGY)
    assert sign in (1, -1)
    assert tr.is_normalized(canon)
    assert sn.normalize_signed(canon, sn.COHOMOLOGY) == (1, canon)
    assert sorted(tr.leaves(canon)) == sorted(tr.leaves(t))
    assert tr.red_count(canon) == tr.red_count(t)


@pytest.mark.parametrize("side", [sn.COHOMOLOGY, sn.LIE2])
def test_normalize_matches_the_recursive_definition(side):
    for n in range(1, 6):
        for t in tr.enumerate_bicolored(n):
            assert sn.normalize_signed(t, side) == \
                normalize_by_definition(t, side)


@given(bicolored(), st.sampled_from([sn.COHOMOLOGY, sn.LIE2]))
def test_child_swap_changes_sign(t, side):
    if tr.is_leaf(t):
        return
    col, l, r = t
    swapped = (col, r, l)
    s1, c1 = sn.normalize_signed(t, side)
    s2, c2 = sn.normalize_signed(swapped, side)
    assert c1 == c2
    if side == sn.LIE2:
        expected = -1
    else:
        expected = (-1) ** (tr.internal_count(l) * tr.internal_count(r))
    assert s2 == s1 * expected


def test_tree_sign_examples():
    assert tree_sign((B, 1, 2)) == 1
    assert tree_sign((B, (B, 1, 2), 3)) == 1
    assert tree_sign((B, 1, (B, 2, 3))) == -1


def test_tree_weight_parity_is_the_recursive_tree_sign():
    # phi reads the sign of a tree as (-1)^weight
    for n in range(1, 6):
        for t in tr.enumerate_bicolored(n):
            assert (-1) ** tr.tree_weight(t) == tree_sign(t), t


def test_sites_walk_every_node_with_its_replacement():
    # the one node walk lists what the path walk lists, in its order, and
    # each wrap puts a subtree where replace_at puts it
    for n in range(1, 6):
        for t in tr.enumerate_bicolored(n):
            found = tr.sites(t)
            assert [(p, node) for p, node, _w in found] == \
                postorder_internal(t)
            for path, node, wrap in found:
                assert wrap(node) == t
                assert wrap(-1) == replace_at(t, path, -1)


def test_weight_and_inversions():
    # weight counts internal nodes hanging to the right
    assert tr.tree_weight((B, (B, 1, 2), 3)) == 0
    assert tr.tree_weight((B, 1, (B, 2, 3))) == 1
    # a red node on the right path below a blue node is an inversion
    assert tr.tree_inversions((B, 1, (R, 2, 3))) == 1
    assert tr.tree_inversions((R, 1, (B, 2, 3))) == 0


def test_comb_classification():
    assert tr.is_comb((B, (R, 1, 2), 3))
    assert not tr.is_comb((B, 1, (B, 2, 3)))   # blue over blue right child
    assert tr.is_comb((R, 1, (B, 2, 3)))       # red over blue right child


def test_lyndon_n3_members():
    fam = set(tr.enumerate_family("lyndon", 3, 1))
    assert (B, (R, 1, 2), 3) in fam
    assert (R, (B, 1, 2), 3) not in fam


def test_liu_not_normalized():
    # Liu-Lyndon trees need not have minimal leftmost leaves
    fam = tr.enumerate_family("liu", 3)
    assert any(not tr.is_normalized(t) for t in fam)


def test_rooted_tree_counts():
    for n in range(1, 6):
        assert len(tr.enumerate_rooted_trees(range(1, n + 1))) == n ** (n - 1)


def test_descent_polynomial_frozen():
    assert tr.descent_polynomial(3) == [2, 5, 2]
    assert tr.descent_polynomial(4) == [6, 26, 26, 6]


def test_drake_product_matches_enumeration():
    for n in range(1, 7):
        assert tr.drake_product(n) == tr.descent_polynomial(n)


def test_descent_counts_tally_the_listed_trees():
    # both readers of the one rerooting sweep, without the product formula
    for n in range(1, 8):
        per_d = Counter(T.descent_count()
                        for T in tr.enumerate_rooted_trees(range(1, n + 1)))
        assert tr.descent_counts(n) == [per_d[d] for d in range(n)]


def forest_counts(n):
    """Numbers of rooted forests on [n] with k = 1..n trees (index k-1)."""
    per_k = Counter(len(F) for F in enumerate_rooted_forests(n))
    return [per_k[k] for k in range(1, n + 1)]


def test_forest_counts_one_pass():
    # C(n-1, k-1) n^(n-k); they sum to (n+1)^(n-1)
    assert forest_counts(4) == [64, 48, 12, 1]
    assert forest_counts(5) == [625, 500, 150, 20, 1]
    for n in range(1, 6):
        assert sum(forest_counts(n)) == (n + 1) ** (n - 1)


def test_rooted_forests_are_distinct_and_cover_n():
    for n in range(1, 6):
        forests = [frozenset(F) for F in enumerate_rooted_forests(n)]
        assert len(set(forests)) == len(forests) == (n + 1) ** (n - 1)
        for F in forests:
            labels = [x for T in F for x in T.labels]
            assert sorted(labels) == list(range(1, n + 1))


def test_psi_roundtrip_small():
    for n in range(1, 6):
        for T in tr.enumerate_rooted_trees(range(1, n + 1)):
            t = tr.psi(T)
            assert tr.red_count(t) == T.descent_count()
            assert tr.psi_inverse(t) == T


def test_psi_inverse_round_trips_exactly_the_liu_lyndon_trees():
    # the decode reads any bicolored tree; psi maps it back onto t exactly
    # when t is in psi's image
    for n in range(1, 6):
        for t in tr.enumerate_bicolored(n):
            assert (tr.psi(tr.psi_inverse(t)) == t) == is_liu_lyndon(t)


def test_a_psi_defect_is_a_witness(monkeypatch, capsys):
    # psi with the root's children swapped: the psi command and criterion
    # 12 each fail on the first tree, and name it
    psi = tr.psi

    def swapped(T):
        t = psi(T)
        return t if tr.is_leaf(t) else (t[0], t[2], t[1])

    monkeypatch.setattr(tr, "psi", swapped)
    assert cli.main(["psi", "--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ("psi round trip failed on "
                   "RootedTree(root=1, parent={2: 1, 3: 1})\n")
    assert err == ""
    _name, ok, detail = acceptance.run_criterion(12, 3)
    assert not ok and "RootedTree(root=1, parent={2: 1})" in detail


def test_psi_image_is_liu():
    # the Liu-Lyndon family is built by its own recursion, not through psi
    for n in range(1, 7):
        image = {tr.psi(T) for T in tr.enumerate_rooted_trees(range(1, n + 1))}
        fam = tr.enumerate_family("liu", n)
        assert len(set(fam)) == len(fam) == len(image)
        assert image == set(fam)
    assert set(tr.enumerate_family("liu", (2, 5, 7))) == \
        {tr.psi(T) for T in tr.enumerate_rooted_trees((2, 5, 7))}


# -- the shape-and-forced-coloring Lyndon enumeration the recursion replaced --

def _old_enumerate_lyndon(labels):
    """Normalized shapes, each non-Lyndon node forced blue over a red left
    child, the other nodes colored freely."""
    A = tuple(sorted(labels))
    out = []
    for shape in normalized_uncolored(A):
        nodes = postorder_internal(shape)
        pos = {path: k for k, (path, _n) in enumerate(nodes)}
        forced = {}
        ok = True
        for path, node in nodes:
            if not is_lyndon_node(node):
                for key, val in ((pos[path], B), (pos[path + ("L",)], R)):
                    if forced.get(key, val) != val:
                        ok = False
                    forced[key] = val
        if not ok:
            continue
        free = [k for k in range(len(nodes)) if k not in forced]
        for bits in range(1 << len(free)):
            colors = dict(forced)
            for j, k in enumerate(free):
                colors[k] = R if bits >> j & 1 else B
            out.append(tr._colorings(shape, iter(colors[k] for k in range(len(nodes)))))
    return out


def test_lyndon_recursion_matches_forced_colorings():
    for n in range(1, 7):
        fam = tr.enumerate_family("lyndon", n)
        assert len(set(fam)) == len(fam)
        assert set(fam) == set(_old_enumerate_lyndon(range(1, n + 1)))
    assert set(tr.enumerate_family("lyndon", (2, 5, 7, 9))) == \
        set(_old_enumerate_lyndon((2, 5, 7, 9)))


def test_families_hold_labels_past_a_byte():
    # the Lyndon and Liu sigs hold any int label, not only those below 256
    A = (2, 5, 300, 301, 302)
    lyndon = tr.enumerate_family("lyndon", A)
    assert len(set(lyndon)) == len(lyndon) == 625
    assert set(lyndon) == set(_old_enumerate_lyndon(A))
    liu = tr.enumerate_family("liu", A)
    assert len(set(liu)) == len(liu) == 625
    assert set(liu) == {tr.psi(T) for T in tr.enumerate_rooted_trees(A)}
    combs = tr.enumerate_family("comb", A)
    assert len(set(combs)) == len(combs) == 625
    assert all(tr.is_comb(t) for t in combs)
    for fam, trees in (("comb", combs), ("lyndon", lyndon), ("liu", liu)):
        for i in range(len(A)):
            assert tr.enumerate_family(fam, A, i) == \
                [t for t in trees if tr.red_count(t) == i], (fam, i)


# -- the per-root orientation the rerooting sweep replaced -------------------

def _old_enumerate_rooted_trees(labels, i=None):
    A = tuple(sorted(labels))
    out = []
    for adj in unrooted_trees(A):
        for root in A:
            T = tr.RootedTree.from_parent_map(root, orient(adj, root))
            if i is None or T.descent_count() == i:
                out.append(T)
    return out


def test_rerooting_matches_orienting_every_root():
    for n in range(1, 7):
        labels = range(1, n + 1)
        assert tr.enumerate_rooted_trees(labels) == \
            _old_enumerate_rooted_trees(labels)
        for i in range(n):
            assert tr.enumerate_rooted_trees(labels, i) == \
                _old_enumerate_rooted_trees(labels, i)
    assert tr.enumerate_rooted_trees((2, 5, 7, 9), 1) == \
        _old_enumerate_rooted_trees((2, 5, 7, 9), 1)


def test_rerootings_come_rooted_at_the_greatest_label():
    # each decoded tree is the oracle's tree in the same Prufer order,
    # rooted at A[-1] with every parent entered before its children, and
    # each root's descent count is that of the tree oriented from it
    for A in [tuple(range(1, n + 1)) for n in range(1, 7)] + [(2, 5, 7, 9)]:
        pairs = list(itertools.zip_longest(tr._rerootings(A),
                                           unrooted_trees(A)))
        assert len(pairs) == max(1, len(A) ** (len(A) - 2))
        for (pmap, descents), adj in pairs:
            assert pmap == orient(adj, A[-1])
            entered = {A[-1]}
            for c, p in pmap.items():
                assert p in entered
                entered.add(c)
            assert entered == set(A)
            assert descents == {
                r: tr.RootedTree.from_parent_map(r, orient(adj, r))
                .descent_count() for r in A}


def test_liu_order_reflexive_and_acyclic():
    trees5 = tr.enumerate_rooted_trees(range(1, 4), 1)
    assert len(trees5) == 5
    for T in trees5:
        assert liu_leq(T, T)
    for T1, T2 in itertools.permutations(trees5, 2):
        assert not (liu_leq(T1, T2) and liu_leq(T2, T1))


def _classes(nmax=5):
    """Every T_{[n],i} with n <= nmax, as a list of trees."""
    return [tr.enumerate_rooted_trees(range(1, n + 1), i)
            for n in range(1, nmax + 1) for i in range(n)]


def test_fitting_trees_are_the_support_of_the_pairing():
    # Pi_S holds the chain of psi(T) exactly when that chain is in the
    # support of rho_S: the fundamental cycle lists the maximal chains
    # of Pi_S, each with coefficient +-1.  So T itself is listed, and
    # every tree listed has T's labels and descent count.
    for trees in _classes():
        cycles = [hm.fundamental_cycle(S) for S in trees]
        for T in trees:
            t = tr.psi(T)
            chain = next(iter(hm.chain_vector_of_tree(t)))
            fitting = tr._fitting(t)
            assert T in fitting
            assert len(set(fitting)) == len(fitting)
            assert set(fitting) == {S for S, rho in zip(trees, cycles)
                                    if chain in rho}


def test_pairing_arcs_are_liu_pairs():
    # every arc S -> T of the pairing's support is a Liu pair, so the
    # oracle's linear extension of Liu's order is a topological order of
    # the support too: the pairing is unitriangular in Liu's order
    for trees in _classes():
        ordered = tr.liu_linear_extension(trees)
        assert sorted(ordered, key=repr) == sorted(trees, key=repr)
        at = {T: k for k, T in enumerate(ordered)}
        liu_at = {T: k for k, T in enumerate(liu_order(trees))}
        for T in trees:
            for S in tr._fitting(tr.psi(T)):
                if S != T:
                    assert liu_leq(S, T)
                    assert liu_at[S] < liu_at[T]
                    assert at[S] < at[T]


def test_pairing_order_is_not_always_liu_order():
    # from n = 3 on the arcs' closure is strictly smaller than Liu's
    # order, and the order returned is not a linear extension of it
    trees = tr.enumerate_rooted_trees(range(1, 4), 0)
    S, T = tr.liu_linear_extension(trees)
    assert liu_leq(T, S) and not liu_leq(S, T)


def test_pairing_order_reads_no_input_order():
    trees = tr.enumerate_rooted_trees(range(1, 5), 1)
    assert tr.liu_linear_extension(trees[::-1]) == \
        tr.liu_linear_extension(trees)
    with pytest.raises(ValueError):
        tr.liu_linear_extension(tr.enumerate_rooted_trees(range(1, 4)))


def test_a_cycle_in_the_pairing_support_is_a_witness(monkeypatch, capsys):
    # two trees of T_{[3],1} that each fit the other's psi-chain: the
    # order, the bases command and criterion 14 each name both of them
    trees = tr.enumerate_rooted_trees(range(1, 4), 1)
    S, T = sorted(trees)[:2]
    other = {tr.psi(S): T, tr.psi(T): S}
    fitting = tr._fitting
    monkeypatch.setattr(tr, "_fitting", lambda t: fitting(t) + (
        [other[t]] if t in other else []))
    with pytest.raises(AssertionError) as exc:
        tr.liu_linear_extension(trees)
    assert repr(S) in str(exc.value) and repr(T) in str(exc.value)
    assert cli.main(["bases", "--n", "3", "--i", "1", "--family", "tree"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("assertion failed:")
    assert repr(S) in out and repr(T) in out
    _name, ok, detail = acceptance.run_criterion(14, 3)
    assert not ok and repr(S) in detail and repr(T) in detail


# -- the edge-rescanning psi the package replaced, and an all-pairs Liu order -

def _old_children(T, x):
    return sorted(c for c, p in T.parent if p == x)


def _old_subtree_nodes(T, x):
    nodes = {x}
    stack = [x]
    while stack:
        u = stack.pop()
        for v in _old_children(T, u):
            nodes.add(v)
            stack.append(v)
    return nodes


def _old_restrict(T, nodes, root):
    pmap = {c: p for c, p in T.parent if c in nodes and p in nodes}
    return tr.RootedTree.from_parent_map(root, pmap)


def _old_psi(T):
    labels = sorted(T.labels)
    if len(labels) == 1:
        return labels[0]
    r = T.root
    kids = _old_children(T, r)
    bigger = [c for c in kids if c > r]
    x = min(bigger) if bigger else max(kids)
    sub = _old_subtree_nodes(T, x)
    t_x = _old_restrict(T, sub, x)
    t_rest = _old_restrict(T, set(labels) - sub, r)
    col = B if x > r else R
    return (col, _old_psi(t_rest), _old_psi(t_x))


def _old_forest_alpha_key(T, removed_edge):
    c, _p = removed_edge
    sub = _old_subtree_nodes(T, c)
    return (_old_restrict(T, sub, c),
            _old_restrict(T, T.labels - sub, T.root))


_OLD_REACH = {}


def _old_liu_leq(T1, T2):
    if T1 == T2 or len(T1.labels) <= 2:
        return True
    return T2 in _old_liu_reachability(tuple(sorted(T1.labels)),
                                       T1.descent_count())[T1]


def _old_liu_one_step(T, Tp):
    root_p = Tp.root
    for cp, pp in Tp.parent:
        if pp != root_p:
            continue
        color_p = R if cp < pp else B
        t1p, t2p = _old_forest_alpha_key(Tp, (cp, pp))
        for c, p in T.parent:
            if (R if c < p else B) != color_p:
                continue
            t1, t2 = _old_forest_alpha_key(T, (c, p))
            pairs = None
            if t1.labels == t1p.labels and t2.labels == t2p.labels:
                pairs = [(t1, t1p), (t2, t2p)]
            elif t1.labels == t2p.labels and t2.labels == t1p.labels:
                pairs = [(t1, t2p), (t2, t1p)]
            if pairs is None:
                continue
            if all(a.descent_count() == b.descent_count()
                   and _old_liu_leq(a, b) for a, b in pairs):
                return True
    return False


def _old_liu_reachability(labels, i):
    """Closure of the one-step relation tested on all ordered pairs."""
    if (labels, i) not in _OLD_REACH:
        trees = tr.enumerate_rooted_trees(list(labels), i)
        succ = {T: {Tp for Tp in trees
                     if Tp is not T and _old_liu_one_step(T, Tp)}
                for T in trees}
        reach = {}

        def close(T):
            if T not in reach:
                reach[T] = {T}
                for Tp in succ[T]:
                    reach[T] |= close(Tp)
            return reach[T]

        _OLD_REACH[(labels, i)] = {T: frozenset(close(T)) for T in trees}
    return _OLD_REACH[(labels, i)]


def test_psi_matches_edge_rescanning_psi():
    for n in range(1, 7):
        for T in tr.enumerate_rooted_trees(range(1, n + 1)):
            assert tr.psi(T) == _old_psi(T)


def test_liu_reachability_matches_all_pairs_closure():
    for n in range(1, 5):
        labels = tuple(range(1, n + 1))
        for i in range(n):
            trees, position, closure = liu_reachability(labels, i)
            assert position == {T: k for k, T in enumerate(trees)}
            assert {T: frozenset(trees[j] for j in pt.bits(closure[k]))
                    for k, T in enumerate(trees)} == \
                _old_liu_reachability(labels, i)


def test_linear_extensions_and_tau():
    t = (B, (B, 1, 2), (B, 3, 4))
    exts = linear_extensions(t)
    # two incomparable internal nodes under the root: 2 extensions
    assert len(exts) == 2
    tau = tr.valency_decreasing_tau(t)
    assert tau in exts


def test_tau_is_the_only_weakly_decreasing_extension():
    for n in range(1, 6):
        for t in enumerate_normalized(n):
            val = [tr.min_leaf(node) for _p, node in postorder_internal(t)]
            weakly = [e for e in linear_extensions(t)
                      if all(val[a] >= val[b] for a, b in zip(e, e[1:]))]
            assert weakly == [tr.valency_decreasing_tau(t)]


def test_tau_refuses_every_tree_that_is_not_normalized():
    off = [t for t in tr.enumerate_bicolored(4) if not tr.is_normalized(t)]
    assert len(off) == 840
    for t in off:
        with pytest.raises(ValueError):
            tr.valency_decreasing_tau(t)


@given(bicolored(max_n=4))
def test_identity_extension_is_linear(t):
    if tr.is_leaf(t):
        return
    assert tuple(range(tr.internal_count(t))) in linear_extensions(t)


def test_perm_sign():
    assert tr.perm_sign(tr.leaves((B, 1, 2))) == 1
    assert tr.perm_sign(tr.leaves((B, 2, 1))) == -1
    assert tr.perm_sign(tr.leaves((B, (B, 1, 3), 2))) == -1
    assert tr.perm_sign(()) == tr.perm_sign((2, 0, 1)) == 1


def test_tree_to_bracket():
    assert tr.tree_to_bracket((R, (B, 1, 3), 2)) == "<[1,3],2>"


def test_enumeration_cap():
    with pytest.raises(ResourceCapError):
        tr.enumerate_rooted_trees(range(1, 10))
    with pytest.raises(ResourceCapError):
        tr.bicolored_at(9, 0)


@pytest.mark.parametrize("call, what", [
    (tr.bicolored_count, "bicolored trees"),
    (lambda n: tr.bicolored_at(n, 0), "bicolored trees"),
    (tr.enumerate_bicolored, "bicolored trees"),
    (lambda n: tr.enumerate_family("liu", n), "liu trees"),
    (lambda n: tr.enumerate_rooted_trees(range(1, n + 1)), "rooted trees"),
], ids=["count", "at", "bicolored", "family", "rooted"])
def test_tree_cap_is_checked_before_the_labels_are_listed(call, what):
    # the labels of [10^18] cannot be listed (a MemoryError at once), so
    # the cap is read off n, or the length of the labels, first
    n = 10 ** 18
    with pytest.raises(ResourceCapError) as err:
        call(n)
    assert (err.value.what, err.value.limit) == (f"{what} on {n} labels", 8)


def test_bicolored_at_matches_enumeration():
    # any label set, not only [n]
    for labels in [*range(1, 6), (2, 5, 7, 9)]:
        # the listing decodes each shape once; the oracle lists them
        assert tr.enumerate_bicolored(labels) == bicolored_by_shape(labels)
        n = labels if isinstance(labels, int) else len(labels)
        for i in [None] + list(range(n)):
            count = tr.bicolored_count(labels, i)
            assert [tr.bicolored_at(labels, k, i) for k in range(count)] == \
                bicolored_by_shape(labels, i)
            with pytest.raises(IndexError):
                tr.bicolored_at(labels, count, i)


def test_bicolored_count_closed_form():
    # n! Cat(n-1) 2^(n-1) in all, split by red count as C(n-1, i)
    assert [tr.bicolored_count(n) for n in range(1, 9)] == \
        [1, 4, 48, 960, 26880, 967680, 42577920, 2214051840]
    for n in range(1, 9):
        assert sum(tr.bicolored_count(n, i) for i in range(n)) == \
            tr.bicolored_count(n)
