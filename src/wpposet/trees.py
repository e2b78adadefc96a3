"""Rooted trees with descents, bicolored binary trees, and the comb /
Lyndon / Liu-Lyndon families.

Bicolored binary trees are plain nested tuples so they hash and compare
for free:

* a leaf is an ``int`` label,
* an internal node is ``(color, left, right)`` with ``color`` in
  ``{"b", "r"}``.

:func:`sites` is the one walk over a tree's internal nodes, each with
its path and the function that puts a new subtree in its place.

:func:`enumerate_bicolored` lists every bicolored tree on a label set;
:func:`bicolored_count` gives its length in closed form and
:func:`bicolored_at` its k-th entry without building the list, which is
how one tree on [7] or [8] is drawn.  :func:`valency_decreasing_tau` is
a stable sort of a normalized tree's internal nodes, listed in
postorder, by decreasing least leaf; nothing is searched.

The comb, Lyndon and Liu-Lyndon families are built directly, never
filtered from a larger pool, by one builder, ``_family``, under three
local node rules: every subset of the label set, in order of size, joins
the trees of each split (L, R) that the family's rule allows, so the
work is about the size of the family.  A family on a subset is a dict
{(sig, k): trees}, ``sig`` what the rule reads of a tree and ``k`` its
red count, so the trees with i red nodes come grouped, and with i given
only the groups that can still reach i red nodes are built.  Nothing is
kept past one call: the families on the subsets are freed when
:func:`enumerate_family` returns.

Rooted (non-binary) trees are immutable :class:`RootedTree` values built
from a parent map.  One rerooting sweep, ``_rerootings``, stands behind
rooted trees and descent counts: it decodes each Prufer sequence
straight into the tree rooted at the greatest label, the one label the
decode never removes, and gives the descent count of every root, since
moving the root across an edge flips that edge only.
:func:`descent_counts` tallies those counts, which count the rooted
trees on any n-set as well, since relabelling in order keeps descents;
:func:`enumerate_rooted_trees` writes the parent tuple of a root that
passes its filter by flipping the edges on the path to the greatest
label.
:func:`psi` costs O(n) per tree on [n]; :func:`psi_inverse` is the
decode that inverts it on its image and checks nothing, so a round trip
compares its result with the starting tree.  :func:`liu_linear_extension`
orders the trees of one T_{A,i} for the Liu pairing with
``graphlib.TopologicalSorter``, with no closure of Liu's order kept: each
tree's predecessors are the trees whose Pi_T holds the chain of its psi
(``_fitting``), the class goes in sorted, so the order does not depend on
the input's, and a cycle is an AssertionError naming its trees.
"""

from __future__ import annotations

import graphlib
import heapq
import itertools
from collections import namedtuple
from math import comb, factorial

from .partitions import ResourceCapError, drake_product

BLUE = "b"
RED = "r"

TREE_ENUM_CAP = 8


def refuse_past_cap(what, n):
    """Raise ResourceCapError for ``what`` on ``n`` labels past
    TREE_ENUM_CAP; every enumeration here calls it before any work."""
    if n > TREE_ENUM_CAP:
        raise ResourceCapError(f"{what} on {n} labels", TREE_ENUM_CAP)


# ---------------------------------------------------------------------------
# bicolored binary trees
# ---------------------------------------------------------------------------

def is_leaf(t):
    return isinstance(t, int)


def leaves(t):
    """Leaf labels of ``t`` from left to right."""
    if is_leaf(t):
        return (t,)
    return leaves(t[1]) + leaves(t[2])


def internal_count(t):
    return 0 if is_leaf(t) else 1 + internal_count(t[1]) + internal_count(t[2])


def red_count(t):
    if is_leaf(t):
        return 0
    return (t[0] == RED) + red_count(t[1]) + red_count(t[2])


def min_leaf(t):
    return t if is_leaf(t) else min(min_leaf(t[1]), min_leaf(t[2]))


def sites(t, _path=(), _wrap=lambda s: s):
    """Every internal node of ``t`` in postorder as (path, node, wrap):
    ``path`` is the tuple of 'L'/'R' steps from the root, ``node`` the
    subtree there, and ``wrap(s)`` is ``t`` with ``s`` in the node's
    place."""
    if is_leaf(t):
        return []
    col, l, r = t
    out = sites(l, _path + ("L",), lambda s: _wrap((col, s, r)))
    out += sites(r, _path + ("R",), lambda s: _wrap((col, l, s)))
    out.append((_path, t, _wrap))
    return out


def tree_to_bracket(t):
    """Render a tree in bracketed-permutation style, e.g. ``[<1,2>,3]``."""
    if is_leaf(t):
        return str(t)
    lo, hi = ("[", "]") if t[0] == BLUE else ("<", ">")
    return f"{lo}{tree_to_bracket(t[1])},{tree_to_bracket(t[2])}{hi}"


# -- signs, weights and inversions ------------------------------------------

def tree_weight(t):
    """Sum over internal nodes of the internal-node count of the right
    subtree; (-1)^weight is the sign of the underlying binary tree."""
    if is_leaf(t):
        return 0
    return internal_count(t[2]) + tree_weight(t[1]) + tree_weight(t[2])


def tree_inversions(t):
    """Pairs (x, y): x blue, y a red node on the right-edge path below x."""
    total = 0
    for _path, node, _wrap in sites(t):
        if node[0] != BLUE:
            continue
        y = node[2]
        while not is_leaf(y):
            if y[0] == RED:
                total += 1
            y = y[2]
    return total


def perm_sign(word):
    """Sign of a word of distinct labels as a permutation of its sorted
    labels: -1 to the number of its inversions."""
    inversions = sum(a > b for j, a in enumerate(word) for b in word[j + 1:])
    return -1 if inversions & 1 else 1


def is_normalized(t):
    if is_leaf(t):
        return True
    return (min_leaf(t[1]) < min_leaf(t[2])
            and is_normalized(t[1]) and is_normalized(t[2]))


# -- family membership ------------------------------------------------------

def is_offending(node):
    """Whether the straightening relations rewrite an internal node: its
    right child is internal and the pair is not (red parent, blue right
    child)."""
    r = node[2]
    return not is_leaf(r) and not (node[0] == RED and r[0] == BLUE)


def is_comb(t):
    return is_normalized(t) and not any(
        is_offending(node) for _p, node, _w in sites(t))


# -- enumeration -------------------------------------------------------------

def _colorings(t, colors_iter):
    # colors are consumed in postorder, the order of sites(t)
    if is_leaf(t):
        return t
    _x, l, r = t
    left = _colorings(l, colors_iter)
    right = _colorings(r, colors_iter)
    return (next(colors_iter), left, right)


def _sorted_labels(labels, what):
    """Sorted label list of ``labels`` (an int n stands for [n]), refused
    past TREE_ENUM_CAP as ``what`` before the list is built."""
    is_n = isinstance(labels, int)
    refuse_past_cap(what, labels if is_n else len(labels))
    return list(range(1, labels + 1)) if is_n else sorted(labels)


def _catalan(m):
    return comb(2 * m, m) // (m + 1)


def enumerate_bicolored(labels):
    """All labeled bicolored binary trees on the given label set.
    Deterministic order: leaf word (permutations in lexicographic order),
    then shape (split point, left shape major), then coloring (in
    postorder, blue before red)."""
    A = _sorted_labels(labels, "bicolored trees")
    n = len(A)
    shapes = range(_catalan(n - 1))
    colorings = [_colors_at(n - 1, k, None)
                 for k in range(_colorings_count(n, None))]
    out = []
    for word in itertools.permutations(A):
        for s in shapes:
            shape = _shape_at(word, s)
            out.extend(_colorings(shape, iter(colors)) for colors in colorings)
    return out


def _colorings_count(n, i):
    return 2 ** (n - 1) if i is None else comb(n - 1, i)


def bicolored_count(labels, i=None):
    """The number of bicolored trees on labels, or of those with ``i`` red
    internal nodes, in closed form: n! Cat(n-1) 2^(n-1), or
    n! Cat(n-1) C(n-1, i)."""
    n = len(_sorted_labels(labels, "bicolored trees"))
    return factorial(n) * _catalan(n - 1) * _colorings_count(n, i)


def _shape_at(word, k):
    """The ``k``-th binary tree shape whose left-to-right leaf word is
    ``word``: shapes split at the first position first, left shape
    major."""
    m = len(word)
    if m == 1:
        return word[0]
    for s in range(1, m):
        rights = _catalan(m - s - 1)
        block = _catalan(s - 1) * rights
        if k < block:
            lk, rk = divmod(k, rights)
            return ("x", _shape_at(word[:s], lk), _shape_at(word[s:], rk))
        k -= block


def _colors_at(m, k, i):
    """The ``k``-th color tuple of ``m`` internal nodes, in postorder: of
    all tuples in lexicographic order, blue before red, or with ``i``, of
    those whose ``i`` red positions come ``k``-th as a combination."""
    if i is None:
        return tuple(RED if k >> (m - 1 - j) & 1 else BLUE for j in range(m))
    colors = []
    for j in range(m):
        # the combinations that put a red at node j come first
        with_j = comb(m - j - 1, i - 1) if i else 0
        if k < with_j:
            colors.append(RED)
            i -= 1
        else:
            colors.append(BLUE)
            k -= with_j
    return tuple(colors)


def bicolored_at(labels, k, i=None):
    """The ``k``-th bicolored tree on labels, or of those with ``i`` red
    internal nodes, in the order of ``enumerate_bicolored``, without
    building a list: the leaf word, the shape and the coloring are decoded
    from ``k`` in turn."""
    A = _sorted_labels(labels, "bicolored trees")
    n = len(A)
    if not 0 <= k < bicolored_count(A, i):
        raise IndexError(f"no bicolored tree at index {k}")
    k, color_k = divmod(k, _colorings_count(n, i))
    k, shape_k = divmod(k, _catalan(n - 1))
    word = []
    for j in range(n - 1, -1, -1):
        d, k = divmod(k, factorial(j))
        word.append(A.pop(d))
    shape = _shape_at(word, shape_k)
    return _colorings(shape, iter(_colors_at(n - 1, color_k, i)))


def _splits(A, normalized):
    """Every split of the sorted label tuple ``A`` into a nonempty left
    and right part, as (left, right) sorted tuples; with ``normalized``
    only those that keep ``A[0]`` on the left."""
    for rbits in range(2 if normalized else 1, (1 << len(A)) - 1,
                       2 if normalized else 1):
        yield (tuple(x for k, x in enumerate(A) if not rbits >> k & 1),
               tuple(x for k, x in enumerate(A) if rbits >> k & 1))


# A family on a label set B is a dict {(sig, k): trees}: ``k`` is the
# trees' red count and ``sig`` what a parent's node rule reads of them.
# A rule takes (sig of l, sig of r, min(R)) and gives (colour, sig of the
# node) for each colour it allows over l and r.

def _comb_rule(_sl, sr, _x):
    """sig is the root's colour (None for a leaf): a comb's right child is
    a leaf, or a blue-rooted comb under a red node."""
    if sr is None:
        return (BLUE, BLUE), (RED, RED)
    return ((RED, RED),) if sr == BLUE else ()


def _lyndon_rule(sl, _sr, x):
    """sig is (m, root colour), m the least leaf of the right child: a
    normalized node is Lyndon when m(l) is None or m(l) > min(R), and a
    node that is not must be blue over a red l."""
    m, col = sl
    if m is None or m > x:
        return (BLUE, (x, BLUE)), (RED, (x, RED))
    return ((BLUE, (x, BLUE)),) if col == RED else ()


def _liu_rule(sl, sr, _x):
    """sig is (v, w, root colour), v the recursive valency and w that of
    the right child: a blue node needs v(l) < v(r) and, over a blue l,
    w(l) > v(r); a red node needs v(l) > v(r) and a leaf or red l with
    w(l) < v(r).  Either way the node's valency is v(l)."""
    vl, w, col = sl
    vr = sr[0]
    if vl < vr and (w is None or col == RED or w > vr):
        return ((BLUE, (vl, vr, BLUE)),)
    if vl > vr and (w is None or (col == RED and w < vr)):
        return ((RED, (vl, vr, RED)),)
    return ()


# family -> (splits keep the least label on the left, rule, sig of a leaf)
_FAMILIES = {
    "comb": (True, _comb_rule, lambda x: None),
    "lyndon": (True, _lyndon_rule, lambda x: (None, None)),
    "liu": (False, _liu_rule, lambda x: (x, None, None)),
}


def _family(family, A, i=None):
    """The family on the sorted label tuple ``A`` as {(sig, k): trees}.

    Every subset of ``A`` is filled in order of size, from the leaves up,
    by joining the groups of L and R over each split (L, R) under the
    family's node rule: each colour the rule allows extends its group by
    ``itertools.product((colour,), lefts, rights)``, every left tree with
    every right one, left trees outer.  With ``i``, a group on B is kept
    only when i - (|A| - |B|) <= k <= i, since a tree on B gains at most
    |A| - |B| red nodes on its way to A; a kept group is built from kept
    groups alone, so it is the same list as without ``i``."""
    normalized, rule, leaf_sig = _FAMILIES[family]
    n = len(A)
    groups = {}
    for size in range(1, n + 1):
        lo, hi = (0, n) if i is None else (i - n + size, i)
        for B in itertools.combinations(A, size):
            got = groups[B] = {}
            if size == 1:
                if lo <= 0 <= hi:
                    got[leaf_sig(B[0]), 0] = [B[0]]
                continue
            for L, R in _splits(B, normalized):
                x = R[0]
                for (sl, kl), lefts in groups[L].items():
                    for (sr, kr), rights in groups[R].items():
                        for col, sig in rule(sl, sr, x):
                            k = kl + kr + (col == RED)
                            if lo <= k <= hi:
                                got.setdefault((sig, k), []).extend(
                                    itertools.product((col,), lefts, rights))
    return groups.get(A, {})


def enumerate_family(family, labels, i=None):
    """Enumerate one of the three tree families on ``labels`` (an int n
    stands for [n]), optionally only the trees with ``i`` red nodes.

    The families are one join over the splits of the sorted label set
    (``_family``) under three local node rules: combs and Lyndon trees
    split with the least label on the left (normalized), Liu-Lyndon trees
    over all ordered splits.  The trees come grouped by red count, so the
    trees with ``i`` red nodes are built without the others, and nothing
    is kept past the call.  The list comes in the join's order, which is
    deterministic but otherwise unspecified; each i-bucket is a
    subsequence of the full list, in its order.  More than TREE_ENUM_CAP
    labels are refused before any work."""
    A = tuple(_sorted_labels(labels, f"{family} trees"))
    # with i, every group on A has k == i
    return [t for trees in _family(family, A, i).values() for t in trees]


# -- linear extensions -------------------------------------------------------

def valency_decreasing_tau(t):
    """The unique linear extension with weakly decreasing min-leaf
    valencies, as postorder indices of the internal nodes.

    One postorder walk collects each node's least leaf; the extension is
    the postorder indices stably sorted by decreasing valency.  A child's
    valency is at least its parent's, and in a normalized tree it is
    equal only along a left spine, whose lower nodes come earlier in
    postorder, so the sort puts every node before its parent, and no
    other order of equal valencies would."""
    val = []

    def least(s):
        if is_leaf(s):
            return s
        a, b = least(s[1]), least(s[2])
        if not a < b:
            raise ValueError("valency_decreasing_tau expects a normalized tree")
        val.append(a)
        return a

    least(t)
    return tuple(sorted(range(len(val)), key=val.__getitem__, reverse=True))


# ---------------------------------------------------------------------------
# rooted trees with descents
# ---------------------------------------------------------------------------

class RootedTree(namedtuple("RootedTree", "root parent")):
    """Rooted tree on a finite label set, stored as a sorted parent map:
    ``parent`` is the tuple of (child, parent) pairs, sorted by child."""

    __slots__ = ()

    @property
    def labels(self):
        return frozenset(c for c, _p in self.parent) | {self.root}

    def descent_count(self):
        return sum(1 for c, p in self.parent if c < p)

    @staticmethod
    def from_parent_map(root, pmap):
        return RootedTree(root, tuple(sorted(pmap.items())))

    def __repr__(self):
        return f"RootedTree(root={self.root}, parent={dict(self.parent)})"


def _rerootings(A):
    """Every labeled tree on the sorted tuple ``A``, in Prufer order, as
    (pmap, descents): ``pmap`` is the child -> parent map of the tree
    rooted at ``A[-1]``, a parent always entered before its children, and
    ``descents`` maps each label to the descent count of the tree rooted
    there.

    Decoding a Prufer sequence removes the least leaf and hangs it below
    the sequence's next label.  The greatest label is never the least of
    two or more leaves, so it is the last one left, every edge points
    towards it, and the edges read backwards enter each parent before its
    children.  Moving the root from p across an edge to its child c flips
    that edge only, so the count of c is the count of p plus one if p < c
    and minus one if not."""
    top = A[-1]
    if len(A) == 1:
        yield {}, {top: 0}
        return
    for seq in itertools.product(A, repeat=len(A) - 2):
        degree = dict.fromkeys(A, 1)
        for x in seq:
            degree[x] += 1
        # A is sorted, so its leaves already form a heap
        leaves_heap = [x for x in A if degree[x] == 1]
        edges = []
        for x in seq:
            edges.append((heapq.heappop(leaves_heap), x))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves_heap, x)
        edges.append((leaves_heap[0], top))
        pmap = dict(reversed(edges))
        descents = {top: sum(1 for c, p in edges if c < p)}
        for c, p in pmap.items():
            descents[c] = descents[p] + (1 if p < c else -1)
        yield pmap, descents


def enumerate_rooted_trees(labels, i=None):
    """All rooted trees on the label set, optionally with exactly ``i``
    descents.  Deterministic order (Prufer sequence, then root).

    Reads ``_rerootings``: the parent tuple is written only for a root
    that passes the ``i`` filter, from the tree rooted at the greatest
    label with the edges on the path to that root flipped.
    """
    refuse_past_cap("rooted trees", len(labels))
    A = tuple(sorted(labels))
    pos = {x: k for k, x in enumerate(A)}
    out = []
    for pmap, descents in _rerootings(A):
        # (child, parent) pairs in label order, None at the greatest
        # label, and each edge's flipped pair, shared by every root below it
        pairs = [(x, pmap[x]) for x in A[:-1]] + [None]
        flipped = {c: (p, c) for c, p in pmap.items()}
        for k, root in enumerate(A):
            if i is None or descents[root] == i:
                pv = pairs.copy()
                c = root
                while c != A[-1]:
                    p = pmap[c]
                    pv[pos[p]] = flipped[c]
                    c = p
                out.append(RootedTree(root, tuple(pv[:k] + pv[k + 1:])))
    return out


def descent_counts(n):
    """Counts of rooted trees on [n] by number of descents: a tally of
    the descent count of every root in ``_rerootings``."""
    refuse_past_cap("rooted trees", n)
    counts = [0] * n
    for _pmap, descents in _rerootings(tuple(range(1, n + 1))):
        for d in descents.values():
            counts[d] += 1
    return counts


def descent_polynomial(n):
    """Generating polynomial of rooted trees on [n] by descents, computed by
    enumeration and cross-checked against the product formula."""
    counts = descent_counts(n)
    if counts != drake_product(n):
        raise AssertionError(f"descent counts {counts} disagree with the product formula")
    return counts


# ---------------------------------------------------------------------------
# the bijection psi and the order of the Liu pairing
# ---------------------------------------------------------------------------

def _children_map(T):
    """node -> its children; ascending, because ``T.parent`` is sorted by child."""
    kids = {}
    for c, p in T.parent:
        kids.setdefault(p, []).append(c)
    return kids


def psi(T):
    """Liu's bijection from rooted trees to Liu-Lyndon trees.

    Cuts the root's edge to its smallest larger child (else its largest
    child), recursing on both sides.  The cuts at one node therefore go
    through its larger children ascending, then its smaller ones
    descending, so the left spine is built in one pass per node: O(n).
    """
    return _psi_at(T.root, _children_map(T))


def _psi_at(r, kids):
    children = kids.get(r)
    if not children:
        return r
    # the last cut is innermost, so build outward from it: the smaller
    # children ascending, then the larger ones descending
    t = r
    for x in children:
        if x > r:
            break
        t = (RED, t, _psi_at(x, kids))
    for x in reversed(children):
        if x < r:
            break
        t = (BLUE, t, _psi_at(x, kids))
    return t


def psi_inverse(t):
    """The rooted tree a bicolored tree reads as: each node (col, l, r)
    hangs the root of r, its leftmost leaf, below the root of l.

    On the image of psi, the Liu-Lyndon trees, this inverts :func:`psi`.
    It reads no colour and checks nothing, so a round trip compares
    psi_inverse(psi(T)) with the T it started from."""
    pmap = {}

    def root_of(s):
        if is_leaf(s):
            return s
        top = root_of(s[1])
        pmap[root_of(s[2])] = top
        return top

    return RootedTree.from_parent_map(root_of(t), pmap)


def _fitting(t):
    """The rooted trees T on the leaves of the bicolored tree t whose
    Pi_T holds the chain of t.

    Each block of an element alpha(T_E) of Pi_T is a subtree of T,
    weighted by the descents inside it, so the u-merge of blocks L and R
    stays in Pi_T exactly when T joins L and R by an edge that is a
    descent (child < parent) exactly when u = 1.  So each internal node
    of t picks one edge between its two leaf sets, oriented by its
    colour, and a choice that gives some label two parents is dropped:
    at most the product of |L| |R| candidates, each a different tree.
    """
    partial = [{}]
    for _path, (col, l, r), _wrap in sites(t):
        # (child, parent): a descent exactly at a red node
        edges = [(a, b) if (a < b) == (col == RED) else (b, a)
                 for a in leaves(l) for b in leaves(r)]
        partial = [{**pmap, c: p} for pmap in partial
                   for c, p in edges if c not in pmap]
    labels = set(leaves(t))
    return [RootedTree.from_parent_map((labels - pmap.keys()).pop(), pmap)
            for pmap in partial]


def liu_linear_extension(trees):
    """The trees of one T_{A,i} in an order that makes the pairing
    <rho_{T_j}, c_{psi(T_k)}> upper unitriangular; ValueError on trees
    from more than one class.

    ``graphlib.TopologicalSorter.static_order`` over the support digraph
    of that pairing, the trees entered in sorted order, so the order does
    not depend on the input's: T_j comes before T_k whenever
    T_j != T_k and Pi_{T_j} holds the chain of psi(T_k) (``_fitting``).
    Liu's order contains this relation, but the order returned is not
    always a linear extension of Liu's order.  A cycle in the support
    would refute the unitriangularity, so it is an AssertionError that
    names the class and the trees on the cycle.  The function keeps its
    name only because the benchmark calls it by that name.
    """
    order = sorted(trees)
    if len({(T.labels, T.descent_count()) for T in order}) > 1:
        raise ValueError("the Liu pairing compares trees in one T_{A,i}")
    members = set(order)
    support = graphlib.TopologicalSorter(dict.fromkeys(order, ()))
    for T in order:
        support.add(T, *(S for S in _fitting(psi(T))
                         if S != T and S in members))
    try:
        return list(support.static_order())
    except graphlib.CycleError as exc:
        T = order[0]
        raise AssertionError(
            f"the support of the Liu pairing on T_({sorted(T.labels)}, "
            f"{T.descent_count()}) has a cycle: "
            + " -> ".join(map(repr, exc.args[1]))) from None
