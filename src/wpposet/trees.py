"""Rooted trees with descents, bicolored binary trees, and the comb /
Lyndon / Liu-Lyndon families.

Bicolored binary trees are plain nested tuples so they hash and compare
for free:

* a leaf is an ``int`` label,
* an internal node is ``(color, left, right)`` with ``color`` in
  ``{"b", "r"}``.

:func:`enumerate_bicolored` lists every bicolored tree on a label set;
:func:`bicolored_count` gives its length in closed form and
:func:`bicolored_at` its k-th entry without building the list, which is
how one tree on [7] or [8] is drawn.  :func:`valency_decreasing_tau` is
a stable sort of a normalized tree's internal nodes, listed in
postorder, by decreasing least leaf; nothing is searched.

The comb, Lyndon and Liu-Lyndon families are each built directly, never
filtered from a larger pool: a recursion over the splits of the sorted
label set joins the trees on both sides under the family's local node
rule, so the work is about the size of the family.
:func:`enumerate_family` returns them in that construction's order.  Each
recursion keeps what its node rule reads of a tree in columns beside the
tree list, not in a tuple per tree: the red counts as bytes, and the
Lyndon m or Liu w label as a list of ints.  So the trees with i red nodes
are grouped once per family and n, with no tree walked.  Each
enumeration keeps the families on proper subsets of the label set, the
ones its recursion reads again, in a memo of its own that is dropped
when the family is returned; the family a caller asks for is built
fresh and is freed when the caller drops it.  Of the families, only the
i-buckets of :func:`enumerate_family` are kept past one call.

Rooted (non-binary) trees are immutable :class:`RootedTree` values built
from a parent map.  One rerooting sweep, ``_rerootings``, stands behind
rooted trees, descent counts and forests: it decodes each Prufer
sequence straight into the tree rooted at the greatest label, the one
label the decode never removes, and gives the descent count of every
root, since moving the root across an edge flips that edge only.
:func:`descent_counts` tallies those counts;
:func:`enumerate_rooted_trees` writes the parent tuple of a root that
passes its filter by flipping the edges on the path to the greatest
label;
:func:`enumerate_rooted_forests` reads the set partitions of
``partitions`` and lists each block's rooted trees once per call.
:func:`psi` costs O(n) per tree on [n].  Liu's order on
the trees of one T_{A,i} is computed once per (A, i), as one closure
bitset per tree; :func:`liu_linear_extension` masks the bitsets to its
inputs.
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from functools import lru_cache, wraps
from math import comb, factorial

from .errors import ResourceCapError
from .partitions import bits, drake_product, mask_members, set_partitions_masks

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


def postorder_internal(t, _path=()):
    """Internal nodes in postorder as (path, subtree) pairs.

    A path is a tuple of 'L'/'R' steps from the root.
    """
    if is_leaf(t):
        return []
    out = postorder_internal(t[1], _path + ("L",))
    out += postorder_internal(t[2], _path + ("R",))
    out.append((_path, t))
    return out


def replace_at(t, path, new):
    if not path:
        return new
    col, l, r = t
    if path[0] == "L":
        return (col, replace_at(l, path[1:], new), r)
    return (col, l, replace_at(r, path[1:], new))


def tree_to_bracket(t):
    """Render a tree in bracketed-permutation style, e.g. ``[<1,2>,3]``."""
    if is_leaf(t):
        return str(t)
    lo, hi = ("[", "]") if t[0] == BLUE else ("<", ">")
    return f"{lo}{tree_to_bracket(t[1])},{tree_to_bracket(t[2])}{hi}"


# -- signs, weights and inversions ------------------------------------------

def tree_sign(t):
    """Recursive sign of the underlying (uncolored) binary tree."""
    if is_leaf(t):
        return 1
    sign = tree_sign(t[1]) * tree_sign(t[2])
    if internal_count(t[2]) % 2:
        sign = -sign
    return sign


def tree_weight(t):
    """Sum over internal nodes of the internal-node count of the right subtree."""
    if is_leaf(t):
        return 0
    return internal_count(t[2]) + tree_weight(t[1]) + tree_weight(t[2])


def tree_inversions(t):
    """Pairs (x, y): x blue, y a red node on the right-edge path below x."""
    total = 0
    for _path, node in postorder_internal(t):
        if node[0] != BLUE:
            continue
        y = node[2]
        while not is_leaf(y):
            if y[0] == RED:
                total += 1
            y = y[2]
    return total


def leaf_perm_sign(t):
    """Sign of the left-to-right leaf word as a permutation of its sorted labels."""
    word = leaves(t)
    inv = sum(1 for i in range(len(word))
              for j in range(i + 1, len(word)) if word[i] > word[j])
    return -1 if inv % 2 else 1


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
        is_offending(node) for _p, node in postorder_internal(t))


# -- enumeration -------------------------------------------------------------

def _colorings(t, colors_iter):
    # colors are consumed in postorder, matching postorder_internal indexing
    if is_leaf(t):
        return t
    _x, l, r = t
    left = _colorings(l, colors_iter)
    right = _colorings(r, colors_iter)
    return (next(colors_iter), left, right)


def _bicolored_labels(labels):
    """Sorted label list of ``labels`` (an int n stands for [n]), refused
    past TREE_ENUM_CAP."""
    A = sorted(labels) if not isinstance(labels, int) else list(range(1, labels + 1))
    refuse_past_cap("bicolored trees", len(A))
    return A


def _catalan(m):
    return comb(2 * m, m) // (m + 1)


def enumerate_bicolored(labels, i=None):
    """All labeled bicolored binary trees on the given label set, optionally
    restricted to ``i`` red internal nodes.  Deterministic order: leaf word
    (permutations in lexicographic order), then shape (split point, left
    shape major), then coloring (in postorder, blue before red)."""
    A = _bicolored_labels(labels)
    n = len(A)
    shapes = range(_catalan(n - 1))
    colorings = [_colors_at(n - 1, k, i) for k in range(_colorings_count(n, i))]
    out = []
    for word in itertools.permutations(A):
        for s in shapes:
            shape = _shape_at(word, s)
            out.extend(_colorings(shape, iter(colors)) for colors in colorings)
    return out


def _colorings_count(n, i):
    return 2 ** (n - 1) if i is None else comb(n - 1, i)


def bicolored_count(labels, i=None):
    """``len(enumerate_bicolored(labels, i))`` in closed form:
    n! Cat(n-1) 2^(n-1), or n! Cat(n-1) C(n-1, i) red-count ``i`` trees."""
    n = len(_bicolored_labels(labels))
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
    """``enumerate_bicolored(labels, i)[k]`` without building the list:
    the leaf word, the shape and the coloring are decoded from ``k`` in
    turn, in the enumeration's order."""
    A = _bicolored_labels(labels)
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


# A family comes as columns, one entry per tree: the trees, the red
# counts as bytes (each at most TREE_ENUM_CAP) and, for Lyndon and Liu,
# the label the node rule reads as a list, which holds any int label.
# krs.translate(_ADD[k]) adds k to each red count of krs.
_ADD = [bytes((b + k) & 255 for b in range(256))
        for k in range(TREE_ENUM_CAP + 1)]


class _SubFamilies(dict):
    """The families on proper subsets of one enumeration's label set,
    keyed by sorted label tuple.  A miss builds the family by the
    recursion's ``body``, which reads its own sub-families here.  Nothing
    in the values refers back to the dict, so it is freed with the last
    reference to it, when the enumeration returns."""

    def __init__(self, body):
        super().__init__()
        self.body = body

    def __missing__(self, B):
        got = self[B] = self.body(B, self)
        return got


def _one_memo_per_call(body):
    """The family on a sorted label tuple by ``body(A, sub)``, where
    ``sub[B]`` is the family on a proper subset B: each call makes its own
    ``_SubFamilies`` and drops it with the family on A returned."""

    @wraps(body)
    def family(A):
        return body(A, _SubFamilies(body))

    return family


def _combs_blue_rooted(A, sub):
    trees, reds = [], bytearray()
    for x in A[1:]:
        lefts, kls = sub[tuple(y for y in A if y != x)]
        for l in lefts:
            trees.append((BLUE, l, x))
        reds += kls
    return trees, reds


@_one_memo_per_call
def _combs(A, sub):
    """Bicolored combs on the sorted label tuple ``A`` as (trees, reds):
    ``reds[j]`` is the red count of ``trees[j]``.  A comb's right child is
    a leaf, or a blue-rooted comb under a red node.  The splits read the
    combs on proper subsets of ``A`` from ``sub``."""
    if len(A) == 1:
        return [A[0]], b"\0"
    trees, reds = _combs_blue_rooted(A, sub)
    for left, B in _splits(A, normalized=True):
        rights, krs = (([B[0]], b"\0") if len(B) == 1
                       else _combs_blue_rooted(B, sub))
        lefts, kls = sub[left]
        for rt, kr in zip(rights, krs):
            for l in lefts:
                trees.append((RED, l, rt))
            reds += kls.translate(_ADD[kr + 1])
    return trees, bytes(reds)


def enumerate_combs(labels):
    """All bicolored combs on the label set, by direct recursion."""
    return _combs(tuple(sorted(labels)))[0]


@_one_memo_per_call
def _lyndon(A, sub):
    """Lyndon trees on the sorted label tuple ``A`` as three columns
    (trees, ms, reds): ``ms[j]`` is the least leaf of the right child of
    ``trees[j]`` (None for a leaf) and ``reds[j]`` its red count.

    A normalized node (l, r) is Lyndon when l is a leaf or m(l) > min(r),
    and a node that is not must be blue with a red left child.  The
    splits read the Lyndon trees on proper subsets of ``A`` from
    ``sub``."""
    if len(A) == 1:
        return [A[0]], [None], b"\0"
    trees, ms, reds = [], [], bytearray()
    for L, R in _splits(A, normalized=True):
        x = R[0]
        rights, _rms, krs = sub[R]
        # over each right tree, a blue and then a red node
        krs2 = bytes(k + c for k in krs for c in (0, 1))
        lefts, lms, kls = sub[L]
        for l, m, kl in zip(lefts, lms, kls):
            if m is None or m > x:
                for r in rights:
                    trees.append((BLUE, l, r))
                    trees.append((RED, l, r))
                reds += krs2.translate(_ADD[kl])
            elif l[0] == RED:
                for r in rights:
                    trees.append((BLUE, l, r))
                reds += krs.translate(_ADD[kl])
        # every tree of this split has R's least label as its m
        ms += [x] * (len(trees) - len(ms))
    return trees, ms, bytes(reds)


def enumerate_lyndon(labels):
    """All bicolored Lyndon trees, by direct recursion over the normalized
    splits of the label set."""
    return _lyndon(tuple(sorted(labels)))[0]


@_one_memo_per_call
def _liu(A, sub):
    """Liu-Lyndon trees on the sorted label tuple ``A``, grouped by their
    recursive valency, as {v: (trees, ws, reds)}: ``ws[j]`` is the
    recursive valency of the right child of ``trees[j]`` (None for a
    leaf) and ``reds[j]`` its red count.

    A blue node needs v(l) < v(r) and, over a blue left child, w(l) > v(r);
    a red node needs v(l) > v(r) and a leaf or red left child with
    w(l) < v(r).  Either way the node's valency is v(l).  The splits read
    the Liu-Lyndon trees on proper subsets of ``A`` from ``sub``."""
    if len(A) == 1:
        return {A[0]: ([A[0]], [None], b"\0")}
    out = {}
    for L, R in _splits(A, normalized=False):
        rights = sub[R]
        for vl, (lefts, lws, kls) in sub[L].items():
            trees, ws, reds = out.setdefault(vl, ([], [], bytearray()))
            for l, w, kl in zip(lefts, lws, kls):
                for vr, (rs, _rws, krs) in rights.items():
                    if vl < vr and (w is None or l[0] == RED or w > vr):
                        col, k = BLUE, kl
                    elif vl > vr and (w is None or (l[0] == RED and w < vr)):
                        col, k = RED, kl + 1
                    else:
                        continue
                    trees.extend((col, l, r) for r in rs)
                    ws += [vr] * len(rs)
                    reds += krs.translate(_ADD[k])
    return {v: (trees, ws, bytes(reds)) for v, (trees, ws, reds) in out.items()}


def enumerate_liu(labels):
    """All Liu-Lyndon trees, by direct recursion over the ordered splits
    of the label set."""
    return [t for trees, _ws, _reds in _liu(tuple(sorted(labels))).values()
            for t in trees]


def _family_records(family, A):
    """(tree, red count) of every tree of the family on the sorted label
    tuple ``A``, in ``enumerate_family``'s order."""
    if family == "comb":
        return zip(*_combs(A))
    if family == "lyndon":
        trees, _ms, reds = _lyndon(A)
        return zip(trees, reds)
    if family == "liu":
        return ((t, k) for trees, _ws, reds in _liu(A).values()
                for t, k in zip(trees, reds))
    raise KeyError(family)


@lru_cache(maxsize=None)
def _by_red_count(family, n):
    """{k: the family's trees on [n] with k red nodes}, each list in
    ``enumerate_family``'s order; one pass over the family's records, no
    tree walked.  The one cache that keeps a whole family: the records'
    sub-families are freed when the pass ends."""
    out = {}
    for t, k in _family_records(family, tuple(range(1, n + 1))):
        out.setdefault(k, []).append(t)
    return out


def enumerate_family(family, n, i=None):
    """Enumerate one of the three tree families on ``[n]``, optionally only
    the trees with ``i`` red nodes.

    Each family is a recursion over the splits of the sorted label set
    that joins the trees on both sides under a local node rule: combs and
    Lyndon trees split with 1 on the left (normalized), Liu-Lyndon trees
    over all ordered splits.  The families on proper subsets of [n] are
    memoized for this call only, and nothing keeps the list returned, so
    a family and its sub-families are freed when the caller drops it.
    Each recursion keeps its trees' red counts (and the label its node
    rule reads) as columns beside them, and the trees with ``i`` red
    nodes are grouped and cached once per (family, n).  The list comes
    in that construction's order, which is deterministic but otherwise
    unspecified.  ``n`` past TREE_ENUM_CAP is refused before any work."""
    refuse_past_cap(f"{family} trees", n)
    if i is not None:
        return list(_by_red_count(family, n).get(i, ()))
    fns = {"comb": enumerate_combs, "lyndon": enumerate_lyndon,
           "liu": enumerate_liu}
    return fns[family](tuple(range(1, n + 1)))


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
    A = tuple(sorted(labels))
    refuse_past_cap("rooted trees", len(A))
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
# the bijection psi and the Liu partial order
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


def _rooted_tree_of(t):
    """The rooted tree a bicolored tree reads as: each node (col, l, r)
    hangs the root of r, its leftmost leaf, below the root of l.  On the
    image of psi this inverts psi, so a round trip that already holds T
    checks _rooted_tree_of(psi(T)) == T: if that holds, psi_inverse's
    membership test would pass, and the second psi it costs is saved."""
    pmap = {}

    def root_of(s):
        if is_leaf(s):
            return s
        top = root_of(s[1])
        pmap[root_of(s[2])] = top
        return top

    return RootedTree.from_parent_map(root_of(t), pmap)


def psi_inverse(t):
    """Inverse of :func:`psi`; raises ValueError off the Liu-Lyndon family.

    The Liu-Lyndon trees are exactly the image of psi, so t is one iff
    psi(T) == t for the rooted tree T it reads as (``_rooted_tree_of``)."""
    T = _rooted_tree_of(t)
    if psi(T) != t:
        raise ValueError("psi_inverse requires a Liu-Lyndon tree")
    return T


def _subtree(x, kids):
    """Labels of the subtree below ``x``, ``x`` included."""
    nodes = [x]
    for u in nodes:
        nodes.extend(kids.get(u, ()))
    return frozenset(nodes)


def _liu_place(T, labels, i):
    """(position, closure bitset) of T in its class T_{labels,i}."""
    _trees, position, closure = _liu_reachability(tuple(sorted(labels)), i)
    k = position[T]
    return k, closure[k]


def _edge_splits(T):
    """One entry per edge (c, p) of T, in ``T.parent`` order: the edge's
    color, the labels below it, then for the tree below it (rooted at c)
    and for the tree left above it, its descent count followed by its
    position and closure bitset in its own class (``_liu_place``)."""
    kids = _children_map(T)
    total = T.descent_count()
    labels = T.labels
    out = []
    for c, p in T.parent:
        nodes = _subtree(c, kids)
        inner = tuple(e for e in T.parent if e[0] in nodes and e[0] != c)
        outer = tuple(e for e in T.parent if e[0] not in nodes)
        d_inner = sum(1 for x, y in inner if x < y)
        d_outer = total - d_inner - (c < p)
        out.append((RED if c < p else BLUE, nodes,
                    d_inner, *_liu_place(RootedTree(c, inner), nodes, d_inner),
                    d_outer, *_liu_place(RootedTree(T.root, outer),
                                         labels - nodes, d_outer)))
    return out


@lru_cache(maxsize=None)
def _liu_reachability(labels, i):
    """(trees, position, closure) for Liu's partial order on T_{labels,i}:
    the class's trees in enumeration order, the dict tree -> position, and
    per position the bitset of the positions of the trees >= it, itself
    included: the transitive closure of the one-step relation.

    T steps to T' when cutting some edge of T and some root edge of T',
    both of one color, leaves two forests whose components pair up by
    label set and are <= pairwise.  Every edge split is computed once,
    with its two parts placed in their own smaller classes, and indexed
    by (color, labels below the edge); each root edge of T' then looks up
    the splits of T whose lower labels match its lower or its upper side,
    and each comparison of parts is one bit test.
    """
    trees = enumerate_rooted_trees(list(labels), i)
    m = len(trees)
    splits = [_edge_splits(T) for T in trees]
    index = {}
    for k, tree_splits in enumerate(splits):
        for color, nodes, *parts in tree_splits:
            index.setdefault((color, nodes), []).append((k, *parts))
    everything = frozenset(labels)
    succ = [0] * m
    for kp, Tp in enumerate(trees):
        for (_c, p), split in zip(Tp.parent, splits[kp]):
            if p != Tp.root:
                continue
            color, low, d_low, at_low, _r, d_high, at_high, _r = split
            for k, d1, _at, r1, d2, _at, r2 in index.get((color, low), ()):
                if (k != kp and d1 == d_low and d2 == d_high
                        and r1 >> at_low & 1 and r2 >> at_high & 1):
                    succ[k] |= 1 << kp
            for k, d1, _at, r1, d2, _at, r2 in index.get(
                    (color, everything - low), ()):
                if (k != kp and d1 == d_high and d2 == d_low
                        and r1 >> at_high & 1 and r2 >> at_low & 1):
                    succ[k] |= 1 << kp
    # transitive closure; a cycle would contradict antisymmetry
    closure = [0] * m
    state = [0] * m  # 0 unvisited, 1 on stack, 2 done

    def close(k):
        if state[k] == 1:
            raise RuntimeError("cycle detected in the Liu relation")
        if state[k] == 0:
            state[k] = 1
            acc = 1 << k | succ[k]
            for j in bits(succ[k]):
                acc |= close(j)
            closure[k] = acc
            state[k] = 2
        return closure[k]

    for k in range(m):
        close(k)
    return trees, {T: k for k, T in enumerate(trees)}, closure


def _liu_class(trees):
    """(labels, descent count) shared by all the trees, else ValueError."""
    labels, i = trees[0].labels, trees[0].descent_count()
    for T in trees:
        if T.labels != labels or T.descent_count() != i:
            raise ValueError("the Liu order compares trees in one T_{A,i}")
    return labels, i


def liu_linear_extension(trees):
    """A linear extension of the Liu order (deterministic tie-break).

    Kahn's algorithm over the order among the inputs, read once from the
    closure: it always takes the minimal tree that comes first by
    ``repr``.  Each input's closure bitset is masked to the inputs, so
    the cost is the size of the closure among them.
    """
    order = sorted(trees, key=repr)
    m = len(order)
    above = [[] for _ in range(m)]
    indegree = [0] * m
    if m > 1:
        labels, i = _liu_class(order)
        _trees, position, closure = _liu_reachability(tuple(sorted(labels)), i)
        at = [position[T] for T in order]
        back = {k: a for a, k in enumerate(at)}
        inputs = sum(1 << k for k in back)
        for a, k in enumerate(at):
            for j in bits(closure[k] & inputs & ~(1 << k)):
                b = back[j]
                above[a].append(b)
                indegree[b] += 1
    heap = [k for k in range(m) if indegree[k] == 0]
    out = []
    while heap:
        k = heapq.heappop(heap)
        out.append(order[k])
        for b in above[k]:
            indegree[b] -= 1
            if indegree[b] == 0:
                heapq.heappush(heap, b)
    if len(out) < m:
        raise RuntimeError("cycle detected in the Liu relation")
    return out


# ---------------------------------------------------------------------------
# rooted forests
# ---------------------------------------------------------------------------

def enumerate_rooted_forests(n):
    """All rooted forests on [n] (lists of RootedTree, one per block of a
    set partition, by least label).  Each block's rooted trees are
    enumerated once per call, however many set partitions hold it."""
    refuse_past_cap("rooted forests", n)
    on_block = {}
    for part in set_partitions_masks(n):
        for m in part:
            if m not in on_block:
                on_block[m] = enumerate_rooted_trees(mask_members(m))
        for combo in itertools.product(*(on_block[m] for m in part)):
            yield list(combo)


def forest_counts(n):
    """Numbers of rooted forests on [n] with k = 1..n trees (index k-1),
    from one enumeration, each checked against C(n-1, k-1) n^(n-k)."""
    counts = [0] * n
    for F in enumerate_rooted_forests(n):
        counts[len(F) - 1] += 1
    for k, count in enumerate(counts, 1):
        expected = comb(n - 1, k - 1) * n ** (n - k)
        if count != expected:
            raise AssertionError(f"forest count {count} != {expected} at n={n}, k={k}")
    return counts
