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
how one tree on [7] or [8] is drawn.

The comb, Lyndon and Liu-Lyndon families are each built directly, never
filtered from a larger pool: a memoized recursion over the splits of the
sorted label set joins the trees on both sides under the family's local
node rule, so the work is about the size of the family.
:func:`enumerate_family` returns them in that construction's order.

Rooted (non-binary) trees are immutable :class:`RootedTree` values built
from a parent map; :func:`enumerate_rooted_trees` orients each unrooted
tree once and reroots it by one pointer flip per edge.
:func:`psi` costs O(n) per tree on [n]; Liu's order on
the m trees of one T_{A,i} costs one indexed closure per (A, i), then
O(m^2) for :func:`liu_linear_extension`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from .errors import ResourceCapError

BLUE = "b"
RED = "r"

TREE_ENUM_CAP = 8


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


def subtree_at(t, path):
    for step in path:
        t = t[1] if step == "L" else t[2]
    return t


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


# -- valencies and family membership ----------------------------------------

def minleaf_valencies(t):
    """Postorder-indexed table of min-leaf valencies of the internal nodes."""
    return {k: min_leaf(node) for k, (_p, node) in enumerate(postorder_internal(t))}


def _recursive_valency(t):
    if is_leaf(t):
        return t
    a, b = _recursive_valency(t[1]), _recursive_valency(t[2])
    return min(a, b) if t[0] == BLUE else max(a, b)


def _is_lyndon_node(node):
    # Nodes whose left child is a leaf are Lyndon by convention: the second
    # smallest label of the subtree then sits in the right subtree.
    l = node[1]
    if is_leaf(l):
        return True
    return min_leaf(l[2]) > min_leaf(node[2])


def is_offending(node):
    """Whether the straightening relations rewrite an internal node: its
    right child is internal and the pair is not (red parent, blue right
    child)."""
    r = node[2]
    return not is_leaf(r) and not (node[0] == RED and r[0] == BLUE)


def is_comb(t):
    return is_normalized(t) and not any(
        is_offending(node) for _p, node in postorder_internal(t))


def is_lyndon(t):
    if not is_normalized(t):
        return False
    for _p, node in postorder_internal(t):
        if not _is_lyndon_node(node):
            if not (node[0] == BLUE and not is_leaf(node[1])
                    and node[1][0] == RED):
                return False
    return True


def is_liu_lyndon(t):
    if is_leaf(t):
        return True
    col, l, r = t
    if not (is_liu_lyndon(l) and is_liu_lyndon(r)):
        return False
    vl, vr = _recursive_valency(l), _recursive_valency(r)
    if col == BLUE:
        if not vl < vr:
            return False
        if not is_leaf(l) and l[0] == BLUE:
            if not _recursive_valency(l[2]) > vr:
                return False
    else:
        if not vl > vr:
            return False
        if not is_leaf(l):
            if l[0] != RED:
                return False
            if not _recursive_valency(l[2]) < vr:
                return False
    return True


# -- enumeration -------------------------------------------------------------

def _uncolored_on_word(word):
    """All binary tree shapes whose left-to-right leaf word is ``word``."""
    if len(word) == 1:
        return [word[0]]
    out = []
    for k in range(1, len(word)):
        for l in _uncolored_on_word(word[:k]):
            for r in _uncolored_on_word(word[k:]):
                out.append(("x", l, r))
    return out


def _colorings(t, colors_iter):
    # colors are consumed in postorder, matching postorder_internal indexing
    if is_leaf(t):
        return t
    _x, l, r = t
    left = _colorings(l, colors_iter)
    right = _colorings(r, colors_iter)
    return (next(colors_iter), left, right)


def _color_all(shape, i=None):
    m = internal_count(shape)
    out = []
    if i is None:
        choices = itertools.product((BLUE, RED), repeat=m)
    else:
        choices = (tuple(RED if k in reds else BLUE for k in range(m))
                   for reds in itertools.combinations(range(m), i))
    for colors in choices:
        out.append(_colorings(shape, iter(colors)))
    return out


def _bicolored_labels(labels):
    """Sorted label list of ``labels`` (an int n stands for [n]), refused
    past TREE_ENUM_CAP."""
    A = sorted(labels) if not isinstance(labels, int) else list(range(1, labels + 1))
    if len(A) > TREE_ENUM_CAP:
        raise ResourceCapError(f"bicolored trees on {len(A)} labels", TREE_ENUM_CAP)
    return A


def _catalan(m):
    return comb(2 * m, m) // (m + 1)


def enumerate_bicolored(labels, i=None):
    """All labeled bicolored binary trees on the given label set, optionally
    restricted to ``i`` red internal nodes.  Deterministic order: leaf word
    (permutations in lexicographic order), then shape (split point, left
    shape major), then coloring (in postorder, blue before red)."""
    A = _bicolored_labels(labels)
    out = []
    for word in itertools.permutations(A):
        for shape in _uncolored_on_word(word):
            out.extend(_color_all(shape, i))
    return out


def _colorings_count(n, i):
    return 2 ** (n - 1) if i is None else comb(n - 1, i)


def bicolored_count(labels, i=None):
    """``len(enumerate_bicolored(labels, i))`` in closed form:
    n! Cat(n-1) 2^(n-1), or n! Cat(n-1) C(n-1, i) red-count ``i`` trees."""
    n = len(_bicolored_labels(labels))
    return factorial(n) * _catalan(n - 1) * _colorings_count(n, i)


def _shape_at(word, k):
    """``_uncolored_on_word(word)[k]`` without the list."""
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
    """``k``-th color tuple of ``m`` internal nodes in ``_color_all`` order."""
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


def enumerate_normalized(labels, i=None):
    """Normalized labeled bicolored trees only (one per swap orbit)."""
    A = tuple(sorted(labels)) if not isinstance(labels, int) else tuple(range(1, labels + 1))
    out = []
    for shape in _normalized_uncolored(A):
        out.extend(_color_all(shape, i))
    return out


def _normalized_uncolored(A):
    """Normalized uncolored labeled shapes on sorted label tuple ``A``."""
    if len(A) == 1:
        return [A[0]]
    out = []
    rest = A[1:]
    for rbits in range(1, 1 << len(rest)):
        right = tuple(x for k, x in enumerate(rest) if rbits >> k & 1)
        left = (A[0],) + tuple(x for k, x in enumerate(rest) if not rbits >> k & 1)
        for l in _normalized_uncolored(left):
            for r in _normalized_uncolored(right):
                out.append(("x", l, r))
    return out


def _splits(A, normalized):
    """Every split of the sorted label tuple ``A`` into a nonempty left
    and right part, as (left, right) sorted tuples; with ``normalized``
    only those that keep ``A[0]`` on the left."""
    for rbits in range(2 if normalized else 1, (1 << len(A)) - 1,
                       2 if normalized else 1):
        yield (tuple(x for k, x in enumerate(A) if not rbits >> k & 1),
               tuple(x for k, x in enumerate(A) if rbits >> k & 1))


def _combs_blue_rooted(A):
    out = []
    for x in A[1:]:
        left = tuple(y for y in A if y != x)
        for l in enumerate_combs(left):
            out.append((BLUE, l, x))
    return out


@lru_cache(maxsize=None)
def enumerate_combs(labels):
    """All bicolored combs on the sorted label tuple, by direct recursion."""
    A = tuple(sorted(labels))
    if len(A) == 1:
        return [A[0]]
    out = list(_combs_blue_rooted(A))
    for left, B in _splits(A, normalized=True):
        rights = [B[0]] if len(B) == 1 else _combs_blue_rooted(B)
        for rt in rights:
            for l in enumerate_combs(left):
                out.append((RED, l, rt))
    return out


@lru_cache(maxsize=None)
def _lyndon_on(A):
    """Lyndon trees on the sorted label tuple ``A`` as (tree, m) pairs:
    ``m`` is the least leaf of the tree's right child (None for a leaf).

    A normalized node (l, r) is Lyndon when l is a leaf or m(l) > min(r),
    and a node that is not must be blue with a red left child."""
    if len(A) == 1:
        return [(A[0], None)]
    out = []
    for L, R in _splits(A, normalized=True):
        x = R[0]
        rights = [r for r, _m in _lyndon_on(R)]
        for l, m in _lyndon_on(L):
            if m is None or m > x:
                colors = (BLUE, RED)
            elif l[0] == RED:
                colors = (BLUE,)
            else:
                continue
            for r in rights:
                for c in colors:
                    out.append(((c, l, r), x))
    return out


def enumerate_lyndon(labels):
    """All bicolored Lyndon trees, by direct recursion over the normalized
    splits of the label set."""
    return [t for t, _m in _lyndon_on(tuple(sorted(labels)))]


@lru_cache(maxsize=None)
def _liu_on(A):
    """Liu-Lyndon trees on the sorted label tuple ``A``, grouped by their
    recursive valency, as {v: [(tree, w)]}: ``w`` is the recursive valency
    of the tree's right child (None for a leaf).

    A blue node needs v(l) < v(r) and, over a blue left child, w(l) > v(r);
    a red node needs v(l) > v(r) and a leaf or red left child with
    w(l) < v(r).  Either way the node's valency is v(l)."""
    if len(A) == 1:
        return {A[0]: [(A[0], None)]}
    out = {}
    for L, R in _splits(A, normalized=False):
        rights = _liu_on(R)
        for vl, lefts in _liu_on(L).items():
            acc = out.setdefault(vl, [])
            for l, w in lefts:
                for vr, rs in rights.items():
                    if vl < vr and (w is None or l[0] == RED or w > vr):
                        acc.extend(((BLUE, l, r), vr) for r, _w in rs)
                    elif vl > vr and (w is None or (l[0] == RED and w < vr)):
                        acc.extend(((RED, l, r), vr) for r, _w in rs)
    return out


def enumerate_liu(labels):
    """All Liu-Lyndon trees, by direct recursion over the ordered splits
    of the label set."""
    return [t for group in _liu_on(tuple(sorted(labels))).values()
            for t, _w in group]


def enumerate_family(family, n, i=None):
    """Enumerate one of the three tree families on ``[n]``, optionally only
    the trees with ``i`` red nodes.

    Each family is a memoized recursion over the splits of the sorted
    label set that joins the trees on both sides under a local node rule:
    combs and Lyndon trees split with 1 on the left (normalized), Liu-Lyndon
    trees over all ordered splits.  The list comes in that construction's
    order, which is deterministic but otherwise unspecified.  ``n`` past
    TREE_ENUM_CAP is refused before any work."""
    if n > TREE_ENUM_CAP:
        raise ResourceCapError(f"{family} trees on {n} labels", TREE_ENUM_CAP)
    fns = {"comb": enumerate_combs, "lyndon": enumerate_lyndon,
           "liu": enumerate_liu}
    out = fns[family](tuple(range(1, n + 1)))
    if i is not None:
        return [t for t in out if red_count(t) == i]
    return list(out)


# -- linear extensions -------------------------------------------------------

def _internal_parents(t):
    """Postorder parent pointers among internal nodes (root -> None)."""
    nodes = postorder_internal(t)
    pos = {path: k for k, (path, _n) in enumerate(nodes)}
    parents = []
    for path, _n in nodes:
        parents.append(pos[path[:-1]] if path else None)
    return parents


def linear_extensions(t):
    """All permutations tau (0-based tuples over postorder indices) listing
    every internal node before its parent."""
    parents = _internal_parents(t)
    m = len(parents)
    nchildren = [0] * m
    for p in parents:
        if p is not None:
            nchildren[p] += 1
    out = []

    def rec(placed, pending, remaining):
        if not remaining:
            out.append(tuple(placed))
            return
        for k in sorted(remaining):
            if pending[k] == 0:
                placed.append(k)
                remaining.remove(k)
                p = parents[k]
                if p is not None:
                    pending[p] -= 1
                rec(placed, pending, remaining)
                if p is not None:
                    pending[p] += 1
                remaining.add(k)
                placed.pop()

    rec([], list(nchildren), set(range(m)))
    return out


def identity_extension(t):
    return tuple(range(internal_count(t)))


def valency_decreasing_tau(t):
    """The unique linear extension with weakly decreasing min-leaf valencies."""
    if not is_normalized(t):
        raise ValueError("valency_decreasing_tau expects a normalized tree")
    parents = _internal_parents(t)
    val = minleaf_valencies(t)
    m = len(parents)
    pending = [0] * m
    for p in parents:
        if p is not None:
            pending[p] += 1
    remaining = set(range(m))
    order = []
    while remaining:
        vmax = max(val[k] for k in remaining)
        cands = [k for k in remaining if val[k] == vmax and pending[k] == 0]
        if not cands:
            raise RuntimeError("no weakly decreasing extension exists")
        if len(cands) > 1:
            raise RuntimeError("valency-decreasing extension is not unique")
        k = cands[0]
        order.append(k)
        remaining.remove(k)
        if parents[k] is not None:
            pending[parents[k]] -= 1
    return tuple(order)


# ---------------------------------------------------------------------------
# rooted trees with descents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootedTree:
    """Rooted tree on a finite label set, stored as a sorted parent map."""

    root: int
    parent: tuple  # tuple of (child, parent) pairs, sorted by child

    @property
    def labels(self):
        return frozenset(c for c, _p in self.parent) | {self.root}

    def descent_count(self):
        return sum(1 for c, p in self.parent if c < p)

    def edges(self):
        """Edges as (child, parent, color) with descent edges red."""
        return [(c, p, RED if c < p else BLUE) for c, p in self.parent]

    @staticmethod
    def from_parent_map(root, pmap):
        return RootedTree(root, tuple(sorted(pmap.items())))

    def __repr__(self):
        return f"RootedTree(root={self.root}, parent={dict(self.parent)})"


def _prufer_decode(A, seq):
    """Edges of the labeled (unrooted) tree on sorted tuple A with Prufer
    sequence ``seq``."""
    degree = {x: 1 for x in A}
    for x in seq:
        degree[x] += 1
    leaves_heap = [x for x in A if degree[x] == 1]
    heapq.heapify(leaves_heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves_heap)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves_heap, x)
    u = heapq.heappop(leaves_heap)
    v = heapq.heappop(leaves_heap)
    edges.append((u, v))
    return edges


def _unrooted_trees(A):
    """All labeled trees on sorted tuple A, as adjacency dicts."""
    n = len(A)
    if n == 1:
        yield {A[0]: []}
        return
    for seq in itertools.product(A, repeat=n - 2):
        edges = _prufer_decode(A, seq)
        adj = {x: [] for x in A}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        yield adj


def _orient(adj, root):
    pmap = {}
    stack = [root]
    seen = {root}
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                pmap[v] = u
                stack.append(v)
    return pmap


def enumerate_rooted_trees(labels, i=None):
    """All rooted trees on the label set, optionally with exactly ``i``
    descents.  Deterministic order (Prufer sequence, then root).

    Each unrooted tree is oriented once, from its least label; moving the
    root across an edge flips that edge's parent pointer only, so every
    other root costs one pointer flip and one pass to write its parent
    tuple.
    """
    A = tuple(sorted(labels))
    if len(A) > TREE_ENUM_CAP:
        raise ResourceCapError(f"rooted trees on {len(A)} labels", TREE_ENUM_CAP)
    pos = {x: k for k, x in enumerate(A)}
    out = []
    for adj in _unrooted_trees(A):
        pmap = _orient(adj, A[0])
        # (child, parent) pairs in label order, None at the root
        pairs = [None] + [(x, pmap[x]) for x in A[1:]]
        rooted = {A[0]: (pairs, sum(1 for c, p in pmap.items() if c < p))}
        stack = [A[0]]
        while stack:
            u = stack.pop()
            pu, du = rooted[u]
            for v in adj[u]:
                if v not in rooted:
                    pv = pu.copy()
                    pv[pos[u]], pv[pos[v]] = (u, v), None
                    rooted[v] = (pv, du - (v < u) + (u < v))
                    stack.append(v)
        for k, root in enumerate(A):
            pv, d = rooted[root]
            if i is None or d == i:
                out.append(RootedTree(root, tuple(pv[:k] + pv[k + 1:])))
    return out


def descent_counts(n):
    """Counts of rooted trees on [n] by number of descents, by enumeration.

    Uses an O(n) rerooting sweep per unrooted tree: moving the root across
    an edge flips that edge's orientation only.
    """
    if n > TREE_ENUM_CAP:
        raise ResourceCapError(f"rooted trees on {n} labels", TREE_ENUM_CAP)
    A = tuple(range(1, n + 1))
    counts = [0] * n
    if n == 1:
        counts[0] = 1
        return counts
    for adj in _unrooted_trees(A):
        # descents with root A[0]
        pmap = _orient(adj, A[0])
        d0 = sum(1 for c, p in pmap.items() if c < p)
        dcount = {A[0]: d0}
        stack = [A[0]]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in dcount:
                    # edge u-v flips: child v (of u) becomes parent of u
                    dcount[v] = dcount[u] - (1 if v < u else 0) + (1 if u < v else 0)
                    stack.append(v)
        for x in A:
            counts[dcount[x]] += 1
    return counts


def descent_polynomial(n):
    """Generating polynomial of rooted trees on [n] by descents, computed by
    enumeration and cross-checked against the product formula."""
    counts = descent_counts(n)
    if counts != drake_product(n):
        raise AssertionError(f"descent counts {counts} disagree with the product formula")
    return counts


def drake_product(n):
    """Coefficients of prod_{j=1}^{n-1} ((n-j) + j t)."""
    poly = [1]
    for j in range(1, n):
        new = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            new[k] += c * (n - j)
            new[k + 1] += c * j
        poly = new
    return poly


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


def psi_inverse(t):
    """Inverse of :func:`psi`; raises ValueError off the Liu-Lyndon family."""
    if not is_liu_lyndon(t):
        raise ValueError("psi_inverse requires a Liu-Lyndon tree")
    T = _psi_inverse_unchecked(t)
    if psi(T) != t:
        raise ValueError("psi_inverse: input is not in the image of psi")
    return T


def _psi_inverse_unchecked(t):
    # each node (col, l, r) hangs the root of r, its leftmost leaf, below
    # the root of l; one pass collects the whole parent map
    pmap = {}

    def root_of(s):
        if is_leaf(s):
            return s
        top = root_of(s[1])
        pmap[root_of(s[2])] = top
        return top

    return RootedTree.from_parent_map(root_of(t), pmap)


def _subtree(x, kids):
    """Labels of the subtree below ``x``, ``x`` included."""
    nodes = [x]
    for u in nodes:
        nodes.extend(kids.get(u, ()))
    return frozenset(nodes)


def _edge_splits(T):
    """One entry per edge (c, p) of T, in ``T.parent`` order: the edge's
    color, the labels below it, the tree below it rooted at c and its
    descent count, the tree left above it and its descent count."""
    kids = _children_map(T)
    total = T.descent_count()
    out = []
    for c, p in T.parent:
        nodes = _subtree(c, kids)
        inner = tuple(e for e in T.parent if e[0] in nodes and e[0] != c)
        outer = tuple(e for e in T.parent if e[0] not in nodes)
        d_inner = sum(1 for x, y in inner if x < y)
        out.append((RED if c < p else BLUE, nodes,
                    RootedTree(c, inner), d_inner,
                    RootedTree(T.root, outer), total - d_inner - (c < p)))
    return out


@lru_cache(maxsize=None)
def _liu_reachability(labels, i):
    """Transitive closure (as a dict tree -> frozenset of >=-trees) of the
    one-step relation defining Liu's partial order on rooted trees.

    T steps to T' when cutting some edge of T and some root edge of T',
    both of one color, leaves two forests whose components pair up by
    label set and are <= pairwise.  Every edge split is computed once and
    indexed by (color, labels below the edge); each root edge of T' then
    looks up the splits of T whose lower labels match its lower or its
    upper side.
    """
    trees = enumerate_rooted_trees(list(labels), i)
    m = len(trees)
    splits = [_edge_splits(T) for T in trees]
    index = {}
    for k, tree_splits in enumerate(splits):
        for color, nodes, *parts in tree_splits:
            index.setdefault((color, nodes), []).append((k, *parts))
    everything = frozenset(labels)
    succ = [set() for _ in range(m)]
    for kp, Tp in enumerate(trees):
        for (_c, p), split in zip(Tp.parent, splits[kp]):
            if p != Tp.root:
                continue
            color, low, t_low, d_low, t_high, d_high = split
            high = everything - low
            for k, t1, d1, t2, d2 in index.get((color, low), ()):
                if (k != kp and d1 == d_low and d2 == d_high
                        and _liu_leq_within(t1, t_low, low, d1)
                        and _liu_leq_within(t2, t_high, high, d2)):
                    succ[k].add(kp)
            for k, t1, d1, t2, d2 in index.get((color, high), ()):
                if (k != kp and d1 == d_high and d2 == d_low
                        and _liu_leq_within(t1, t_high, high, d1)
                        and _liu_leq_within(t2, t_low, low, d2)):
                    succ[k].add(kp)
    # transitive closure; a cycle would contradict antisymmetry
    closure = [None] * m
    state = [0] * m  # 0 unvisited, 1 on stack, 2 done

    def close(k):
        if state[k] == 1:
            raise RuntimeError("cycle detected in the Liu relation")
        if state[k] == 2:
            return closure[k]
        state[k] = 1
        acc = set(succ[k])
        for j in succ[k]:
            acc |= close(j)
        closure[k] = acc
        state[k] = 2
        return acc

    for k in range(m):
        close(k)
    return {trees[k]: frozenset(trees[j] for j in closure[k]) | {trees[k]}
            for k in range(m)}


def _liu_leq_within(T1, T2, labels, i):
    """liu_leq for two trees known to lie in T_{labels,i}."""
    if T1 == T2 or len(labels) <= 2:
        return True
    return T2 in _liu_reachability(tuple(sorted(labels)), i)[T1]


def _liu_class(trees):
    """(labels, descent count) shared by all the trees, else ValueError."""
    labels, i = trees[0].labels, trees[0].descent_count()
    for T in trees:
        if T.labels != labels or T.descent_count() != i:
            raise ValueError("liu_leq compares trees in the same T_{A,i}")
    return labels, i


def liu_leq(T1, T2):
    """Liu's partial order on rooted trees with the same label set and
    descent count."""
    return _liu_leq_within(T1, T2, *_liu_class([T1, T2]))


def liu_linear_extension(trees):
    """A linear extension of the Liu order (deterministic tie-break).

    Kahn's algorithm over the order among the inputs, read once from the
    closure: it always takes the minimal tree that comes first by
    ``repr``.  O(m^2) in the m inputs once the closure is built.
    """
    order = sorted(trees, key=repr)
    m = len(order)
    above = [[] for _ in range(m)]
    indegree = [0] * m
    if m > 1:
        labels, i = _liu_class(order)
        reach = _liu_reachability(tuple(sorted(labels)), i)
        for a, S in enumerate(order):
            up = reach[S]
            for b, T in enumerate(order):
                if T != S and T in up:
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

def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def enumerate_rooted_forests(n):
    """All rooted forests on [n] (lists of RootedTree)."""
    if n > TREE_ENUM_CAP:
        raise ResourceCapError(f"rooted forests on {n} labels", TREE_ENUM_CAP)
    for part in _set_partitions(range(1, n + 1)):
        blocks = [sorted(b) for b in part]
        choices = [enumerate_rooted_trees(b) for b in blocks]
        for combo in itertools.product(*choices):
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


def forest_count(n, k):
    """Number of rooted forests on [n] with k trees; see :func:`forest_counts`."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return forest_counts(n)[k - 1]
