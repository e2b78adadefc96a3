"""Brute-force tree helpers the tests use as oracles: the internal nodes
by path with a replacement by path, the recursive tree sign, family
membership by predicate, the bicolored and normalized trees listed
shape by shape, every linear extension of a tree's internal nodes, the
labeled trees as adjacency dicts oriented from any root, the rooted
forests on [n] listed block by block with their weighted partitions,
Liu's order on a class as a closure with one comparison and one linear
extension, and the swap normal form by its recursive definition.
The package walks a tree once with each node's own replacement, reads
the sign off the tree weight, builds each family directly, decodes each
bicolored tree from its index, decides Liu-Lyndon membership by the psi
round trip, sorts the one extension it reads, decodes each rooted tree
already rooted, counts the forests of a weighted partition as a product
of descent counts over its blocks, orders the Liu pairing by the trees
whose Pi_T holds each chain and carries subtree facts up while it
normalizes, so none of these is needed there."""

import heapq
import itertools
from functools import lru_cache

from wpposet import partitions as pt
from wpposet import straighten as sn
from wpposet import trees as tr

from poset_oracles import sort_blocks


def postorder_internal(t, _path=()):
    """Internal nodes in postorder as (path, subtree) pairs; a path is a
    tuple of 'L'/'R' steps from the root."""
    if tr.is_leaf(t):
        return []
    out = postorder_internal(t[1], _path + ("L",))
    out += postorder_internal(t[2], _path + ("R",))
    out.append((_path, t))
    return out


def replace_at(t, path, new):
    """``t`` with the subtree at ``path`` replaced by ``new``."""
    if not path:
        return new
    col, l, r = t
    if path[0] == "L":
        return (col, replace_at(l, path[1:], new), r)
    return (col, l, replace_at(r, path[1:], new))


def tree_sign(t):
    """Recursive sign of the underlying (uncolored) binary tree."""
    if tr.is_leaf(t):
        return 1
    sign = tree_sign(t[1]) * tree_sign(t[2])
    if tr.internal_count(t[2]) % 2:
        sign = -sign
    return sign


def is_lyndon_node(node):
    # Nodes whose left child is a leaf are Lyndon by convention: the second
    # smallest label of the subtree then sits in the right subtree.
    l = node[1]
    if tr.is_leaf(l):
        return True
    return tr.min_leaf(l[2]) > tr.min_leaf(node[2])


def is_lyndon(t):
    if not tr.is_normalized(t):
        return False
    for _p, node in postorder_internal(t):
        if not is_lyndon_node(node):
            if not (node[0] == tr.BLUE and not tr.is_leaf(node[1])
                    and node[1][0] == tr.RED):
                return False
    return True


def uncolored_on_word(word):
    """All binary tree shapes whose left-to-right leaf word is ``word``."""
    if len(word) == 1:
        return [word[0]]
    out = []
    for k in range(1, len(word)):
        for l in uncolored_on_word(word[:k]):
            for r in uncolored_on_word(word[k:]):
                out.append(("x", l, r))
    return out


def color_all(shape, i=None):
    """Every coloring of ``shape``'s internal nodes, in postorder: the
    product order, blue before red, or with ``i`` the combinations of
    ``i`` red positions in order."""
    m = tr.internal_count(shape)
    if i is None:
        choices = itertools.product((tr.BLUE, tr.RED), repeat=m)
    else:
        choices = (tuple(tr.RED if k in reds else tr.BLUE for k in range(m))
                   for reds in itertools.combinations(range(m), i))
    return [tr._colorings(shape, iter(colors)) for colors in choices]


def enumerate_bicolored(labels, i=None):
    """Every labeled bicolored tree, listed shape by shape: leaf word, then
    shape, then coloring, the order ``trees.enumerate_bicolored`` keeps."""
    A = (sorted(labels) if not isinstance(labels, int)
         else range(1, labels + 1))
    out = []
    for word in itertools.permutations(A):
        for shape in uncolored_on_word(word):
            out.extend(color_all(shape, i))
    return out


def enumerate_normalized(labels, i=None):
    """Normalized labeled bicolored trees only (one per swap orbit)."""
    A = (tuple(sorted(labels)) if not isinstance(labels, int)
         else tuple(range(1, labels + 1)))
    out = []
    for shape in normalized_uncolored(A):
        out.extend(color_all(shape, i))
    return out


def normalized_uncolored(A):
    """Normalized uncolored labeled shapes on sorted label tuple ``A``."""
    if len(A) == 1:
        return [A[0]]
    out = []
    rest = A[1:]
    for rbits in range(1, 1 << len(rest)):
        right = tuple(x for k, x in enumerate(rest) if rbits >> k & 1)
        left = (A[0],) + tuple(x for k, x in enumerate(rest)
                               if not rbits >> k & 1)
        for l in normalized_uncolored(left):
            for r in normalized_uncolored(right):
                out.append(("x", l, r))
    return out


def internal_parents(t):
    """Postorder parent pointers among internal nodes (root -> None)."""
    nodes = postorder_internal(t)
    pos = {path: k for k, (path, _n) in enumerate(nodes)}
    return [pos[path[:-1]] if path else None for path, _n in nodes]


def linear_extensions(t):
    """All permutations tau (0-based tuples over postorder indices) listing
    every internal node before its parent."""
    parents = internal_parents(t)
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


def prufer_decode(A, seq):
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


def unrooted_trees(A):
    """All labeled trees on sorted tuple A, as adjacency dicts, in Prufer
    order."""
    n = len(A)
    if n == 1:
        yield {A[0]: []}
        return
    for seq in itertools.product(A, repeat=n - 2):
        adj = {x: [] for x in A}
        for u, v in prufer_decode(A, seq):
            adj[u].append(v)
            adj[v].append(u)
        yield adj


def orient(adj, root):
    """child -> parent map of the tree ``adj`` rooted at ``root``, by DFS."""
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


def enumerate_rooted_forests(n):
    """All rooted forests on [n]: lists of RootedTree, one per block of a
    set partition, by least label.  Each block's rooted trees are listed
    once per call, however many set partitions hold it."""
    on_block = {}
    for part in pt.set_partitions_masks(n):
        for m in part:
            if m not in on_block:
                on_block[m] = tr.enumerate_rooted_trees(pt.mask_members(m))
        for combo in itertools.product(*(on_block[m] for m in part)):
            yield list(combo)


def alpha_of_forest(F):
    """The weighted partition of a rooted forest: one block per tree,
    weighted by its descent count."""
    return sort_blocks((pt.members_mask(T.labels), T.descent_count())
                       for T in F)


def _subtree(x, kids):
    """Labels of the subtree below ``x``, ``x`` included."""
    nodes = [x]
    for u in nodes:
        nodes.extend(kids.get(u, ()))
    return frozenset(nodes)


def _liu_place(T, labels, i):
    """(position, closure bitset) of T in its class T_{labels,i}."""
    _trees, position, closure = liu_reachability(tuple(sorted(labels)), i)
    k = position[T]
    return k, closure[k]


def _edge_splits(T):
    """One entry per edge (c, p) of T, in ``T.parent`` order: the edge's
    color, the labels below it, then for the tree below it (rooted at c)
    and for the tree left above it, its descent count followed by its
    position and closure bitset in its own class (``_liu_place``)."""
    kids = tr._children_map(T)
    total = T.descent_count()
    labels = T.labels
    out = []
    for c, p in T.parent:
        nodes = _subtree(c, kids)
        inner = tuple(e for e in T.parent if e[0] in nodes and e[0] != c)
        outer = tuple(e for e in T.parent if e[0] not in nodes)
        d_inner = sum(1 for x, y in inner if x < y)
        d_outer = total - d_inner - (c < p)
        out.append((tr.RED if c < p else tr.BLUE, nodes,
                    d_inner, *_liu_place(tr.RootedTree(c, inner), nodes, d_inner),
                    d_outer, *_liu_place(tr.RootedTree(T.root, outer),
                                         labels - nodes, d_outer)))
    return out


@lru_cache(maxsize=None)
def liu_reachability(labels, i):
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
    trees = tr.enumerate_rooted_trees(list(labels), i)
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
            for j in pt.bits(succ[k]):
                acc |= close(j)
            closure[k] = acc
            state[k] = 2
        return closure[k]

    for k in range(m):
        close(k)
    return trees, {T: k for k, T in enumerate(trees)}, closure


def _liu_class(trees):
    """(closure, position) of the class shared by all the trees, else
    ValueError."""
    labels, i = trees[0].labels, trees[0].descent_count()
    for T in trees:
        if T.labels != labels or T.descent_count() != i:
            raise ValueError("the Liu order compares trees in one T_{A,i}")
    _trees, position, closure = liu_reachability(tuple(sorted(labels)), i)
    return closure, position


def liu_leq(T1, T2):
    """Liu's partial order on rooted trees with the same label set and
    descent count: one bit test in the class's closure."""
    closure, position = _liu_class([T1, T2])
    return bool(closure[position[T1]] >> position[T2] & 1)


def liu_linear_extension(trees):
    """The trees of one class in a linear extension of Liu's order: by
    decreasing number of trees >= them in the class, since a tree below
    another has strictly more, then by ``repr``."""
    closure, position = _liu_class(trees)
    return sorted(trees, key=lambda T: (-closure[position[T]].bit_count(),
                                        repr(T)))


def recursive_valency(t):
    if tr.is_leaf(t):
        return t
    a, b = recursive_valency(t[1]), recursive_valency(t[2])
    return min(a, b) if t[0] == tr.BLUE else max(a, b)


def is_liu_lyndon(t):
    if tr.is_leaf(t):
        return True
    col, l, r = t
    if not (is_liu_lyndon(l) and is_liu_lyndon(r)):
        return False
    vl, vr = recursive_valency(l), recursive_valency(r)
    if col == tr.BLUE:
        if not vl < vr:
            return False
        if not tr.is_leaf(l) and l[0] == tr.BLUE:
            if not recursive_valency(l[2]) > vr:
                return False
    else:
        if not vl > vr:
            return False
        if not tr.is_leaf(l):
            if l[0] != tr.RED:
                return False
            if not recursive_valency(l[2]) < vr:
                return False
    return True


def normalize_signed(t, side):
    """(sign, normalized tree) by the recursive definition: normalize both
    children, then swap them, with the side's swap sign, when the least
    leaf is on the right."""
    if tr.is_leaf(t):
        return 1, t
    col, l, r = t
    sl, l = normalize_signed(l, side)
    sr, r = normalize_signed(r, side)
    sign = sl * sr
    if tr.min_leaf(l) > tr.min_leaf(r):
        sign *= sn.swap_sign(side, l, r)
        l, r = r, l
    return sign, (col, l, r)
