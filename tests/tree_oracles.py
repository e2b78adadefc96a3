"""Brute-force tree helpers the tests use as oracles: family membership
by predicate, the bicolored and normalized trees listed shape by shape,
every linear extension of a tree's internal nodes, the labeled trees as
adjacency dicts oriented from any root, one comparison in Liu's order,
and the swap normal form by its recursive definition.  The package
builds each family directly, decodes each bicolored tree from its
index, decides Liu-Lyndon membership by the psi round trip, sorts the
one extension it reads, decodes each rooted tree already rooted, orders
whole classes at once and carries subtree facts up while it normalizes,
so none of these is needed there."""

import heapq
import itertools

from wpposet import straighten as sn
from wpposet import trees as tr


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
    for _p, node in tr.postorder_internal(t):
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
    nodes = tr.postorder_internal(t)
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


def liu_leq(T1, T2):
    """Liu's partial order on rooted trees with the same label set and
    descent count: one bit test in the class's closure."""
    labels, i = tr._liu_class([T1, T2])
    _trees, position, closure = tr._liu_reachability(tuple(sorted(labels)), i)
    return bool(closure[position[T1]] >> position[T2] & 1)


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
