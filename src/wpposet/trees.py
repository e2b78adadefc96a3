"""Rooted trees with descents, bicolored binary trees, and the comb /
Lyndon / Liu-Lyndon families.

Bicolored binary trees are plain nested tuples so they hash and compare
for free:

* a leaf is an ``int`` label,
* an internal node is ``(color, left, right)`` with ``color`` in
  ``{"b", "r"}``.

Rooted (non-binary) trees are immutable :class:`RootedTree` values built
from a parent map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

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


def tree_to_json(t):
    if is_leaf(t):
        return {"leaf": t}
    return {"color": "blue" if t[0] == BLUE else "red",
            "left": tree_to_json(t[1]), "right": tree_to_json(t[2])}


def tree_from_json(obj):
    if "leaf" in obj:
        return int(obj["leaf"])
    col = BLUE if obj["color"] == "blue" else RED
    return (col, tree_from_json(obj["left"]), tree_from_json(obj["right"]))


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


def is_comb(t):
    if not is_normalized(t):
        return False
    for _p, node in postorder_internal(t):
        r = node[2]
        if not is_leaf(r) and not (node[0] == RED and r[0] == BLUE):
            return False
    return True


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


def enumerate_bicolored(labels, i=None):
    """All labeled bicolored binary trees on the given label set, optionally
    restricted to ``i`` red internal nodes.  Deterministic order."""
    A = sorted(labels) if not isinstance(labels, int) else list(range(1, labels + 1))
    if len(A) > TREE_ENUM_CAP:
        raise ResourceCapError(f"bicolored trees on {len(A)} labels", TREE_ENUM_CAP)
    out = []
    for word in itertools.permutations(A):
        for shape in _uncolored_on_word(word):
            out.extend(_color_all(shape, i))
    return out


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
    rest = A[1:]
    for rbits in range(1, 1 << len(rest)):
        B = tuple(x for k, x in enumerate(rest) if rbits >> k & 1)
        left = (A[0],) + tuple(x for k, x in enumerate(rest) if not rbits >> k & 1)
        rights = [B[0]] if len(B) == 1 else _combs_blue_rooted(B)
        for rt in rights:
            for l in enumerate_combs(left):
                out.append((RED, l, rt))
    return out


def enumerate_lyndon(labels):
    """All bicolored Lyndon trees, via normalized shapes plus constrained
    colorings (non-Lyndon nodes are blue with a red left child)."""
    A = tuple(sorted(labels))
    out = []
    for shape in _normalized_uncolored(A):
        nodes = postorder_internal(shape)
        pos = {path: k for k, (path, _n) in enumerate(nodes)}
        forced = {}
        ok = True
        for path, node in nodes:
            if not _is_lyndon_node(node):
                for key, val in ((pos[path], BLUE), (pos[path + ("L",)], RED)):
                    if forced.get(key, val) != val:
                        ok = False
                    forced[key] = val
        if not ok:
            continue
        free = [k for k in range(len(nodes)) if k not in forced]
        for bits in range(1 << len(free)):
            colors = dict(forced)
            for j, k in enumerate(free):
                colors[k] = RED if bits >> j & 1 else BLUE
            out.append(_colorings(shape, iter(colors[k] for k in range(len(nodes)))))
    return out


def enumerate_liu(labels):
    """All Liu-Lyndon trees, as the image of the rooted-tree bijection."""
    return [psi(T) for T in enumerate_rooted_trees(sorted(labels))]


def enumerate_family(family, n, i=None, method="direct"):
    """Enumerate one of the three tree families on ``[n]``.

    ``method="filter"`` brute-forces normalized trees through the family
    predicates; ``"direct"`` uses the per-family constructions.
    """
    labels = tuple(range(1, n + 1))
    if method == "filter":
        preds = {"comb": is_comb, "lyndon": is_lyndon, "liu": is_liu_lyndon}
        # Liu-Lyndon trees need not be min-leaf normalized, so filter the
        # full set; combs and Lyndon trees are normalized by definition.
        pool = (enumerate_bicolored(labels) if family == "liu"
                else enumerate_normalized(labels))
        out = [t for t in pool if preds[family](t)]
    else:
        fns = {"comb": enumerate_combs, "lyndon": enumerate_lyndon,
               "liu": enumerate_liu}
        out = fns[family](labels)
    if i is not None:
        out = [t for t in out if red_count(t) == i]
    return sorted(out, key=repr)


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

    def children(self, x):
        return sorted(c for c, p in self.parent if p == x)

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
    import heapq
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
    descents.  Deterministic order (Prufer sequence, then root)."""
    A = tuple(sorted(labels))
    if len(A) > TREE_ENUM_CAP:
        raise ResourceCapError(f"rooted trees on {len(A)} labels", TREE_ENUM_CAP)
    out = []
    for adj in _unrooted_trees(A):
        for root in A:
            T = RootedTree.from_parent_map(root, _orient(adj, root))
            if i is None or T.descent_count() == i:
                out.append(T)
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

def _subtree_nodes(T, x):
    nodes = {x}
    stack = [x]
    while stack:
        u = stack.pop()
        for v in T.children(u):
            nodes.add(v)
            stack.append(v)
    return nodes


def _restrict(T, nodes, root):
    pmap = {c: p for c, p in T.parent if c in nodes and p in nodes}
    return RootedTree.from_parent_map(root, pmap)


def psi(T):
    """Liu's bijection from rooted trees to Liu-Lyndon trees."""
    labels = sorted(T.labels)
    if len(labels) == 1:
        return labels[0]
    r = T.root
    kids = T.children(r)
    bigger = [c for c in kids if c > r]
    x = min(bigger) if bigger else max(kids)
    sub = _subtree_nodes(T, x)
    t_x = _restrict(T, sub, x)
    t_rest = _restrict(T, set(labels) - sub, r)
    col = BLUE if x > r else RED
    return (col, psi(t_rest), psi(t_x))


def psi_inverse(t):
    """Inverse of :func:`psi`; raises ValueError off the Liu-Lyndon family."""
    if not is_liu_lyndon(t):
        raise ValueError("psi_inverse requires a Liu-Lyndon tree")
    T = _psi_inverse_unchecked(t)
    if psi(T) != t:
        raise ValueError("psi_inverse: input is not in the image of psi")
    return T


def _psi_inverse_unchecked(t):
    if is_leaf(t):
        return RootedTree(t, ())
    T1 = _psi_inverse_unchecked(t[1])
    T2 = _psi_inverse_unchecked(t[2])
    pmap = dict(T1.parent)
    pmap.update(dict(T2.parent))
    pmap[T2.root] = T1.root
    return RootedTree.from_parent_map(T1.root, pmap)


def _forest_alpha_key(T, removed_edge):
    """Node-set/descent data of the two components of T minus an edge."""
    c, p = removed_edge
    sub = _subtree_nodes(T, c)
    rest = T.labels - sub
    t1 = _restrict(T, sub, c)
    t2 = _restrict(T, rest, T.root)
    return t1, t2


@lru_cache(maxsize=None)
def _liu_reachability(labels, i):
    """Transitive closure (as a dict tree -> frozenset of >=-trees) of the
    one-step relation defining Liu's partial order on rooted trees."""
    trees = enumerate_rooted_trees(list(labels), i)
    idx = {T: k for k, T in enumerate(trees)}
    m = len(trees)
    succ = [set() for _ in range(m)]
    for T in trees:
        for Tp in trees:
            if T is Tp:
                continue
            if _liu_one_step(T, Tp):
                succ[idx[T]].add(idx[Tp])
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


def _liu_one_step(T, Tp):
    root_p = Tp.root
    for cp, pp in Tp.parent:
        if pp != root_p:
            continue
        color_p = RED if cp < pp else BLUE
        t1p, t2p = _forest_alpha_key(Tp, (cp, pp))
        for c, p in T.parent:
            if (RED if c < p else BLUE) != color_p:
                continue
            t1, t2 = _forest_alpha_key(T, (c, p))
            # match components by node set; descent counts must agree too
            pairs = None
            if t1.labels == t1p.labels and t2.labels == t2p.labels:
                pairs = [(t1, t1p), (t2, t2p)]
            elif t1.labels == t2p.labels and t2.labels == t1p.labels:
                pairs = [(t1, t2p), (t2, t1p)]
            if pairs is None:
                continue
            if all(a.descent_count() == b.descent_count()
                   and liu_leq(a, b) for a, b in pairs):
                return True
    return False


def liu_leq(T1, T2):
    """Liu's partial order on rooted trees with the same label set and
    descent count."""
    if T1.labels != T2.labels or T1.descent_count() != T2.descent_count():
        raise ValueError("liu_leq compares trees in the same T_{A,i}")
    if T1 == T2:
        return True
    if len(T1.labels) <= 2:
        return True
    reach = _liu_reachability(tuple(sorted(T1.labels)), T1.descent_count())
    return T2 in reach[T1]


def liu_linear_extension(trees):
    """A linear extension of the Liu order (deterministic tie-break)."""
    trees = list(trees)
    remaining = sorted(trees, key=repr)
    out = []
    while remaining:
        for T in remaining:
            if not any(liu_leq(S, T) for S in remaining if S != T):
                out.append(T)
                remaining.remove(T)
                break
        else:
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


def forest_count(n, k):
    """Number of rooted forests on [n] with k trees, by enumeration,
    checked against the closed form C(n-1, k-1) n^(n-k)."""
    from math import comb
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    count = sum(1 for F in enumerate_rooted_forests(n) if len(F) == k)
    expected = comb(n - 1, k - 1) * n ** (n - k)
    if count != expected:
        raise AssertionError(f"forest count {count} != {expected} at n={n}, k={k}")
    return count
