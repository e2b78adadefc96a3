"""Brute-force tree helpers the tests use as oracles: family membership
by predicate, the normalized trees by shape, every linear extension of a
tree's internal nodes, and one comparison in Liu's order.  The package
builds each family directly, reads one extension at a time and orders
whole classes at once, so none of these is needed there."""

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


def enumerate_normalized(labels, i=None):
    """Normalized labeled bicolored trees only (one per swap orbit)."""
    A = (tuple(sorted(labels)) if not isinstance(labels, int)
         else tuple(range(1, labels + 1)))
    out = []
    for shape in normalized_uncolored(A):
        out.extend(tr._color_all(shape, i))
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


def linear_extensions(t):
    """All permutations tau (0-based tuples over postorder indices) listing
    every internal node before its parent."""
    parents = tr._internal_parents(t)
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


def liu_leq(T1, T2):
    """Liu's partial order on rooted trees with the same label set and
    descent count: one bit test in the class's closure."""
    labels, i = tr._liu_class([T1, T2])
    _trees, position, closure = tr._liu_reachability(tuple(sorted(labels)), i)
    return bool(closure[position[T1]] >> position[T2] & 1)
