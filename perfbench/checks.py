"""Independent closed forms and predicates the benchmark checks outputs with.

Nothing here calls wpposet: each expected value is computed from the
paper's formulas with the standard library, and each predicate walks the
program's plain-tuple trees itself.
"""

from math import comb


def rank_sizes(n):
    """Elements of rank k in the weighted partition poset: C(n,k)(n-k)^k."""
    return [comb(n, k) * (n - k) ** k for k in range(n)]


def product_coefficients(n):
    """Coefficients in t of prod_{j=1}^{n-1} ((n-j) + j t).

    They count rooted trees on [n] by descents, the comb / Lyndon / Liu
    trees on [n] by red nodes, and |mu(0, [n]^i)|.
    """
    poly = [1]
    for j in range(1, n):
        nxt = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k] += c * (n - j)
            nxt[k + 1] += c * j
        poly = nxt
    return poly


def mu_polynomial(n):
    """mu(0, [n]^i) for i = 0..n-1: (-1)^(n-1) times the product coefficients."""
    sign = -1 if n % 2 == 0 else 1
    return [sign * c for c in product_coefficients(n)]


def pointed_mu_values(n):
    """mu(0, maximal element) in the pointed poset, one per point.

    The n maximal elements are permuted transitively by S_n and their
    values sum to the constant term (-n)^(n-1) of (x - n)^(n-1).
    """
    return [(-1) ** (n - 1) * n ** (n - 2) if n > 1 else 1] * n


def characteristic_polynomial(n):
    """Coefficients of (x - n)^(n-1), constant term first."""
    return [comb(n - 1, k) * (-n) ** (n - 1 - k) for k in range(n)]


def whitney_first(n):
    return [(-1) ** k * comb(n - 1, k) * n ** k for k in range(n)]


def whitney_cohomology_ranks(n):
    return [comb(n - 1, r) * n ** r for r in range(n)]


def proper_part_betti(n):
    return (n - 1) ** (n - 1)


def family_total(n):
    return n ** (n - 1)


def whitney_total(n):
    return (n + 1) ** (n - 1)


# -- plain-tuple trees: a leaf is an int, a node is (color, left, right) --

def leaf_labels(t):
    if isinstance(t, int):
        return [t]
    return leaf_labels(t[1]) + leaf_labels(t[2])


def red_nodes(t):
    if isinstance(t, int):
        return 0
    return (t[0] == "r") + red_nodes(t[1]) + red_nodes(t[2])


def descents(parent_pairs):
    """Edges (child, parent) with child < parent."""
    return sum(1 for c, p in parent_pairs if c < p)


def dot(u, v):
    if len(v) < len(u):
        u, v = v, u
    return sum(x * v[k] for k, x in u.items() if k in v)


def is_unitriangular(rows):
    """Upper triangular with ones on the diagonal."""
    return all(rows[j][k] == (1 if j == k else 0)
               for j in range(len(rows)) for k in range(j + 1))

