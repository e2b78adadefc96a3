"""The poset of weighted partitions and its pointed cousin.

A weighted partition of [n] is a set partition in which each block B
carries an integer weight in [0, |B|-1].  Blocks are stored as
``(mask, weight)`` pairs with the mask a bitmask over [n], and a
partition is the tuple of its blocks sorted by minimum element.  The
pointed variant replaces the weight by a distinguished member of the
block.

Covers merge exactly two blocks: the union gets weight w1+w2+u with
u in {0, 1} (weighted) or a point chosen from the two old points
(pointed).  That one cover step is ``merge``; the poset's covers and
the chains of trees and of Pi_T in ``chains`` all take it, and the
blocks it leaves are still sorted.  Every partition is reached from
the singletons by covers, so the elements are the closure of ``bottom``
under ``upper_covers``, and no other rule decides them.  The augmented
poset adjoins a maximum element TOP above the one-block partitions
``one_block(n, i)``: the partition with no blocks, ``()``, so every
element e has rank n - len(e) and TOP alone has rank n.  A ``Poset``
keeps one adjacency, the upper covers, and its bottom is element 0.
"""

from __future__ import annotations

from math import comb

POSET_CAP_N = 9
MOBIUS_CAP_N = 7

WEIGHTED = "weighted"
POINTED = "pointed"
AUGMENTED = "augmented"

# the adjoined maximum of the augmented poset: the partition with no blocks
TOP = ()


class ResourceCapError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""

    def __init__(self, what, limit):
        super().__init__(f"{what} exceeds the enumeration cap {limit}")
        self.what = what
        self.limit = limit


def mask_min(mask):
    return (mask & -mask).bit_length()


def mask_members(mask):
    return [k + 1 for k in bits(mask)]


def bits(x):
    """The positions of the set bits of x, as an ascending list.  The high
    bit is taken first, so x shrinks at each step (isolating the low bit,
    ``x & -x``, costs the whole width of x per bit)."""
    out = []
    while x:
        k = x.bit_length() - 1
        out.append(k)
        x ^= 1 << k
    out.reverse()
    return out


def bottom(n, variant=WEIGHTED):
    """0-hat: the singletons of [n], each weighted 0 (or pointed at its
    own member)."""
    return tuple((1 << (a - 1), 0 if variant == WEIGHTED else a)
                 for a in range(1, n + 1))


def one_block(n, i):
    """[n]^i: the one block of [n], weighted i."""
    return (((1 << n) - 1, i),)


def partition_str(p):
    if p is TOP:
        return "Top"
    parts = []
    for m, v in p:
        parts.append("".join(str(a) for a in mask_members(m)) + f"^{v}")
    return "{" + "|".join(parts) + "}"


def chain_str(chain):
    """A chain of partitions as the CLI and the witnesses print it."""
    return " < ".join(map(partition_str, chain)) or "the empty chain"


def merge(p, i, j, w):
    """p with its blocks i < j replaced by their union, weighted (or
    pointed) w: the one cover step.  The union keeps block i's least
    element, so it takes block i's place and the blocks stay sorted."""
    return p[:i] + ((p[i][0] | p[j][0], w),) + p[i + 1:j] + p[j + 1:]


def upper_covers(p, variant=WEIGHTED):
    """The partitions covering p: every merge of two of its blocks, with
    each weight (or point) the merge allows.  The one place the cover
    relation is decided."""
    out = []
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            v1, v2 = p[i][1], p[j][1]
            choices = (v1 + v2, v1 + v2 + 1) if variant == WEIGHTED else (v1, v2)
            for v in choices:
                out.append(merge(p, i, j, v))
    return out


class Poset:
    """A finite graded poset given by its elements and covers; the order
    relation is their closure, kept as down-set bitsets (``down_sets``).

    The elements are the closure of the bottom under ``upper_covers``,
    grown one rank at a time: each rank is the set of covers of the rank
    below, indexed in sorted order, so elements come rank by rank, bottom
    first, and each cover list in index order.
    """

    def __init__(self, n, variant, augmented):
        self.n = n
        self.variant = variant
        self.augmented = augmented
        elements = self.elements = [bottom(n, variant)]
        covers = self.covers = [[]]
        start = 0
        while start < len(elements):
            # the elements below each cover of this rank, in index order
            below = {}
            for k in range(start, len(elements)):
                for q in upper_covers(elements[k], variant):
                    below.setdefault(q, []).append(k)
            start = len(elements)
            for j, q in enumerate(sorted(below), start):
                elements.append(q)
                covers.append([])
                for k in below[q]:
                    covers[k].append(j)
        if augmented:
            for k in self.maximal_indices():
                covers[k].append(len(elements))
            elements.append(TOP)
            covers.append([])
        self.index = {e: k for k, e in enumerate(elements)}
        self.ranks = [n - len(e) for e in elements]
        self._down = None
        self._mu = None

    def rank_sizes(self):
        sizes = [0] * (max(self.ranks) + 1)
        for r in self.ranks:
            sizes[r] += 1
        return sizes

    def maximal_indices(self):
        """Indices of the one-block partitions, in weight/point order."""
        return [k for k, e in enumerate(self.elements) if len(e) == 1]

    def down_sets(self):
        """Bitset of the elements <= k, for every k: the one stored form
        of the order relation, read by the Mobius sweep, the chain counts
        of ``labeling.interval_counts`` and ``chains.check_boolean``.

        Elements are listed in rank order, so covers only go up in index:
        one pass ORs the down-set of k into each upper cover of k, and
        every down-set is complete before it is read.
        """
        if self._down is None:
            down = [1 << k for k in range(len(self.elements))]
            for k, ups in enumerate(self.covers):
                for j in ups:
                    down[j] |= down[k]
            self._down = down
        return self._down

    def mu_from_bottom(self):
        """mu(0-hat, x) for every element x, one rank-ordered pass:
        mu(0-hat, x) = -sum of mu(0-hat, z) over z < x.  Computed once."""
        if self._mu is None:
            down = self.down_sets()
            mu = [1]
            for k in range(1, len(down)):
                mu.append(-sum(mu[z] for z in bits(down[k] ^ (1 << k))))
            self._mu = mu
        return self._mu


def refuse_partitions(n):
    """The one partition cap: ResourceCapError for n past POSET_CAP_N."""
    if n > POSET_CAP_N:
        raise ResourceCapError(f"partitions of [{n}]", POSET_CAP_N)


# (n, variant) -> poset, emptied before and after each acceptance check
_posets = {}


def build_poset(n, variant=WEIGHTED):
    """Construct the full poset.  variant: weighted | pointed | augmented."""
    if n < 1:
        raise ValueError("n must be positive")
    refuse_partitions(n)
    if variant not in (WEIGHTED, POINTED, AUGMENTED):
        raise ValueError(f"unknown variant {variant!r}")
    if (n, variant) not in _posets:
        base = WEIGHTED if variant == AUGMENTED else variant
        _posets[n, variant] = Poset(n, base, augmented=variant == AUGMENTED)
    return _posets[n, variant]


def mobius_poset(n, variant=WEIGHTED):
    """``build_poset(n, variant)`` for a reader of its Mobius function,
    refused past MOBIUS_CAP_N before anything is built."""
    if n > MOBIUS_CAP_N:
        # the any-pair sweep's wording, kept so cap records keep their bytes
        raise ResourceCapError(f"all-pairs Mobius at n={n}", MOBIUS_CAP_N)
    return build_poset(n, variant)


def type_sums(n, f):
    """For each b <= n, {(k, s): the sum over the weighted partitions of
    a b-set with k blocks and weight sum s of the product of f(|B|, w)
    over their blocks B^w}, none listed: the block of the least element
    has size c (C(b-1, c-1) choices of its rest) and weight 0..c-1."""
    sums = [{(0, 0): 1}]
    for b in range(1, n + 1):
        here = {}
        for c in range(1, b + 1):
            for w in range(c):
                x = comb(b - 1, c - 1) * f(c, w)
                for (k, s), y in sums[b - c].items():
                    here[k + 1, s + w] = here.get((k + 1, s + w), 0) + x * y
        sums.append(here)
    return sums


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def poly_str(coeffs):
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        base = str(c) if k == 0 else (f"{c}*x" if k == 1 else f"{c}*x^{k}")
        terms.append(base)
    return " + ".join(terms) if terms else "0"


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rank_generating_function(n):
    """Coefficients of F(x) = sum_k #(rank-k elements) x^k, cross-checked
    against the closed form C(n,k) (n-k)^k."""
    expected = [comb(n, k) * (n - k) ** k for k in range(n)]
    sizes = build_poset(n, WEIGHTED).rank_sizes()
    if sizes != expected:
        raise AssertionError(f"rank sizes {sizes} != {expected} at n={n}")
    return sizes


def drake_product(n):
    """Coefficients (in t) of prod_{j=1}^{n-1} ((n-j) + j t): up to sign
    the Mobius values mu(0-hat, [n]^i), and the counts of rooted trees on
    [n] by descents and of each tree family on [n] by red nodes."""
    poly = [1]
    for j in range(1, n):
        poly = poly_mul(poly, [n - j, j])
    return poly


def mu_polynomial(n):
    """Coefficients (in t) of sum_i mu(0-hat, [n]^i) t^i, computed on the
    poset and checked against the product formula
    (-1)^(n-1) prod_{j=1}^{n-1} ((n-j) + j t)."""
    P = mobius_poset(n, WEIGHTED)
    mu0 = P.mu_from_bottom()
    got = [mu0[k] for k in P.maximal_indices()]
    expected = [c if n % 2 else -c for c in drake_product(n)]
    if got != expected:
        raise AssertionError(f"mu polynomial {got} != {expected} at n={n}")
    return got


def mu_augmented(n):
    """mu(0-hat, 1-hat) of the augmented poset, checked against
    (-1)^n (n-1)^(n-1)."""
    P = mobius_poset(n, AUGMENTED)
    got = P.mu_from_bottom()[P.index[TOP]]
    expected = (-1) ** n * (n - 1) ** (n - 1)
    if got != expected:
        raise AssertionError(f"mu(0,1) = {got} != {expected} at n={n}")
    return got


def _mu_rank_sums(P, absolute=False):
    """The sum of mu(0-hat, x), or of |mu(0-hat, x)|, over the x of each
    rank, rank 0 first."""
    sums = [0] * (max(P.ranks) + 1)
    for r, m in zip(P.ranks, P.mu_from_bottom()):
        sums[r] += abs(m) if absolute else m
    return sums


def characteristic_polynomial(P):
    """chi(x) = sum_alpha mu(0-hat, alpha) x^(n-1-rank); must be (x-n)^(n-1)."""
    if P.augmented:
        raise ValueError("characteristic polynomial is defined on the "
                         "unaugmented poset")
    n = P.n
    coeffs = _mu_rank_sums(P)[::-1]
    expected = [1]
    for _ in range(n - 1):
        expected = poly_mul(expected, [-n, 1])
    if coeffs != expected:
        raise AssertionError(f"chi {coeffs} != {expected} for {P.variant} n={n}")
    return coeffs


def whitney_matrices(n):
    """The pair A = [(-1)^(i-j) C(i-1,j-1) i^(i-j)], B = [C(i,j) j^(i-j)]
    (1 <= i,j <= n); they must be mutually inverse."""
    A = [[(-1) ** (i - j) * comb(i - 1, j - 1) * i ** (i - j)
          for j in range(1, n + 1)] for i in range(1, n + 1)]
    B = [[comb(i, j) * j ** (i - j) for j in range(1, n + 1)]
         for i in range(1, n + 1)]
    prod = [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    if prod != ident:
        raise AssertionError(f"Whitney matrices are not inverse at n={n}")
    return A, B


def whitney_numbers(P):
    """The Whitney numbers (mu sums, rank sizes) of P's ranks below Top,
    checked against row n of ``whitney_matrices(n)`` read backwards."""
    n = P.n
    rows = [M[-1][::-1] for M in whitney_matrices(n)]
    first, second = _mu_rank_sums(P)[:n], P.rank_sizes()[:n]
    for kind, got, row in zip(("first", "second"), (first, second), rows):
        if got != row:
            raise AssertionError(f"{kind} Whitney numbers {got} != row {n} "
                                 f"of the Whitney matrices, reversed, {row}")
    return first, second


def whitney_cohomology_ranks(n):
    """Ranks of the Whitney cohomology, the sums of |mu(0-hat, x)| over the
    ranks, checked against C(n-1,r) n^r with total (n+1)^(n-1)."""
    got = _mu_rank_sums(mobius_poset(n, WEIGHTED), absolute=True)
    expected = [comb(n - 1, r) * n ** r for r in range(n)]
    if got != expected:
        raise AssertionError(f"Whitney cohomology ranks {got} != {expected}")
    if sum(got) != (n + 1) ** (n - 1):
        raise AssertionError("Whitney cohomology total is off")
    return got


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def to_dot(P):
    """Rank-layered DOT rendering of the Hasse diagram."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    by_rank = {}
    for k, e in enumerate(P.elements):
        by_rank.setdefault(P.ranks[k], []).append(k)
        lines.append(f'  n{k} [label="{partition_str(e)}"];')
    for r in sorted(by_rank):
        ids = " ".join(f"n{k};" for k in by_rank[r])
        lines.append(f"  {{ rank=same; {ids} }}")
    for k, ups in enumerate(P.covers):
        for j in ups:
            lines.append(f"  n{k} -> n{j};")
    lines.append("}")
    return "\n".join(lines)


def json_report(n, variant=WEIGHTED):
    """The report of ``mobius_poset(n, variant)``, as a JSON-serializable
    dict; chi is the first Whitney numbers reversed."""
    P = mobius_poset(n, variant)
    if variant == WEIGHTED:
        mu_poly = mu_polynomial(n)
    else:
        mu_poly = [P.mu_from_bottom()[k] for k in P.maximal_indices()]
    first, second = whitney_numbers(P)
    return {
        "n": n,
        "variant": variant,
        "rank_sizes": P.rank_sizes(),
        "mu_poly": mu_poly,
        "char_poly": None if P.augmented else first[::-1],
        "whitney_first": first,
        "whitney_second": second,
    }

