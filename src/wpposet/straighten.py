"""Straightening of tree-indexed cohomology generators and Lie elements
into the comb bases.

One rewriting engine serves three sides.  It works on normalized
bicolored trees: an internal node is offending (``trees.is_offending``)
when its right child is internal and the pair is not (red parent, blue
right child).  The associativity and mixed relations, solved for the
offending node (:func:`rewrite_terms`), eliminate it and strictly
decrease the lexicographic (weight, inversions) measure.  A step
rewrites the first offending node in postorder (``trees.sites``) and
normalizes only each replacement, never the whole tree.  The sides share
these rules and differ only in one sign table, :func:`_sign`, read by the
swap and the rewriting rules alike:

* ``cohomology`` (the top cohomology of the maximal intervals of the
  weighted partition poset): (-1)^e, e a product of internal-node counts
  that each rule names;
* ``lie2`` (the multilinear free Lie algebra with two compatible
  brackets): -1;
* ``full`` (the proper part of the whole poset): straightened on the
  cohomology side, then red comb roots flip to blue and the blue-blue
  root pattern is rewritten away, onto the blue-rooted combs.

Sums of trees are plain ``{tree: coeff}`` dicts, added up with
``linalg.vec_add``.
"""

from __future__ import annotations

from . import homology as hm
from . import linalg
from . import trees as tr

COHOMOLOGY = "cohomology"
LIE2 = "lie2"
FULL = "full"


def _sign(side, e):
    """The side's sign table: -1 on lie2, (-1)^e on cohomology."""
    return -1 if side == LIE2 or e % 2 else 1


def swap_sign(side, left, right):
    """Coefficient picked up by swapping the children of a node."""
    return _sign(side, tr.internal_count(left) * tr.internal_count(right))


def normalize_signed(t, side):
    """(sign, normalized tree) under the side's swap relation."""
    sign, t, _least, _size = _normalize(t, side)
    return sign, t


def _normalize(t, side):
    # (sign, normalized tree, least leaf, internal count): each subtree's
    # least leaf and size come up with it, so no subtree is walked again
    if tr.is_leaf(t):
        return 1, t, t, 0
    col, l, r = t
    sl, l, ml, kl = _normalize(l, side)
    sr, r, mr, kr = _normalize(r, side)
    sign = sl * sr
    if ml > mr:
        sign *= _sign(side, kl * kr)
        l, r, ml = r, l, mr
    return sign, (col, l, r), ml, kl + kr + 1


def measure(t):
    return (tr.tree_weight(t), tr.tree_inversions(t))


def _kind(node):
    """The relation that rewrites an offending node."""
    return "assoc" if node[0] == node[2][0] else "mixed"


def rewrite_terms(node, side):
    """Replacement terms for an offending subtree, as (subtree, coeff):
    the associativity relation for Y1 ^ (Y2 ^ Y3) in one color, or the
    mixed relation for Y1 b^ (Y2 r^ Y3), solved for that subtree."""
    c1, u1, (c2, u2, u3) = node
    s3 = _sign(side, tr.internal_count(u3))
    s12 = swap_sign(side, u1, u2)
    if c1 == c2:
        return [
            ((c1, (c1, u1, u2), u3), -s3),
            ((c1, u2, (c1, u1, u3)), -s12),
        ]
    B, R = tr.BLUE, tr.RED
    if c1 == B:
        return [
            ((R, u1, (B, u2, u3)), -1),
            ((B, (R, u1, u2), u3), -s3),
            ((R, (B, u1, u2), u3), -s3),
            ((R, u2, (B, u1, u3)), -s12),
            ((B, u2, (R, u1, u3)), -s12),
        ]
    raise AssertionError("red-blue pattern is not offending")


# Straightened normalized trees by (tree, side), and ``phi`` by tree:
# both are emptied before and after each acceptance check
_memo = {}
_phi = {}


def _straighten_normalized(t, side, trace):
    key = (t, side)
    if trace is None and key in _memo:
        return _memo[key]
    found = next((site for site in tr.sites(t) if tr.is_offending(site[1])),
                 None)
    if found is None:
        # every output comb is produced here, so one check per memo entry
        # covers every later read of it
        if not tr.is_comb(t):
            raise AssertionError("straightened output is not a comb")
        out = {t: 1}
    else:
        path, node, wrap = found
        m0 = measure(t)
        out = {}
        for sub, coeff in rewrite_terms(node, side):
            # a replacement spans its node's leaves, so in a normalized t
            # normalizing it alone normalizes the whole tree
            s2, sub = normalize_signed(sub, side)
            t2 = wrap(sub)
            m2 = measure(t2)
            if not m2 < m0:
                raise AssertionError(
                    f"measure failed to decrease: {m0} -> {m2}")
            if trace is not None:
                trace.append(f"{_kind(node)} at {''.join(path) or 'root'}: "
                             f"{m0} -> {m2} coeff {coeff * s2}")
            linalg.vec_add(out, _straighten_normalized(t2, side, trace),
                           coeff * s2)
    if trace is None:
        _memo[key] = out
    return out


def straighten(t, side=COHOMOLOGY, trace=None):
    """Express the generator of ``t`` in the comb basis of ``side``: the
    engine :func:`straighten_sum` on the one-term sum ``{t: 1}``, with
    ``trace`` passed through."""
    return straighten_sum({t: 1}, side, trace)


def _full_into(out, comb, coeff, trace):
    """Add coeff times a cohomology comb, rewritten onto the blue-rooted
    combs, to out.  A red root flips to blue with a sign; a blue root over
    a blue internal right child takes one associativity step and is
    straightened again, so the size of the root's right subtree strictly
    decreases through the recursion."""
    if not tr.is_leaf(comb) and comb[0] == tr.RED:
        comb = (tr.BLUE, comb[1], comb[2])
        coeff = -coeff
        if trace is not None:
            trace.append("root flip: red -> blue")
    if tr.is_comb(comb):
        linalg.vec_add(out, {comb: 1}, coeff)
        return
    r_size = tr.internal_count(comb[2])
    for sub, c2 in rewrite_terms(comb, COHOMOLOGY):
        s3, t3 = normalize_signed(sub, COHOMOLOGY)
        if not tr.internal_count(t3[2]) < r_size:
            raise AssertionError("right subtree size failed to decrease")
        if trace is not None:
            trace.append(f"root assoc: r {r_size} -> "
                         f"{tr.internal_count(t3[2])} coeff {coeff * c2 * s3}")
        for comb2, c4 in _straighten_normalized(t3, COHOMOLOGY, None).items():
            if not (tr.is_leaf(comb2) or tr.internal_count(comb2[2]) < r_size):
                raise AssertionError("full-poset measure failed to decrease")
            _full_into(out, comb2, coeff * c2 * s3 * c4, trace)


def straighten_sum(s, side, trace=None):
    """Straighten a ``{tree: coeff}`` sum onto the comb basis of ``side``:
    the engine :func:`straighten` calls with one term.

    The terms are normalized and combined first, with no dict per term,
    and only a normal form whose coefficient survives is straightened, so
    a sum that cancels on normalizing, as a swap relation does, reads no
    memo entry.  On the full side the combined cohomology sum is then
    rewritten onto the blue-rooted combs once.  Returns a ``{comb:
    coeff}`` dict; on the full side every comb is blue-rooted.  With a
    list passed as ``trace``, appends one line per rewriting step.
    """
    if side not in (COHOMOLOGY, LIE2, FULL):
        raise ValueError("side must be cohomology, lie2 or full")
    base = COHOMOLOGY if side == FULL else side
    normal = {}
    for t, coeff in s.items():
        sign, t0 = normalize_signed(t, base)
        normal[t0] = normal.get(t0, 0) + coeff * sign
    out = {}
    for t0, coeff in normal.items():
        if coeff:
            linalg.vec_add(out, _straighten_normalized(t0, base, trace),
                           coeff)
    if side != FULL:
        return out
    full = {}
    for comb, coeff in out.items():
        _full_into(full, comb, coeff, trace)
    return full


# ---------------------------------------------------------------------------
# relation instances
# ---------------------------------------------------------------------------

def relation_instances(n, side=COHOMOLOGY):
    """Every instantiation of the relations on bicolored trees over [n],
    yielded as it is built: (kind, position, host, {tree: coeff}), with the
    relation's kind (swap, assoc or mixed), the tuple of 'L'/'R' steps from
    the root to the node it acts on, the anchor tree, and the relation's
    sum, which straightens to zero on ``side``.
    """
    for t in tr.enumerate_bicolored(n):
        for path, node, wrap in tr.sites(t):
            col, l, r = node
            swapped = wrap((col, r, l))
            yield "swap", path, t, {t: 1, swapped: -swap_sign(side, l, r)}
            if tr.is_offending(node):
                rel = {t: 1}
                for sub, coeff in rewrite_terms(node, side):
                    linalg.vec_add(rel, {wrap(sub): 1}, -coeff)
                yield _kind(node), path, t, rel


# ---------------------------------------------------------------------------
# phi and basis verification
# ---------------------------------------------------------------------------

def phi(t):
    """The cochain image of a Lie generator: sgn(sigma) sgn(T) c-bar.
    The one memo of a tree's chain, which ``cochain_sum`` reads too, so a
    check builds each comb's chain once.  Callers only read the dict."""
    if t not in _phi:
        sign = tr.perm_sign(tr.leaves(t)) * (-1) ** tr.tree_weight(t)
        _phi[t] = {k: sign * v for k, v in hm.chain_vector_of_tree(t).items()}
    return _phi[t]


def phi_of_sum(s):
    """The cochain image of a ``{tree: coeff}`` sum of Lie generators."""
    out = {}
    for t, coeff in s.items():
        linalg.vec_add(out, phi(t), coeff)
    return out


def cochain_sum(s):
    """Plain (unsigned) cochain vector of a straightening result, a
    ``{comb: coeff}`` sum."""
    out = {}
    for t, coeff in s.items():
        (chain,) = phi(t)
        linalg.vec_add(out, {chain: 1}, coeff)
    return out


def family_ranks(n, i, families):
    """(count, rank, betti) of each family's cochains in the top quotient
    of (0-hat, [n]^i), or of the proper part when i is None.  A family is
    (name, root): the trees ``trees.enumerate_family`` lists by that name,
    kept only where the root has that colour unless root is None.  On the
    proper part a cochain keeps the top of its chain.  An i outside
    0..n-1 is refused with ValueError first.  Each cap fires before what
    it bounds is paid for: the first family's tree cap before the host is
    made, and the host's chain cap, when it is made, before its poset is
    built and any tree is listed."""
    if i is not None:
        hm.refuse_weight(n, i)
    tr.refuse_past_cap(f"{families[0][0]} trees", n)
    host = hm.proper_part(n) if i is None else hm.open_interval(n, i)
    out = []
    for name, root in families:
        fam = [t for t in tr.enumerate_family(name, n, i)
               if root is None or t[0] == root]
        vectors = [hm.chain_vector_of_tree(t, omit_top=i is not None)
                   for t in fam]
        out.append((len(fam), *hm.rank_in_top_quotient(host, vectors)))
    return out


def verify_bases(n, i=None):
    """Cardinality and full-rank verification of the claimed bases.

    With i, checks the comb / Lyndon / Liu-Lyndon cochain sets in the top
    cohomology of (0-hat, [n]^i) and that the Liu pairing is upper
    triangular in the order of ``liu_linear_extension``, with a unit
    diagonal; with i None, checks the blue-rooted combs and red-rooted
    Lyndon trees in the proper part.
    Returns a report dict with a "passed" flag.  The proper part's claim
    is about n >= 2; a smaller n, or an i outside 0..n-1, is refused with
    ValueError before any work.
    """
    if i is None:
        if n < 2:
            raise ValueError(f"the full side needs n >= 2, got {n}")
        families = {"blue_rooted_comb": ("comb", tr.BLUE),
                    "red_rooted_lyndon": ("lyndon", tr.RED)}
    else:
        families = {name: (name, None) for name in ("comb", "lyndon", "liu")}
    ranks = family_ranks(n, i, list(families.values()))
    report = {"n": n, "passed": True, "families": {}}
    for key, (count, rank, betti) in zip(families, ranks):
        ok = rank == betti == count and (
            i is not None or count == (n - 1) ** (n - 1))
        report["families"][key] = {
            "count": count, "rank": rank, "betti": betti, "ok": ok}
        report["passed"] &= ok
    if i is None:
        report["i"] = "full"
        return report
    report["i"] = i
    ordered = tr.liu_linear_extension(tr.enumerate_rooted_trees(range(1, n + 1), i))
    upper, diag = liu_pairing(ordered)
    report["pairing"] = {"upper_triangular": upper, "unit_diagonal": diag}
    report["passed"] &= upper and diag
    return report


def liu_pairing(ordered):
    """(upper_triangular, unit_diagonal) of the matrix <rho_j, c_k> of the
    fundamental cycles of the Pi_T against the cochains of psi(T), over
    the trees T in the given order.  Each cochain is one chain, so entry
    (j, k) is the coefficient of c_k's chain in rho_j: the chains are
    indexed once and each cycle's chains looked up."""
    chains = [next(iter(hm.chain_vector_of_tree(tr.psi(T)))) for T in ordered]
    column = {c: k for k, c in enumerate(chains)}
    upper = diag = True
    for j, T in enumerate(ordered):
        rho = hm.fundamental_cycle(T)
        upper &= all(column.get(c, j) >= j for c in rho)
        diag &= rho.get(chains[j]) == 1
    return upper, diag
