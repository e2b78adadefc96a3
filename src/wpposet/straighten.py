"""Straightening of tree-indexed cohomology generators and Lie elements
into the comb bases.

One rewriting engine serves three sides.  It works on normalized
bicolored trees: an internal node is offending (``trees.is_offending``)
when its right child is internal and the pair is not (red parent, blue
right child).  The associativity and mixed relations, solved for the
offending node (:func:`rewrite_terms`), eliminate it and strictly
decrease the lexicographic (weight, inversions) measure.  The sides share
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

from dataclasses import dataclass

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
    if tr.is_leaf(t):
        return 1, t
    col, l, r = t
    sl, l = normalize_signed(l, side)
    sr, r = normalize_signed(r, side)
    sign = sl * sr
    if tr.min_leaf(l) > tr.min_leaf(r):
        sign *= swap_sign(side, l, r)
        l, r = r, l
    return sign, (col, l, r)


def measure(t):
    return (tr.tree_weight(t), tr.tree_inversions(t))


def find_offender(t, _path=()):
    """Path of the first offending node in postorder, or None."""
    if tr.is_leaf(t):
        return None
    for step, child in (("L", t[1]), ("R", t[2])):
        got = find_offender(child, _path + (step,))
        if got is not None:
            return got
    return _path if tr.is_offending(t) else None


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


_memo = {}


def _straighten_normalized(t, side, trace):
    key = (t, side)
    if trace is None and key in _memo:
        return _memo[key]
    path = find_offender(t)
    if path is None:
        # every output comb is produced here, so one check per memo entry
        # covers every later read of it
        if not tr.is_comb(t):
            raise AssertionError("straightened output is not a comb")
        out = {t: 1}
    else:
        node = tr.subtree_at(t, path)
        m0 = measure(t)
        out = {}
        for sub, coeff in rewrite_terms(node, side):
            s2, t2 = normalize_signed(tr.replace_at(t, path, sub), side)
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
    """Express the generator of ``t`` in the comb basis of ``side``.

    Returns a ``{comb: coeff}`` dict; on the full side every comb is
    blue-rooted.  With a list passed as ``trace``, appends one line per
    rewriting step.
    """
    if side not in (COHOMOLOGY, LIE2, FULL):
        raise ValueError("side must be cohomology, lie2 or full")
    base = COHOMOLOGY if side == FULL else side
    sign, t0 = normalize_signed(t, base)
    out = {comb: sign * c
           for comb, c in _straighten_normalized(t0, base, trace).items()}
    if side != FULL:
        return out
    full = {}
    for comb, coeff in out.items():
        _full_into(full, comb, coeff, trace)
    return full


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
        for comb2, c4 in straighten(t3, COHOMOLOGY).items():
            if not (tr.is_leaf(comb2) or tr.internal_count(comb2[2]) < r_size):
                raise AssertionError("full-poset measure failed to decrease")
            _full_into(out, comb2, coeff * c2 * s3 * c4, trace)


def straighten_sum(s, side):
    """Straighten every term of a ``{tree: coeff}`` sum on ``side`` and
    combine."""
    out = {}
    for t, coeff in s.items():
        linalg.vec_add(out, straighten(t, side), coeff)
    return out


# ---------------------------------------------------------------------------
# relation instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationInstance:
    kind: str        # swap | assoc | mixed
    position: tuple  # path from the root
    host: object     # the anchor tree


def relation_instances(n, side=COHOMOLOGY):
    """All instantiations of the relations on bicolored trees over [n], as
    (RelationInstance, {tree: coeff}) pairs; every sum straightens to zero
    on ``side``.
    """
    out = []
    for t in tr.enumerate_bicolored(n):
        for path, node in tr.postorder_internal(t):
            col, l, r = node
            swapped = tr.replace_at(t, path, (col, r, l))
            out.append((RelationInstance("swap", path, t),
                        {t: 1, swapped: -swap_sign(side, l, r)}))
            if tr.is_offending(node):
                rel = {t: 1}
                for sub, coeff in rewrite_terms(node, side):
                    linalg.vec_add(rel, {tr.replace_at(t, path, sub): 1},
                                   -coeff)
                out.append((RelationInstance(_kind(node), path, t), rel))
    return out


# ---------------------------------------------------------------------------
# phi and basis verification
# ---------------------------------------------------------------------------

def phi(t):
    """The cochain image of a Lie generator: sgn(sigma) sgn(T) c-bar."""
    sign = tr.leaf_perm_sign(t) * tr.tree_sign(t)
    return {k: sign * v for k, v in hm.chain_vector_of_tree(t).items()}


def phi_of_sum(s):
    """The cochain image of a ``{tree: coeff}`` sum of Lie generators."""
    out = {}
    for t, coeff in s.items():
        linalg.vec_add(out, phi(t), coeff)
    return out


def cochain_sum(s):
    """Plain (unsigned) cochain vector of a ``{tree: coeff}`` sum."""
    out = {}
    for t, coeff in s.items():
        linalg.vec_add(out, hm.chain_vector_of_tree(t), coeff)
    return out


def verify_bases(n, i=None, full=False):
    """Cardinality and full-rank verification of the claimed bases.

    With full=False checks the comb / Lyndon / Liu-Lyndon cochain sets in
    the top cohomology of (0-hat, [n]^i); with full=True checks the
    blue-rooted combs and red-rooted Lyndon trees in the proper part.
    Returns a report dict with a "passed" flag.
    """
    report = {"n": n, "passed": True, "families": {}}
    if full:
        host = hm.proper_part(n)
        expected = (n - 1) ** (n - 1)
        fams = {
            "blue_rooted_comb": [t for t in tr.enumerate_family("comb", n)
                                 if tr.is_leaf(t) or t[0] == tr.BLUE],
            "red_rooted_lyndon": [t for t in tr.enumerate_family("lyndon", n)
                                  if not tr.is_leaf(t) and t[0] == tr.RED],
        }
        for name, fam in fams.items():
            vectors = [hm.chain_vector_of_tree(t, omit_top=False) for t in fam]
            rank, betti = hm.rank_in_top_quotient(host, vectors)
            ok = len(fam) == expected and rank == betti == expected
            report["families"][name] = {
                "count": len(fam), "rank": rank, "betti": betti, "ok": ok}
            report["passed"] &= ok
        report["i"] = "full"
        return report
    report["i"] = i
    host = hm.open_interval(n, i)
    for name in ("comb", "lyndon", "liu"):
        fam = tr.enumerate_family(name, n, i)
        vectors = [hm.chain_vector_of_tree(t) for t in fam]
        rank, betti = hm.rank_in_top_quotient(host, vectors)
        ok = rank == betti == len(fam)
        report["families"][name] = {
            "count": len(fam), "rank": rank, "betti": betti, "ok": ok}
        report["passed"] &= ok
    ordered = tr.liu_linear_extension(tr.enumerate_rooted_trees(range(1, n + 1), i))
    cycles = [hm.fundamental_cycle(T) for T in ordered]
    cochains = [hm.chain_vector_of_tree(tr.psi(T)) for T in ordered]
    M = [[hm.pairing(rho, c) for c in cochains] for rho in cycles]
    upper = all(M[j][k] == 0 for j in range(len(M)) for k in range(j))
    diag = all(M[j][j] == 1 for j in range(len(M)))
    report["pairing"] = {"upper_triangular": upper, "unit_diagonal": diag}
    report["passed"] &= upper and diag
    return report
