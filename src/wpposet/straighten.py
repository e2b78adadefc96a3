"""Straightening of tree-indexed cohomology generators and Lie elements
into the comb bases.

The rewriting engine works on normalized bicolored trees.  An internal
node is "offending" when its right child is internal and the pair is not
(red parent, blue right child); the associativity and mixed relations
eliminate the offending pattern, strictly decreasing the lexicographic
(weight, inversions) measure.  The cohomology and Lie sides share the
pattern matching and differ only in their sign tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import chains as ch
from . import homology as hm
from . import trees as tr

COHOMOLOGY = "cohomology"
LIE2 = "lie2"
FULL = "full-poset"


def swap_sign(side, left, right):
    """Coefficient picked up by swapping the children of a node."""
    if side == LIE2:
        return -1
    return -1 if (tr.internal_count(left) * tr.internal_count(right)) % 2 else 1


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
    r = t[2]
    if not tr.is_leaf(r) and not (t[0] == tr.RED and r[0] == tr.BLUE):
        return _path
    return None


def _assoc_terms(side, col, u1, u2, u3):
    """Solve the associativity relation for Y1 ^ (Y2 ^ Y3), same color."""
    if side == LIE2:
        s3, s12 = -1, -1
    else:
        s3 = (-1) ** tr.internal_count(u3)
        s12 = (-1) ** (tr.internal_count(u1) * tr.internal_count(u2))
    return [
        ((col, (col, u1, u2), u3), -s3),
        ((col, u2, (col, u1, u3)), -s12),
    ]


def _mixed_terms(side, u1, u2, u3):
    """Solve the mixed relation for Y1 b^ (Y2 r^ Y3)."""
    B, R = tr.BLUE, tr.RED
    if side == LIE2:
        s3, s12 = -1, -1
    else:
        s3 = (-1) ** tr.internal_count(u3)
        s12 = (-1) ** (tr.internal_count(u1) * tr.internal_count(u2))
    return [
        ((R, u1, (B, u2, u3)), -1),
        ((B, (R, u1, u2), u3), -s3),
        ((R, (B, u1, u2), u3), -s3),
        ((R, u2, (B, u1, u3)), -s12),
        ((B, u2, (R, u1, u3)), -s12),
    ]


def rewrite_terms(node, side):
    """Replacement terms for an offending subtree, as (subtree, coeff)."""
    c1, u1, right = node
    c2, u2, u3 = right
    if c1 == c2:
        return _assoc_terms(side, c1, u1, u2, u3)
    if c1 == tr.BLUE and c2 == tr.RED:
        return _mixed_terms(side, u1, u2, u3)
    raise AssertionError("red-blue pattern is not offending")


@dataclass
class TreeSum:
    """Sparse integer combination of bicolored trees."""

    side: str
    terms: dict = field(default_factory=dict)

    def add(self, t, coeff):
        val = self.terms.get(t, 0) + coeff
        if val:
            self.terms[t] = val
        else:
            self.terms.pop(t, None)

    def scaled_into(self, other, factor):
        for t, c in self.terms.items():
            other.add(t, c * factor)

    def to_json(self):
        return json.dumps(
            [{"tree": tr.tree_to_json(t), "coeff": c}
             for t, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))])


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
                kind = "assoc" if node[0] == node[2][0] else "mixed"
                trace.append(f"{kind} at {''.join(path) or 'root'}: "
                             f"{m0} -> {m2} coeff {coeff * s2}")
            for comb, c in _straighten_normalized(t2, side, trace).items():
                val = out.get(comb, 0) + coeff * s2 * c
                if val:
                    out[comb] = val
                else:
                    out.pop(comb, None)
    if trace is None:
        _memo[key] = out
    return out


def straighten(t, side=COHOMOLOGY, trace=None):
    """Express the generator of ``t`` in the comb basis.

    Returns a TreeSum supported on combs; with a list passed as ``trace``,
    appends one line per rewriting step.
    """
    if side not in (COHOMOLOGY, LIE2):
        raise ValueError("side must be cohomology or lie2")
    sign, t0 = normalize_signed(t, side)
    out = TreeSum(side)
    for comb, c in _straighten_normalized(t0, side, trace).items():
        out.add(comb, sign * c)
    return out


def straighten_full_poset(t, trace=None):
    """Express a full-poset generator in the blue-rooted comb basis.

    Proceeds by interval straightening, then flips red comb roots, then
    removes the blue-blue root pattern; the size of the root's right
    subtree strictly decreases through the recursion.
    """
    out = TreeSum(FULL)
    base = straighten(t, COHOMOLOGY, trace)
    for comb, coeff in base.terms.items():
        _full_into(comb, coeff, out, trace)
    return out


def _full_into(comb, coeff, out, trace):
    if tr.is_leaf(comb):
        out.add(comb, coeff)
        return
    if comb[0] == tr.RED:
        comb = (tr.BLUE, comb[1], comb[2])
        coeff = -coeff
        if trace is not None:
            trace.append("root flip: red -> blue")
    if tr.is_comb(comb):
        out.add(comb, coeff)
        return
    # blue root over a blue internal right child: one associativity step,
    # then re-straighten; the root's right subtree strictly shrinks
    r_size = tr.internal_count(comb[2])
    for sub, c2 in rewrite_terms(comb, COHOMOLOGY):
        s3, t3 = normalize_signed(sub, COHOMOLOGY)
        if not tr.internal_count(t3[2]) < r_size:
            raise AssertionError("right subtree size failed to decrease")
        if trace is not None:
            trace.append(f"root assoc: r {r_size} -> "
                         f"{tr.internal_count(t3[2])} coeff {coeff * c2 * s3}")
        for comb2, c4 in straighten(t3, COHOMOLOGY).terms.items():
            if not (tr.is_leaf(comb2) or tr.internal_count(comb2[2]) < r_size):
                raise AssertionError("full-poset measure failed to decrease")
            _full_into(comb2, coeff * c2 * s3 * c4, out, trace)


# ---------------------------------------------------------------------------
# relation instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationInstance:
    kind: str        # swap | assoc | mixed | type4
    position: tuple  # path from the root
    host: object     # the anchor tree


def relation_instances(n, i=None, side=COHOMOLOGY, trees=None):
    """All instantiations of the relations on trees over [n] (red count i),
    as (RelationInstance, TreeSum) pairs; every sum straightens to zero.
    """
    pool = trees if trees is not None else tr.enumerate_bicolored(n, i)
    out = []
    for t in pool:
        for path, node in tr.postorder_internal(t):
            col, l, r = node
            swap = TreeSum(side)
            swap.add(t, 1)
            swap.add(tr.replace_at(t, path, (col, r, l)), -swap_sign(side, l, r))
            out.append((RelationInstance("swap", path, t), swap))
            if tr.is_leaf(r):
                continue
            c2, u2, u3 = r
            if col == c2:
                rel = TreeSum(side)
                rel.add(t, 1)
                for sub, coeff in _assoc_terms(side, col, l, u2, u3):
                    rel.add(tr.replace_at(t, path, sub), -coeff)
                out.append((RelationInstance("assoc", path, t), rel))
            elif col == tr.BLUE and c2 == tr.RED:
                rel = TreeSum(side)
                rel.add(t, 1)
                for sub, coeff in _mixed_terms(side, l, u2, u3):
                    rel.add(tr.replace_at(t, path, sub), -coeff)
                out.append((RelationInstance("mixed", path, t), rel))
    return out


def straighten_sum(s, full=False):
    """Straighten every term of a TreeSum and combine."""
    out = TreeSum(FULL if full else s.side)
    for t, coeff in s.terms.items():
        part = straighten_full_poset(t) if full else straighten(t, s.side)
        part.scaled_into(out, coeff)
    return out


# ---------------------------------------------------------------------------
# phi and basis verification
# ---------------------------------------------------------------------------

def phi(t):
    """The cochain image of a Lie generator: sgn(sigma) sgn(T) c-bar."""
    sign = tr.leaf_perm_sign(t) * tr.tree_sign(t)
    return {k: sign * v for k, v in hm.chain_vector_of_tree(t).items()}


def phi_of_sum(s):
    out = {}
    for t, coeff in s.terms.items():
        for k, v in phi(t).items():
            val = out.get(k, 0) + coeff * v
            if val:
                out[k] = val
            else:
                out.pop(k, None)
    return out


def cochain_sum(s, omit_top=True):
    """Plain (unsigned) cochain vector of a TreeSum."""
    out = {}
    for t, coeff in s.terms.items():
        for k, v in hm.chain_vector_of_tree(t, omit_top=omit_top).items():
            val = out.get(k, 0) + coeff * v
            if val:
                out[k] = val
            else:
                out.pop(k, None)
    return out


def verify_bases(n, i=None, full=False, liu_pairing=True):
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
    if liu_pairing:
        ordered = tr.liu_linear_extension(tr.enumerate_rooted_trees(range(1, n + 1), i))
        cycles = [hm.fundamental_cycle(T) for T in ordered]
        cochains = [hm.chain_vector_of_tree(tr.psi(T)) for T in ordered]
        M = [[hm.pairing(rho, c) for c in cochains] for rho in cycles]
        upper = all(M[j][k] == 0 for j in range(len(M)) for k in range(j))
        diag = all(M[j][j] == 1 for j in range(len(M)))
        report["pairing"] = {"upper_triangular": upper, "unit_diagonal": diag}
        report["passed"] &= upper and diag
    return report
