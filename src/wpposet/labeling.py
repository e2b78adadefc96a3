"""Edge labeling of the augmented weighted partition poset and its
verification as an EL-labeling.

The label of a merge cover is (a, b)^u where a < b are the minima of the
two merged blocks and u is the weight increment; the cover [n]^i < Top
gets (1, n+1)^0.  Labels live in the poset Lambda_n: the ordinal sum over
a of the componentwise orders on (b, u).  ``cover_labels`` reads each
label off a cover pair of the poset (covers are decided only by
``partitions.upper_covers``) into one table, which the EL check, the
ascent-free count of criterion 8 and the DOT rendering all take.

Chains are counted over the covers, never listed: ``interval_counts``
walks down from one top y, and every cover inside [., y] carries the
numbers of increasing and of ascent-free maximal chains that start with
it.  The EL property (Bjorner-Wachs, Trans. AMS 1996) is that count,
read for every top by ``verify_el``.
"""

from __future__ import annotations

from collections import namedtuple

from . import partitions as pt


class EdgeLabel(namedtuple("EdgeLabel", "a b u")):
    """The label (a, b)^u."""

    __slots__ = ()

    def __str__(self):
        return f"({self.a},{self.b})^{self.u}"


def label_less(p, q):
    """True iff p lies strictly below q in Lambda_n."""
    if p.a != q.a:
        return p.a < q.a
    return p != q and p.b <= q.b and p.u <= q.u


EL_CAP_N = 6  # table and count: about 0.4 s on [6], 6-9 s and 116 MiB on [7]


def cover_labels(n):
    """(P, labels) for the augmented poset P on [n]: labels maps each cover
    (x_index, y_index) of P.covers to its edge label, read off the two
    partitions.  n past EL_CAP_N is refused before anything is built."""
    if n > EL_CAP_N:
        raise pt.ResourceCapError(f"EL verification on {n} labels", EL_CAP_N)
    P = pt.build_poset(n, pt.AUGMENTED)
    top = P.index[pt.TOP]
    labels = {}
    for k, ups in enumerate(P.covers):
        x = P.elements[k]
        for j in ups:
            if j == top:
                labels[k, j] = EdgeLabel(1, n + 1, 0)
                continue
            y = P.elements[j]
            # blocks are sorted by least element, so the first merged
            # block holds a and the second b
            (m1, v1), (m2, v2) = [blk for blk in x if blk not in y]
            ((_m, v),) = [blk for blk in y if blk not in x]
            labels[k, j] = EdgeLabel(pt.mask_min(m1), pt.mask_min(m2),
                                     v - (v1 + v2))
    return P, labels


COUNTS = ("max_chains", "increasing", "lex_first_ok", "ascent_free")


def interval_counts(P, labels, y):
    """{z: COUNTS of [z, y]} for every z < y: the numbers of maximal
    chains, of increasing and of ascent-free ones under the cover labels
    ``labels`` of P (as from ``cover_labels``), and whether exactly one is
    increasing and lexicographically first.  The upper covers of each
    element must carry distinct labels, as ``verify_el`` checks.
    """
    # distinct labels make lex-first a test of single steps: each step of
    # the increasing chain leads, its label strictly below every other
    # cover label inside the interval.
    # steps[z]: (label, #increasing, #ascent-free, lex-ok) of each cover
    # z < w inside [., y], over the maximal chains of [z, y] that start
    # with it; lex-ok, read only where exactly one is increasing, says
    # that every step of that one leads
    below = P.down_sets()[y]
    steps, chains, counts = {y: []}, {y: 1}, {}
    for z in reversed(pt.bits(below ^ (1 << y))):
        out, max_chains = [], 0
        for w in P.covers[z]:
            if not below >> w & 1:
                continue
            lab = labels[z, w]
            inc, af, ok = (1, 1, True) if w == y else (0, 0, False)
            for lv, iv, av, okv in steps[w]:
                if label_less(lab, lv):
                    inc += iv
                    if iv:
                        ok = okv
                else:
                    af += av
            out.append((lab, inc, af, ok))
            max_chains += chains[w]
        steps[z] = [(lab, inc, af, ok and inc == 1 and all(
            label_less(lab, other) for other, *_ in out if other != lab))
            for lab, inc, af, ok in out]
        chains[z] = max_chains
        increasing = sum(s[1] for s in out)
        counts[z] = (max_chains, increasing,
                     increasing == 1 and any(s[3] for s in steps[z]),
                     sum(s[2] for s in out))
    return counts


def verify_el(P, labels):
    """Check the EL property of the cover labels ``labels`` (as from
    ``cover_labels``) on every closed interval of P: exactly one
    increasing maximal chain, lexicographically first.

    Returns a report dict; report["violations"] is empty iff the check
    passed, and report["rows"] lists the interval and its COUNTS from
    ``interval_counts``, in interval order.  Two upper covers of one
    element with one label raise AssertionError.
    """
    for z, ups in enumerate(P.covers):
        if len({labels[z, w] for w in ups}) != len(ups):
            raise AssertionError(f"two upper covers of "
                                 f"{pt.partition_str(P.elements[z])} "
                                 f"share a label")
    names = [pt.partition_str(e) for e in P.elements]
    rows_by_x = [[] for _ in names]
    for y in range(len(names)):
        for z, counts in interval_counts(P, labels, y).items():
            rows_by_x[z].append({"x": names[z], "y": names[y],
                                 **dict(zip(COUNTS, counts))})
    rows = [row for per_x in rows_by_x for row in per_x]
    violations = [{"interval": (row["x"], row["y"]),
                   "increasing": row["increasing"],
                   "lex_first_ok": row["lex_first_ok"]}
                  for row in rows if not row["lex_first_ok"]]
    return {"n": P.n, "intervals": len(rows), "violations": violations,
            "passed": not violations, "rows": rows}


def labeled_dot(P, labels):
    """DOT rendering of the Hasse diagram of P with its cover labels."""
    lines = ["digraph labeled_poset {", "  rankdir=BT;"]
    for k, e in enumerate(P.elements):
        lines.append(f'  n{k} [label="{pt.partition_str(e)}"];')
    for (k, j), lab in labels.items():
        lines.append(f'  n{k} -> n{j} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)
