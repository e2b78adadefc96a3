"""Edge labeling of the augmented weighted partition poset and its
verification as an EL-labeling.

The label of a merge cover is (a, b)^u where a < b are the minima of the
two merged blocks and u is the weight increment; the cover [n]^i < Top
gets (1, n+1)^0.  Labels live in the poset Lambda_n: the ordinal sum over
a of the componentwise orders on (b, u).
"""

from __future__ import annotations

from functools import lru_cache

from . import partitions as pt
from .errors import ResourceCapError
from .frozen import Frozen

LESS = "less"
GREATER = "greater"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


class EdgeLabel(Frozen):
    """The label (a, b)^u."""

    __slots__ = ("a", "b", "u")

    def __str__(self):
        return f"({self.a},{self.b})^{self.u}"


def edge_label(x, y, n):
    """Label of the cover x < y in the augmented poset on [n]."""
    if y is pt.TOP:
        if x is pt.TOP or len(x) != 1:
            raise ValueError("Top covers only the one-block partitions")
        return EdgeLabel(1, n + 1, 0)
    if not pt.covers(x, y, pt.WEIGHTED):
        raise ValueError("edge_label requires a cover pair")
    gone = sorted(set(x) - set(y), key=lambda blk: pt.mask_min(blk[0]))
    (m1, v1), (m2, v2) = gone
    ((_m, v),) = set(y) - set(x)
    return EdgeLabel(pt.mask_min(m1), pt.mask_min(m2), v - (v1 + v2))


def label_less(p, q):
    """Compare two labels in Lambda_n."""
    if p == q:
        return EQUAL
    if p.a != q.a:
        return LESS if p.a < q.a else GREATER
    if p.b <= q.b and p.u <= q.u:
        return LESS
    if p.b >= q.b and p.u >= q.u:
        return GREATER
    return INCOMPARABLE


def is_increasing(word):
    return all(label_less(p, q) == LESS for p, q in zip(word, word[1:]))


def is_ascent_free(word):
    return all(label_less(p, q) != LESS for p, q in zip(word, word[1:]))


def lex_precedes(word, other):
    """True iff word lexicographically precedes other: at the first
    differing position, word's label is strictly less in Lambda_n."""
    for p, q in zip(word, other):
        if p != q:
            return label_less(p, q) == LESS
    return len(word) <= len(other)


EL_CAP_N = 6  # saturated chains listed: 555,134 on [6], 23.6M on [7]


@lru_cache(maxsize=None)
def _saturated_chains_by_interval(n):
    """(P, by_interval, labels) for the augmented poset P on [n]:
    by_interval maps (x_index, y_index) to the saturated chains (index
    tuples) of every closed interval, and labels maps each cover
    (x_index, y_index) to its edge label, computed once per cover.  n past
    EL_CAP_N is refused before anything is built."""
    if n > EL_CAP_N:
        raise ResourceCapError(f"EL verification on {n} labels", EL_CAP_N)
    P = pt.build_poset(n, pt.AUGMENTED)
    labels = {(x, y): edge_label(P.elements[x], P.elements[y], n)
              for x, ups in enumerate(P.covers) for y in ups}
    down = {}

    def descend(y):
        # all saturated chains ending at y, keyed nowhere: returns list
        if y in down:
            return down[y]
        out = [(y,)]
        for x in P.lower_covers[y]:
            out.extend(chain + (y,) for chain in descend(x))
        down[y] = out
        return out

    by_interval = {}
    for y in range(len(P.elements)):
        for chain in descend(y):
            by_interval.setdefault((chain[0], chain[-1]), []).append(chain)
    return P, by_interval, labels


def _label_word(labels, chain):
    return tuple(map(labels.__getitem__, zip(chain, chain[1:])))


def verify_el(n, collect_rows=False):
    """Check the EL property on every closed interval of the augmented
    poset: exactly one increasing maximal chain, lexicographically first.

    Returns a report dict; report["violations"] is empty iff the check
    passed.  With collect_rows, report["rows"] lists per-interval counts
    (interval, #max chains, #increasing, lex_first_ok, #ascent-free).
    """
    P, by_interval, labels = _saturated_chains_by_interval(n)
    violations = []
    rows = []
    for (x, y), chainlist in sorted(by_interval.items()):
        if x == y:
            continue
        words = [_label_word(labels, c) for c in chainlist]
        increasing = [k for k, w in enumerate(words) if is_increasing(w)]
        lex_ok = (len(increasing) == 1 and all(
            lex_precedes(words[increasing[0]], w)
            for k, w in enumerate(words) if k != increasing[0]))
        if len(increasing) != 1 or not lex_ok:
            violations.append({
                "interval": (pt.partition_str(P.elements[x]),
                             pt.partition_str(P.elements[y])),
                "increasing": len(increasing),
                "lex_first_ok": lex_ok,
            })
        if collect_rows:
            af = sum(1 for w in words if is_ascent_free(w))
            rows.append({
                "x": pt.partition_str(P.elements[x]),
                "y": pt.partition_str(P.elements[y]),
                "max_chains": len(words),
                "increasing": len(increasing),
                "lex_first_ok": lex_ok,
                "ascent_free": af,
            })
    report = {
        "n": n,
        "intervals": sum(1 for (x, y) in by_interval if x != y),
        "violations": violations,
        "passed": not violations,
    }
    if collect_rows:
        report["rows"] = rows
    return report


def ascent_free_chains(n, top):
    """Ascent-free maximal chains of [0-hat, top] in the augmented poset.

    top is a poset element (a partition or pt.TOP); returns index tuples.
    """
    P, by_interval, labels = _saturated_chains_by_interval(n)
    y = P.index[top]
    chains = by_interval.get((P.bottom_index, y), [])
    return P, [c for c in chains if is_ascent_free(_label_word(labels, c))]


def report_csv(n):
    """Per-interval CSV of the EL verification."""
    import csv
    import io
    report = verify_el(n, collect_rows=True)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[
        "x", "y", "max_chains", "increasing", "lex_first_ok", "ascent_free"])
    writer.writeheader()
    for row in report["rows"]:
        writer.writerow(row)
    return buf.getvalue()


def labeled_dot(n):
    """DOT rendering of the augmented Hasse diagram with edge labels."""
    P = pt.build_poset(n, pt.AUGMENTED)
    lines = ["digraph labeled_poset {", "  rankdir=BT;"]
    for k, e in enumerate(P.elements):
        lines.append(f'  n{k} [label="{pt.partition_str(e)}"];')
    for k, ups in enumerate(P.covers):
        for j in ups:
            lab = edge_label(P.elements[k], P.elements[j], n)
            lines.append(f'  n{k} -> n{j} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)
