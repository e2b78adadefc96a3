from wpposet import chains as ch
from wpposet import labeling as lb
from wpposet import partitions as pt
from wpposet import trees as tr


def test_edge_label_basic():
    a = pt.bottom(2)
    b0 = pt.sort_blocks(((0b11, 0),))
    b1 = pt.sort_blocks(((0b11, 1),))
    assert lb.edge_label(a, b0, 2) == lb.EdgeLabel(1, 2, 0)
    assert lb.edge_label(a, b1, 2) == lb.EdgeLabel(1, 2, 1)
    assert str(lb.edge_label(a, b1, 2)) == "(1,2)^1"


def test_edge_label_to_top():
    b0 = pt.sort_blocks(((0b111, 0),))
    assert lb.edge_label(b0, pt.TOP, 3) == lb.EdgeLabel(1, 4, 0)


def test_label_order_is_componentwise_within_a():
    l1 = lb.EdgeLabel(1, 2, 0)
    l2 = lb.EdgeLabel(1, 2, 1)
    l3 = lb.EdgeLabel(1, 3, 0)
    assert lb.label_less(l1, l2) == lb.LESS
    assert lb.label_less(l1, l3) == lb.LESS
    # (1,3)^0 vs (1,2)^1: incomparable (componentwise)
    assert lb.label_less(l3, l2) == lb.INCOMPARABLE
    # different a: ordinal sum, all of a=1 below all of a=2
    l4 = lb.EdgeLabel(2, 3, 0)
    assert lb.label_less(l2, l4) == lb.LESS
    assert lb.label_less(l3, l4) == lb.LESS


def test_verify_el_small():
    for n in range(1, 5):
        rep = lb.verify_el(n)
        assert rep["passed"], rep["violations"][:3]


def test_ascent_free_counts_match_mu():
    for n in (3, 4):
        expected = [abs(m) for m in pt.mu_polynomial(n)]
        for i in range(n):
            top = pt.sort_blocks((((1 << n) - 1, i),))
            _P, af = lb.ascent_free_chains(n, top)
            assert len(af) == expected[i]


def test_ascent_free_chains_are_lyndon_chains():
    n = 4
    for i in range(n):
        top = pt.sort_blocks((((1 << n) - 1, i),))
        P, af = lb.ascent_free_chains(n, top)
        got = {tuple(P.elements[k] for k in c) for c in af}
        want = {ch.chain_partitions_of_tree(t, tr.valency_decreasing_tau(t))
                for t in tr.enumerate_family("lyndon", n, i)}
        assert got == want


def test_report_csv_has_rows():
    csv_text = lb.report_csv(3)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("x,y,")
    assert len(lines) > 10


def test_labeled_dot_renders():
    dot = lb.labeled_dot(3)
    assert dot.startswith("digraph")
    assert "(1,4)^0" in dot  # the label to the top


def test_cover_label_table_matches_edge_label():
    for n in range(1, 6):
        P, _by_interval, labels = lb._saturated_chains_by_interval(n)
        assert set(labels) == {(x, y) for x, ups in enumerate(P.covers)
                               for y in ups}
        for (x, y), lab in labels.items():
            assert lab == lb.edge_label(P.elements[x], P.elements[y], n)


# verify_el as it was before the cover table: every edge of every chain
# labelled afresh by edge_label
def _label_word_per_edge(P, chain):
    return tuple(lb.edge_label(P.elements[i], P.elements[j], P.n)
                 for i, j in zip(chain, chain[1:]))


def _verify_el_per_edge(n):
    P, by_interval, _labels = lb._saturated_chains_by_interval(n)
    violations, rows = [], []
    for (x, y), chainlist in sorted(by_interval.items()):
        if x == y:
            continue
        words = [_label_word_per_edge(P, c) for c in chainlist]
        increasing = [k for k, w in enumerate(words) if lb.is_increasing(w)]
        lex_ok = (len(increasing) == 1 and all(
            lb.lex_precedes(words[increasing[0]], w)
            for k, w in enumerate(words) if k != increasing[0]))
        if len(increasing) != 1 or not lex_ok:
            violations.append({
                "interval": (pt.partition_str(P.elements[x]),
                             pt.partition_str(P.elements[y])),
                "increasing": len(increasing),
                "lex_first_ok": lex_ok,
            })
        rows.append({
            "x": pt.partition_str(P.elements[x]),
            "y": pt.partition_str(P.elements[y]),
            "max_chains": len(words),
            "increasing": len(increasing),
            "lex_first_ok": lex_ok,
            "ascent_free": sum(1 for w in words if lb.is_ascent_free(w)),
        })
    return {"n": n, "intervals": sum(1 for x, y in by_interval if x != y),
            "violations": violations, "passed": not violations, "rows": rows}


def test_verify_el_matches_per_edge_labels():
    for n in range(1, 5):
        assert lb.verify_el(n, collect_rows=True) == _verify_el_per_edge(n)
        for i in range(n):
            top = pt.sort_blocks((((1 << n) - 1, i),))
            P, af = lb.ascent_free_chains(n, top)
            by_interval = lb._saturated_chains_by_interval(n)[1]
            assert af == [
                c for c in by_interval[(P.bottom_index, P.index[top])]
                if lb.is_ascent_free(_label_word_per_edge(P, c))]
