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
