import pytest

from wpposet import acceptance
from wpposet import chains as ch
from wpposet import labeling as lb
from wpposet import partitions as pt
from wpposet import trees as tr

from poset_oracles import (ascent_free_chains_by_listing, edge_label,
                           el_report_by_listing, sort_blocks)


def _label(n, x, y):
    P, labels = lb.cover_labels(n)
    return labels[P.index[x], P.index[y]]


def _lyndon_chains(n, i):
    return {ch.chain_partitions_of_tree(t, tr.valency_decreasing_tau(t))
            for t in tr.enumerate_family("lyndon", n, i)}


def test_edge_label_basic():
    a = pt.bottom(2)
    b0 = sort_blocks(((0b11, 0),))
    b1 = sort_blocks(((0b11, 1),))
    assert _label(2, a, b0) == lb.EdgeLabel(1, 2, 0)
    assert _label(2, a, b1) == lb.EdgeLabel(1, 2, 1)
    assert str(_label(2, a, b1)) == "(1,2)^1"


def test_edge_label_to_top():
    b0 = sort_blocks(((0b111, 0),))
    assert _label(3, b0, pt.TOP) == lb.EdgeLabel(1, 4, 0)


def test_label_order_is_componentwise_within_a():
    l1 = lb.EdgeLabel(1, 2, 0)
    l2 = lb.EdgeLabel(1, 2, 1)
    l3 = lb.EdgeLabel(1, 3, 0)
    assert lb.label_less(l1, l2) and not lb.label_less(l2, l1)
    assert lb.label_less(l1, l3)
    # (1,3)^0 vs (1,2)^1: incomparable (componentwise)
    assert not lb.label_less(l3, l2) and not lb.label_less(l2, l3)
    # strictly: a label is not below itself
    assert not lb.label_less(l1, lb.EdgeLabel(1, 2, 0))
    # different a: ordinal sum, all of a=1 below all of a=2
    l4 = lb.EdgeLabel(2, 3, 0)
    assert lb.label_less(l2, l4) and not lb.label_less(l4, l2)
    assert lb.label_less(l3, l4)


def test_verify_el_small():
    for n in range(1, 5):
        rep = lb.verify_el(*lb.cover_labels(n))
        assert rep["passed"], rep["violations"][:3]


def test_ascent_free_counts_match_mu():
    for n in (3, 4):
        expected = [abs(m) for m in pt.mu_polynomial(n)]
        P, labels = lb.cover_labels(n)
        for i in range(n):
            top = sort_blocks((((1 << n) - 1, i),))
            af = ascent_free_chains_by_listing(P, labels, top)
            assert len(af) == expected[i]


def test_ascent_free_chains_are_lyndon_chains():
    n = 4
    P, labels = lb.cover_labels(n)
    for i in range(n):
        top = sort_blocks((((1 << n) - 1, i),))
        af = ascent_free_chains_by_listing(P, labels, top)
        got = {tuple(P.elements[k] for k in c) for c in af}
        assert got == _lyndon_chains(n, i)


def test_labeled_dot_renders():
    dot = lb.labeled_dot(*lb.cover_labels(3))
    assert dot.startswith("digraph")
    assert "(1,4)^0" in dot  # the label to the top


def test_cover_label_table_matches_edge_label():
    for n in range(1, 7):
        P, labels = lb.cover_labels(n)
        assert set(labels) == {(x, y) for x, ups in enumerate(P.covers)
                               for y in ups}
        for (x, y), lab in labels.items():
            assert lab == edge_label(P.elements[x], P.elements[y], n)


def test_verify_el_matches_per_edge_labels():
    # the count over covers against the listing of every saturated chain,
    # its label words read edge by edge from the cover table
    for n in range(1, 6):
        P, labels = lb.cover_labels(n)
        assert lb.verify_el(P, labels) == el_report_by_listing(P, labels)
        tops = [sort_blocks((((1 << n) - 1, i),)) for i in range(n)]
        for top in tops + [pt.TOP]:
            counts = lb.interval_counts(P, labels, P.index[top])
            af = ascent_free_chains_by_listing(P, labels, top)
            # [1]^0 is the bottom: one chain, and no interval below it
            assert counts[0][3] == len(af) if counts else af == [(0,)]


def _swapped(labels, z, w1, w2):
    bad = dict(labels)
    bad[z, w1], bad[z, w2] = labels[z, w2], labels[z, w1]
    return bad


def test_swapped_labels_fail_both_routes():
    # every swap of two upper-cover labels of one element at n = 3, the
    # first two included: the count and the listing agree, and some swaps
    # break EL, one of them with a single increasing chain that is not
    # lexicographically first
    P, labels = lb.cover_labels(3)
    failing = []
    for z, ups in enumerate(P.covers):
        for k, w1 in enumerate(ups):
            for w2 in ups[k + 1:]:
                bad = _swapped(labels, z, w1, w2)
                rep = lb.verify_el(P, bad)
                assert rep == el_report_by_listing(P, bad)
                failing += rep["violations"]
    assert any(v["increasing"] != 1 for v in failing)
    assert any(v["increasing"] == 1 for v in failing)


def _criterion_8_passes(n):
    try:
        acceptance._ascent_free_chains(n)
    except AssertionError:
        return False
    return True


def _listing_passes(n, P, labels, lyndon):
    # the listed ascent-free chains of every [0-hat, [n]^i] are the
    # Lyndon chains lyndon[i], as many as the descent counts say
    counts = tr.descent_counts(n)
    for i in range(n):
        top = (((1 << n) - 1, i),)
        af = ascent_free_chains_by_listing(P, labels, top)
        got = {tuple(P.elements[k] for k in c) for c in af}
        if got != lyndon[i] or len(af) != counts[i]:
            return False
    return True


@pytest.mark.parametrize("n, swaps, failing", [(3, 21, 9), (4, 270, 170)])
def test_criterion_8_fails_exactly_when_the_listing_does(monkeypatch, n,
                                                         swaps, failing):
    # every swap of two upper-cover labels of one element: criterion 8,
    # which counts the ascent-free chains, against the listing of them
    P, labels = lb.cover_labels(n)
    lyndon = [_lyndon_chains(n, i) for i in range(n)]
    verdicts = []
    for z, ups in enumerate(P.covers):
        for k, w1 in enumerate(ups):
            for w2 in ups[k + 1:]:
                bad = _swapped(labels, z, w1, w2)
                monkeypatch.setattr(lb, "cover_labels", lambda m: (P, bad))
                verdicts.append(_criterion_8_passes(n))
                assert verdicts[-1] == _listing_passes(n, P, bad, lyndon)
    assert (len(verdicts), verdicts.count(False)) == (swaps, failing)


@pytest.mark.parametrize("mutate, witness", [
    (lambda trees, other: trees[:-1],
     "26 ascent-free chains, 25 chains of 25 Lyndon trees$"),
    (lambda trees, other: trees[:-1] + trees[:1],
     "26 ascent-free chains, 25 chains of 26 Lyndon trees$"),
    (lambda trees, other: other,
     r"not an ascent-free maximal chain: \{1\^0\|2\^0\|3\^0\|4\^0\} < "),
], ids=["last-dropped", "first-repeated", "trees-of-i-2"])
def test_criterion_8_fails_on_a_wrong_lyndon_family(monkeypatch, mutate,
                                                     witness):
    # the Lyndon trees of [4] with one red node, mutated: one too few, a
    # repeat in place of the last, and the 26 trees with two red nodes,
    # whose chains are ascent-free but end at [4]^2
    enumerate_family = tr.enumerate_family

    def mutated(family, labels, i=None):
        trees = enumerate_family(family, labels, i)
        if (family, labels, i) != ("lyndon", 4, 1):
            return trees
        return mutate(trees, enumerate_family(family, labels, 2))

    monkeypatch.setattr(tr, "enumerate_family", mutated)
    assert _criterion_8_passes(3)
    with pytest.raises(AssertionError, match=r"^n=4 i=1: " + witness):
        acceptance._ascent_free_chains(4)


def test_criterion_8_reads_the_descent_counts(monkeypatch):
    descent_counts = tr.descent_counts
    monkeypatch.setattr(tr, "descent_counts",
                        lambda n: [c + (n == 4) for c in descent_counts(n)])
    assert _criterion_8_passes(3)
    with pytest.raises(AssertionError, match=r"^n=4 i=0: 6 ascent-free "):
        acceptance._ascent_free_chains(4)


def test_first_two_labels_swapped_at_n5():
    # the labels of the two covers of {1^0|2^0|34^1|5^0} that merge 34
    # and 5 swapped: one of those covers gets two increasing chains from
    # the bottom, the other none
    P, labels = lb.cover_labels(5)
    z = P.index[sort_blocks(((0b1, 0), (0b10, 0), (0b1100, 1),
                                (0b10000, 0)))]
    bad = _swapped(labels, z, *P.covers[z][:2])
    rep = lb.verify_el(P, bad)
    assert rep == el_report_by_listing(P, bad)
    assert rep["violations"] == [
        {"interval": ("{1^0|2^0|3^0|4^0|5^0}", "{1^0|2^0|345^1}"),
         "increasing": 2, "lex_first_ok": False},
        {"interval": ("{1^0|2^0|3^0|4^0|5^0}", "{1^0|2^0|345^2}"),
         "increasing": 0, "lex_first_ok": False},
    ]


def test_repeated_upper_cover_label_is_refused():
    P, labels = lb.cover_labels(3)
    z = 0
    w1, w2 = P.covers[z][:2]
    bad = dict(labels)
    bad[z, w2] = labels[z, w1]
    with pytest.raises(AssertionError, match=r"\{1\^0\|2\^0\|3\^0\}"):
        lb.verify_el(P, bad)
