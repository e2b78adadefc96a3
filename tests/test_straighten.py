import random

import pytest
from hypothesis import given, strategies as st

from wpposet import homology as hm
from wpposet import straighten as sn
from wpposet import trees as tr

from poset_oracles import pairing

B, R = tr.BLUE, tr.RED


def brackets(s):
    return {tr.tree_to_bracket(t): x for t, x in s.items()}


def test_swap_signs():
    # Lie side: plain anticommutativity; cohomology side: graded
    assert sn.swap_sign(sn.LIE2, 1, 2) == -1
    assert sn.swap_sign(sn.COHOMOLOGY, 1, 2) == 1
    assert sn.swap_sign(sn.COHOMOLOGY, (B, 1, 2), 3) == 1
    assert sn.swap_sign(sn.COHOMOLOGY, (B, 1, 2), (B, 3, 4)) == -1


# Replacement terms pinned from the separate assoc and mixed solvers the
# sign table replaced.  Each relation is taken once with u3 odd and u1 u2
# even, once with u3 even and u1 u2 odd, so every entry of the table, on
# both sides, decides some coefficient.
REWRITE_TABLE = {
    (B, 1, (B, 2, (R, 3, 4))): {
        sn.COHOMOLOGY: [((B, (B, 1, 2), (R, 3, 4)), 1),
                        ((B, 2, (B, 1, (R, 3, 4))), -1)],
        sn.LIE2: [((B, (B, 1, 2), (R, 3, 4)), 1),
                  ((B, 2, (B, 1, (R, 3, 4))), 1)],
    },
    (R, (B, 1, 2), (R, (B, 3, 4), 5)): {
        sn.COHOMOLOGY: [((R, (R, (B, 1, 2), (B, 3, 4)), 5), -1),
                        ((R, (B, 3, 4), (R, (B, 1, 2), 5)), 1)],
        sn.LIE2: [((R, (R, (B, 1, 2), (B, 3, 4)), 5), 1),
                  ((R, (B, 3, 4), (R, (B, 1, 2), 5)), 1)],
    },
    (B, 1, (R, 2, (B, 3, 4))): {
        sn.COHOMOLOGY: [((R, 1, (B, 2, (B, 3, 4))), -1),
                        ((B, (R, 1, 2), (B, 3, 4)), 1),
                        ((R, (B, 1, 2), (B, 3, 4)), 1),
                        ((R, 2, (B, 1, (B, 3, 4))), -1),
                        ((B, 2, (R, 1, (B, 3, 4))), -1)],
        sn.LIE2: [((R, 1, (B, 2, (B, 3, 4))), -1),
                  ((B, (R, 1, 2), (B, 3, 4)), 1),
                  ((R, (B, 1, 2), (B, 3, 4)), 1),
                  ((R, 2, (B, 1, (B, 3, 4))), 1),
                  ((B, 2, (R, 1, (B, 3, 4))), 1)],
    },
    (B, (R, 1, 2), (R, (B, 3, 4), 5)): {
        sn.COHOMOLOGY: [((R, (R, 1, 2), (B, (B, 3, 4), 5)), -1),
                        ((B, (R, (R, 1, 2), (B, 3, 4)), 5), -1),
                        ((R, (B, (R, 1, 2), (B, 3, 4)), 5), -1),
                        ((R, (B, 3, 4), (B, (R, 1, 2), 5)), 1),
                        ((B, (B, 3, 4), (R, (R, 1, 2), 5)), 1)],
        sn.LIE2: [((R, (R, 1, 2), (B, (B, 3, 4), 5)), -1),
                  ((B, (R, (R, 1, 2), (B, 3, 4)), 5), 1),
                  ((R, (B, (R, 1, 2), (B, 3, 4)), 5), 1),
                  ((R, (B, 3, 4), (B, (R, 1, 2), 5)), 1),
                  ((B, (B, 3, 4), (R, (R, 1, 2), 5)), 1)],
    },
}


def test_rewrite_terms_sign_table():
    for node, by_side in REWRITE_TABLE.items():
        assert tr.is_offending(node)
        for side, want in by_side.items():
            assert sn.rewrite_terms(node, side) == want, (node, side)
    with pytest.raises(ValueError):
        sn.straighten((B, 1, 2), "bogus")


def test_straighten_frozen_example_one():
    out = sn.straighten((B, 1, (B, 2, 3)))
    assert brackets(out) == {"[[1,2],3]": -1, "[[1,3],2]": -1}


def test_straighten_frozen_example_two():
    out = sn.straighten((B, 1, (R, 2, 3)))
    assert brackets(out) == {
        "<1,[2,3]>": -1,
        "[<1,2>,3]": -1,
        "<[1,2],3>": -1,
        "<[1,3],2>": -1,
        "[<1,3>,2]": -1,
    }


def test_straighten_fixes_combs():
    for i in range(3):
        for t in tr.enumerate_family("comb", 3, i):
            out = sn.straighten(t)
            assert out == {t: 1}


def test_straighten_output_is_comb_supported():
    for t in tr.enumerate_bicolored(4):
        out = sn.straighten(t)
        for c in out:
            assert tr.is_comb(c)
            assert tr.is_normalized(c)


def test_straighten_measure_decreases():
    t = (B, 1, (B, 2, (B, 3, 4)))
    trace = []
    sn.straighten(t, trace=trace)
    assert trace  # at least one rewrite happened


def test_straighten_difference_is_coboundary():
    for t in tr.enumerate_bicolored(3):
        i = tr.red_count(t)
        host = hm.open_interval(3, i)
        out = sn.straighten(t)
        diff = dict(hm.chain_vector_of_tree(t))
        for k, x in sn.cochain_sum(out).items():
            val = diff.get(k, 0) - x
            if val:
                diff[k] = val
            else:
                diff.pop(k, None)
        assert hm.coboundary_member(host, diff)


def test_relation_instances_straighten_to_zero():
    for side in (sn.COHOMOLOGY, sn.LIE2):
        for _inst, rel in sn.relation_instances(3, side=side):
            assert sn.straighten_sum(rel, side) == {}


def test_full_poset_straighten_red_root_flip():
    # a red-rooted comb equals minus its blue-rooted recoloring at the root
    t = (R, 1, 2)
    out = sn.straighten(t, sn.FULL)
    assert brackets(out) == {"[1,2]": -1}


def test_full_poset_output_blue_rooted():
    for t in tr.enumerate_bicolored(3):
        out = sn.straighten(t, sn.FULL)
        for c in out:
            assert tr.is_comb(c)
            assert tr.is_leaf(c) or c[0] == B


def test_full_poset_relations_vanish():
    for _inst, rel in sn.relation_instances(3, side=sn.COHOMOLOGY):
        assert sn.straighten_sum(rel, sn.FULL) == {}


def test_phi_relation_images_are_coboundaries():
    for inst, rel in sn.relation_instances(3, side=sn.LIE2):
        host = hm.open_interval(3, tr.red_count(inst.host))
        assert hm.coboundary_member(host, sn.phi_of_sum(rel))


def test_verify_bases_n3():
    for i in range(3):
        rep = sn.verify_bases(3, i)
        assert rep["passed"], rep
        for fam in ("comb", "lyndon", "liu"):
            assert rep["families"][fam]["ok"]
    rep = sn.verify_bases(3, full=True)
    assert rep["passed"], rep
    assert rep["families"]["blue_rooted_comb"]["count"] == 4


def _dense_pairing_flags(ordered):
    M = [[pairing(hm.fundamental_cycle(T),
                  hm.chain_vector_of_tree(tr.psi(S))) for S in ordered]
         for T in ordered]
    return (all(M[j][k] == 0 for j in range(len(M)) for k in range(j)),
            all(M[j][j] == 1 for j in range(len(M))))


def test_liu_pairing_matches_dense_matrix():
    for n in range(1, 5):
        for i in range(n):
            ordered = tr.liu_linear_extension(
                tr.enumerate_rooted_trees(range(1, n + 1), i))
            assert sn.liu_pairing(ordered) == _dense_pairing_flags(ordered) \
                == (True, True)
            backward = ordered[::-1]
            assert sn.liu_pairing(backward) == _dense_pairing_flags(backward)


def test_reversed_liu_order_is_not_upper_triangular(monkeypatch):
    # at i = 0 the matrix is the identity, so only i >= 1 can catch this
    monkeypatch.setattr(tr, "liu_linear_extension",
                        lambda trees: sorted(trees, key=repr)[::-1])
    rep = sn.verify_bases(4, 1)
    assert rep["pairing"] == {"upper_triangular": False, "unit_diagonal": True}
    assert not rep["passed"]


def test_phi_memo_is_not_mutated():
    t = (R, (B, 2, 1), 3)
    first = sn.phi(t)
    expected = dict(first)
    assert sn.phi_of_sum({t: 3, (B, 1, (R, 2, 3)): -1})
    second = sn.phi(t)
    assert second is first
    assert second == expected == {next(iter(expected)): -1}


@given(st.integers(0, 3000))
def test_straighten_linear_in_sign(seed):
    # straightening a swapped tree matches the swap sign times the original
    rng = random.Random(seed)
    pool = [t for t in tr.enumerate_bicolored(4) if not tr.is_leaf(t)]
    t = rng.choice(pool)
    col, l, r = t
    swapped = (col, r, l)
    s = sn.swap_sign(sn.COHOMOLOGY, l, r)
    a = sn.straighten(t)
    b = sn.straighten(swapped)
    assert b == {c: s * x for c, x in a.items()}


def test_non_comb_output_is_refused(monkeypatch):
    # the comb check sits where results enter the memo; a rewriting that
    # stopped early must be caught there
    monkeypatch.setattr(sn, "_memo", {})
    monkeypatch.setattr(sn, "find_offender", lambda t: None)
    with pytest.raises(AssertionError, match="straightened output is not a comb"):
        sn.straighten((B, 1, (B, 2, 3)))
    assert sn._memo == {}
