import json
import random

import pytest
from hypothesis import given, strategies as st

from wpposet import homology as hm
from wpposet import straighten as sn
from wpposet import trees as tr

B, R = tr.BLUE, tr.RED


def brackets(s):
    return {tr.tree_to_bracket(t): x for t, x in s.terms.items()}


def test_swap_signs():
    # Lie side: plain anticommutativity; cohomology side: graded
    assert sn.swap_sign(sn.LIE2, 1, 2) == -1
    assert sn.swap_sign(sn.COHOMOLOGY, 1, 2) == 1
    assert sn.swap_sign(sn.COHOMOLOGY, (B, 1, 2), 3) == 1
    assert sn.swap_sign(sn.COHOMOLOGY, (B, 1, 2), (B, 3, 4)) == -1


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
            assert out.terms == {t: 1}


def test_straighten_output_is_comb_supported():
    for t in tr.enumerate_bicolored(4):
        out = sn.straighten(t)
        for c in out.terms:
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
            assert sn.straighten_sum(rel).terms == {}


def test_full_poset_straighten_red_root_flip():
    # a red-rooted comb equals minus its blue-rooted recoloring at the root
    t = (R, 1, 2)
    out = sn.straighten_full_poset(t)
    assert brackets(out) == {"[1,2]": -1}


def test_full_poset_output_blue_rooted():
    for t in tr.enumerate_bicolored(3):
        out = sn.straighten_full_poset(t)
        for c in out.terms:
            assert tr.is_comb(c)
            assert tr.is_leaf(c) or c[0] == B


def test_full_poset_relations_vanish():
    for _inst, rel in sn.relation_instances(3, side=sn.COHOMOLOGY):
        assert sn.straighten_sum(rel, full=True).terms == {}


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
    assert b.terms == {c: s * x for c, x in a.terms.items()}


def test_tree_sum_json():
    out = sn.straighten((B, 1, (B, 2, 3)))
    data = json.loads(out.to_json())
    assert {d["coeff"] for d in data} == {-1}


def test_non_comb_output_is_refused(monkeypatch):
    # the comb check sits where results enter the memo; a rewriting that
    # stopped early must be caught there
    monkeypatch.setattr(sn, "_memo", {})
    monkeypatch.setattr(sn, "find_offender", lambda t: None)
    with pytest.raises(AssertionError, match="straightened output is not a comb"):
        sn.straighten((B, 1, (B, 2, 3)))
    assert sn._memo == {}
