import hashlib
import random
import types

import pytest
from hypothesis import given, strategies as st

from wpposet import homology as hm
from wpposet import linalg
from wpposet import straighten as sn
from wpposet import trees as tr

from poset_oracles import pairing
from tree_oracles import enumerate_normalized

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
        for _kind, _position, _host, rel in sn.relation_instances(3, side):
            assert sn.straighten_sum(rel, side) == {}


@pytest.mark.parametrize("side", [sn.COHOMOLOGY, sn.LIE2, sn.FULL])
def test_straighten_sum_is_the_sum_of_its_terms(side, monkeypatch):
    # the engine straightens a whole sum at once; term by term it agrees
    count = tr.bicolored_count(4)
    for seed in range(24):
        rng = random.Random(seed)
        s = {tr.bicolored_at(4, rng.randrange(count)): rng.randint(-3, 3)
             for _ in range(rng.randint(1, 6))}
        want = {}
        for t, coeff in s.items():
            linalg.vec_add(want, sn.straighten(t, side), coeff)
        assert sn.straighten_sum(s, side) == want, (side, seed)
    # a tree and its child-swapped twin cancel; on the full side the sum
    # is zero before any comb is rewritten onto the blue-rooted ones
    t = tr.bicolored_at(4, 100)
    col, l, r = t
    base = sn.COHOMOLOGY if side == sn.FULL else side
    s = {t: 1, (col, r, l): -sn.swap_sign(base, l, r)}
    assert sn.straighten(t, side)
    monkeypatch.setattr(sn, "_full_into", None)
    assert sn.straighten_sum(s, side) == {}


# sha256 of the instances on [1]..[4] in stream order, one repr line each:
# the content and order criteria 13 and 16 check
INSTANCE_DIGESTS = {
    sn.COHOMOLOGY:
        "2f73775ff31db0da59311cf147a7ae935d10564c85735fb7b8911282dae0274d",
    sn.LIE2:
        "1a07cb151c21cf9546598e773efdcde486f1489dacf07a5c100650c3beed6901",
}


def test_relation_instances_stream_in_the_listed_order():
    for side, want in INSTANCE_DIGESTS.items():
        it = sn.relation_instances(4, side)
        assert iter(it) is it
        digest = hashlib.sha256()
        for n in range(1, 5):
            for kind, position, host, rel in sn.relation_instances(n, side):
                line = repr((kind, position, host, list(rel.items()))) + "\n"
                digest.update(line.encode())
        assert digest.hexdigest() == want, side


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
    for _kind, _position, _host, rel in sn.relation_instances(3):
        assert sn.straighten_sum(rel, sn.FULL) == {}


def test_phi_relation_images_are_coboundaries():
    for _kind, _position, t, rel in sn.relation_instances(3, sn.LIE2):
        host = hm.open_interval(3, tr.red_count(t))
        assert hm.coboundary_member(host, sn.phi_of_sum(rel))


def test_verify_bases_n3():
    for i in range(3):
        rep = sn.verify_bases(3, i)
        assert rep["passed"], rep
        for fam in ("comb", "lyndon", "liu"):
            assert rep["families"][fam]["ok"]
    # without i, the proper part: the report the full side has always given
    family = {"count": 4, "rank": 4, "betti": 4, "ok": True}
    assert sn.verify_bases(3) == {
        "n": 3, "passed": True, "i": "full",
        "families": {"blue_rooted_comb": family, "red_rooted_lyndon": family}}


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


def test_an_entry_below_the_diagonal_fails_the_pairing(monkeypatch):
    # the order never reads the cycles, so a rho_j that also holds the
    # chain of an earlier c_k puts an entry below the diagonal
    ordered = tr.liu_linear_extension(tr.enumerate_rooted_trees(range(1, 5), 1))
    chain = next(iter(hm.chain_vector_of_tree(tr.psi(ordered[0]))))
    cycle = hm.fundamental_cycle

    def patched(T):
        rho = cycle(T)
        return {**rho, chain: 1} if T == ordered[-1] else rho

    monkeypatch.setattr(hm, "fundamental_cycle", patched)
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
    # the comb check sits where results enter the memo.  (B, 2, 1) has no
    # offending node but is not normalized.  (B, 1, (B, 2, 3)) is
    # normalized but offends at its root, as a rewriting that stopped early
    # would leave: the walk the rewriting step reads is blinded to it, and
    # the check, which walks the tree itself, must still catch it
    monkeypatch.setattr(sn, "_memo", {})
    with pytest.raises(AssertionError, match="straightened output is not a comb"):
        sn._straighten_normalized((B, 2, 1), sn.COHOMOLOGY, None)
    monkeypatch.setattr(sn, "tr", types.SimpleNamespace(
        **{**vars(tr), "sites": lambda t: []}))
    with pytest.raises(AssertionError, match="straightened output is not a comb"):
        sn._straighten_normalized((B, 1, (B, 2, 3)), sn.COHOMOLOGY, None)
    assert sn._memo == {}


@pytest.mark.parametrize("side", [sn.COHOMOLOGY, sn.LIE2])
def test_a_normalized_tree_normalizes_at_its_replacement(side):
    # a rewrite term spans its node's leaves, so in a normalized tree the
    # step may normalize the replacement alone
    for n in range(1, 6):
        for t in enumerate_normalized(n):
            for _path, node, wrap in tr.sites(t):
                if not tr.is_offending(node):
                    continue
                for sub, _coeff in sn.rewrite_terms(node, side):
                    sign, sub0 = sn.normalize_signed(sub, side)
                    assert sn.normalize_signed(wrap(sub), side) == \
                        (sign, wrap(sub0)), (t, sub)


def test_a_bounded_memo_straightens_alike(monkeypatch):
    # with a bound far below the trees on [4], entries are evicted while
    # a straightening that reads them runs; every result is unchanged and
    # the memo never holds more than the bound
    trees = [t for t in tr.enumerate_bicolored(4) if not tr.is_leaf(t)]
    monkeypatch.setattr(sn, "_memo", {})
    want = {side: [sn.straighten(t, side) for t in trees]
            for side in (sn.COHOMOLOGY, sn.LIE2, sn.FULL)}
    monkeypatch.setattr(sn, "_memo", {})
    monkeypatch.setattr(sn, "_MEMO_BOUND", 5)
    for side, results in want.items():
        for t, result in zip(trees, results):
            assert sn.straighten(t, side) == result, (side, t)
            assert len(sn._memo) <= 5
