import json
import random

import pytest
from hypothesis import given, strategies as st

from wpposet import ResourceCapError
from wpposet import acceptance
from wpposet import partitions as pt
from wpposet import trees as tr

from poset_oracles import (covers, down_sets_by_lower_covers,
                           enumerate_partitions, leq, sort_blocks,
                           upper_covers as sorted_covers)
from tree_oracles import enumerate_rooted_forests


def blocks(p):
    """Non-singleton blocks as a set of (members tuple, weight)."""
    return {(tuple(pt.mask_members(m)), w) for m, w in p if m & (m - 1)}


def test_rank_sizes_frozen():
    assert pt.rank_generating_function(3) == [1, 6, 3]
    assert pt.rank_generating_function(4) == [1, 12, 24, 4]
    assert pt.rank_generating_function(5) == [1, 20, 90, 80, 5]


def test_mu_polynomial_frozen():
    assert pt.mu_polynomial(2) == [-1, -1]
    assert pt.mu_polynomial(3) == [2, 5, 2]
    assert pt.mu_polynomial(4) == [-6, -26, -26, -6]


def test_mu_augmented_frozen():
    assert [pt.mu_augmented(n) for n in range(1, 5)] == [-1, 1, -4, 27]


def test_characteristic_polynomial_is_shifted_power():
    # chi(x) = (x - n)^(n-1) in both variants
    for n in range(1, 5):
        for variant in (pt.WEIGHTED, pt.POINTED):
            chi = pt.characteristic_polynomial(pt.build_poset(n, variant))
            assert chi[-1] == 1
            # evaluate at x = n
            assert sum(c * n ** k for k, c in enumerate(chi)) == 0 or n == 1


def test_single_interval_mobius():
    P = pt.build_poset(3, pt.WEIGHTED)
    y = sort_blocks(((0b011, 1), (0b100, 0)))  # {12^1|3^0}
    assert P.elements[0] == pt.bottom(3)
    assert P.mu_from_bottom()[P.index[y]] == -1


def test_mobius_all_pairs_defining_sum():
    # sum_{z <= y} mu(0-hat, z) = [y == 0-hat], with the order read from
    # the blockwise leq, independent of the down-sets the sweep reads
    for n in range(1, 5):
        for variant in (pt.WEIGHTED, pt.POINTED, pt.AUGMENTED):
            P = pt.build_poset(n, variant)
            mu = P.mu_from_bottom()
            for y in P.elements:
                total = sum(m for z, m in zip(P.elements, mu)
                            if leq(z, y, P.variant))
                assert total == (y == P.elements[0])


def test_poset_is_pure_and_bounded_below():
    for n in range(1, 5):
        for variant in (pt.WEIGHTED, pt.POINTED, pt.AUGMENTED):
            P = pt.build_poset(n, variant)
            assert P.ranks[0] == 0
            for k, ups in enumerate(P.covers):
                for j in ups:
                    assert P.ranks[j] == P.ranks[k] + 1


@given(st.integers(1, 5))
def test_pointed_and_weighted_have_equal_rank_sizes(n):
    W = pt.build_poset(n, pt.WEIGHTED)
    P = pt.build_poset(n, pt.POINTED)
    assert W.rank_sizes() == P.rank_sizes()
    assert len(W.elements) == pt.poset_size(n) == pt.poset_size(n, pt.POINTED)


@given(st.integers(2, 5))
def test_augmented_adds_one_top(n):
    W = pt.build_poset(n, pt.WEIGHTED)
    A = pt.build_poset(n, pt.AUGMENTED)
    assert len(A.elements) == len(W.elements) + 1 == pt.poset_size(n, pt.AUGMENTED)
    top = A.index[pt.TOP]
    assert A.covers[top] == []
    assert all(top in A.covers[A.index[e]] for e in W.elements if len(e) == 1)


def test_rank_is_n_minus_the_block_count():
    # the rank read off the covers, from 0 at the bottom, is n - len(e)
    # for every element e, Top, the partition with no blocks, included
    for n in range(1, 6):
        for variant in (pt.WEIGHTED, pt.POINTED, pt.AUGMENTED):
            P = pt.build_poset(n, variant)
            depth = [0] * len(P.elements)
            for k, ups in enumerate(P.covers):
                for j in ups:
                    depth[j] = depth[k] + 1
            assert P.ranks == depth == [n - len(e) for e in P.elements]
            # Top alone has rank n, and it is not one of the one-block
            # partitions below it
            top = [k for k, r in enumerate(P.ranks) if r == n]
            assert top == ([P.index[pt.TOP]] if variant == pt.AUGMENTED
                           else [])
            assert P.maximal_indices() == [
                k for k, r in enumerate(P.ranks) if r == n - 1]


def _bits_by_low_bit(x):
    # the oracle: isolate the low bit, clear it, repeat
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def test_bits_match_the_low_bit_loop():
    rng = random.Random(20261018)
    wide = [rng.getrandbits(34_274) & rng.getrandbits(34_274)
            & rng.getrandbits(34_274) for _ in range(3)]
    powers = [1 << k for k in (0, 1, 62, 63, 64, 65, 34_273)]
    for x in [0, *powers, (1 << 200) - 1, *wide,
              *(rng.getrandbits(w) for w in range(1, 300))]:
        assert pt.bits(x) == _bits_by_low_bit(x)


@pytest.mark.parametrize("variant", [pt.WEIGHTED, pt.POINTED, pt.AUGMENTED])
def test_generated_covers_match_the_blockwise_relation(variant):
    for n in range(1, 5):
        P = pt.build_poset(n, variant)
        for k, x in enumerate(P.elements):
            ups = set(P.covers[k])
            for j, y in enumerate(P.elements):
                assert covers(x, y, P.variant) == (j in ups), (x, y)


def test_merge_takes_the_place_of_the_lesser_block():
    # {1|2|3|4} with blocks 2 and 4 merged: the union sits where 2 was
    assert pt.merge(pt.bottom(4), 1, 3, 1) == \
        ((0b0001, 0), (0b1010, 1), (0b0100, 0))


@pytest.mark.parametrize("variant", [pt.WEIGHTED, pt.POINTED])
def test_upper_covers_match_the_re_sorted_merge(variant):
    # every element listed with its blocks sorted, and its covers, merged
    # in place, equal to the union appended and the blocks re-sorted
    for n in range(1, 7):
        for x in pt.build_poset(n, variant).elements:
            assert x == sort_blocks(x)
            assert pt.upper_covers(x, variant) == sorted_covers(x, variant), x


@pytest.mark.parametrize("variant", [pt.WEIGHTED, pt.POINTED])
def test_grown_poset_is_the_listed_one(variant):
    # the closure of the bottom under the cover step is every weighted
    # (or pointed) partition, in rank order, and each cover list is the
    # re-sorted merges, indexed and in index order
    for n in range(1, 7):
        P = pt.build_poset(n, variant)
        assert P.elements == enumerate_partitions(n, variant)
        for k, e in enumerate(P.elements):
            assert P.covers[k] == sorted(P.index[q]
                                         for q in sorted_covers(e, variant))


def test_a_check_builds_its_own_posets():
    # a poset some earlier caller left behind, here a wrong one, is not
    # what the next check reads, and none outlives the check
    for n in (2, 3):
        pt._posets[n, pt.WEIGHTED] = pt.build_poset(1)
    assert acceptance.run_criterion(1, 3) == (
        "rank generating function", True, "n <= 3")
    assert pt._posets == {}


def test_pointed_poset_grown_from_the_weighted_bottom_fails(monkeypatch):
    # every singleton pointed at 0: both points of a merge are 0, so
    # [2] has one element where it has two
    real = pt.bottom
    monkeypatch.setattr(pt, "bottom", lambda n, variant=pt.WEIGHTED: real(n))
    assert acceptance.run_criterion(4) == (
        "characteristic polynomial (both variants)", False,
        "chi [-1, 1] != [-2, 1] for pointed n=2")


def test_weighted_merge_without_its_second_weight_fails(monkeypatch):
    def sum_only(p, variant=pt.WEIGHTED):
        return [pt.merge(p, i, j, p[i][1] + p[j][1])
                for i in range(len(p)) for j in range(i + 1, len(p))]

    monkeypatch.setattr(pt, "upper_covers", sum_only)
    assert acceptance.run_criterion(1) == (
        "rank generating function", False,
        "rank sizes [1, 1] != [1, 2] at n=2")


@pytest.mark.parametrize("variant", [pt.WEIGHTED, pt.POINTED, pt.AUGMENTED])
def test_down_sets_match_the_lower_cover_fold(variant):
    for n in range(1, 7):
        P = pt.build_poset(n, variant)
        assert P.down_sets() == down_sets_by_lower_covers(P)


def test_leq_respects_covers():
    P = pt.build_poset(4, pt.WEIGHTED)
    for k, ups in enumerate(P.covers):
        for j in ups:
            assert leq(P.elements[k], P.elements[j])
            assert not leq(P.elements[j], P.elements[k])


def test_leq_weight_window():
    # {12^u | 3} above bottom for u = 0 only via one merge; u = 1 also leq
    bot = pt.bottom(3)
    for u in (0, 1):
        p = sort_blocks(((0b011, u), (0b100, 0)))
        assert leq(bot, p)
    # weight beyond |B| - 1 is not a valid element; leq rejects a bad window
    one_block = sort_blocks(((0b111, 0),))
    assert leq(sort_blocks(((0b011, 1), (0b100, 0))), one_block) is False


def test_whitney_numbers_frozen():
    first, second = pt.whitney_numbers(pt.mobius_poset(4))
    assert first == [1, -12, 48, -64]
    assert second == [1, 12, 24, 4]


def test_every_variant_gives_the_weighted_whitney_numbers(monkeypatch):
    # why a pointed or augmented report prints the weighted numbers off
    # its own poset; a fresh memo, so the posets on [7] go with the test
    monkeypatch.setattr(pt, "_posets", {})
    for n in range(1, pt.MOBIUS_CAP_N + 1):
        weighted = pt.whitney_numbers(pt.mobius_poset(n))
        for variant in (pt.POINTED, pt.AUGMENTED):
            assert pt.whitney_numbers(pt.mobius_poset(n, variant)) == weighted


@pytest.mark.parametrize("variant", [pt.WEIGHTED, pt.POINTED, pt.AUGMENTED])
def test_a_report_builds_only_its_own_poset(monkeypatch, variant):
    monkeypatch.setattr(pt, "_posets", {})
    for n in range(1, 7):
        pt._posets.clear()
        pt.json_report(n, variant)
        assert set(pt._posets) == {(n, variant)}


def test_whitney_matrices_inverse():
    for n in range(1, 6):
        pt.whitney_matrices(n)


def test_forest_count_closed_form():
    # rooted forests on [n] with k trees: C(n-1, k-1) n^(n-k)
    def with_trees(n, k):
        return sum(len(F) == k for F in enumerate_rooted_forests(n))

    assert with_trees(5, 1) == 625
    assert with_trees(4, 2) == 48
    assert with_trees(3, 3) == 1


def test_caps_raise():
    with pytest.raises(ResourceCapError):
        pt.build_poset(10, pt.WEIGHTED)
    with pytest.raises(ResourceCapError):
        pt.mu_polynomial(pt.MOBIUS_CAP_N + 1)


def test_whitney_cohomology_ranks_are_capped():
    with pytest.raises(ResourceCapError):
        pt.whitney_cohomology_ranks(pt.MOBIUS_CAP_N + 1)


def test_json_report_schema_and_determinism():
    rep = pt.json_report(4)
    assert set(rep) == {"n", "variant", "rank_sizes", "mu_poly",
                        "char_poly", "whitney_first", "whitney_second"}
    s1 = json.dumps(pt.json_report(4), indent=2, sort_keys=True)
    s2 = json.dumps(pt.json_report(4), indent=2, sort_keys=True)
    assert s1 == s2
    json.loads(s1)


def test_to_dot_mentions_every_element():
    P = pt.build_poset(3, pt.WEIGHTED)
    dot = pt.to_dot(P)
    for e in P.elements:
        assert pt.partition_str(e) in dot


def test_partition_str_format():
    p = sort_blocks(((0b011, 1), (0b100, 0)))
    assert pt.partition_str(p) == "{12^1|3^0}"
    assert pt.partition_str(pt.TOP) == "Top"
    assert pt.chain_str((p, pt.TOP)) == "{12^1|3^0} < Top"
    assert pt.chain_str(()) == "the empty chain"
