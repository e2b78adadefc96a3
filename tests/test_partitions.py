import json

import pytest
from hypothesis import given, strategies as st

from wpposet import ResourceCapError
from wpposet import partitions as pt
from wpposet import trees as tr

from poset_oracles import leq


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
    y = pt.sort_blocks(((0b011, 1), (0b100, 0)))  # {12^1|3^0}
    assert P.elements[P.bottom_index] == pt.bottom(3)
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
                assert total == (y == P.elements[P.bottom_index])


def test_poset_is_pure_and_bounded_below():
    for n in range(1, 5):
        for variant in (pt.WEIGHTED, pt.POINTED, pt.AUGMENTED):
            P = pt.build_poset(n, variant)
            assert P.ranks[P.bottom_index] == 0
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
        p = pt.sort_blocks(((0b011, u), (0b100, 0)))
        assert leq(bot, p)
    # weight beyond |B| - 1 is not a valid element; leq rejects a bad window
    one_block = pt.sort_blocks(((0b111, 0),))
    assert leq(pt.sort_blocks(((0b011, 1), (0b100, 0))), one_block) is False


def test_whitney_numbers_frozen():
    first, second = pt.whitney_numbers(4)
    assert first == [1, -12, 48, -64]
    assert second == [1, 12, 24, 4]


def test_whitney_matrices_inverse():
    for n in range(1, 6):
        pt.whitney_matrices(n)


def test_forest_count_closed_form():
    assert tr.forest_counts(5)[0] == 625
    assert tr.forest_counts(4)[1] == 48
    assert tr.forest_counts(3)[2] == 1


def test_caps_raise():
    with pytest.raises(ResourceCapError):
        pt.build_poset(10, pt.WEIGHTED)
    with pytest.raises(ResourceCapError):
        pt.mu_polynomial(7)


def test_whitney_cohomology_ranks_are_capped():
    with pytest.raises(ResourceCapError):
        pt.whitney_cohomology_ranks(7)


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
    p = pt.sort_blocks(((0b011, 1), (0b100, 0)))
    assert pt.partition_str(p) == "{12^1|3^0}"
