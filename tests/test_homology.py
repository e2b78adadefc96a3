import random

import pytest
from hypothesis import given, strategies as st

from wpposet import ResourceCapError
from wpposet import chains as ch
from wpposet import homology as hm
from wpposet import partitions as pt
from wpposet import straighten as sn
from wpposet import trees as tr

B, R = tr.BLUE, tr.RED


def test_betti_of_intervals_frozen():
    assert hm.betti_numbers(hm.open_interval(3, 0))["betti"] == {-1: 0, 0: 2}
    assert hm.betti_numbers(hm.open_interval(3, 1))["betti"] == {-1: 0, 0: 5}
    rep = hm.betti_numbers(hm.open_interval(4, 1))
    assert rep["betti"] == {-1: 0, 0: 0, 1: 26}
    assert rep["torsion_free_top"]


def test_betti_of_proper_part_frozen():
    assert hm.betti_numbers(hm.proper_part(3))["betti"] == {-1: 0, 0: 0, 1: 4}
    rep = hm.betti_numbers(hm.proper_part(4))
    assert rep["betti"][rep["top_dim"]] == 27


def test_betti_numbers_fallback_matches_certificate(monkeypatch):
    # every map below has unit pivots, so the report is read from the
    # certificate; with it forced off the SNF must give the same report
    hosts = [hm.open_interval(4, i) for i in range(4)] + [hm.proper_part(4)]
    reports = [hm.betti_numbers(host) for host in hosts]
    calls = []
    snf = hm.linalg.snf_invariant_factors

    def counted_snf(vectors):
        calls.append(len(vectors))
        return snf(vectors)

    monkeypatch.setattr(hm.linalg.Echelon, "unimodular", False)
    monkeypatch.setattr(hm.linalg, "snf_invariant_factors", counted_snf)
    for host, rep in zip(hosts, reports):
        assert hm.betti_numbers(host) == rep, host.name
        assert list(rep["torsion_nontrivial"]) == [rep["top_dim"],
                                                   rep["top_dim"] - 1]
    assert len(calls) == 2 * len(hosts)


def test_degenerate_host():
    # the open interval at n=2 is empty: reduced homology lives in degree -1
    host = hm.open_interval(2, 0)
    assert host.elements == []
    assert hm.betti_numbers(host)["betti"] == {-1: 1}


def test_boundary_squares_to_zero():
    host = hm.open_interval(4, 2)
    for c in host.chains_by_dim()[1]:
        assert hm.boundary(hm.boundary_of_chain(c)) == {}


def test_coboundary_squares_to_zero():
    host = hm.open_interval(4, 2)
    for c in host.chains_by_dim()[0][:40]:
        once = hm.coboundary(host, {c: 1})
        assert hm.coboundary(host, once) == {}


@given(st.integers(0, 5000))
def test_boundary_coboundary_adjoint(seed):
    rng = random.Random(seed)
    host = hm.open_interval(4, rng.randint(0, 3))
    by_dim = host.chains_by_dim()
    r = rng.choice([r for r in by_dim if r + 1 in by_dim])
    c = {rng.choice(by_dim[r]): rng.randint(-3, 3)}
    cp = {rng.choice(by_dim[r + 1]): rng.randint(-3, 3)}
    assert hm.pairing(hm.coboundary(host, c), cp) == \
        hm.pairing(c, hm.boundary(cp))


def test_cycle_basis_is_kernel():
    host = hm.open_interval(4, 1)
    basis = host.cycle_basis()
    assert len(basis) == 26
    for z in basis:
        assert hm.boundary(z) == {}


def test_coboundary_member_with_witness():
    host = hm.open_interval(4, 1)
    c = host.chains_by_dim()[0][0]
    v = hm.coboundary(host, {c: 2})
    assert v
    ok, witness = hm.coboundary_member(host, v, want_witness=True)
    assert ok
    assert hm.coboundary(host, witness) == v


def test_non_member_detected():
    host = hm.open_interval(3, 1)
    z = host.cycle_basis()[0]
    assert not hm.coboundary_member(host, z) or hm.pairing(z, z) == 0


def test_fundamental_cycle_unimodular():
    for T in tr.enumerate_rooted_trees(range(1, 5)):
        rho = hm.fundamental_cycle(T)
        key = tuple(ch.chain_partitions_of_tree(tr.psi(T))[1:-1])
        assert rho[key] == 1
        assert all(abs(x) == 1 for x in rho.values())


def test_fundamental_cycle_is_a_cycle():
    for T in tr.enumerate_rooted_trees(range(1, 5), 1)[:6]:
        host = hm.open_interval(4, 1)
        rho = hm.fundamental_cycle(T)
        assert hm.boundary(rho) == {}


def test_pairing_matrix_n3():
    ordered = tr.liu_linear_extension(tr.enumerate_rooted_trees(range(1, 4), 1))
    cycles = [hm.fundamental_cycle(T) for T in ordered]
    cochains = [hm.chain_vector_of_tree(tr.psi(T)) for T in ordered]
    M = [[hm.pairing(rho, c) for c in cochains] for rho in cycles]
    assert all(M[j][j] == 1 for j in range(len(M)))
    assert all(M[j][k] == 0 for j in range(len(M)) for k in range(j))


def test_whitney_cohomology_ranks():
    assert hm.whitney_cohomology_ranks(3) == [1, 6, 9]
    assert hm.whitney_cohomology_ranks(4) == [1, 12, 48, 64]


def test_rank_in_top_quotient_full():
    host = hm.open_interval(3, 1)
    vecs = [sn.phi(t) for t in tr.enumerate_family("comb", 3, 1)]
    rank, betti = hm.rank_in_top_quotient(host, vecs)
    assert rank == betti == 5


def test_homology_report():
    host = hm.open_interval(3, 1)
    rep = hm.homology_report(host)
    assert rep["betti"]["0"] == 5


class _PairwiseOrder:
    """The open-poset construction that read the order by calling pt.leq on
    every ordered pair: above[k] lists the local indices strictly above k
    in ascending order, below_set[k] the set strictly below."""

    def __init__(self, elements):
        self.elements = sorted(elements)
        self.index = {e: k for k, e in enumerate(self.elements)}
        n = len(self.elements)
        self.above = [[] for _ in range(n)]
        self.below_set = [set() for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and pt.leq(self.elements[i], self.elements[j]):
                    self.above[i].append(j)
                    self.below_set[j].add(i)

    def chains_by_dim(self):
        by_dim = {-1: [()]}
        frontier = [(k,) for k in range(len(self.elements))]
        r = 0
        while frontier:
            by_dim[r] = [tuple(self.elements[k] for k in c) for c in frontier]
            frontier = [c + (j,) for c in frontier for j in self.above[c[-1]]]
            r += 1
        return by_dim

    def coboundary_of_point(self, e):
        """The coboundary of the 0-chain (e,): insert below, then above."""
        k = self.index[e]
        out = {}
        for j in self.below_set[k]:
            out[(self.elements[j], e)] = 1
        for j in self.above[k]:
            out[(e, self.elements[j])] = -1
        return out


def _open_hosts():
    for n in range(1, 6):
        for i in range(n):
            yield hm.open_interval(n, i)
        yield hm.proper_part(n)
    for T in tr.enumerate_rooted_trees(range(1, 5)):
        yield hm.open_boolean_of_tree(T)


def test_open_posets_match_pairwise_leq_order():
    for host in _open_hosts():
        oracle = _PairwiseOrder(host.elements)
        assert host.elements == oracle.elements, host.name
        assert host.chains_by_dim() == oracle.chains_by_dim(), host.name
        for (e,) in host.chains_by_dim().get(0, []):
            assert hm.coboundary(host, {(e,): 1}) == \
                oracle.coboundary_of_point(e), host.name


def test_interval_elements_match_leq_filter():
    for n in range(1, 7):
        P = pt.build_poset(n, pt.WEIGHTED)
        bot = pt.bottom(n)
        for i in range(n):
            top = pt.sort_blocks((((1 << n) - 1, i),))
            assert hm.interval_elements(n, i) == [
                e for e in P.elements if e not in (top, bot) and pt.leq(e, top)]


def test_interval_size_matches_elements():
    for n in range(1, 7):
        for i in range(n):
            assert hm.interval_size(n, i) == len(hm.interval_elements(n, i))
    assert hm.interval_size(8, 3) == 34_274


def test_chain_cap_is_checked_before_the_frontier(monkeypatch):
    P = pt.build_poset(4, pt.WEIGHTED)
    total = sum(len(cs) for cs in hm.proper_part(4).chains_by_dim().values())
    monkeypatch.setattr(hm, "CHAIN_COUNT_CAP", total)
    assert sum(len(cs) for cs in hm.OpenPoset(
        "at cap", P, P.elements[1:]).chains_by_dim().values()) == total
    monkeypatch.setattr(hm, "CHAIN_COUNT_CAP", total - 1)
    with pytest.raises(ResourceCapError) as err:
        hm.OpenPoset("past cap", P, P.elements[1:]).chains_by_dim()
    assert (err.value.what, err.value.limit) == ("chains of past cap", total - 1)
