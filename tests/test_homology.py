import gc
import math
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from wpposet import ResourceCapError
from wpposet import chains as ch
from wpposet import homology as hm
from wpposet import linalg
from wpposet import partitions as pt
from wpposet import straighten as sn
from wpposet import trees as tr

from poset_oracles import (boundary, boundary_of_chain, chains_by_dim,
                           coboundary, cycle_basis, kernel_basis, leq,
                           pairing)

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


def _fresh_hosts(n):
    """(0,[n]^i) for every i and the proper part, built directly, so no
    boundary map is reduced yet."""
    P = pt.build_poset(n, pt.WEIGHTED)
    return [hm.OpenPoset(f"(0,[{n}]^{i})", P, hm.interval_elements(n, i))
            for i in range(n)] + [hm.OpenPoset(f"Pi_{n}^w - 0", P,
                                               P.elements[1:])]


def test_betti_numbers_fallback_matches_certificate(monkeypatch):
    # every map below has unit pivots, so the report is read from the
    # certificate; with it forced off the SNF must give the same report.
    # A host keeps its top map's certificate from the reduction that
    # fills its cycle index, so the forced run reduces hosts of its own.
    reports = [hm.betti_numbers(host) for host in _fresh_hosts(4)]
    hosts = _fresh_hosts(4)
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


def _count_top_rows(monkeypatch, host):
    """The top chains whose boundary row host's reductions read, one
    entry per row, as they are read."""
    top = host.top_dim
    seen = []
    rows = hm._boundary_rows

    def spy(chains, faces):
        for c in chains:
            if len(c) == top + 1:
                seen.append(c)
            yield from rows([c], faces)

    monkeypatch.setattr(hm, "_boundary_rows", spy)
    return seen


@pytest.mark.parametrize("betti_first", [True, False],
                         ids=["betti-first", "quotient-first"])
def test_top_map_is_reduced_once(monkeypatch, betti_first):
    # the comb cochains of each (0,[4]^i) and the blue-rooted combs of the
    # proper part are bases of the top cohomology
    bases = [[hm.chain_vector_of_tree(t)
              for t in tr.enumerate_family("comb", 4, i)] for i in range(4)]
    bases.append([hm.chain_vector_of_tree(t, omit_top=False)
                  for t in tr.enumerate_family("comb", 4) if t[0] == B])
    for host, vecs in zip(_fresh_hosts(4), bases):
        seen = _count_top_rows(monkeypatch, host)
        if betti_first:
            rep = hm.betti_numbers(host)
            rank, betti = hm.rank_in_top_quotient(host, vecs)
        else:
            rank, betti = hm.rank_in_top_quotient(host, vecs)
            rep = hm.betti_numbers(host)
        assert not hm.coboundary_member(host, vecs[0])
        assert len(cycle_basis(host)) == betti
        assert sorted(seen) == host.index_chains()[host.top_dim], host.name
        assert rank == betti == len(vecs) == rep["betti"][rep["top_dim"]], \
            host.name


def test_a_host_is_freed_when_its_caller_drops_it():
    host = hm.open_interval(4, 1)
    hm.betti_numbers(host)  # fills its chains, cycle index and pivots
    ref = weakref.ref(host)
    del host
    gc.collect()
    assert ref() is None


def test_degenerate_host():
    # the open interval at n=2 is empty: reduced homology lives in degree -1
    host = hm.open_interval(2, 0)
    assert host.elements == []
    assert hm.betti_numbers(host)["betti"] == {-1: 1}


def test_boundary_squares_to_zero():
    host = hm.open_interval(4, 2)
    for c in chains_by_dim(host)[1]:
        assert boundary(boundary_of_chain(c)) == {}


def test_coboundary_squares_to_zero():
    host = hm.open_interval(4, 2)
    for c in chains_by_dim(host)[0][:40]:
        once = coboundary(host, {c: 1})
        assert coboundary(host, once) == {}


@given(st.integers(0, 5000))
def test_boundary_coboundary_adjoint(seed):
    rng = random.Random(seed)
    host = hm.open_interval(4, rng.randint(0, 3))
    by_dim = chains_by_dim(host)
    r = rng.choice([r for r in by_dim if r + 1 in by_dim])
    c = {rng.choice(by_dim[r]): rng.randint(-3, 3)}
    cp = {rng.choice(by_dim[r + 1]): rng.randint(-3, 3)}
    assert pairing(coboundary(host, c), cp) == pairing(c, boundary(cp))


def test_cycle_basis_is_kernel():
    host = hm.open_interval(4, 1)
    basis = cycle_basis(host)
    assert len(basis) == 26
    for z in basis:
        assert boundary(z) == {}


def test_coboundary_member_with_witness():
    host = hm.open_interval(4, 1)
    c = chains_by_dim(host)[0][0]
    v = coboundary(host, {c: 2})
    assert v
    assert hm.coboundary_member(host, v)


def test_non_member_detected():
    host = hm.open_interval(3, 1)
    z = cycle_basis(host)[0]
    assert not hm.coboundary_member(host, z) or pairing(z, z) == 0


def test_fundamental_cycle_unimodular():
    for T in tr.enumerate_rooted_trees(range(1, 5)):
        rho = hm.fundamental_cycle(T)
        key = tuple(ch.chain_partitions_of_tree(tr.psi(T))[1:-1])
        assert rho[key] == 1
        assert all(abs(x) == 1 for x in rho.values())


def _open_boolean_of_tree(T):
    """The proper part of Pi_T as an OpenPoset, its order read from the
    weighted poset on [n]."""
    n = len(T.labels)
    inner = [e for e in set(ch.pi_subposet(T)) if 0 < n - len(e) < n - 1]
    return hm.OpenPoset(f"Pi_T proper ({T!r})", pt.build_poset(n, pt.WEIGHTED),
                        inner)


def _kernel_fundamental_cycle(T):
    """The fundamental cycle of Pi_T as the integer kernel of the top
    boundary map of its proper part, normalized at the chain of psi(T)."""
    key = tuple(ch.chain_partitions_of_tree(tr.psi(T))[1:-1])
    (rho,) = cycle_basis(_open_boolean_of_tree(T))
    return {c: x * rho[key] for c, x in rho.items()}


def test_fundamental_cycle_matches_kernel_route():
    for n in range(1, 6):
        for T in tr.enumerate_rooted_trees(range(1, n + 1)):
            assert hm.fundamental_cycle(T) == _kernel_fundamental_cycle(T)


def test_fundamental_cycle_is_a_cycle():
    for T in tr.enumerate_rooted_trees(range(1, 5), 1)[:6]:
        host = hm.open_interval(4, 1)
        rho = hm.fundamental_cycle(T)
        assert boundary(rho) == {}


def test_pairing_matrix_n3():
    ordered = tr.liu_linear_extension(tr.enumerate_rooted_trees(range(1, 4), 1))
    cycles = [hm.fundamental_cycle(T) for T in ordered]
    cochains = [hm.chain_vector_of_tree(tr.psi(T)) for T in ordered]
    M = [[pairing(rho, c) for c in cochains] for rho in cycles]
    assert all(M[j][j] == 1 for j in range(len(M)))
    assert all(M[j][k] == 0 for j in range(len(M)) for k in range(j))


def test_whitney_cohomology_ranks():
    assert pt.whitney_cohomology_ranks(3) == [1, 6, 9]
    assert pt.whitney_cohomology_ranks(4) == [1, 12, 48, 64]


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
    """The open-poset construction that read the order by calling leq on
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
                if i != j and leq(self.elements[i], self.elements[j]):
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
        yield _open_boolean_of_tree(T)


def test_open_posets_match_pairwise_leq_order():
    for host in _open_hosts():
        oracle = _PairwiseOrder(host.elements)
        assert host.elements == oracle.elements, host.name
        assert chains_by_dim(host) == oracle.chains_by_dim(), host.name
        for (e,) in chains_by_dim(host).get(0, []):
            assert coboundary(host, {(e,): 1}) == \
                oracle.coboundary_of_point(e), host.name


def test_interval_elements_match_leq_filter():
    for n in range(1, 7):
        P = pt.build_poset(n, pt.WEIGHTED)
        bot = pt.bottom(n)
        for i in range(n):
            top = pt.sort_blocks((((1 << n) - 1, i),))
            assert hm.interval_elements(n, i) == [
                e for e in P.elements if e not in (top, bot) and leq(e, top)]


def test_interval_size_matches_elements():
    for n in range(1, 7):
        for i in range(n):
            assert hm.interval_size(n, i) == len(hm.interval_elements(n, i))
    assert hm.interval_size(8, 3) == 34_274


def test_chain_count_matches_the_listing():
    for host in _open_hosts():
        above = [list(pt.bits(u)) for u in host.up]
        assert hm._chain_count(above) == \
            sum(map(len, host.index_chains().values())), host.name


def test_top_chain_counts_match_the_listing():
    # the closed forms the hosts are refused by before any poset is built
    hosts = [(n, i) for n in range(1, 6) for i in range(n)] + [(6, 0), (6, 5)]
    for n, i in hosts:
        chains = hm.open_interval(n, i).index_chains()
        assert len(chains[max(chains)]) == math.comb(n - 1, i) * \
            math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1), (n, i)
    for n in range(1, 7):
        chains = hm.proper_part(n).index_chains()
        assert len(chains[max(chains)]) == \
            math.factorial(n) * math.factorial(n - 1), n


def test_chain_cap_is_checked_before_the_frontier(monkeypatch):
    P = pt.build_poset(4, pt.WEIGHTED)
    total = sum(len(cs) for cs in chains_by_dim(hm.proper_part(4)).values())
    monkeypatch.setattr(hm, "CHAIN_COUNT_CAP", total)
    assert sum(len(cs) for cs in chains_by_dim(hm.OpenPoset(
        "at cap", P, P.elements[1:])).values()) == total
    monkeypatch.setattr(hm, "CHAIN_COUNT_CAP", total - 1)
    with pytest.raises(ResourceCapError) as err:
        chains_by_dim(hm.OpenPoset("past cap", P, P.elements[1:]))
    assert (err.value.what, err.value.limit) == ("chains of past cap", total - 1)


# The partition-keyed route the index-keyed one replaced: one Echelon per
# boundary map over boundary_of_chain, the cycle kernel over the same rows,
# and quotient rank and coboundary membership by pairing against every
# cycle.

def _oracle_reductions(host):
    """dim r -> Echelon of the boundary rows of the r-chains of elements."""
    out = {}
    for r, chains_r in chains_by_dim(host).items():
        ech = linalg.Echelon()
        for c in chains_r:
            ech.add(boundary_of_chain(c))
        out[r] = ech
    return out


def _oracle_cycle_basis(host):
    chains_top = chains_by_dim(host)[host.top_dim]
    combos = kernel_basis([boundary_of_chain(c) for c in chains_top])
    return [{chains_top[j]: x for j, x in combo.items()} for combo in combos]


def _kernel_cycle_index(host):
    """(index, count, top reduction) from the whole kernel list: every
    kernel vector of the top map first, from the same rows in one
    Echelon, then the index from the list."""
    by_dim = host.index_chains()
    top = max(by_dim)
    chains = by_dim[top]
    ech = linalg.Echelon(track=True)
    combos = kernel_basis(hm._boundary_rows(
        chains, hm._positions(by_dim.get(top - 1, []))), ech)
    index = {}
    for j, combo in enumerate(combos):
        for k, x in combo.items():
            index.setdefault(chains[k], []).extend((j, x))
    return ({c: tuple(entries) for c, entries in index.items()}, len(combos),
            (ech.rank, ech.unimodular, set(ech.by_pivot)))


def test_streamed_cycle_index_matches_kernel_list():
    hosts = [hm.open_interval(6, 0)]
    for n in range(1, 6):
        hosts += [hm.open_interval(n, i) for i in range(n)]
        hosts.append(hm.proper_part(n))
    for host in hosts:
        index, count, top = _kernel_cycle_index(host)
        streamed, streamed_count = host.cycle_index()
        # entries and their order, chain by chain and within each chain
        assert list(streamed.items()) == list(index.items()), host.name
        assert (streamed_count, host.top_reduction()) == (count, top), \
            host.name


def _as_set(vectors):
    return {frozenset(v.items()) for v in vectors}


def test_index_chain_reduction_matches_partition_oracle():
    for host in _open_hosts():
        idx, chains = host.index_chains(), chains_by_dim(host)
        oracle = _oracle_reductions(host)
        for r, cs in idx.items():
            assert cs == sorted(cs), (host.name, r)
        for r, rank, unimodular, pivots in hm._reductions(host):
            old = oracle[r]
            assert (rank, unimodular) == (old.rank, old.unimodular), \
                (host.name, r)
            # the same faces become pivots: positions keep the order
            assert {chains[r - 1][k] for k in pivots} == set(old.by_pivot), \
                (host.name, r)
        rep = hm.betti_numbers(host)
        assert rep["betti"] == {
            r: len(cs) - oracle[r].rank - (oracle[r + 1].rank
                                           if r + 1 in oracle else 0)
            for r, cs in chains.items()}, host.name
        top = rep["top_dim"]
        assert rep["torsion_free_top"] == all(
            oracle[r].unimodular for r in (top, top - 1) if r >= 0), host.name
        assert _as_set(cycle_basis(host)) == \
            _as_set(_oracle_cycle_basis(host)), host.name


def _quotient_cases():
    """(host, vectors): family cochains, phi images and straightening
    differences of each (0,[n]^i), and the full families of the proper
    part, n <= 4."""
    for n in range(2, 5):
        for i in range(n):
            host = hm.open_interval(n, i)
            vecs = [hm.chain_vector_of_tree(t)
                    for fam in ("comb", "lyndon", "liu")
                    for t in tr.enumerate_family(fam, n, i)]
            vecs += [sn.phi(t) for t in tr.enumerate_family("comb", n, i)]
            for t in tr.enumerate_bicolored(n):
                if tr.red_count(t) == i:
                    vecs.append(linalg.vec_combine(
                        hm.chain_vector_of_tree(t), 1,
                        sn.cochain_sum(sn.straighten(t)), -1))
            yield host, vecs
        vecs = [hm.chain_vector_of_tree(t, omit_top=False)
                for fam in ("comb", "lyndon") for t in tr.enumerate_family(fam, n)]
        yield hm.proper_part(n), vecs


def test_quotient_rank_and_membership_match_pairing_oracle():
    for host, vecs in _quotient_cases():
        basis = _oracle_cycle_basis(host)
        rows = [{j: pairing(v, z) for j, z in enumerate(basis)}
                for v in vecs]
        rows = [{j: x for j, x in row.items() if x} for row in rows]
        assert hm.rank_in_top_quotient(host, vecs) == \
            (linalg.rank_of(rows), len(basis)), host.name
        for v, row in zip(vecs, rows):
            assert hm.coboundary_member(host, v) == (not row), (host.name, v)


def test_chain_outside_the_host_is_refused():
    host1, host2 = hm.open_interval(4, 1), hm.open_interval(4, 2)
    c = next(c for c in chains_by_dim(host2)[host2.top_dim]
             if any(e not in host1.index for e in c))
    with pytest.raises(ValueError, match=r"not a top chain of \(0,\[4\]\^1\)"):
        hm.coboundary_member(host1, {c: 1})
    with pytest.raises(ValueError, match=r"not a top chain of \(0,\[4\]\^1\)"):
        hm.rank_in_top_quotient(host1, [{c: 1}])
    # a chain of host1 that is not top-dimensional, and one that is not
    # a chain, are refused too
    low = chains_by_dim(host1)[host1.top_dim - 1][0]
    top = chains_by_dim(host1)[host1.top_dim][0]
    for bad in (low, top[::-1]):
        with pytest.raises(ValueError, match="not a top chain"):
            hm.coboundary_member(host1, {bad: 1})
