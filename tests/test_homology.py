import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from wpposet import ResourceCapError
from wpposet import acceptance
from wpposet import chains as ch
from wpposet import homology as hm
from wpposet import linalg
from wpposet import partitions as pt
from wpposet import straighten as sn
from wpposet import trees as tr

from poset_oracles import (boundary, boundary_of_chain, chains_by_dim,
                           coboundary, cycle_basis, ground_size, kernel_basis,
                           leq, pairing, sort_blocks, up_by_transposition)

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
    # A host keeps its certificates from its one pass, so the forced run
    # reduces hosts of its own.
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
        top = rep["top_dim"]
        assert list(rep["torsion_nontrivial"]) == [top, top - 1]
        assert list(rep["torsion_every_map"]) == list(range(top, -1, -1))
    # every boundary map d_0 .. d_top of every host
    assert len(calls) == sum(rep["top_dim"] + 1 for rep in reports)


def test_criterion_9_reads_the_certificate_of_every_map(monkeypatch):
    # every certificate of a map below a host's top two is patched off, so
    # betti_numbers must send those maps, and only those, to the SNF
    real = hm.OpenPoset.reductions

    def off(self):
        top = self.top_dim
        return {r: (rank, unimodular and r >= top - 1)
                for r, (rank, unimodular) in real(self).items()}

    monkeypatch.setattr(hm.OpenPoset, "reductions", off)
    snf = hm.linalg.snf_invariant_factors
    sizes = []

    def counted_snf(vectors):
        sizes.append(len(vectors))
        return snf(vectors)

    monkeypatch.setattr(hm.linalg, "snf_invariant_factors", counted_snf)
    # n <= 4: the proper part of [4] is the one host with a map below its
    # top two, d_0, whose transpose is the one row of the empty chain
    assert acceptance.run_criterion(9, 4)[1]
    assert sizes == [1]
    monkeypatch.setattr(hm.linalg, "snf_invariant_factors", lambda v: [2])
    name, ok, detail = acceptance.run_criterion(9, 4)
    assert not ok
    assert detail.startswith("proper part n=4: {")
    assert detail.endswith(", torsion {2: [], 1: [], 0: [2]}")


def _count_echelons(monkeypatch):
    """Every linalg.Echelon made from here on, in the order made."""
    made = []

    class Counted(linalg.Echelon):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(hm.linalg, "Echelon", Counted)
    return made


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
        made = _count_echelons(monkeypatch)
        if betti_first:
            rep = hm.betti_numbers(host)
            rank, betti = hm.rank_in_top_quotient(host, vecs)
        else:
            rank, betti = hm.rank_in_top_quotient(host, vecs)
            rep = hm.betti_numbers(host)
        assert not hm.coboundary_member(host, vecs[0])
        assert len(cycle_basis(host)) == betti
        # one reduction per coboundary map, bottom first, then the one
        # of the quotient rank
        top = host.top_dim
        assert len(made) == top + 2, host.name
        assert [(e.rank, e.unimodular) for e in made[:top + 1]] == \
            [host.reductions()[r] for r in range(top + 1)], host.name
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
            top = sort_blocks((((1 << n) - 1, i),))
            assert hm.interval_elements(n, i) == [
                e for e in P.elements if e not in (top, bot) and leq(e, top)]


def test_interval_size_matches_elements():
    for n in range(1, 7):
        for i in range(n):
            assert hm.interval_size(n, i) == len(hm.interval_elements(n, i))
    assert hm.interval_size(8, 3) == 34_274


def _host(n, i):
    return hm.proper_part(n) if i is None else hm.open_interval(n, i)


def test_chain_count_matches_the_listing(monkeypatch):
    # every host with n <= 6: at a cap of its counted chains it is made
    # and lists exactly that many
    for n in range(1, 7):
        for i in [*range(n), None]:
            total = hm.chain_count(n, i)
            monkeypatch.setattr(hm, "CHAIN_COUNT_CAP", total)
            host = _host(n, i)
            assert sum(map(len, host.index_chains().values())) == total, \
                host.name


def test_chain_cap_is_checked_before_the_frontier(monkeypatch):
    # every host with n <= 6: one below its counted chains it is refused
    # before any poset is built, so no chain frontier is ever started
    def refuse(*args, **kwargs):
        raise AssertionError("the poset was built before the chain cap")

    monkeypatch.setattr(pt, "build_poset", refuse)
    for n in range(1, 7):
        for i in [*range(n), None]:
            total = hm.chain_count(n, i)
            monkeypatch.setattr(hm, "CHAIN_COUNT_CAP", total - 1)
            with pytest.raises(ResourceCapError) as err:
                _host(n, i)
            name = f"Pi_{n}^w - 0" if i is None else f"(0,[{n}]^{i})"
            assert (err.value.what, err.value.limit) == \
                (f"chains of {name}", total - 1)


def test_chain_counts_are_pinned():
    assert hm.chain_count(7, 1) == 1_410_144
    assert hm.chain_count(7, 3) == 4_304_175
    assert hm.chain_count(7) == 20_942_118
    assert hm.chain_count(8, 3) == 291_874_936


def test_top_chain_counts_match_the_listing():
    # the maximal chains of each closed interval, and of every one at once,
    # in closed form
    hosts = [(n, i) for n in range(1, 6) for i in range(n)] + [(6, 0), (6, 5)]
    for n, i in hosts:
        chains = hm.open_interval(n, i).index_chains()
        assert len(chains[max(chains)]) == math.comb(n - 1, i) * \
            math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1), (n, i)
    for n in range(1, 7):
        chains = hm.proper_part(n).index_chains()
        assert len(chains[max(chains)]) == \
            math.factorial(n) * math.factorial(n - 1), n


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


def _index_hosts():
    yield hm.open_interval(6, 0)
    for n in range(1, 6):
        yield from (hm.open_interval(n, i) for i in range(n))
        yield hm.proper_part(n)


def test_streamed_cycle_index_matches_kernel_list():
    # over chain positions: the top boundary rows, the index's z_j and the
    # oracle's kernel vectors
    for host in _index_hosts():
        by_dim = host.index_chains()
        top = max(by_dim)
        faces = {c: k for k, c in enumerate(by_dim.get(top - 1, []))}
        rows = [{faces[f]: x for f, x in boundary_of_chain(c).items()}
                for c in by_dim[top]]
        position = {c: k for k, c in enumerate(by_dim[top])}
        index, count = host.cycle_index()
        basis = [{} for _ in range(count)]
        for c, entries in index.items():
            for j, x in zip(entries[::2], entries[1::2]):
                basis[j][position[c]] = x
        for z in basis:
            image = {}
            for k, x in z.items():
                linalg.vec_add(image, rows[k], x)
            assert image == {}, host.name
        # as many as the oracle's kernel vectors, independent, and with
        # them no more: the same span
        oracle = kernel_basis(rows)
        assert count == len(oracle) == linalg.rank_of(basis) == \
            linalg.rank_of(basis + oracle), host.name


def test_betti_numbers_leave_the_cycle_index_unsolved(monkeypatch):
    # the index is solved on its first read, so a caller of Betti numbers
    # alone never pays for it, and a later read still gets it
    def refuse(*args, **kwargs):
        raise AssertionError("the cycle index was solved unread")

    hosts, fresh = _fresh_hosts(4), _fresh_hosts(4)
    with monkeypatch.context() as m:
        m.setattr(hm, "_cycle_index", refuse)
        for host in hosts:
            hm.homology_report(host)
    for host, other in zip(hosts, fresh):
        assert host.cycle_index() == other.cycle_index(), host.name


def test_index_chain_reduction_matches_partition_oracle():
    for host in _open_hosts():
        idx, chains = host.index_chains(), chains_by_dim(host)
        oracle = _oracle_reductions(host)
        for r, cs in idx.items():
            assert cs == sorted(cs), (host.name, r)
        # each coboundary map reduces to the rank and certificate of the
        # boundary map it transposes
        assert host.reductions() == {
            r: (ech.rank, ech.unimodular)
            for r, ech in oracle.items() if r >= 0}, host.name
        rep = hm.betti_numbers(host)
        assert rep["betti"] == {
            r: len(cs) - oracle[r].rank - (oracle[r + 1].rank
                                           if r + 1 in oracle else 0)
            for r, cs in chains.items()}, host.name
        top = rep["top_dim"]
        assert rep["torsion_free_top"] == all(
            oracle[r].unimodular for r in (top, top - 1) if r >= 0), host.name
        assert not any(rep["torsion_every_map"].values()), host.name


def _bicolored_sample(n, i, count, seed):
    """count bicolored trees on [n] with i red nodes, drawn by index."""
    rng = random.Random(seed)
    total = tr.bicolored_count(n, i)
    return [tr.bicolored_at(n, rng.randrange(total), i) for _ in range(count)]


def _quotient_cases():
    """(host, vectors): family cochains, phi images and straightening
    differences of each (0,[n]^i), and the full families of the proper
    part, n <= 4; then the comb cochains and the straightening
    differences of 30 drawn trees of each (0,[5]^i) and of (0,[6]^0)."""
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
    for n, i in [(5, i) for i in range(5)] + [(6, 0)]:
        vecs = [hm.chain_vector_of_tree(t)
                for t in tr.enumerate_family("comb", n, i)]
        vecs += [linalg.vec_combine(hm.chain_vector_of_tree(t), 1,
                                    sn.cochain_sum(sn.straighten(t)), -1)
                 for t in _bicolored_sample(n, i, 30, 10 * n + i)]
        yield hm.open_interval(n, i), vecs


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


def test_a_non_unit_top_pivot_keeps_the_quotient(monkeypatch):
    # the first row of each host's top coboundary map is doubled as it is
    # added, so its stored pivot is 2: the top certificate turns off, the
    # SNF of the whole map gives the torsion, and the cycle index is
    # rescaled to a basis of the same span
    plain = [(hm.rank_in_top_quotient(host, vecs),
              [hm.coboundary_member(host, v) for v in vecs],
              hm.betti_numbers(host), host.reductions())
             for host, vecs in itertools.islice(_quotient_cases(), 12)]
    made, calls, top = [], [], None

    class DoubleFirstTopRow(linalg.Echelon):
        def __init__(self):
            super().__init__()
            made.append(self)

        def add(self, v):
            if len(made) == top + 1 and not self.by_pivot:
                v = {k: 2 * x for k, x in v.items()}
            return super().add(v)

    snf = hm.linalg.snf_invariant_factors

    def counted_snf(vectors):
        calls.append(len(vectors))
        return snf(vectors)

    monkeypatch.setattr(hm.linalg, "Echelon", DoubleFirstTopRow)
    monkeypatch.setattr(hm.linalg, "snf_invariant_factors", counted_snf)
    checked = 0
    for (host, vecs), (quotient, members, rep, maps) in zip(
            itertools.islice(_quotient_cases(), 12), plain):
        made.clear()
        calls.clear()
        top = host.top_dim
        if top < 0:
            continue  # no map to double
        assert host.reductions() == {**maps, top: (maps[top][0], False)}, \
            host.name
        assert hm.rank_in_top_quotient(host, vecs) == quotient, host.name
        assert [hm.coboundary_member(host, v) for v in vecs] == members, \
            host.name
        assert all(boundary(z) == {} for z in cycle_basis(host)), host.name
        assert hm.betti_numbers(host) == rep, host.name
        # the transpose of the top map: one row per (top-1)-chain
        assert calls == [len(host.index_chains()[top - 1])], host.name
        checked += 1
    assert checked == 10  # every host with n <= 4 but the two empty ones


@given(st.integers(0, 10_000))
def test_cycle_index_solves_any_stored_rows(seed):
    # random integer rows, non-unit pivots among them: the index must be a
    # basis of everything orthogonal to the rows, rescaled where a pivot
    # does not divide
    rng = random.Random(seed)
    m = rng.randint(1, 7)
    rows = [{k: x for k in range(m)
             if (x := rng.choice([0, 0, 0, 1, -1, 2, -2, 3]))}
            for _ in range(rng.randint(0, 6))]
    ech = linalg.Echelon()
    for v in rows:
        ech.add(v)
    index, count = hm._cycle_index([(k,) for k in range(m)], ech.by_pivot)
    basis = [{} for _ in range(count)]
    for (k,), entries in index.items():
        for j, x in zip(entries[::2], entries[1::2]):
            basis[j][k] = x
    assert count == m - ech.rank == linalg.rank_of(basis)
    assert all(pairing(z, v) == 0 for z in basis for v in rows)


def test_up_from_covers_matches_transposed_down_sets():
    # every interval and proper part with n <= 5, and the proper parts of
    # Pi_T on [4]: not order-convex, but joined by covers inside
    for host in _open_hosts():
        if host.elements:
            P = pt.build_poset(ground_size(host.elements[0]), pt.WEIGHTED)
            assert host.up == up_by_transposition(P, host.elements), \
                host.name


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
