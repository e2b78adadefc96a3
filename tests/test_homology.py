import gc
import itertools
import math
import random
import re
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from wpposet import ResourceCapError
from wpposet import acceptance
from wpposet import chains as ch
from wpposet import cli
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


def _colliding_trees(n):
    """The rooted trees T on [n] whose proper part of Pi_T has a
    coboundary map with a coface claimed twice, which its reduction pass
    reports by AssertionError."""
    out = []
    for T in tr.enumerate_rooted_trees(range(1, n + 1)):
        try:
            _open_boolean_of_tree(T).reductions()
        except AssertionError:
            out.append(T)
    return out


def _pair_calls(monkeypatch):
    """Every ``_pair`` call from here on, as (cofaces, pairs)."""
    calls = []
    real = hm._pair

    def recorded(host, chains, cofaces, cleared, r):
        pairs = real(host, chains, cofaces, cleared, r)
        calls.append((cofaces, pairs))
        return pairs

    monkeypatch.setattr(hm, "_pair", recorded)
    return calls


def _witness(message, host):
    """The coface and the two chains a collision's AssertionError names
    after the host, as tuples of local indices, the chains in the order
    they came."""
    local = {pt.partition_str(e): k for k, e in enumerate(host.elements)}
    found = re.fullmatch(rf"{re.escape(host.name)}: the coface (.+) is "
                         r"claimed by (.+) and by (.+)", message)
    assert found, message
    coface, first, second = (tuple(local[e] for e in g.split(" < "))
                             for g in found.groups())
    assert len(coface) - 1 == len(first) == len(second), message
    assert first < second, message
    return coface, first, second


def test_a_claimed_coface_is_a_witness(monkeypatch, capsys):
    # on 4 of the 64 proper parts of Pi_T on [4] two chains claim one
    # coface: the pass stops there and names both, each a face of the
    # coface whose largest coface it is
    trees = _colliding_trees(4)
    assert len(trees) == 4
    for T in trees:
        host = _open_boolean_of_tree(T)
        with pytest.raises(AssertionError) as err:
            hm.betti_numbers(host)
        coface, first, second = _witness(str(err.value), host)
        r = len(first) - 1
        cofaces = host.index_chains()[r + 1]
        packed = {host.unpack(c, r): c for c in host.index_chains()[r]}
        for face in (first, second):
            assert face in {coface[:g] + coface[g + 1:]
                            for g in range(len(coface))}, host.name
            p = hm._largest_coface(host.up, host.down, host.bits, cofaces,
                                   packed[face], r)
            assert host.unpack(cofaces[p], r + 1) == coface, host.name
    # with every chain claiming the first coface of its map, the first
    # host with two unpaired chains in one map fails criterion 9's row,
    # and a host's collision is exit 1 in the CLI
    real = hm._largest_coface
    monkeypatch.setattr(hm, "_largest_coface", lambda *args: (
        None if real(*args) is None else 0))
    name, ok, detail = acceptance.run_criterion(9, 4)
    assert (name, ok) == ("Betti numbers and torsion", False)
    host = hm.proper_part(3)
    coface, _first, _second = _witness(detail, host)
    assert coface == host.unpack(host.index_chains()[1][0], 1), detail
    assert cli.main(["homology", "--n", "4", "--i", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("assertion failed: "), out
    host = hm.open_interval(4, 1)
    coface, _first, _second = _witness(
        out.removeprefix("assertion failed: ").rstrip("\n"), host)
    assert coface == host.unpack(host.index_chains()[1][0], 1), out


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
        calls = _pair_calls(monkeypatch)
        made = _count_echelons(monkeypatch)
        if betti_first:
            rep = hm.betti_numbers(host)
            rank, betti = hm.rank_in_top_quotient(host, vecs)
        else:
            rank, betti = hm.rank_in_top_quotient(host, vecs)
            rep = hm.betti_numbers(host)
        assert not hm.coboundary_member(host, vecs[0])
        assert len(cycle_basis(host)) == betti
        # one pairing per coboundary map, bottom first, with no Echelon,
        # then the one Echelon of the quotient rank
        top = host.top_dim
        by_dim = host.index_chains()
        assert [cofaces for cofaces, _pairs in calls] == \
            [by_dim[r] for r in range(top + 1)], host.name
        assert [len(pairs) - pairs.count(0) for _cofaces, pairs in calls] == \
            [host.reductions()[r] for r in range(top + 1)], host.name
        assert len(made) == 1 and made[0].rank == rank, host.name
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


# (0,[1]^0), (0,[2]^0), (0,[2]^1) and the proper part of [1] are empty, so
# their top dimension is -1 and the reduction pass reduces no map;
# (0,[3]^0) and the proper part of [2] are antichains, top dimension 0,
# and it reduces one
@pytest.mark.parametrize("make, top, cycles", [
    (lambda: hm.open_interval(1, 0), -1, 1),
    (lambda: hm.open_interval(2, 0), -1, 1),
    (lambda: hm.open_interval(2, 1), -1, 1),
    (lambda: hm.proper_part(1), -1, 1),
    (lambda: hm.open_interval(3, 0), 0, 2),
    (lambda: hm.proper_part(2), 0, 1),
], ids=["(0,[1]^0)", "(0,[2]^0)", "(0,[2]^1)", "proper-part-1",
        "(0,[3]^0)", "proper-part-2"])
def test_hosts_with_at_most_one_map(make, top, cycles):
    host = make()
    rep = hm.betti_numbers(host)
    assert rep["top_dim"] == host.top_dim == top
    assert rep["betti"][top] == cycles
    assert host.cycle_index()[1] == cycles
    assert hm.rank_in_top_quotient(host, []) == (0, cycles)
    # one top chain is no coboundary: the empty chain, or one element
    chain = tuple(host.elements[:top + 1])
    assert hm.rank_in_top_quotient(host, [{chain: 1}]) == (1, cycles)


# The traced peak of a host's reduction pass, with its chains listed
# beforehand (tracemalloc).  Each map's pairs are one array('q') over its
# cofaces, 8 bytes a chain, which the next map reads as its cleared
# chains, so the pass holds the arrays of at most two adjacent maps at
# once (57,576 bytes at peak on (0,[6]^0), against 55,560 for the arrays
# of its top two maps, on Python 3.11), and the host keeps only the top
# map's.  A map that kept its coboundary rows, or a pass that kept every
# map's array, would exceed the bound; a ratio holds on Python 3.10 and
# 3.11 alike, where a bound in bytes would not.
REDUCTION_PEAK_RATIO = 1.1


@pytest.mark.parametrize("make", [lambda: hm.open_interval(6, 0),
                                  lambda: hm.proper_part(5)],
                         ids=["(0,[6]^0)", "proper-part-5"])
def test_the_reduction_pass_frees_each_maps_rows(make):
    host = make()
    sizes = [len(cs) for _r, cs in sorted(host.index_chains().items())]
    gc.collect()
    tracemalloc.start()
    try:
        host.reductions()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 8 bytes a chain of the top map's array, and the array and rank
    # dict's own headers
    assert held < 8 * sizes[-1] + 1024, held
    two = max(8 * (a + b) for a, b in zip(sizes, sizes[1:]))
    assert peak < REDUCTION_PEAK_RATIO * two, peak / two


def _coboundary_rows_by_slicing(host, r):
    """The coboundary row of each r-chain of host, keyed by the positions
    of the (r+1)-chains it is a face of, each face cut by slicing its
    unpacked index tuple."""
    by_dim = host.index_chains()
    rows = [{} for _ in by_dim[r]]
    faces = {host.unpack(c, r): k for k, c in enumerate(by_dim[r])}
    for p, c in enumerate(by_dim[r + 1]):
        c = host.unpack(c, r + 1)
        for i in range(len(c)):
            rows[faces[c[:i] + c[i + 1:]]][p] = (-1) ** i
    return rows


@pytest.mark.parametrize("n, i", [
    *((n, i) for n in range(1, 6) for i in [*range(n), None]), (6, 0)])
def test_coboundary_rows_match_sliced_faces(n, i):
    # every row of every map of the host, read off its bitsets: among them
    # the maps from the empty chain and from the points, whose faces are
    # () and one-element tuples, and the map from the edges, whose faces
    # have two elements.  The cofaces come in chain order, largest last.
    host = hm.proper_part(n) if i is None else hm.open_interval(n, i)
    by_dim = host.index_chains()
    for r in range(-1, host.top_dim):
        cofaces = by_dim[r + 1]
        oracle = _coboundary_rows_by_slicing(host, r)
        for c, want in zip(by_dim[r], oracle):
            row = hm._coboundary(host.up, host.down, host.bits, cofaces, c, r)
            assert row == want and list(row) == sorted(row), (host.name, c)
            largest = hm._largest_coface(host.up, host.down, host.bits,
                                         cofaces, c, r)
            assert largest == max(row, default=None), (host.name, c)


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
    boundary map of its proper part, normalized at the chain of psi(T);
    read off the oracle, since some of these hosts claim a coface
    twice."""
    key = tuple(ch.chain_partitions_of_tree(tr.psi(T))[1:-1])
    (rho,) = _oracle_cycle_basis(_open_boolean_of_tree(T))
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
    """Every interval and proper part with n <= 5, and the proper parts
    of Pi_T on [4] where no coface is claimed twice."""
    for n in range(1, 6):
        for i in range(n):
            yield hm.open_interval(n, i)
        yield hm.proper_part(n)
    colliding = _colliding_trees(4)
    for T in tr.enumerate_rooted_trees(range(1, 5)):
        if T not in colliding:
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


def test_a_host_too_wide_to_pack_is_refused(monkeypatch):
    # (0,[7]^2|3|4) have 4,578 to 5,348 elements, 13 bits an index, and a
    # longest chain of 5 elements: 65 bits.  With the chain cap raised
    # past them they are refused on the width, before any poset is built
    # or chain listed; the proper part of [7] needs 13 * 6 = 78
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the width was checked")

    monkeypatch.setattr(pt, "build_poset", refuse)
    monkeypatch.setattr(hm.OpenPoset, "index_chains", refuse)
    monkeypatch.setattr(hm, "CHAIN_COUNT_CAP", hm.chain_count(7))
    for i, name in [(2, "(0,[7]^2)"), (3, "(0,[7]^3)"), (4, "(0,[7]^4)"),
                    (None, "Pi_7^w - 0")]:
        with pytest.raises(ResourceCapError) as err:
            _host(7, i)
        assert (err.value.what, err.value.limit) == \
            (f"bits of a packed chain of {name}", 63)


def test_every_host_under_the_chain_cap_packs(monkeypatch):
    # no host the chain cap admits is refused on the width: the widest,
    # (0,[7]^1) and (0,[7]^5), take 12 bits an index and 5 a longest
    # chain, 60 bits
    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    monkeypatch.setattr(pt, "build_poset", built)
    for n in range(1, pt.POSET_CAP_N + 1):
        for i in [*range(n), None]:
            if hm.chain_count(n, i) <= hm.CHAIN_COUNT_CAP:
                with pytest.raises(Built):
                    _host(n, i)


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


def _unit_pivots(ech):
    """Whether every pivot ech installed is +-1: then its stored vectors
    are a Z-basis of the inputs' span with unit pivots in distinct keys,
    so every invariant factor of the inputs is 1."""
    return all(v[p] in (1, -1) for p, v in ech.by_pivot.items())


def _oracle_cycle_basis(host):
    chains_top = chains_by_dim(host)[host.top_dim]
    combos = kernel_basis([boundary_of_chain(c) for c in chains_top])
    return [{chains_top[j]: x for j, x in combo.items()} for combo in combos]


def _index_hosts():
    yield hm.open_interval(6, 0)
    for n in range(1, 6):
        yield from (hm.open_interval(n, i) for i in range(n))
        yield hm.proper_part(n)


def _assert_cycle_index_is_the_kernel(host):
    """Over chain positions: the top boundary rows, the index's z_j and
    the oracle's kernel vectors."""
    by_dim = host.index_chains()
    top = max(by_dim)
    faces = {host.unpack(c, top - 1): k
             for k, c in enumerate(by_dim.get(top - 1, []))}
    rows = [{faces[f]: x
             for f, x in boundary_of_chain(host.unpack(c, top)).items()}
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
    # as many as the oracle's kernel vectors, independent, and with them
    # no more: the same span
    oracle = kernel_basis(rows)
    assert count == len(oracle) == linalg.rank_of(basis) == \
        linalg.rank_of(basis + oracle), host.name


def test_streamed_cycle_index_matches_kernel_list():
    for host in _index_hosts():
        _assert_cycle_index_is_the_kernel(host)


def test_pairs_are_the_pivots_of_the_full_reduction(monkeypatch):
    # on every interval and proper part with n <= 5, and on (0,[6]^0), each
    # map's pairs are the pivots of an Echelon reduction of all its rows,
    # cleared ones included, the vector stored at each pivot the row of
    # the chain paired with it, and every pivot is +-1
    for host in _index_hosts():
        with monkeypatch.context() as m:
            calls = _pair_calls(m)
            host.reductions()
        by_dim = host.index_chains()
        assert len(calls) == host.top_dim + 1, host.name
        for r, (cofaces, pairs) in enumerate(calls, -1):
            assert cofaces is by_dim[r + 1], (host.name, r)
            ech = linalg.Echelon()
            for row in _coboundary_rows_by_slicing(host, r):
                ech.add(row)
            assert {p: hm._coboundary(host.up, host.down, host.bits, cofaces,
                                      by_dim[r][k - 1], r)
                    for p, k in enumerate(pairs) if k} == ech.by_pivot, \
                (host.name, r)
            assert host.reductions()[r + 1] == \
                len(pairs) - pairs.count(0) == ech.rank, (host.name, r)
            assert _unit_pivots(ech), (host.name, r)


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
            tuples = [host.unpack(c, r) for c in cs]
            assert list(cs) == sorted(cs) and tuples == sorted(tuples) \
                and chains[r] == sorted(chains[r]), (host.name, r)
        # each coboundary map reduces to the rank of the boundary map it
        # transposes, and that map's unit pivots show it has no torsion
        assert host.reductions() == {
            r: ech.rank for r, ech in oracle.items() if r >= 0}, host.name
        assert all(map(_unit_pivots, oracle.values())), host.name
        rep = hm.betti_numbers(host)
        assert rep["betti"] == {
            r: len(cs) - oracle[r].rank - (oracle[r + 1].rank
                                           if r + 1 in oracle else 0)
            for r, cs in chains.items()}, host.name
        top = rep["top_dim"]
        assert rep["torsion_free_top"] is True, host.name
        assert rep["torsion_nontrivial"] == {
            r: [] for r in (top, top - 1) if r >= 0}, host.name


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


def test_quotient_rank_does_not_depend_on_vector_order():
    # rank_in_top_quotient reduces its rows sparsest first, so the order
    # the vectors come in must not reach the answer
    rng = random.Random(2)
    for host, vecs in _quotient_cases():
        want = hm.rank_in_top_quotient(host, vecs)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        assert hm.rank_in_top_quotient(host, vecs[::-1]) == want, host.name
        assert hm.rank_in_top_quotient(host, shuffled) == want, host.name


def test_up_from_covers_matches_transposed_down_sets():
    # every interval and proper part with n <= 5, and the proper parts of
    # Pi_T on [4] that pair every chain: not order-convex, but joined by
    # covers inside
    for host in _open_hosts():
        if host.elements:
            P = pt.build_poset(ground_size(host.elements[0]), pt.WEIGHTED)
            assert host.up == up_by_transposition(P, host.elements), \
                host.name


def test_local_indices_are_a_linear_extension():
    # a coarser partition sorts later, so every element above k has a
    # larger local index and every one below a smaller, which puts the
    # cofaces of a chain in chain order; down is the transpose of up
    hosts = [*_open_hosts(), *(hm.open_interval(6, i) for i in range(6)),
             hm.proper_part(6)]
    for host in hosts:
        for k, (above, below) in enumerate(zip(host.up, host.down)):
            assert above >> (k + 1) << (k + 1) == above, (host.name, k)
            assert below < 1 << k, (host.name, k)
        assert host.down == [
            sum(1 << j for j, above in enumerate(host.up) if above >> k & 1)
            for k in range(len(host.up))], host.name


@pytest.mark.parametrize("n, i", [(3, 5), (3, 3), (3, -1), (1, 1)])
def test_a_weight_outside_the_top_range_is_refused(monkeypatch, n, i):
    # [n]^i is an element only for 0 <= i <= n - 1; any other i is refused
    # before a poset is built, a type table filled or a tree listed
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the weight was checked")

    for module, name in [(pt, "build_poset"), (pt, "type_sums"),
                         (tr, "enumerate_family"),
                         (tr, "enumerate_rooted_trees")]:
        monkeypatch.setattr(module, name, refuse)
    for call in (hm.open_interval, hm.interval_size, hm.interval_elements,
                 hm.chain_count, sn.verify_bases):
        with pytest.raises(ValueError,
                           match=rf"i must be in 0\.\.{n - 1}, got {i}$"):
            call(n, i)


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
    # a top chain led by local index 0 packs to the integer its tail, a
    # lower chain, would pack to: the tail of one the cycle index holds
    r = host1.top_dim
    led = next(c for c in host1.cycle_index()[0]
               if host1.unpack(c, r)[0] == 0)
    tail = tuple(host1.elements[k] for k in host1.unpack(led, r)[1:])
    assert host1.index_chains()[r - 1].count(led) == 1
    for bad in (low, top[::-1], tail):
        with pytest.raises(ValueError, match="not a top chain"):
            hm.coboundary_member(host1, {bad: 1})
        with pytest.raises(ValueError, match="not a top chain"):
            hm.rank_in_top_quotient(host1, [{bad: 1}])
