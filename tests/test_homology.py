import random

from hypothesis import given, strategies as st

from wpposet import chains as ch
from wpposet import homology as hm
from wpposet import linalg
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
    host = hm.open_interval(3, 1)
    c = host.chains_by_dim()[0][0]
    v = hm.coboundary(host, {c: 2})
    ok, witness = hm.coboundary_member(host, v, want_witness=True)
    assert ok
    got = {}
    for c2, x in witness.items():
        for k, s in hm._coboundary_of_chain(host, c2):
            val = got.get(k, 0) + x * s
            if val:
                got[k] = val
            else:
                got.pop(k, None)
    assert got == v


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
    rep = hm.verify_dual_bases(cycles, cochains)
    assert rep["invertible_over_Z"]
    M = rep["matrix"]
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


def test_sparse_triplet_dump_and_report():
    host = hm.open_interval(3, 1)
    dump = hm.sparse_triplet_dump(host, 0)
    assert dump.splitlines()[0].startswith("#")
    rep = hm.homology_report(host)
    assert rep["betti"]["0"] == 5
