"""Exact (co)homology of order complexes of open subposets.

An open poset is a subset of the weighted partition poset on [n]; its
order is read from that poset's down-set bitsets
(``partitions.Poset.down_sets``).  Chains are tuples of partitions,
strictly increasing in the poset order; the empty chain generates the
degree -1 part of the reduced complex.  A ChainVector is a sparse dict
mapping chains to integers.  Everything is computed over the integers;
one reduction per boundary map gives its rank and, through its unit-pivot
certificate, the torsion of the top two maps.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import chains as ch
from . import linalg
from . import partitions as pt
from . import trees as tr

CHAIN_COUNT_CAP = 2_000_000


class OpenPoset:
    """The subposet of a built poset P induced on the elements keep, with
    its order complex.

    Elements are listed sorted and indexed locally; up[k] and down[k] are
    bitsets over those indices of the elements strictly above and below
    element k, restricted from P's down-sets, so building them costs one
    step per comparable pair.  Chains of the order complex are cached per
    dimension.
    """

    def __init__(self, name, P, keep):
        self.name = name
        self.elements = sorted(keep)
        self.index = {e: k for k, e in enumerate(self.elements)}
        hosts = [P.index[e] for e in self.elements]
        local = {h: k for k, h in enumerate(hosts)}
        keep_mask = 0
        for h in hosts:
            keep_mask |= 1 << h
        down_sets = P.down_sets()
        self.up = [0] * len(hosts)
        self.down = [0] * len(hosts)
        for k, h in enumerate(hosts):
            for g in pt.bits(down_sets[h] & keep_mask & ~(1 << h)):
                j = local[g]
                self.down[k] |= 1 << j
                self.up[j] |= 1 << k
        self._chains = None
        self._kernel = {}

    def chains_by_dim(self):
        """dict r -> list of r-chains (tuples of elements); r = -1 is the
        empty chain.  Each chain is extended by the elements above its
        last one, in index order; the size of the next dimension is
        counted from those before it is built, and the run is refused
        once the total, the empty chain included, would pass
        CHAIN_COUNT_CAP."""
        if self._chains is None:
            elements = self.elements
            above = [list(pt.bits(u)) for u in self.up]
            everything = list(range(len(elements)))
            by_dim = {}
            frontier = [()]
            total = 1
            r = -1
            while frontier:
                by_dim[r] = [tuple(elements[k] for k in c) for c in frontier]
                nexts = [above[c[-1]] if c else everything for c in frontier]
                total += sum(map(len, nexts))
                if total > CHAIN_COUNT_CAP:
                    raise pt.ResourceCapError(
                        f"chains of {self.name}", CHAIN_COUNT_CAP)
                frontier = [c + (j,) for c, js in zip(frontier, nexts)
                            for j in js]
                r += 1
            self._chains = by_dim
        return self._chains

    @property
    def top_dim(self):
        return max(self.chains_by_dim())

    def cycle_basis(self, r=None):
        """Integer basis of ker(boundary) in dimension r (default: top)."""
        if r is None:
            r = self.top_dim
        if r not in self._kernel:
            chains_r = self.chains_by_dim().get(r, [])
            combos = linalg.kernel_basis([boundary_of_chain(c) for c in chains_r])
            self._kernel[r] = [
                {chains_r[j]: x for j, x in combo.items()} for combo in combos]
        return self._kernel[r]


def boundary_of_chain(c):
    if not c:
        return {}
    if len(c) == 1:
        return {(): 1}
    out = {}
    for i in range(len(c)):
        out[c[:i] + c[i + 1:]] = (-1) ** i
    return out


def boundary(v):
    """The boundary of a homogeneous ChainVector."""
    out = {}
    for c, coeff in v.items():
        linalg.vec_add(out, boundary_of_chain(c), coeff)
    return out


def coboundary(host, v):
    """The coboundary: insert every admissible element into every gap,
    with the gaps at the ends open toward the (virtual) bottom and top."""
    out = {}
    for c, coeff in v.items():
        linalg.vec_add(out, _coboundary_of_chain(host, c), coeff)
    return out


def _coboundary_of_chain(host, c):
    everything = (1 << len(host.elements)) - 1
    idx = [host.index[e] for e in c]
    out = {}
    for i in range(len(c) + 1):
        lower = host.up[idx[i - 1]] if i > 0 else everything
        upper = host.down[idx[i]] if i < len(c) else everything
        for j in pt.bits(lower & upper):
            out[c[:i] + (host.elements[j],) + c[i:]] = (-1) ** i
    return out


def pairing(u, v):
    """<u, v> with the chains orthonormal."""
    return linalg.vec_dot(u, v)


# ---------------------------------------------------------------------------
# hosts
# ---------------------------------------------------------------------------

def interval_elements(n, i):
    """The elements of (0-hat, [n]^i): the down-set of [n]^i in the
    weighted poset on [n], minus [n]^i and the bottom (index 0); no
    order complex is built."""
    P = pt.build_poset(n, pt.WEIGHTED)
    top = P.index[pt.sort_blocks((((1 << n) - 1, i),))]
    return [P.elements[k]
            for k in pt.bits(P.down_sets()[top] & ~(1 << top | 1))]


def interval_size(n, i):
    """len(interval_elements(n, i)) without building the poset.

    A weighted partition with k blocks and weight sum s lies below [n]^i
    exactly when s <= i <= s + k - 1.  counts[m][(k, s)] counts them on an
    m-set: the block holding the least element has some size b (C(m-1,
    b-1) choices of the rest of it) and weight 0..b-1.  The bottom and
    [n]^i are left out; at n = 1 they are one element.
    """
    counts = [{(0, 0): 1}]
    for m in range(1, n + 1):
        here = {}
        for b in range(1, m + 1):
            ways = comb(m - 1, b - 1)
            for (k, s), c in counts[m - b].items():
                for w in range(b):
                    key = (k + 1, s + w)
                    here[key] = here.get(key, 0) + ways * c
        counts.append(here)
    below = sum(c for (k, s), c in counts[n].items() if s <= i <= s + k - 1)
    return below - (1 if n == 1 else 2)


@lru_cache(maxsize=None)
def open_interval(n, i):
    """(0-hat, [n]^i) as an OpenPoset."""
    return OpenPoset(f"(0,[{n}]^{i})", pt.build_poset(n, pt.WEIGHTED),
                     interval_elements(n, i))


@lru_cache(maxsize=None)
def proper_part(n):
    """Pi_n^w minus its bottom, as an OpenPoset."""
    P = pt.build_poset(n, pt.WEIGHTED)
    return OpenPoset(f"Pi_{n}^w - 0", P, P.elements[1:])


@lru_cache(maxsize=None)
def open_boolean_of_tree(T):
    """The proper part of Pi_T (boolean lattice on the edges of T).  Pi_T
    is an induced subposet of Pi_n^w (``chains.pi_subposet`` checks it),
    so its order is read from the weighted poset on [n]."""
    elems, _mapping = ch.pi_subposet(T)
    n = len(T.labels)
    inner = [e for e in elems if 0 < n - len(e) < n - 1]
    return OpenPoset(f"Pi_T proper ({T!r})", pt.build_poset(n, pt.WEIGHTED),
                     inner)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def betti_numbers(host):
    """Reduced Betti numbers {r: betti_r} plus the nontrivial invariant
    factors of the top two boundary maps, top first.  Each map is reduced
    once (``linalg.Echelon``) for its rank; where every installed pivot
    is a unit its invariant factors are all 1, and only where one is not
    does ``linalg.snf_invariant_factors`` compute them."""
    by_dim = host.chains_by_dim()
    top = max(by_dim)
    ranks, unimodular = {}, {}
    for r in sorted(by_dim):
        ech = linalg.Echelon()
        for c in by_dim[r]:
            ech.add(boundary_of_chain(c))
        ranks[r], unimodular[r] = ech.rank, ech.unimodular
    betti = {}
    for r in sorted(by_dim):
        betti[r] = len(by_dim[r]) - ranks[r] - ranks.get(r + 1, 0)
    torsion = {}
    for r in (top, top - 1):
        if r in by_dim and r >= 0:
            torsion[r] = [] if unimodular[r] else [
                f for f in linalg.snf_invariant_factors(
                    [boundary_of_chain(c) for c in by_dim[r]]) if f != 1]
    return {
        "betti": betti,
        "top_dim": top,
        "torsion_nontrivial": torsion,
        "torsion_free_top": all(not v for v in torsion.values()),
    }


def coboundary_member(host, v, want_witness=False):
    """Is v (top-dimensional) a coboundary?  Over the rationals this is
    orthogonality to every top-dimensional cycle; a witness w with
    coboundary(w) = v is solved for on request."""
    if not v:
        return (True, {}) if want_witness else True
    member = all(pairing(v, z) == 0 for z in host.cycle_basis())
    if not want_witness:
        return member
    if not member:
        return False, None
    r = len(next(iter(v))) - 1
    cod = host.chains_by_dim().get(r - 1, [])
    cols = [coboundary(host, {c: 1}) for c in cod]
    sol = linalg.solve_rational(cols, v)
    if sol is None:
        raise AssertionError("rational witness solve failed for a member")
    return True, {cod[j]: x for j, x in sol.items()}


def chain_vector_of_tree(t, omit_top=True):
    """c-bar (or c-breve with omit_top False) of a tree as a ChainVector."""
    parts = ch.chain_partitions_of_tree(t)
    hi = len(parts) - 1 if omit_top else len(parts)
    return {tuple(parts[1:hi]): 1}


def fundamental_cycle(T):
    """Generator of the top homology of the open part of Pi_T, normalized
    so the chain of psi(T) has coefficient +1."""
    n = len(T.labels)
    key = tuple(ch.chain_partitions_of_tree(tr.psi(T))[1:-1])
    if n == 2:
        return {(): 1}
    host = open_boolean_of_tree(T)
    basis = host.cycle_basis()
    if len(basis) != 1:
        raise AssertionError(f"top cycle space of Pi_T has rank {len(basis)}")
    rho = basis[0]
    coeff = rho.get(key)
    if coeff is None:
        raise AssertionError("c(psi(T)) is missing from the fundamental cycle")
    if abs(coeff) != 1:
        raise AssertionError("fundamental cycle is not unimodular")
    if coeff == -1:
        rho = {c: -x for c, x in rho.items()}
    if any(abs(x) != 1 for x in rho.values()):
        raise AssertionError("fundamental cycle has a non-unit coefficient")
    return rho


def rank_in_top_quotient(host, vectors):
    """Rank of the images of top-dimensional cochain vectors in the
    quotient C^top / B^top (pairing against a cycle basis)."""
    basis = host.cycle_basis()
    rows = []
    for v in vectors:
        row = {j: pairing(v, z) for j, z in enumerate(basis)}
        rows.append({j: x for j, x in row.items() if x})
    return linalg.rank_of(rows), len(basis)


def whitney_cohomology_ranks(n):
    """Ranks of the Whitney cohomology, computed as sums of |mu| over
    ranks and checked against C(n-1,r) n^r with total (n+1)^(n-1)."""
    P = pt.build_poset(n, pt.WEIGHTED)
    mu0 = P.mu_from_bottom()
    got = [0] * n
    for k, m in enumerate(mu0):
        got[P.ranks[k]] += abs(m)
    expected = [comb(n - 1, r) * n ** r for r in range(n)]
    if got != expected:
        raise AssertionError(f"Whitney cohomology ranks {got} != {expected}")
    if sum(got) != (n + 1) ** (n - 1):
        raise AssertionError("Whitney cohomology total is off")
    return got


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def homology_report(host):
    data = betti_numbers(host)
    return {
        "poset_id": host.name,
        "dims": {str(r): len(cs) for r, cs in host.chains_by_dim().items()},
        "betti": {str(r): b for r, b in data["betti"].items()},
        "torsion_top": {str(r): v for r, v in data["torsion_nontrivial"].items()},
        "torsion_free_top": data["torsion_free_top"],
    }
