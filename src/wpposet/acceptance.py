"""The sixteen acceptance checks, shared by the test suite and the CLI.

Each criterion function returns (name, ok, detail).  ``nmax`` scales every
criterion down to min(its native size, nmax); the native sizes are the
largest desk-scale instances the claims are verified at.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

from . import chains as ch
from . import homology as hm
from . import labeling as lb
from . import linalg
from . import partitions as pt
from . import straighten as st
from . import trees as tr


def _cap(native, nmax):
    return native if nmax is None else min(native, nmax)


def criterion_1(nmax=None):
    """Rank sizes match C(n,k)(n-k)^k by enumeration."""
    for n in range(1, _cap(7, nmax) + 1):
        pt.rank_generating_function(n)
    return "rank generating function", True, f"n <= {_cap(7, nmax)}"


def criterion_2(nmax=None):
    """Mobius values at the maximal elements match the product formula."""
    for n in range(1, _cap(6, nmax) + 1):
        pt.mu_polynomial(n)
    return "Mobius product formula", True, f"n <= {_cap(6, nmax)}"


def criterion_3(nmax=None):
    for n in range(1, _cap(6, nmax) + 1):
        pt.mu_augmented(n)
    return "augmented Mobius value", True, f"n <= {_cap(6, nmax)}"


def criterion_4(nmax=None):
    for n in range(1, _cap(6, nmax) + 1):
        pt.characteristic_polynomial(pt.build_poset(n, pt.WEIGHTED))
        pt.characteristic_polynomial(pt.build_poset(n, pt.POINTED))
    return "characteristic polynomial (both variants)", True, f"n <= {_cap(6, nmax)}"


def criterion_5(nmax=None):
    for n in range(1, _cap(6, nmax) + 1):
        pt.whitney_matrices(n)
    return "Whitney matrices inverse", True, f"n <= {_cap(6, nmax)}"


def criterion_6(nmax=None):
    for n in range(1, _cap(6, nmax) + 1):
        tr.forest_counts(n)
    for n in range(1, _cap(6, nmax) + 1):
        P = pt.build_poset(n, pt.WEIGHTED)
        mu0 = P.mu_from_bottom()
        per_alpha = Counter(ch.alpha_of_forest(F)
                            for F in tr.enumerate_rooted_forests(n))
        for k, e in enumerate(P.elements):
            if abs(mu0[k]) != per_alpha.get(e, 0):
                return "forest counts", False, f"mismatch at {pt.partition_str(e)}"
    return "forest counts vs Mobius", True, f"n <= {_cap(6, nmax)}"


def criterion_7(nmax=None):
    for n in range(1, _cap(5, nmax) + 1):
        rep = lb.verify_el(n)
        if not rep["passed"]:
            return "EL verification", False, str(rep["violations"][:3])
    return "EL verification", True, f"n <= {_cap(5, nmax)}"


def criterion_8(nmax=None):
    for n in range(2, _cap(5, nmax) + 1):
        counts = Counter(T.descent_count()
                         for T in tr.enumerate_rooted_trees(range(1, n + 1)))
        for i in range(n):
            top = pt.sort_blocks((((1 << n) - 1, i),))
            P, af = lb.ascent_free_chains(n, top)
            if len(af) != counts[i]:
                return "ascent-free counts", False, f"n={n} i={i}: {len(af)}"
            got = {tuple(P.elements[k] for k in c) for c in af}
            want = set()
            for t in tr.enumerate_family("lyndon", n, i):
                tau = tr.valency_decreasing_tau(t)
                want.add(ch.chain_partitions_of_tree(t, tau))
            if got != want:
                return "ascent-free chain sets", False, f"n={n} i={i}"
    return "ascent-free chains = Lyndon chains", True, f"n <= {_cap(5, nmax)}"


def criterion_9(nmax=None):
    for n in range(2, _cap(5, nmax) + 1):
        counts = Counter(T.descent_count()
                         for T in tr.enumerate_rooted_trees(range(1, n + 1)))
        for i in range(n):
            rep = hm.betti_numbers(hm.open_interval(n, i))
            top = rep["top_dim"]
            if rep["betti"][top] != counts[i] or not rep["torsion_free_top"]:
                return "Betti numbers", False, f"interval n={n} i={i}: {rep['betti']}"
            if any(b for r, b in rep["betti"].items() if r != top):
                return "Betti numbers", False, f"lower Betti nonzero n={n} i={i}"
        rep = hm.betti_numbers(hm.proper_part(n))
        top = rep["top_dim"]
        if rep["betti"][top] != (n - 1) ** (n - 1) or not rep["torsion_free_top"]:
            return "Betti numbers", False, f"proper part n={n}: {rep['betti']}"
    return "Betti numbers and torsion", True, f"n <= {_cap(5, nmax)}"


def criterion_10(nmax=None):
    for n in range(1, _cap(8, nmax) + 1):
        tr.descent_polynomial(n)
    return "descent product identity", True, f"n <= {_cap(8, nmax)}"


def criterion_11(nmax=None):
    for n in range(1, _cap(7, nmax) + 1):
        counts = tr.drake_product(n)
        for fam in ("comb", "lyndon", "liu"):
            trees = tr.enumerate_family(fam, n)
            if len(set(trees)) != len(trees):
                return "family counts", False, f"{fam} n={n}: repeated trees"
            per_i = Counter(tr.red_count(t) for t in trees)
            if [per_i.get(i, 0) for i in range(n)] != counts:
                return "family counts", False, f"{fam} n={n}: {dict(per_i)}"
        if sum(counts) != n ** (n - 1):
            return "family counts", False, f"total at n={n}"
    return "family counts n^(n-1), per-i", True, f"n <= {_cap(7, nmax)}"


def criterion_12(nmax=None):
    hi = _cap(6, nmax)
    for size in range(1, hi + 1):
        for A in itertools.combinations(range(1, hi + 1), size):
            image = set()
            for T in tr.enumerate_rooted_trees(A):
                t = tr.psi(T)
                if tr.red_count(t) != T.descent_count() or tr.psi_inverse(t) != T:
                    return "psi bijection", False, f"A={A}, T={T!r}"
                image.add(t)
            liu = set(tr.enumerate_liu(A))
            if image != liu:
                return "psi bijection", False, f"image mismatch on A={A}"
    return "psi bijection with inverse", True, f"A within [{hi}]"


def _check_straighten(t, host):
    out = st.straighten(t)
    diff = linalg.vec_combine(hm.chain_vector_of_tree(t), 1,
                              st.cochain_sum(out), -1)
    return all(tr.is_comb(c) for c in out) and hm.coboundary_member(host, diff)


def criterion_13(nmax=None):
    hi = _cap(5, nmax)
    for n in range(2, hi + 1):
        for t in tr.enumerate_bicolored(n):
            if not _check_straighten(t, hm.open_interval(n, tr.red_count(t))):
                return "straightening soundness", False, f"tree {t!r}"
        for side in (st.COHOMOLOGY, st.LIE2):
            for inst, rel in st.relation_instances(n, side=side):
                if st.straighten_sum(rel, side):
                    return "straightening soundness", False, f"relation {inst!r}"
    return "straightening soundness", True, f"full n <= {hi}"


def criterion_14(nmax=None):
    for n in range(2, _cap(4, nmax) + 1):
        for i in range(n):
            rep = st.verify_bases(n, i)
            if not rep["passed"]:
                return "basis verifications", False, f"n={n} i={i}: {rep}"
        rep = st.verify_bases(n, full=True)
        if not rep["passed"]:
            return "basis verifications", False, f"full n={n}: {rep}"
    detail = f"full n <= {_cap(4, nmax)}"
    if nmax is None or nmax >= 5:
        rep = st.verify_bases(5, 1)
        if not rep["passed"]:
            return "basis verifications", False, f"n=5 i=1: {rep}"
        detail += "; n=5 at i=1"
    return "basis verifications", True, detail


def criterion_15(nmax=None):
    for n in range(1, _cap(5, nmax) + 1):
        hm.whitney_cohomology_ranks(n)
    return "Whitney cohomology ranks", True, f"n <= {_cap(5, nmax)}"


def criterion_16(nmax=None):
    for n in range(2, _cap(4, nmax) + 1):
        for i in range(n):
            host = hm.open_interval(n, i)
            vecs = [st.phi(t) for t in tr.enumerate_family("comb", n, i)]
            rank, betti = hm.rank_in_top_quotient(host, vecs)
            if not rank == betti == len(vecs):
                return "phi verification", False, f"rank {rank} != {len(vecs)}"
        for inst, rel in st.relation_instances(n, side=st.LIE2):
            host = hm.open_interval(n, tr.red_count(inst.host))
            if not hm.coboundary_member(host, st.phi_of_sum(rel)):
                return "phi verification", False, f"relation image {inst!r}"
    return "phi verification", True, f"n <= {_cap(4, nmax)}"


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14, criterion_15,
    criterion_16,
]


def run_criterion(k, nmax=None):
    """(name, ok, detail) of criterion ``k``; a criterion that raises fails,
    with the exception as its witness, instead of ending the run."""
    crit = ALL_CRITERIA[k - 1]
    try:
        return crit(nmax)
    except Exception as exc:
        return crit.__name__, False, f"raised {type(exc).__name__}: {exc}"


def run_all(nmax=None, emit=print, jobs=1):
    """Run every criterion, emitting one pass/fail line each; with jobs > 1
    the criteria run in a pool of that many processes and the lines come
    in criterion order once all are done."""
    ids = range(1, len(ALL_CRITERIA) + 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(run_criterion, ids, [nmax] * len(ids)))
    else:
        raw = (run_criterion(k, nmax) for k in ids)
    ok_all = True
    results = []
    for k, (name, ok, detail) in zip(ids, raw):
        ok_all &= ok
        results.append({"criterion": k, "name": name, "ok": ok, "detail": detail})
        emit(f"[{'PASS' if ok else 'FAIL'}] criterion {k:2d}: {name} ({detail})")
    return ok_all, results
