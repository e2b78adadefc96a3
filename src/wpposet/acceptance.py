"""The sixteen acceptance checks, shared by the test suite and the CLI.

``CRITERIA`` has one row per criterion: its name, first and native size,
a check of one size, which raises ``AssertionError(witness)`` when the
claim is refuted, and the detail of a pass.  ``nmax`` caps every native
size, the largest desk-scale size each claim is verified at.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from math import comb, prod

from . import chains as ch
from . import homology as hm
from . import labeling as lb
from . import linalg
from . import partitions as pt
from . import straighten as st
from . import trees as tr


def _characteristic_polynomials(n):
    pt.characteristic_polynomial(pt.mobius_poset(n, pt.WEIGHTED))
    pt.characteristic_polynomial(pt.mobius_poset(n, pt.POINTED))


def _forests_vs_mobius(n):
    # [0-hat, alpha] is the product over the blocks B of alpha, so
    # |mu(0-hat, alpha)| counts the rooted forests with one tree on each
    # block, w(B) descents in it; relabelling B in order keeps descents,
    # so a block's trees are counted by the descent counts of its size
    P = pt.mobius_poset(n, pt.WEIGHTED)
    trees = [None, *map(tr.descent_counts, range(1, n + 1))]
    forests = [prod(trees[m.bit_count()][w] for m, w in e)
               for e in P.elements]
    # alpha has one block per tree: C(n-1, k-1) n^(n-k) forests of k trees
    per_k = Counter()
    for e, count in zip(P.elements, forests):
        per_k[len(e)] += count
    for k in range(1, n + 1):
        if per_k[k] != comb(n - 1, k - 1) * n ** (n - k):
            raise AssertionError(f"{per_k[k]} forests of {k} trees on [{n}]")
    for e, mu, count in zip(P.elements, P.mu_from_bottom(), forests):
        if abs(mu) != count:
            raise AssertionError(f"mismatch at {pt.partition_str(e)}")


def _el_labeling(n):
    rep = lb.verify_el(*lb.cover_labels(n))
    if not rep["passed"]:
        raise AssertionError(str(rep["violations"][:3]))


def _ascent_free_chains(n):
    # distinct ascent-free maximal chains of [0-hat, [n]^i], as many as
    # the count over the covers finds: together, the set of all of them
    counts = tr.descent_counts(n)
    P, labels = lb.cover_labels(n)
    for i in range(n):
        top = P.index[pt.one_block(n, i)]
        count = lb.interval_counts(P, labels, top)[0][3]
        trees = tr.enumerate_family("lyndon", n, i)
        chains = {ch.chain_partitions_of_tree(t, tr.valency_decreasing_tau(t))
                  for t in trees}
        for c in chains:
            at = [P.index.get(x) for x in c]
            word = [labels.get(step) for step in zip(at, at[1:])]
            if at[0] != 0 or at[-1] != top or None in word or any(
                    lb.label_less(p, q) for p, q in zip(word, word[1:])):
                raise AssertionError(f"n={n} i={i}: not an ascent-free "
                                     f"maximal chain: {pt.chain_str(c)}")
        if not len(trees) == len(chains) == count == counts[i]:
            raise AssertionError(f"n={n} i={i}: {count} ascent-free chains, "
                                 f"{len(chains)} chains of {len(trees)} "
                                 f"Lyndon trees")


def _betti_numbers(n):
    # betti_numbers pairs every chain of every map with a +-1 incidence,
    # which makes each map's torsion trivial, or raises with the coface
    # claimed twice
    counts = tr.descent_counts(n)
    for i in range(n):
        rep = hm.betti_numbers(hm.open_interval(n, i))
        top = rep["top_dim"]
        if rep["betti"][top] != counts[i]:
            raise AssertionError(f"interval n={n} i={i}: {rep['betti']}")
        if any(b for r, b in rep["betti"].items() if r != top):
            raise AssertionError(f"lower Betti nonzero n={n} i={i}")
    rep = hm.betti_numbers(hm.proper_part(n))
    if rep["betti"][rep["top_dim"]] != (n - 1) ** (n - 1):
        raise AssertionError(f"proper part n={n}: {rep['betti']}")


def _family_counts(n):
    counts = pt.drake_product(n)
    for fam in ("comb", "lyndon", "liu"):
        trees = tr.enumerate_family(fam, n)
        if len(set(trees)) != len(trees):
            raise AssertionError(f"{fam} n={n}: repeated trees")
        per_i = Counter(tr.red_count(t) for t in trees)
        if [per_i.get(i, 0) for i in range(n)] != counts:
            raise AssertionError(f"{fam} n={n}: {dict(per_i)}")
    if sum(counts) != n ** (n - 1):
        raise AssertionError(f"total at n={n}")


def _psi_bijection(n):
    # the label sets within [n] that hold n, so that sizes 1..hi cover
    # every label set within [hi] once
    for size in range(n):
        for rest in itertools.combinations(range(1, n), size):
            A = rest + (n,)
            image = set()
            for T in tr.enumerate_rooted_trees(A):
                t = tr.psi(T)
                if (tr.red_count(t) != T.descent_count()
                        or tr._rooted_tree_of(t) != T):
                    raise AssertionError(f"A={A}, T={T!r}")
                image.add(t)
            if image != set(tr.enumerate_family("liu", A)):
                raise AssertionError(f"image mismatch on A={A}")


def _straightening(n):
    hosts = [hm.open_interval(n, i) for i in range(n)]
    # every output term, each checked once after the loop; a dict, so the
    # comb a failure names does not depend on the hash seed
    outputs = {}
    for t in tr.enumerate_bicolored(n):
        out = st.straighten(t)
        outputs.update(out)
        diff = linalg.vec_combine(hm.chain_vector_of_tree(t), 1,
                                  st.cochain_sum(out), -1)
        if not hm.coboundary_member(hosts[tr.red_count(t)], diff):
            raise AssertionError(f"tree {t!r}")
    for c in outputs:
        if not tr.is_comb(c):
            raise AssertionError(f"output {c!r} is not a comb")
    for side in (st.COHOMOLOGY, st.LIE2):
        for kind, position, t, rel in st.relation_instances(n, side=side):
            if st.straighten_sum(rel, side):
                raise AssertionError(
                    f"{side} {kind} relation at {position} of {t!r}")


def _bases(n):
    # each interval, then the proper part; a report names its n and i
    for i in [*range(n), None]:
        rep = st.verify_bases(n, i)
        if not rep["passed"]:
            raise AssertionError(str(rep))


def _phi(n):
    hosts = [hm.open_interval(n, i) for i in range(n)]
    for i, host in enumerate(hosts):
        vecs = [st.phi(t) for t in tr.enumerate_family("comb", n, i)]
        rank, betti = hm.rank_in_top_quotient(host, vecs)
        if not rank == betti == len(vecs):
            raise AssertionError(f"rank {rank} != {len(vecs)}")
    for kind, position, t, rel in st.relation_instances(n, side=st.LIE2):
        if not hm.coboundary_member(hosts[tr.red_count(t)],
                                    st.phi_of_sum(rel)):
            raise AssertionError(
                f"image of the {kind} relation at {position} of {t!r}")


Criterion = namedtuple("Criterion", "name first native check detail",
                       defaults=["n <= {}"])

# criterion k is CRITERIA[k - 1]; a native size may only go up
CRITERIA = [
    Criterion("rank generating function", 1, 8, pt.rank_generating_function),
    Criterion("Mobius product formula", 1, 7, pt.mu_polynomial),
    Criterion("augmented Mobius value", 1, 7, pt.mu_augmented),
    Criterion("characteristic polynomial (both variants)", 1, 7,
              _characteristic_polynomials),
    Criterion("Whitney matrices inverse", 1, 7,
              lambda n: pt.whitney_numbers(pt.mobius_poset(n))),
    Criterion("forest counts vs Mobius", 1, 7, _forests_vs_mobius),
    Criterion("EL verification", 1, 6, _el_labeling),
    Criterion("ascent-free chains = Lyndon chains", 2, 6, _ascent_free_chains),
    Criterion("Betti numbers and torsion", 2, 6, _betti_numbers),
    Criterion("descent product identity", 1, 8, tr.descent_polynomial),
    Criterion("family counts n^(n-1), per-i", 1, 7, _family_counts),
    Criterion("psi bijection with inverse", 1, 7, _psi_bijection,
              "A within [{}]"),
    Criterion("straightening soundness", 2, 5, _straightening, "full n <= {}"),
    Criterion("basis verifications", 2, 5, _bases, "full n <= {}"),
    Criterion("Whitney cohomology ranks", 1, 7, pt.whitney_cohomology_ranks),
    Criterion("phi verification", 2, 5, _phi),
]


def run_criterion(k, nmax=None):
    """(name, ok, detail) of criterion ``k``: the pass detail, the witness
    of a refutation, or the exception a check raised, which fails the row
    instead of ending the run."""
    name, first, native, check, detail = CRITERIA[k - 1]
    hi = native if nmax is None else min(native, nmax)
    # the memos live for one check: none feeds the next or outlives it
    memos = (pt._posets, st._memo, st._phi)
    for memo in memos:
        memo.clear()
    try:
        for n in range(first, hi + 1):
            check(n)
    except AssertionError as exc:
        return name, False, str(exc)
    except Exception as exc:
        return name, False, f"raised {type(exc).__name__}: {exc}"
    finally:
        for memo in memos:
            memo.clear()
    return name, True, detail.format(hi)


def run_all(nmax=None, emit=print, jobs=1):
    """Run every criterion, emitting one pass/fail line each; with jobs > 1
    the criteria run in a pool of that many processes and the lines come
    in criterion order once all are done.  ``jobs`` below 1 is refused
    with ValueError before any criterion runs."""
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    ids = range(1, len(CRITERIA) + 1)
    if jobs > 1:
        # loading the pool costs every process that imports this module
        # about 30 ms, so only the --jobs path pays it
        from concurrent.futures import ProcessPoolExecutor
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
