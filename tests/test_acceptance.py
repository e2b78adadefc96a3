"""End-to-end acceptance gate: the sixteen verification criteria at their
full desk-scale sizes, exact integer arithmetic throughout.

Each test prints one pass/fail line (visible with ``pytest -s``) and
asserts the criterion's verdict.  The same checks back the CLI's
``report-all`` subcommand.
"""

from collections import Counter
from math import prod

from wpposet import acceptance
from wpposet import homology as hm
from wpposet import labeling as lb
from wpposet import partitions as pt
from wpposet import straighten as st
from wpposet import trees as tr

import pytest

from tree_oracles import alpha_of_forest, enumerate_rooted_forests

# the native sizes at which each claim has been verified; they may only go up
NATIVE_FLOORS = {1: 8, 2: 7, 3: 7, 4: 7, 5: 7, 6: 7, 7: 6, 8: 6, 9: 6, 10: 8,
                 11: 7, 12: 7, 13: 5, 14: 5, 15: 7, 16: 5}


def _run(k):
    name, ok, detail = acceptance.run_criterion(k)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {k:2d}: {name} ({detail})")
    assert ok, f"criterion {k} ({name}): {detail}"


def test_criterion_01_rank_sizes():
    _run(1)


def test_criterion_02_mobius_product():
    _run(2)


def test_criterion_03_augmented_mobius():
    _run(3)


def test_criterion_04_characteristic_polynomial():
    _run(4)


def test_criterion_05_whitney_matrices():
    _run(5)


@pytest.mark.parametrize("method, n, at, witness", [
    ("rank_sizes", 4, 1, "second Whitney numbers [1, 13, 24, 4] != row 4 of "
                         "the Whitney matrices, reversed, [1, 12, 24, 4]"),
    ("mu_from_bottom", 3, -1, "first Whitney numbers [1, -6, 10] != row 3 "
                              "of the Whitney matrices, reversed, [1, -6, 9]"),
], ids=["rank-size", "mobius-value"])
def test_criterion_05_reads_the_poset(monkeypatch, method, n, at, witness):
    # one value of the poset on [n] off by one
    real = getattr(pt.Poset, method)

    def one_off(self):
        values = list(real(self))
        if self.n == n:
            values[at] += 1
        return values

    monkeypatch.setattr(pt.Poset, method, one_off)
    assert acceptance.run_criterion(5) == \
        ("Whitney matrices inverse", False, witness)


def test_criterion_06_forest_counts():
    _run(6)


def test_listed_forests_of_each_alpha_are_its_block_product():
    # criterion 6 counts the forests of alpha as a product over its
    # blocks; the listing buckets every rooted forest by its alpha
    for n in range(1, 6):
        per_alpha = Counter(map(alpha_of_forest, enumerate_rooted_forests(n)))
        P = pt.build_poset(n, pt.WEIGHTED)
        assert per_alpha.keys() == set(P.elements)
        for alpha in P.elements:
            assert per_alpha[alpha] == prod(
                tr.descent_counts(bin(m).count("1"))[w] for m, w in alpha)


@pytest.mark.parametrize("b, shift, witness", [
    (2, (1, 0), "3 forests of 1 trees on [2]"),
    (3, (1, 0, 0), "10 forests of 1 trees on [3]"),
    (4, (1, 0, 0, 0), "65 forests of 1 trees on [4]"),
    # the total kept, so only the comparison with Mobius sees it
    (3, (-1, 1, 0), "mismatch at {123^0}"),
])
def test_criterion_06_catches_a_descent_count_off(monkeypatch, b, shift,
                                                  witness):
    real = tr.descent_counts
    monkeypatch.setattr(tr, "descent_counts", lambda n: [
        c + d for c, d in zip(real(n), shift if n == b else [0] * n)])
    assert acceptance.run_criterion(6) == \
        ("forest counts vs Mobius", False, witness)


def test_criterion_06_catches_a_signed_mobius_value(monkeypatch):
    # the abs dropped: mu(0-hat, alpha) is negative at every odd rank
    monkeypatch.setattr(acceptance, "abs", lambda x: x, raising=False)
    assert acceptance.run_criterion(6) == \
        ("forest counts vs Mobius", False, "mismatch at {12^0}")


def test_criterion_07_el_labeling():
    _run(7)


def test_criterion_08_ascent_free_chains():
    _run(8)


def test_criterion_09_betti_numbers():
    _run(9)


def test_criterion_10_descent_identity():
    _run(10)


def test_criterion_11_family_counts():
    _run(11)


def test_criterion_11_catches_a_repeated_tree(monkeypatch):
    from collections import Counter
    from wpposet import trees as tr
    real = tr.enumerate_family

    def one_repeated(family, n, i=None):
        # one tree stands in for another of the same red count, so the
        # per-i counts still match
        fam = real(family, n, i)
        if family == "lyndon" and n == 3:
            k = next(k for k in range(1, len(fam))
                     if tr.red_count(fam[k]) == tr.red_count(fam[0]))
            fam[k] = fam[0]
        return fam

    monkeypatch.setattr(tr, "enumerate_family", one_repeated)
    fam = tr.enumerate_family("lyndon", 3)
    assert Counter(map(tr.red_count, fam)) == \
        Counter(map(tr.red_count, real("lyndon", 3)))
    assert acceptance.run_criterion(11, 3) == \
        ("family counts n^(n-1), per-i", False, "lyndon n=3: repeated trees")


def test_criterion_12_psi_bijection():
    _run(12)


def test_criterion_13_straightening_soundness():
    _run(13)


def test_criterion_13_catches_a_term_outside_its_interval(monkeypatch):
    from wpposet import straighten as st
    from wpposet import trees as tr
    real = st.straighten
    depth = []

    def one_red_too_many(t, *args, **kwargs):
        # the outermost call gains a term: its first comb with the blue
        # node below the root made red, whose chain lies in the next
        # interval up, not in the one being checked
        depth.append(t)
        try:
            out = real(t, *args, **kwargs)
        finally:
            depth.pop()
        c = next(iter(out), None)
        if depth or c is None or tr.is_leaf(c[1]) or c[1][0] != tr.BLUE:
            return out
        return {**out, (c[0], (tr.RED,) + c[1][1:], c[2]): 1}

    monkeypatch.setattr(st, "straighten", one_red_too_many)
    name, ok, detail = acceptance.run_criterion(13, 3)
    assert not ok
    assert detail == ("raised ValueError: {12^1|3^0} is not a top chain "
                      "of (0,[3]^0)")


def test_criterion_13_catches_an_output_that_is_not_a_comb(monkeypatch):
    # straighten tests each output comb once, as it enters the memo, so a
    # comb that test refuses is a FAIL row that names it
    comb = (tr.BLUE, (tr.BLUE, 1, 2), 3)
    real = tr.is_comb
    monkeypatch.setattr(tr, "is_comb", lambda t: t != comb and real(t))
    assert acceptance.run_criterion(13, 3) == (
        "straightening soundness", False,
        f"straightened output is not a comb: {comb!r}")


def test_criteria_13_and_16_build_each_interval_host_once(monkeypatch):
    # a host is looked up for every tree and relation instance, so each
    # check holds the hosts of its n rather than building one per lookup
    from wpposet import homology as hm
    built = []
    real = hm.OpenPoset

    def counted(name, *args):
        built.append(name)
        return real(name, *args)

    monkeypatch.setattr(hm, "OpenPoset", counted)
    for k in (13, 16):
        built.clear()
        acceptance.CRITERIA[k - 1].check(3)
        assert sorted(built) == ["(0,[3]^0)", "(0,[3]^1)", "(0,[3]^2)"], k


def test_criterion_14_basis_verifications():
    _run(14)


def test_criterion_15_whitney_cohomology():
    _run(15)


def test_criterion_16_phi_images():
    _run(16)


def test_native_sizes_only_go_up():
    native = {k: row.native for k, row in enumerate(acceptance.CRITERIA, 1)}
    assert native.keys() == NATIVE_FLOORS.keys()
    assert all(native[k] >= NATIVE_FLOORS[k] for k in native), native


def test_checks_pass_with_their_memoizing_functions_wrapped(monkeypatch):
    # a profiler swaps these for plain pass-through functions, which carry
    # none of the original's attributes: no check may reach for one
    def passthrough(orig):
        def wrapper(*args, **kwargs):
            return orig(*args, **kwargs)
        return wrapper

    for owner, name in [(pt, "build_poset"), (st, "phi"),
                        (pt.Poset, "mu_from_bottom")]:
        monkeypatch.setattr(owner, name, passthrough(getattr(owner, name)))
    for k in (1, 2, 13, 16):
        name, ok, detail = acceptance.run_criterion(k, 3)
        assert ok, (k, name, detail)


def _refuted(n):
    raise AssertionError("witness: injected for the test")


def _crashing(n):
    raise ZeroDivisionError("injected for the test")


@pytest.mark.parametrize("k", range(1, 17))
def test_a_row_keeps_its_name_however_it_ends(monkeypatch, k):
    name, ok, detail = acceptance.run_criterion(k, 1)
    assert ok and detail.endswith("1]" if k == 12 else "n <= 1")
    row = acceptance.CRITERIA[k - 1]
    for check, want in [(_refuted, "witness: injected for the test"),
                        (_crashing,
                         "raised ZeroDivisionError: injected for the test")]:
        rows = list(acceptance.CRITERIA)
        rows[k - 1] = row._replace(first=1, check=check)
        monkeypatch.setattr(acceptance, "CRITERIA", rows)
        assert acceptance.run_criterion(k, 1) == (name, False, want)


def test_a_refuted_library_claim_is_a_witness(monkeypatch):
    # criterion 2's check is partitions.mu_polynomial, which compares the
    # Mobius values with the product formula and raises on a mismatch
    from wpposet import partitions as pt
    real = pt.drake_product
    monkeypatch.setattr(pt, "drake_product",
                        lambda n: [c + (n == 3) for c in real(n)])
    assert acceptance.run_criterion(2, 4) == (
        "Mobius product formula", False,
        "mu polynomial [2, 5, 2] != [3, 6, 3] at n=3")


def _two_increasing_chains(out, n):
    # {12^1} < Top labelled (1,3)^1: both maximal chains of [0-hat, Top]
    # on [2] increase
    P, labels = out
    if n == 2:
        labels[P.index[pt.one_block(2, 1)], P.index[pt.TOP]] = \
            lb.EdgeLabel(1, 3, 1)
    return out


def _lower_map_short(ranks, host):
    # d_0 of a host with a top dimension above 0 loses a pair
    return {**ranks, 0: ranks[0] - 1} if max(ranks, default=0) > 0 else ranks


def _proper_top_map_short(ranks, host):
    # the top map of a proper part loses a pair
    top = max(ranks, default=None)
    return ({**ranks, top: ranks[top] - 1} if host.name.startswith("Pi_")
            else ranks)


def _one_more(at):
    # a list computed for n whose first value is one too large at n = at
    return lambda values, n: [values[0] + (n == at), *values[1:]]


def _mu_one_more(mu, P):
    # mu(0-hat, 0-hat) on [1] read as 2
    return [mu[0] + (P.n == 1), *mu[1:]]


# each refuted claim: (criterion, nmax, [(owner, name, edit)], witness); the
# function owner.name is replaced by one whose result passes through
# edit(result, *args)
WITNESSES = {
    "3-mu-augmented": (3, 2, [
        (pt.Poset, "mu_from_bottom",
         lambda mu, P: [*mu[:-1], mu[-1] + 1] if P.augmented else mu)],
        "mu(0,1) = 0 != -1 at n=1"),
    "5-whitney-inverse": (5, 2, [
        (pt, "comb", lambda c, a, b: c + ((a, b) == (1, 1)))],
        "Whitney matrices are not inverse at n=1"),
    "7-el": (7, 2, [(lb, "cover_labels", _two_increasing_chains)],
             "[{'interval': ('{1^0|2^0}', 'Top'), 'increasing': 2, "
             "'lex_first_ok': False}]"),
    "9-interval-top": (9, 2, [(tr, "descent_counts", _one_more(2))],
                       "interval n=2 i=0: {-1: 1}"),
    "9-interval-lower": (9, 4, [(hm.OpenPoset, "reductions",
                                 _lower_map_short)],
                         "lower Betti nonzero n=4 i=0"),
    "9-proper-part": (9, 2, [(hm.OpenPoset, "reductions",
                              _proper_top_map_short)],
                      "proper part n=2: {-1: 1, 0: 2}"),
    "10-descents": (10, 2, [(tr, "descent_counts", _one_more(1))],
                    "descent counts [2] disagree with the product formula"),
    "11-per-i": (11, 2, [(pt, "drake_product", _one_more(2))],
                 "comb n=2: {0: 1, 1: 1}"),
    "11-total": (11, 2, [
        (pt, "drake_product", _one_more(2)),
        (tr, "enumerate_family", lambda trees, family, n, *i:
         trees + [(tr.BLUE, 1, 3)] if n == 2 else trees)],
        "total at n=2"),
    "12-image": (12, 2, [
        (tr, "enumerate_family", lambda trees, family, A, *i:
         trees[:-1] if family == "liu" and A == (1, 2) else trees)],
        "image mismatch on A=(1, 2)"),
    "13-tree": (13, 2, [
        (st, "cochain_sum", lambda v, s: {c: -x for c, x in v.items()})],
        "tree ('b', 1, 2)"),
    "13-relation": (13, 2, [
        (st, "relation_instances", lambda rels, n, side:
         ((kind, at, t, {t: 1}) for kind, at, t, _rel in rels))],
        "cohomology swap relation at () of ('b', 1, 2)"),
    "14-bases": (14, 2, [
        (tr, "enumerate_family", lambda trees, family, n, *i:
         trees[1:] if family == "comb" else trees)],
        "{'n': 2, 'passed': False, 'families': {'comb': {'count': 0, "
         "'rank': 0, 'betti': 1, 'ok': False}, 'lyndon': {'count': 1, "
         "'rank': 1, 'betti': 1, 'ok': True}, 'liu': {'count': 1, "
         "'rank': 1, 'betti': 1, 'ok': True}}, 'i': 0, 'pairing': "
         "{'upper_triangular': True, 'unit_diagonal': True}}"),
    "15-ranks": (15, 2, [(pt.Poset, "mu_from_bottom", _mu_one_more)],
                 "Whitney cohomology ranks [2] != [1]"),
    "15-total": (15, 2, [
        (pt.Poset, "mu_from_bottom", _mu_one_more),
        (pt, "comb", lambda c, a, b: c + ((a, b) == (0, 0)))],
        "Whitney cohomology total is off"),
    "16-rank": (16, 2, [(st, "phi", lambda v, t: {})], "rank 0 != 1"),
    "16-relation": (16, 2, [(st, "phi_of_sum", lambda v, s: {(): 1})],
                    "image of the swap relation at () of ('b', 1, 2)"),
}


@pytest.mark.parametrize("case", WITNESSES)
def test_each_witness_is_a_fail_row(monkeypatch, case):
    k, nmax, edits, witness = WITNESSES[case]
    for owner, name, edit in edits:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, edit=edit,
                            **kwargs: edit(real(*args, **kwargs), *args,
                                           **kwargs))
    assert acceptance.run_criterion(k, nmax) == \
        (acceptance.CRITERIA[k - 1].name, False, witness)
