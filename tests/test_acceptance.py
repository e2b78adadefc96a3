"""End-to-end acceptance gate: the sixteen verification criteria at their
full desk-scale sizes, exact integer arithmetic throughout.

Each test prints one pass/fail line (visible with ``pytest -s``) and
asserts the criterion's verdict.  The same checks back the CLI's
``report-all`` subcommand.
"""

from collections import Counter
from math import prod

from wpposet import acceptance
from wpposet import partitions as pt
from wpposet import trees as tr

import pytest

from tree_oracles import alpha_of_forest, enumerate_rooted_forests

# the native sizes at which each claim has been verified; they may only go up
NATIVE_FLOORS = {1: 8, 2: 7, 3: 7, 4: 7, 5: 6, 6: 7, 7: 6, 8: 6, 9: 6, 10: 8,
                 11: 7, 12: 6, 13: 5, 14: 5, 15: 7, 16: 4}


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
    from wpposet import straighten as st
    from wpposet import trees as tr
    real = st.straighten
    comb = (tr.BLUE, (tr.BLUE, 1, 2), 3)
    swapped = (tr.BLUE, 3, (tr.BLUE, 1, 2))

    def one_comb_swapped(t, *args, **kwargs):
        # the children of one comb swap wherever it is an output; its chain
        # and unsigned cochain stay the same, so only the comb check fails
        out = real(t, *args, **kwargs)
        if comb not in out:
            return out
        out = dict(out)
        out[swapped] = out.pop(comb)
        return out

    monkeypatch.setattr(st, "straighten", one_comb_swapped)
    name, ok, detail = acceptance.run_criterion(13, 3)
    assert not ok
    assert detail == f"output {swapped!r} is not a comb"


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
