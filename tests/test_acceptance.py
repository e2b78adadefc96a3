"""End-to-end acceptance gate: the sixteen verification criteria at their
full desk-scale sizes, exact integer arithmetic throughout.

Each test prints one pass/fail line (visible with ``pytest -s``) and
asserts the criterion's verdict.  The same checks back the CLI's
``report-all`` subcommand.
"""

from wpposet import acceptance


def _run(k):
    name, ok, detail = acceptance.ALL_CRITERIA[k - 1]()
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
        ("family counts", False, "lyndon n=3: repeated trees")


def test_criterion_12_psi_bijection():
    _run(12)


def test_criterion_13_straightening_soundness():
    _run(13)


def test_criterion_14_basis_verifications():
    _run(14)


def test_criterion_15_whitney_cohomology():
    _run(15)


def test_criterion_16_phi_images():
    _run(16)
