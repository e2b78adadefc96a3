import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wpposet import cli
from wpposet import partitions as pt


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariants_text(capsys):
    code, out = run(capsys, "invariants", "--n", "3")
    assert code == 0
    assert "rank sizes:      [1, 6, 3]" in out


INVARIANTS_SCHEMA = {
    "type": "object",
    "required": ["n", "variant", "rank_sizes", "mu_poly", "char_poly",
                 "whitney_first", "whitney_second"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "variant": {"enum": ["weighted", "pointed", "augmented"]},
        "rank_sizes": {"type": "array", "items": {"type": "integer"}},
        "mu_poly": {"type": "array", "items": {"type": "integer"}},
        "char_poly": {"type": ["array", "null"],
                      "items": {"type": "integer"}},
        "whitney_first": {"type": "array", "items": {"type": "integer"}},
        "whitney_second": {"type": "array", "items": {"type": "integer"}},
    },
}


def test_invariants_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run(capsys, "invariants", "--n", "4", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    jsonschema.validate(rep, INVARIANTS_SCHEMA)
    assert rep["rank_sizes"] == [1, 12, 24, 4]


def test_invariants_json_deterministic(capsys):
    _, out1 = run(capsys, "invariants", "--n", "4", "--format", "json")
    _, out2 = run(capsys, "invariants", "--n", "4", "--format", "json")
    assert out1 == out2


def test_invariants_dot(capsys):
    code, out = run(capsys, "invariants", "--n", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_el_verify_csv(capsys):
    # one row per interval; EL_VERIFY_SHA256 pins the bytes
    code, out = run(capsys, "el-verify", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,max_chains,increasing,lex_first_ok,ascent_free"
    assert len(lines) > 10


def test_homology_json(capsys):
    code, out = run(capsys, "homology", "--n", "4", "--i", "1",
                    "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["betti"]["1"] == 26
    assert rep["torsion_free_top"]


def test_bases_liu_contract(capsys):
    code, out = run(capsys, "bases", "--n", "4", "--i", "2",
                    "--family", "liu", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"count": 26, "full_rank": True}


def test_bases_full_side(capsys):
    code, out = run(capsys, "bases", "--n", "3", "--side", "full",
                    "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"]
    assert rep["families"]["red_rooted_lyndon"]["count"] == 4


def test_straighten_seeded_deterministic(capsys):
    _, out1 = run(capsys, "straighten", "--n", "4", "--seed", "11",
                  "--format", "json")
    _, out2 = run(capsys, "straighten", "--n", "4", "--seed", "11",
                  "--format", "json")
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["seed"] == 11
    assert rep["terms"]


def test_psi_csv(capsys):
    code, out = run(capsys, "psi", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "root,parent_map,descents,psi"
    assert len(lines) == 1 + 9


def test_whitney_builds_only_the_weighted_poset(capsys, monkeypatch):
    monkeypatch.setattr(pt, "_posets", {})
    code, _ = run(capsys, "whitney", "--n", "6", "--format", "json")
    assert code == 0
    assert set(pt._posets) == {(6, "weighted")}


def test_whitney(capsys):
    code, out = run(capsys, "whitney", "--n", "4", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["cohomology_ranks"] == [1, 12, 48, 64]
    assert rep["cohomology_total"] == 125


def test_resource_cap_exit_code(capsys):
    # 0 is a cap like any other
    for limit in (10, 0):
        code, out = run(capsys, "invariants", "--n", "4",
                        "--max-elements", str(limit))
        assert code == 3
        rep = json.loads(out)
        assert rep["error"] == "resource-cap"
        assert rep["limit"] == limit


def test_report_all_small(capsys):
    code, out = run(capsys, "report-all", "--n", "2")
    assert code == 0
    assert out.count("[PASS]") == 16


def test_report_all_json_deterministic(capsys):
    _, out1 = run(capsys, "report-all", "--n", "3", "--format", "json")
    _, out2 = run(capsys, "report-all", "--n", "3", "--format", "json")
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["passed"] and len(rep["criteria"]) == 16


def _replace_check(monkeypatch, k, check):
    from wpposet import acceptance

    rows = list(acceptance.CRITERIA)
    rows[k - 1] = rows[k - 1]._replace(check=check)
    monkeypatch.setattr(acceptance, "CRITERIA", rows)


def test_report_all_failure_exit(capsys, monkeypatch):
    def refuted(n):
        raise AssertionError("witness: injected for the test")

    _replace_check(monkeypatch, 1, refuted)
    code, out = run(capsys, "report-all", "--n", "2")
    assert code == 1
    assert out.splitlines()[0] == ("[FAIL] criterion  1: rank generating "
                                   "function (witness: injected for the test)")
    assert out.count("[PASS]") == 15


# the table of pinned outputs: one row per command, with the sha256 of its
# stdout, its exit code and why it is pinned.  The tier-1 rows run here,
# in-process, one test per command; the ci rows run in
# .github/check_pins.py
PINS = json.loads(Path(__file__).with_name("pinned_outputs.json").read_text())
TIER1 = {tuple(row["argv"]): row for row in PINS if row["where"] == "tier-1"}


def check_pin(capsys, argv):
    row = TIER1[argv]
    code, out = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        (row["exit"], row["sha256"]), argv


def pinned(command, ids):
    """Parametrize a test over the argv of each tier-1 row of command."""
    return pytest.mark.parametrize(
        "argv", [argv for argv in TIER1 if argv[0] == command], ids=ids)


@pinned("report-all", ids=lambda argv: f"{argv[2]}-{argv[4]}")
def test_report_all_bytes_pinned(capsys, argv):
    check_pin(capsys, argv)


@pinned("el-verify", ids=lambda argv: f"{argv[2]}-{argv[4]}")
def test_el_verify_bytes_pinned(capsys, argv):
    check_pin(capsys, argv)


# homology --n 5 [--i 2] --format csv, in the table's order
@pinned("homology", ids=["extra0", "extra1"])
def test_homology_csv_bytes_pinned(capsys, argv):
    check_pin(capsys, argv)


def test_invariants_and_whitney_json_bytes_pinned(capsys):
    for argv in TIER1:
        if argv[0] in ("invariants", "whitney"):
            check_pin(capsys, argv)


def test_every_tier1_pin_has_a_test():
    assert {argv[0] for argv in TIER1} == {
        "report-all", "el-verify", "homology", "invariants", "whitney"}


@pytest.mark.parametrize("argv", [
    ["homology", "--n", "3", "--i", "5"],
    ["straighten", "--n", "3", "--i", "9"],
    ["bases", "--n", "3", "--i", "7"],
    ["psi", "--n", "3", "--i", "-1"],
], ids=["homology", "straighten", "bases", "psi"])
def test_index_out_of_range_is_bad_input(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --i must be in 0..2, got {argv[-1]}\n"


def test_flag_of_another_subcommand_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["homology", "--n", "3", "--variant", "pointed"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --variant pointed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["psi", "invariants", "whitney"])
def test_nonpositive_n_is_bad_input(capsys, command):
    code = cli.main([command, "--n", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --n must be >= 1, got 0\n"


def test_full_side_at_n1_is_bad_input(capsys, monkeypatch):
    from wpposet import homology, trees

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(homology, "proper_part", refuse)
    monkeypatch.setattr(trees, "enumerate_family", refuse)
    code = cli.main(["bases", "--n", "1", "--side", "full"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the full side needs n >= 2, got 1\n"


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


@pytest.mark.parametrize("argv, err", [
    (["bases", "--n", "3", "--side", "full", "--i", "1"],
     "error: --i does not apply to --side full\n"),
    (["bases", "--n", "3", "--side", "full", "--family", "liu"],
     "error: --family does not apply to --side full\n"),
    (["bases", "--n", "3", "--side", "full", "--family", "comb"],
     "error: --family does not apply to --side full\n"),
    (["report-all", "--n", "2", "--jobs", "0"],
     "error: --jobs must be >= 1, got 0\n"),
    (["report-all", "--n", "2", "--jobs", "-3"],
     "error: --jobs must be >= 1, got -3\n"),
    (["invariants", "--n", "2", "--max-elements", "-1"],
     "error: --max-elements must be >= 0, got -1\n"),
    (["homology", "--n", "2", "--i", "0", "--max-elements", "-3"],
     "error: --max-elements must be >= 0, got -3\n"),
], ids=["full-i", "full-family", "full-default-family", "jobs-0", "jobs-neg",
        "max-elements-neg", "homology-max-elements-neg"])
def test_ignored_flag_is_bad_input(capsys, monkeypatch, argv, err):
    from wpposet import acceptance, homology, partitions, straighten, trees

    # a negative --max-elements is refused before any size is computed
    monkeypatch.setattr(partitions, "poset_size", _refuse)
    monkeypatch.setattr(homology, "interval_size", _refuse)
    monkeypatch.setattr(homology, "proper_part", _refuse)
    monkeypatch.setattr(straighten, "verify_bases", _refuse)
    monkeypatch.setattr(trees, "enumerate_family", _refuse)
    monkeypatch.setattr(acceptance, "run_criterion", _refuse)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == err


def test_bases_family_defaults_to_comb(capsys):
    _, default = run(capsys, "bases", "--n", "4", "--i", "1")
    _, comb = run(capsys, "bases", "--n", "4", "--i", "1", "--family", "comb")
    assert default == comb == \
        "family comb, n=4 i=1: 26 cochains, full rank 26 = Betti 26\n"


@pytest.mark.parametrize("n", [7, 9])
def test_el_cap_fires_before_any_poset(capsys, monkeypatch, n):
    from wpposet import partitions

    def refuse(*args, **kwargs):
        raise AssertionError("a poset was built before the EL cap check")

    monkeypatch.setattr(partitions, "Poset", refuse)
    code, out = run(capsys, "el-verify", "--n", str(n))
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"EL verification on {n} labels",
                               "limit": 6}


def test_one_label_table_per_command(capsys, monkeypatch):
    # el-verify's DOT rendering and criterion 8's every i read their
    # labels from the one table the command built
    from wpposet import acceptance, labeling
    build, calls = labeling.cover_labels, []

    def counted(n):
        calls.append(n)
        return build(n)

    monkeypatch.setattr(labeling, "cover_labels", counted)
    code, out = run(capsys, "el-verify", "--n", "3", "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    assert calls == [3]
    calls.clear()
    acceptance._ascent_free_chains(4)
    assert calls == [4]


@pytest.mark.parametrize("argv, size", [
    (["el-verify", "--n", "7"], 6323),
    (["invariants", "--n", "7", "--variant", "pointed"], 6322),
], ids=["el-verify", "invariants"])
def test_cap_fires_before_construction(capsys, monkeypatch, argv, size):
    from wpposet import partitions

    def refuse(*args, **kwargs):
        raise AssertionError("the poset was built before the cap check")

    monkeypatch.setattr(partitions, "build_poset", refuse)
    code, out = run(capsys, *argv, "--max-elements", "10")
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"poset with {size} elements",
                               "limit": 10}


def _old_straighten_draw(n, i, seed, _pools={}):
    # the draw straighten made before it unranked: choose from the list,
    # as the oracle lists it
    import random
    from tree_oracles import enumerate_bicolored
    if (n, i) not in _pools:
        _pools[n, i] = enumerate_bicolored(n, i)
    return random.Random(seed).choice(_pools[n, i])


def test_straighten_seed_picks_the_listed_tree(capsys):
    from wpposet import trees as tr
    for n in range(1, 6):
        for i in [None] + list(range(n)):
            for seed in range(16):
                argv = ["straighten", "--n", str(n), "--seed", str(seed),
                        "--format", "json"]
                if i is not None:
                    argv += ["--i", str(i)]
                code, out = run(capsys, *argv)
                assert code == 0
                want = _old_straighten_draw(n, i, seed)
                assert json.loads(out)["input"] == tr.tree_to_bracket(want)


@pytest.mark.parametrize("n, seed", [(6, 3), (8, 0)])
def test_straighten_never_lists_trees(capsys, monkeypatch, n, seed):
    from wpposet import trees as tr

    def refuse(*args, **kwargs):
        raise AssertionError("every bicolored tree was listed to pick one")

    monkeypatch.setattr(tr, "enumerate_bicolored", refuse)
    code, out = run(capsys, "straighten", "--n", str(n), "--seed", str(seed),
                    "--format", "json")
    assert code == 0
    rep = json.loads(out)
    labels = sorted(int(x) for x in re.findall(r"\d+", rep["input"]))
    assert labels == list(range(1, n + 1))
    assert rep["terms"]


def test_straighten_past_the_cap_is_refused(capsys):
    code, out = run(capsys, "straighten", "--n", "9")
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "what": "bicolored trees on 9 labels",
                               "limit": 8}


@pytest.mark.parametrize("family", ["comb", "lyndon", "liu", "tree"])
def test_bases_past_the_tree_cap_is_refused(capsys, monkeypatch, family):
    from wpposet import homology as hm
    from wpposet import trees as tr

    def refuse(*args, **kwargs):
        raise AssertionError("trees or a host were built before the cap check")

    for name in ("enumerate_family", "enumerate_rooted_trees"):
        monkeypatch.setattr(tr, name, refuse)
    # the poset on [9] alone would cost more than the trees refused
    for name in ("open_interval", "proper_part"):
        monkeypatch.setattr(hm, name, refuse)
    code, out = run(capsys, "bases", "--n", "9", "--i", "0",
                    "--family", family)
    assert code == 3
    # the tree family's first family is the combs
    what = "comb" if family == "tree" else family
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"{what} trees on 9 labels",
                               "limit": 8}


@pytest.mark.parametrize("argv, host", [
    (["--i", "1", "--family", "comb"], "(0,[4]^1)"),
    (["--i", "1", "--family", "lyndon"], "(0,[4]^1)"),
    (["--i", "1", "--family", "liu"], "(0,[4]^1)"),
    (["--i", "1", "--family", "tree"], "(0,[4]^1)"),
    (["--side", "full"], "Pi_4^w - 0"),
], ids=["comb", "lyndon", "liu", "tree", "full"])
def test_bases_chain_cap_fires_before_any_tree(capsys, monkeypatch, argv,
                                               host):
    from wpposet import homology as hm
    from wpposet import trees as tr

    monkeypatch.setattr(hm, "CHAIN_COUNT_CAP", 10)
    monkeypatch.setattr(tr, "enumerate_family", _refuse)
    monkeypatch.setattr(hm, "chain_vector_of_tree", _refuse)
    code, out = run(capsys, "bases", "--n", "4", *argv)
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"chains of {host}", "limit": 10}


@pytest.mark.parametrize("argv, host", [
    (["homology", "--n", "9", "--i", "0"], "(0,[9]^0)"),
    (["homology", "--n", "9"], "Pi_9^w - 0"),
    (["bases", "--n", "8", "--i", "3", "--family", "comb"], "(0,[8]^3)"),
    (["homology", "--n", "8", "--i", "0"], "(0,[8]^0)"),
    (["homology", "--n", "8", "--i", "7"], "(0,[8]^7)"),
    (["homology", "--n", "7", "--i", "3"], "(0,[7]^3)"),
    (["bases", "--n", "8", "--i", "0", "--family", "comb"], "(0,[8]^0)"),
], ids=["interval", "proper-part", "bases", "interval-8-0", "interval-8-7",
        "interval-7-3", "bases-8-0"])
def test_chain_cap_fires_before_the_poset(capsys, monkeypatch, argv, host):
    # the chains are counted on block types, so no poset is built
    from wpposet import partitions

    def refuse(*args, **kwargs):
        raise AssertionError("the poset was built before the chain cap")

    monkeypatch.setattr(partitions, "build_poset", refuse)
    code, out = run(capsys, *argv)
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"chains of {host}",
                               "limit": 2_000_000}


@pytest.mark.parametrize("argv, host", [
    (["homology", "--n", "7", "--i", "2"], "(0,[7]^2)"),
    (["homology", "--n", "7"], "Pi_7^w - 0"),
    (["bases", "--n", "7", "--i", "2", "--family", "comb"], "(0,[7]^2)"),
], ids=["interval", "proper-part", "bases"])
def test_chain_width_cap_fires_before_the_poset(capsys, monkeypatch, argv,
                                                host):
    # with the chain cap raised past them, (0,[7]^2) (13 bits an index,
    # 5 a longest chain) and the proper part of [7] (13 and 6) do not
    # pack into 63 bits: exit 3 before a poset is built or a chain listed
    from wpposet import homology as hm
    from wpposet import partitions

    monkeypatch.setattr(hm, "CHAIN_COUNT_CAP", hm.chain_count(7))
    monkeypatch.setattr(partitions, "build_poset", _refuse)
    monkeypatch.setattr(hm.OpenPoset, "index_chains", _refuse)
    code, out = run(capsys, *argv)
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"bits of a packed chain of {host}",
                               "limit": 63}


@pytest.mark.parametrize("argv", [
    ["homology", "--n", "10", "--i", "0"],
    ["homology", "--n", "10"],
    ["homology", "--n", "1000000"],
], ids=["interval", "proper-part", "huge"])
def test_partition_cap_fires_before_the_chain_count(capsys, monkeypatch,
                                                    argv):
    # past the partition cap no chain count is taken: the host is
    # refused by the partition cap, with its record, as it always was
    from wpposet import homology as hm

    monkeypatch.setattr(hm, "chain_count", _refuse)
    code, out = run(capsys, *argv)
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"partitions of [{argv[2]}]",
                               "limit": 9}


@pytest.mark.parametrize("argv, size", [
    (["homology", "--n", "6"], 1056),
    (["homology", "--n", "6", "--i", "2"], 842),
], ids=["proper-part", "interval"])
def test_homology_cap_fires_before_the_host(capsys, monkeypatch, argv, size):
    from wpposet import homology, partitions

    def refuse(*args, **kwargs):
        raise AssertionError("the poset was built before the cap check")

    monkeypatch.setattr(homology.OpenPoset, "__init__", refuse)
    monkeypatch.setattr(partitions, "build_poset", refuse)
    code, out = run(capsys, *argv, "--max-elements", "10")
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"open poset with {size} elements",
                               "limit": 10}


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "jobs"])
def test_report_all_crashing_criterion_is_a_fail_row(capsys, monkeypatch,
                                                     jobs):
    def crashing(n):
        raise ZeroDivisionError("injected for the test")

    _replace_check(monkeypatch, 3, crashing)
    code, out = run(capsys, "report-all", "--n", "2", "--jobs", jobs,
                    "--format", "json")
    assert code == 1
    rep = json.loads(out)
    assert not rep["passed"] and len(rep["criteria"]) == 16
    row = rep["criteria"][2]
    assert row["criterion"] == 3 and not row["ok"]
    assert row["name"] == "augmented Mobius value"
    assert row["detail"] == "raised ZeroDivisionError: injected for the test"
    assert all(r["ok"] for r in rep["criteria"] if r is not row)


@pytest.mark.parametrize("argv", [
    ["invariants", "--n", "8", "--variant", "weighted"],
    ["invariants", "--n", "8", "--variant", "pointed"],
    ["invariants", "--n", "8", "--variant", "augmented"],
    ["whitney", "--n", "8"],
], ids=["weighted", "pointed", "augmented", "whitney"])
def test_mobius_cap_fires_before_any_poset(capsys, monkeypatch, argv):
    from wpposet import partitions

    def refuse(*args, **kwargs):
        raise AssertionError("a poset was built before the Mobius cap")

    monkeypatch.setattr(partitions, "Poset", refuse)
    code, out = run(capsys, *argv)
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "what": "all-pairs Mobius at n=8",
                               "limit": 7}


def test_invariants_dot_computes_no_invariant(capsys, monkeypatch):
    # the diagram reads only the elements and covers, so n = 7, past a
    # Mobius cap of 6, is drawn too
    from wpposet import partitions

    def refuse(self):
        raise AssertionError("a Mobius value was computed for a diagram")

    monkeypatch.setattr(partitions, "MOBIUS_CAP_N", 6)
    monkeypatch.setattr(partitions.Poset, "mu_from_bottom", refuse)
    code, out = run(capsys, "invariants", "--n", "7", "--format", "dot")
    assert code == 0
    nodes = [line for line in out.splitlines() if " [label=" in line]
    assert len(nodes) == partitions.poset_size(7) == 6322


# the formats each subcommand declares, and a small run of each command
FORMATS = {
    "invariants": ["text", "json", "dot"],
    "el-verify": ["text", "json", "csv", "dot"],
    "homology": ["text", "json", "csv"],
    "psi": ["text", "json", "csv"],
    "bases": ["text", "json"],
    "straighten": ["text", "json"],
    "whitney": ["text", "json"],
    "report-all": ["text", "json"],
}
SMALL = {
    "invariants": ["--n", "3"],
    "el-verify": ["--n", "3"],
    "homology": ["--n", "3", "--i", "1"],
    "psi": ["--n", "3"],
    "bases": ["--n", "3", "--i", "1"],
    "straighten": ["--n", "3", "--seed", "0"],
    "whitney": ["--n", "3"],
    "report-all": ["--n", "2"],
}
ALL_FORMATS = ["text", "json", "csv", "dot"]


@pytest.mark.parametrize("command, fmt", [
    (c, f) for c, fs in FORMATS.items() for f in fs])
def test_declared_format_renders(capsys, command, fmt):
    code, out = run(capsys, command, *SMALL[command], "--format", fmt)
    assert code == 0
    assert out


@pytest.mark.parametrize("command, fmt", [
    (c, f) for c, fs in FORMATS.items() for f in ALL_FORMATS if f not in fs])
def test_undeclared_format_is_refused_before_any_work(capsys, monkeypatch,
                                                      command, fmt):
    from wpposet import (acceptance, homology, labeling, partitions,
                         straighten, trees)

    for module, names in [
            (partitions, ["build_poset", "json_report", "whitney_numbers"]),
            (labeling, ["cover_labels", "verify_el"]),
            (homology, ["open_interval", "proper_part"]),
            (trees, ["enumerate_rooted_trees", "enumerate_family",
                     "bicolored_count"]),
            (straighten, ["verify_bases", "straighten"]),
            (acceptance, ["run_all", "run_criterion"])]:
        for name in names:
            monkeypatch.setattr(module, name, _refuse)
    # n = 7 costs seconds wherever the work starts (psi: every rooted tree
    # on [7] round-tripped)
    argv = [command, "--n", "7"] + (["--i", "1"] if "--i" in SMALL[command]
                                    else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"invalid choice: '{fmt}'" in captured.err


@pytest.mark.parametrize("argv, lines", [
    (["psi", "--n", "6"], 1),
    (["whitney", "--n", "3"], 0),
    (["--help"], 0),
    (["psi", "--help"], 0),
], ids=["closed-after-a-line", "closed-at-once", "help", "subcommand-help"])
def test_closed_pipe_exits_without_a_traceback(argv, lines):
    # psi fails in a write, far more than a pipe buffer still unwritten;
    # whitney's few lines and the help texts sit in the stdout buffer until
    # the last flush
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    read, write = os.pipe()
    if not lines:
        os.close(read)
    proc = subprocess.Popen([sys.executable, "-m", "wpposet.cli", *argv],
                            env=env, stdout=write, stderr=subprocess.PIPE,
                            text=True)
    os.close(write)
    if lines:
        with os.fdopen(read) as out:
            assert out.readline().startswith("root ")
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err
    assert err == ""
