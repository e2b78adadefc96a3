import json
import re

import pytest

from wpposet import cli


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
    code, out = run(capsys, "el-verify", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "x,y,max_chains,increasing,lex_first_ok,ascent_free"


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


def test_whitney(capsys):
    code, out = run(capsys, "whitney", "--n", "4", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["cohomology_ranks"] == [1, 12, 48, 64]
    assert rep["cohomology_total"] == 125


def test_resource_cap_exit_code(capsys):
    code, out = run(capsys, "invariants", "--n", "4", "--max-elements", "10")
    assert code == 2
    rep = json.loads(out)
    assert rep["error"] == "resource-cap"
    assert rep["limit"] == 10


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


def test_report_all_failure_exit(capsys, monkeypatch):
    from wpposet import acceptance

    def broken(nmax=None):
        return "forced failure", False, "witness: injected for the test"

    monkeypatch.setitem(acceptance.__dict__, "ALL_CRITERIA",
                        [broken] + acceptance.ALL_CRITERIA[1:])
    code, out = run(capsys, "report-all", "--n", "2")
    assert code == 1
    assert "[FAIL]" in out


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
    assert code == 2
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"poset with {size} elements",
                               "limit": 10}


def _old_straighten_draw(n, i, seed, _pools={}):
    # the draw straighten made before it unranked: choose from the list
    import random
    from wpposet import trees as tr
    if (n, i) not in _pools:
        _pools[n, i] = tr.enumerate_bicolored(n, i)
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
    assert code == 2
    assert json.loads(out) == {"error": "resource-cap",
                               "what": "bicolored trees on 9 labels",
                               "limit": 8}


@pytest.mark.parametrize("family", ["comb", "lyndon", "liu"])
def test_bases_past_the_tree_cap_is_refused(capsys, monkeypatch, family):
    from wpposet import trees as tr

    def refuse(*args, **kwargs):
        raise AssertionError("trees were enumerated before the cap check")

    for name in ("enumerate_combs", "enumerate_lyndon", "enumerate_liu",
                 "enumerate_rooted_trees"):
        monkeypatch.setattr(tr, name, refuse)
    code, out = run(capsys, "bases", "--n", "9", "--i", "0",
                    "--family", family)
    assert code == 2
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"{family} trees on 9 labels",
                               "limit": 8}


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
    assert code == 2
    assert json.loads(out) == {"error": "resource-cap",
                               "what": f"open poset with {size} elements",
                               "limit": 10}


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "jobs"])
def test_report_all_crashing_criterion_is_a_fail_row(capsys, monkeypatch,
                                                     jobs):
    from wpposet import acceptance

    def crashing(nmax=None):
        raise ZeroDivisionError("injected for the test")

    monkeypatch.setitem(acceptance.__dict__, "ALL_CRITERIA",
                        acceptance.ALL_CRITERIA[:2] + [crashing]
                        + acceptance.ALL_CRITERIA[3:])
    code, out = run(capsys, "report-all", "--n", "2", "--jobs", jobs,
                    "--format", "json")
    assert code == 1
    rep = json.loads(out)
    assert not rep["passed"] and len(rep["criteria"]) == 16
    row = rep["criteria"][2]
    assert row["criterion"] == 3 and not row["ok"]
    assert row["detail"] == "raised ZeroDivisionError: injected for the test"
    assert all(r["ok"] for r in rep["criteria"] if r is not row)
