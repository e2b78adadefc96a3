"""The table of pinned outputs, ``tests/pinned_outputs.json``, and its two
readers under ``.github``: ``check_pins.py``, which runs the ci rows, and
``same_output.py``, which compares every row's command across two source
trees.  The tier-1 rows run in ``tests/test_cli.py``."""

import importlib.util
import re
from pathlib import Path

import pytest

GITHUB = Path(__file__).resolve().parents[1] / ".github"
SMOKE = "wpposet report-all --n 3 --format json > /dev/null"


def load(name):
    spec = importlib.util.spec_from_file_location(name, GITHUB / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_pins = load("check_pins")
PINS = check_pins.rows()


def test_every_row_is_well_formed():
    for row in PINS:
        assert {"argv", "sha256", "exit", "where", "why"} <= row.keys() <= {
            "argv", "sha256", "exit", "rss_mib", "timeout", "where", "why"}
        assert row["where"] in ("tier-1", "ci"), row
        assert re.fullmatch("[0-9a-f]{64}", row["sha256"]), row
        assert row["why"], row
    argvs = [tuple(row["argv"]) for row in PINS]
    assert len(argvs) == len(set(argvs))


def test_the_workflow_pins_nothing_itself():
    # the entry point's smoke run is the only command of the package the
    # workflow spells; every pinned output is a row of the table
    lines = [line.strip() for line in
             (GITHUB / "workflows" / "tests.yml").read_text().splitlines()]
    runs = [line for line in lines if not line.startswith("#")
            and re.search(r"\b(wpposet|sha256sum)\b", line)]
    assert runs == [SMOKE]
    assert "python .github/check_pins.py" in lines


@pytest.mark.parametrize("edit, failed", [
    ({}, None),
    ({"sha256": "0" * 64}, "stdout sha256 "),
    ({"exit": 1}, "exit code 0, pinned 1"),
    ({"rss_mib": 1}, "peak RSS "),
    # stopped with the command it runs under peak_rss.py
    ({"rss_mib": 100, "timeout": 0.01}, "still running after 0.01 s"),
], ids=["pinned", "digest", "exit", "bound", "timeout"])
def test_check_pins_names_the_row_that_fails(capsys, monkeypatch, edit,
                                              failed):
    row = next(row for row in PINS
               if row["argv"] == ["whitney", "--n", "2", "--format", "json"])
    monkeypatch.setattr(check_pins, "rows",
                        lambda: [{**row, "where": "ci", **edit}])
    code = check_pins.main([])
    out = capsys.readouterr().out
    if failed is None:
        assert code == 0
        assert out.startswith("ok   wpposet whitney --n 2 --format json")
    else:
        assert code == 1
        assert out.startswith(
            f"FAIL wpposet whitney --n 2 --format json: {failed}")


def test_same_output_lists_every_pinned_command_once():
    listed = [tuple(argv) for argv in load("same_output").commands()]
    assert len(listed) == len(set(listed))
    assert {tuple(row["argv"]) for row in PINS} <= set(listed)
