"""Check that two source trees of wpposet print the same output.

    python .github/same_output.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``wpposet`` package,
such as the ``src`` of a checkout and of a ``git archive`` of its parent.
Each command of ``commands()`` runs through ``python -m wpposet.cli``
once with PYTHONPATH at OLD_SRC and once at NEW_SRC, the two side by
side.  The script exits 1 at the first command whose stdout, stderr or
exit code differ, naming it, and 0 when every command agrees.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

TABLE = Path(__file__).resolve().parents[1] / "tests" / "pinned_outputs.json"


def commands():
    """Every command line compared, as argument lists, each once: the menu
    below and the command of every row of the table of pinned outputs."""
    out = {}

    def add(line):
        out.setdefault(tuple(line.split()), None)

    for n in range(1, 8):
        for variant in ("weighted", "pointed", "augmented"):
            for fmt in ("text", "json", "dot"):
                add(f"invariants --n {n} --variant {variant} --format {fmt}")
    for n in range(1, 7):
        for fmt in ("text", "json", "csv", "dot"):
            add(f"el-verify --n {n} --format {fmt}")
    for n in range(1, 7):
        for i in ["", *(f"--i {i}" for i in range(n))]:
            for fmt in ("text", "json", "csv"):
                add(f"homology --n {n} {i} --format {fmt}")
    for n in (4, 5):
        for i in range(n):
            for family in ("comb", "lyndon", "liu", "tree"):
                add(f"bases --n {n} --i {i} --family {family}")
        add(f"bases --n {n} --side full")
    for i in (0, 2, 3):
        add(f"bases --n 6 --i {i} --format json")
    for n in range(1, 6):
        for i in ["", *(f"--i {i}" for i in range(n))]:
            for fmt in ("text", "json", "csv"):
                add(f"psi --n {n} {i} --format {fmt}")
    for n in range(1, 8):
        for fmt in ("text", "json"):
            add(f"whitney --n {n} --format {fmt}")
    for side in ("cohomology", "lie2", "full"):
        for n in range(1, 7):
            for fmt in ("text", "json"):
                add(f"straighten --n {n} --side {side} --format {fmt}")
        add(f"straighten --n 5 --i 2 --side {side} --seed 7")
        add(f"straighten --n 7 --i 3 --side {side} --seed 11 --format json")
    for fmt in ("text", "json"):
        add(f"report-all --n 4 --format {fmt}")
    add("report-all --n 3 --jobs 2")
    # bad input (exit 2) and resource caps (exit 3)
    for line in (
            "", "--help", "homology --help", "frobnicate --n 3",
            "invariants --n 0", "invariants --n 4 --variant nope",
            "invariants --n 10 --format dot",
            "invariants --n 5 --max-elements 10",
            "invariants --n 5 --max-elements -1",
            "el-verify --n 7", "el-verify --n 4 --max-elements 5",
            "homology --n 4 --i 4", "homology --n 4 --i -1",
            "homology --n 5 --max-elements 3", "homology --n 7 --i 2",
            "homology --n 7", "homology --n 10 --i 0", "bases --n 4",
            "bases --n 4 --side full --i 1",
            "bases --n 4 --side full --family comb",
            "straighten --n 9", "straighten --n 3 --i 3",
            "psi --n 9",
            "whitney --n 8", "report-all --n 0"):
        add(line)
    for row in json.loads(TABLE.read_text()):
        out.setdefault(tuple(row["argv"]), None)
    return [list(argv) for argv in out]


def run(src, argv):
    """A child for argv with the package read from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-m", "wpposet.cli", *argv],
                            cwd=src, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "wpposet" / "__init__.py").is_file():
            print(f"error: no wpposet package under {tree}", file=sys.stderr)
            return 2
    start = time.perf_counter()
    todo = commands()
    for argv_ in todo:
        old, new = (run(tree, argv_) for tree in trees)
        (old_out, old_err), (new_out, new_err) = (old.communicate(),
                                                  new.communicate())
        parts = [name for name, a, b in (
            ("stdout", old_out, new_out), ("stderr", old_err, new_err),
            ("exit code", old.returncode, new.returncode)) if a != b]
        if parts:
            print(f"differs in {', '.join(parts)}: wpposet {' '.join(argv_)}")
            return 1
    print(f"{len(todo)} commands agree "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
