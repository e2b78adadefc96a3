"""Check the CI rows of the table of pinned outputs.

    python .github/check_pins.py

Each row of ``tests/pinned_outputs.json`` whose ``where`` is ``ci`` runs
through ``python -m wpposet.cli`` with the package read from this
checkout's ``src``.  A row with an ``rss_mib`` bound runs under
``.github/peak_rss.py``, and a row with a ``timeout`` is stopped past it.
The script exits 1 at the first row whose exit code, stdout digest, peak
RSS or time fails, naming it, and 0 when every row holds.  The tier-1
rows run in-process in ``tests/test_cli.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "pinned_outputs.json"


def rows():
    """Every row of the table, in its order."""
    return json.loads(TABLE.read_text())


def name(row):
    return "wpposet " + " ".join(row["argv"])


def check(row):
    """Run row once: (what failed, or None when it holds; its peak RSS in
    MiB, or None when it has no bound)."""
    argv = [sys.executable, "-m", "wpposet.cli", *row["argv"]]
    bound = row.get("rss_mib")
    if bound is not None:
        argv = [sys.executable, str(ROOT / ".github" / "peak_rss.py"), *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        done = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                              timeout=row.get("timeout"))
    except subprocess.TimeoutExpired:
        return f"still running after {row['timeout']} s", None
    out, peak = done.stdout, None
    if bound is not None:
        # peak_rss.py prints the peak as the last line, after the command's
        # own stdout
        lines = out.splitlines(keepends=True)
        out, peak = b"".join(lines[:-1]), float(lines[-1].split()[-2])
    if done.returncode != row["exit"]:
        return f"exit code {done.returncode}, pinned {row['exit']}", peak
    digest = hashlib.sha256(out).hexdigest()
    if digest != row["sha256"]:
        return f"stdout sha256 {digest}, pinned {row['sha256']}", peak
    if peak is not None and not peak < bound:
        return f"peak RSS {peak:.1f} MiB, bound {bound} MiB", peak
    return None, peak


def main(argv):
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    start = time.perf_counter()
    todo = [row for row in rows() if row["where"] == "ci"]
    for row in todo:
        why, peak = check(row)
        if why is not None:
            print(f"FAIL {name(row)}: {why}")
            return 1
        print(f"ok   {name(row)}"
              + ("" if peak is None else f" (peak RSS {peak:.1f} MiB)"))
    print(f"{len(todo)} pinned outputs hold "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
