"""Run a command as a child process, print its peak resident set size
and exit with its exit code.

    python .github/peak_rss.py python -m pytest -q

The peak is ``getrusage(RUSAGE_CHILDREN).ru_maxrss``: the largest
resident set of any waited-for descendant, in KiB on Linux.
"""

import resource
import subprocess
import sys

code = subprocess.call(sys.argv[1:])
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS of {sys.argv[1]}: {peak:.1f} MiB")
sys.exit(code)
