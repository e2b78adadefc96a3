"""One cold wpposet process of a benchmark run.

run.py spawns this file with PYTHONPATH pointing at the
checkout's src and sends one JSON job on stdin.  The child imports every
wpposet module first and stamps the time, so set-up is spawn to import
done on the monotonic clock run.py stamped the spawn with.  It then
refuses to time anything unless every lru_cache of the package and
straighten._memo are empty, runs the job's items and prints one JSON
line: set-up, item latencies, pass wall time, checks, peak RSS and, when
traced, the aggregated spans.
"""

import time

import wpposet
from wpposet import (acceptance, chains, cli, homology, labeling, linalg,
                     partitions, straighten, trees)

IMPORTED = time.monotonic()

import json  # noqa: E402  (after the set-up stamp on purpose)
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import items  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = {
    "partitions": partitions, "labeling": labeling, "chains": chains,
    "homology": homology, "linalg": linalg, "trees": trees,
    "straighten": straighten, "acceptance": acceptance, "cli": cli,
}


def warm_state():
    """Caches that are not empty: a warm start would hide what every
    wpposet invocation pays."""
    warm = []
    for mname, module in MODULES.items():
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and info().currsize:
                warm.append(f"{mname}.{attr} holds {info().currsize}")
    memo = getattr(straighten, "_memo", None)
    if memo:
        warm.append(f"straighten._memo holds {len(memo)}")
    return warm


def main():
    job = json.load(sys.stdin)
    out = {"setup_s": IMPORTED - job["spawned"]}
    src = Path(job["src"]).resolve()
    warm = warm_state()
    if src not in Path(wpposet.__file__).resolve().parents:
        out["error"] = f"imported wpposet from {wpposet.__file__}, not {src}"
    elif warm:
        out["error"] = "warm start: " + "; ".join(warm)
    if "error" in out or job["workload"] is None:
        print(json.dumps(out))
        return
    tracer = Tracer(MODULES) if job["trace"] else None
    if tracer:
        tracer.install()
    rec = items.Recorder()
    if job["workload"] == "oneshot-cli":
        code, text, seconds = items.run_command(cli, job["argv"])
        rec.items_s.append(out["setup_s"] + seconds)
        out["wall_s"] = rec.items_s[0]
    else:
        start = time.perf_counter()
        items.RUNNERS[job["workload"]](MODULES, job["inputs"], rec)
        out["wall_s"] = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.report()
    if job["workload"] == "oneshot-cli":
        items.check_command(rec, job["argv"], code, text)
    out.update(rec.result())
    out["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
