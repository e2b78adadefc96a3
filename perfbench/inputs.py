"""Seeded input generators.

Every input a workload hands to wpposet is drawn here from the run's
seed, in the run.py process, and sent to the child as JSON: rooted
trees as ``[root, [[child, parent], ...]]``, commands as argv lists,
shuffle seeds as ints.  The same seed gives the same inputs.
"""

import random

WORKLOADS = ("interval-homology", "tree-families", "oneshot-cli")

# tree-families: psi round trips on random rooted trees on [8].
PSI_TREES = 1000
# oneshot-cli: straighten commands draw --seed from this range; the
# digests of their JSON output are recorded in digests.json.
STRAIGHTEN_SEEDS = range(16)


def prufer_edges(n, seq):
    """Edges of the labeled tree on [n] with Pruefer sequence seq."""
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(1, n + 1) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (w for w in range(1, n + 1) if degree[w] == 1)
    edges.append((u, v))
    return edges


def random_rooted_tree(rng, n):
    """A uniform rooted tree on [n]: a random Pruefer code and root."""
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    root = rng.randint(1, n)
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in prufer_edges(n, seq):
        adj[u].append(v)
        adj[v].append(u)
    parent = {}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v != root and v not in parent:
                parent[v] = u
                stack.append(v)
    return [root, sorted([c, p] for c, p in parent.items())]


def menu():
    """The fixed menu of one-shot commands; straighten's seed is a
    placeholder drawn per run."""
    out = []
    for n in range(1, 7):
        for variant in ("weighted", "pointed", "augmented"):
            out.append(["invariants", "--n", str(n), "--variant", variant])
    out.append(["el-verify", "--n", "5"])
    out.append(["whitney", "--n", "6"])
    for n in (4, 5):
        out.append(["homology", "--n", str(n)])
        for i in range(n):
            out.append(["homology", "--n", str(n), "--i", str(i)])
    out.append(["psi", "--n", "5"])
    for i in range(4):
        for family in ("comb", "lyndon", "liu", "tree"):
            out.append(["bases", "--n", "4", "--i", str(i),
                        "--family", family])
    for n in (5, 6):
        out.append(["straighten", "--n", str(n), "--seed", None])
    out.append(["report-all", "--n", "4"])
    return out


def hash_seed(seed):
    """PYTHONHASHSEED for every child of a run, derived from its seed."""
    return random.Random(f"hash-{seed}").randrange(1, 2 ** 32)


def build(workload, seed):
    """The JSON-able inputs of one workload at one seed."""
    rng = random.Random(f"{workload}-{seed}")
    if workload == "interval-homology":
        hosts = [["interval", n, i] for n in range(2, 6) for i in range(n)]
        hosts += [["proper", n, None] for n in range(2, 6)]
        hosts += [["interval", 6, 0], ["interval", 6, 5]]
        # one shuffle seed per host for the order of the cochain vectors
        return {"hosts": [h + [rng.randrange(2 ** 32)] for h in hosts]}
    if workload == "tree-families":
        return {"rooted": [random_rooted_tree(rng, 8)
                           for _ in range(PSI_TREES)]}
    if workload == "oneshot-cli":
        commands = menu()
        for argv in commands:
            if argv[0] == "straighten":
                argv[-1] = str(rng.choice(STRAIGHTEN_SEEDS))
        rng.shuffle(commands)
        return {"commands": commands}
    raise ValueError(f"unknown workload {workload!r}")
