"""The items of each workload, run inside a fresh child interpreter.

An item's latency covers only its calls into wpposet; the benchmark's
own checks run after the clock stops.  Every check goes through a
Recorder, so a wrong answer or a crash adds to the failed count with a
witness and the run goes on.
"""

import hashlib
import io
import json
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks as ck

FAMILIES = ("comb", "lyndon", "liu")
DIGESTS = Path(__file__).with_name("digests.json")
MAX_WITNESSES = 20


class Recorder:
    def __init__(self):
        self.items_s = []
        self.attempted = 0
        self.failed = 0
        self.witnesses = []

    def check(self, ok, witness):
        self.attempted += 1
        if not ok:
            self._fail(witness)

    def crash(self, what, exc):
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def _fail(self, witness):
        self.failed += 1
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(str(witness)[:300])

    def result(self):
        return {"items_s": self.items_s, "attempted": self.attempted,
                "failed": self.failed, "witnesses": self.witnesses}


# -- interval-homology ------------------------------------------------------

def interval_homology(m, inputs, rec):
    hm, tr = m["homology"], m["trees"]
    for kind, n, i, shuffle_seed in inputs["hosts"]:
        label = f"(0,[{n}]^{i})" if kind == "interval" else f"proper_part({n})"
        try:
            start = time.perf_counter()
            host = hm.open_interval(n, i) if kind == "interval" else hm.proper_part(n)
            rep = hm.betti_numbers(host)
            ranks = []
            if kind == "interval":
                rng = random.Random(shuffle_seed)
                for family in FAMILIES:
                    fam = tr.enumerate_family(family, n, i)
                    vectors = [hm.chain_vector_of_tree(t) for t in fam]
                    rng.shuffle(vectors)
                    rank, betti = hm.rank_in_top_quotient(host, vectors)
                    ranks.append((family, len(fam), rank, betti))
            rec.items_s.append(time.perf_counter() - start)
        except Exception as exc:
            rec.crash(label, exc)
            continue
        want = (ck.product_coefficients(n)[i] if kind == "interval"
                else ck.proper_part_betti(n))
        betti, top = rep["betti"], rep["top_dim"]
        rec.check(betti.get(top) == want,
                  f"{label}: top Betti {betti.get(top)}, expected {want}")
        rec.check(all(b == 0 for r, b in betti.items() if r != top),
                  f"{label}: nonzero lower Betti numbers {betti}")
        rec.check(rep["torsion_free_top"] is True,
                  f"{label}: torsion {rep['torsion_nontrivial']}")
        for family, count, rank, b in ranks:
            rec.check(count == rank == b == want,
                      f"{label} {family}: {count} cochains of rank {rank}, "
                      f"Betti {b}, expected {want}")


# -- tree-families ----------------------------------------------------------

def tree_families(m, inputs, rec):
    hm, tr = m["homology"], m["trees"]
    n = 7
    for family in FAMILIES:
        try:
            start = time.perf_counter()
            trees = tr.enumerate_family(family, n)
            rec.items_s.append(time.perf_counter() - start)
        except Exception as exc:
            rec.crash(f"{family} on [{n}]", exc)
            continue
        per_i = Counter(ck.red_nodes(t) for t in trees)
        got = [per_i.get(i, 0) for i in range(n)]
        rec.check(got == ck.product_coefficients(n),
                  f"{family} on [{n}]: per-i counts {got}")
        rec.check(len(trees) == ck.family_total(n),
                  f"{family} on [{n}]: {len(trees)} trees")
        rec.check(len(set(trees)) == len(trees), f"{family}: repeated trees")

    for root, pairs in inputs["rooted"]:
        T = tr.RootedTree.from_parent_map(root, {c: p for c, p in pairs})
        try:
            start = time.perf_counter()
            t = tr.psi(T)
            back = tr.psi_inverse(t)
            rec.items_s.append(time.perf_counter() - start)
        except Exception as exc:
            rec.crash(f"psi of {T!r}", exc)
            continue
        rec.check(back == T, f"psi round trip of {T!r} gives {back!r}")
        rec.check(ck.red_nodes(t) == ck.descents(pairs),
                  f"psi({T!r}) has {ck.red_nodes(t)} red nodes")
        rec.check(sorted(ck.leaf_labels(t)) == list(range(1, len(pairs) + 2)),
                  f"psi({T!r}) has leaves {ck.leaf_labels(t)}")

    n = 5
    for i in range(n):
        try:
            start = time.perf_counter()
            rooted = tr.enumerate_rooted_trees(range(1, n + 1), i)
            ordered = tr.liu_linear_extension(rooted)
            cycles = [hm.fundamental_cycle(T) for T in ordered]
            cochains = [hm.chain_vector_of_tree(tr.psi(T)) for T in ordered]
            rec.items_s.append(time.perf_counter() - start)
        except Exception as exc:
            rec.crash(f"Liu pairing on [{n}], i={i}", exc)
            continue
        want = ck.product_coefficients(n)[i]
        rec.check(len(ordered) == want and set(ordered) == set(rooted),
                  f"Liu order on [{n}], i={i}: {len(ordered)} trees, "
                  f"expected {want}")
        pairing = [[ck.dot(rho, c) for c in cochains] for rho in cycles]
        rec.check(ck.is_unitriangular(pairing),
                  f"Liu pairing on [{n}], i={i} is not unitriangular")


# -- oneshot-cli ------------------------------------------------------------

def run_command(cli, argv):
    """cli.main on argv with --format json; (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv + ["--format", "json"])
        except SystemExit as exc:  # argparse refuses the command
            code = exc.code
        except Exception as exc:  # a crash fails the command's check
            code = f"crash {type(exc).__name__}: {exc}"
    return code, out.getvalue() + err.getvalue(), time.perf_counter() - start


def check_command(rec, argv, code, text):
    label = " ".join(argv)
    rec.check(code == 0, f"{label}: exit code {code}: {text[-200:]}")
    if code != 0:
        return
    command, n = argv[0], int(argv[2])
    opts = dict(zip(argv[1::2], argv[2::2]))
    if command == "straighten":
        digests = json.loads(DIGESTS.read_text())
        got = hashlib.sha256(text.encode()).hexdigest()
        key = f"{n}:{opts['--seed']}"
        rec.check(digests.get(key) == got,
                  f"{label}: output digest {got[:16]} differs from the record")
        return
    obj = json.loads(text)
    coeffs = ck.product_coefficients(n)
    if command == "invariants":
        variant = opts["--variant"]
        sizes = ck.rank_sizes(n) + ([1] if variant == "augmented" else [])
        rec.check(obj["rank_sizes"] == sizes,
                  f"{label}: rank sizes {obj['rank_sizes']}")
        mu = (ck.pointed_mu_values(n) if variant == "pointed"
              else ck.mu_polynomial(n))
        rec.check(obj["mu_poly"] == mu, f"{label}: mu {obj['mu_poly']}")
        chi = None if variant == "augmented" else ck.characteristic_polynomial(n)
        rec.check(obj["char_poly"] == chi, f"{label}: chi {obj['char_poly']}")
        rec.check(obj["whitney_first"] == ck.whitney_first(n)
                  and obj["whitney_second"] == ck.rank_sizes(n),
                  f"{label}: Whitney numbers")
    elif command == "el-verify":
        rec.check(obj["passed"] is True and obj["n"] == n, f"{label}: {obj}")
    elif command == "whitney":
        ranks = ck.whitney_cohomology_ranks(n)
        rec.check(obj["whitney_first"] == ck.whitney_first(n)
                  and obj["whitney_second"] == ck.rank_sizes(n),
                  f"{label}: Whitney numbers")
        rec.check(obj["cohomology_ranks"] == ranks
                  and obj["cohomology_total"] == ck.whitney_total(n)
                  == sum(ranks), f"{label}: cohomology {obj['cohomology_ranks']}")
    elif command == "homology":
        i = opts.get("--i")
        want = coeffs[int(i)] if i is not None else ck.proper_part_betti(n)
        betti = {int(r): b for r, b in obj["betti"].items()}
        top = max(betti)
        rec.check(betti[top] == want
                  and all(b == 0 for r, b in betti.items() if r != top),
                  f"{label}: Betti {obj['betti']}, expected {want} on top")
        rec.check(obj["torsion_free_top"] is True, f"{label}: torsion")
    elif command == "psi":
        rows = obj["rows"]
        by_descents = Counter(r["descents"] for r in rows)
        rec.check(obj["count"] == len(rows) == ck.family_total(n)
                  and [by_descents[i] for i in range(n)] == coeffs,
                  f"{label}: {obj['count']} trees by descents {by_descents}")
        rec.check(len({r["psi"] for r in rows}) == len(rows),
                  f"{label}: psi is not injective")
    elif command == "bases":
        i = int(opts["--i"])
        if opts["--family"] == "tree":
            fams = obj["families"]
            rec.check(obj["passed"] is True
                      and all(f["count"] == f["rank"] == coeffs[i]
                              for f in fams.values())
                      and obj["pairing"] == {"upper_triangular": True,
                                             "unit_diagonal": True},
                      f"{label}: {obj}")
        else:
            rec.check(obj == {"count": coeffs[i], "full_rank": True},
                      f"{label}: {obj}, expected {coeffs[i]} cochains")
    elif command == "report-all":
        crits = obj["criteria"]
        rec.check(obj["passed"] is True and len(crits) == 16
                  and all(c["ok"] for c in crits),
                  f"{label}: failed {[c['criterion'] for c in crits if not c['ok']]}")
    else:
        rec.check(False, f"{label}: no check for this command")


RUNNERS = {
    "interval-homology": interval_homology,
    "tree-families": tree_families,
}
