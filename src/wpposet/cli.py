"""Command line surface.

Every subcommand is a reproducible run: output depends only on the
arguments (and the seed, where sampling is involved), so identical
configurations produce byte-identical JSON.  ``build_parser`` alone says
what a subcommand accepts: its flags, its formats and its size cap, all
checked before any work.  Exit codes: 0 on success, 1 on an assertion
failure (the failing witness is printed), 2 on bad input (a message on
stderr), 3 when a resource cap is exceeded (a structured record is
printed), 141 when the reader closed stdout early (as for SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys

from . import acceptance
from . import homology as hm
from . import labeling as lb
from . import partitions as pt
from . import straighten as st
from . import trees as tr
from .errors import ResourceCapError

DEFAULT_SEED = 20260823


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _emit(args, text_fn, json_obj, csv_rows=None, dot_fn=None):
    # args.format is one of the formats the command declares; csv_rows is
    # a non-empty list of dicts, the header the keys of its first row
    if args.format == "json":
        print(_dumps(json_obj))
    elif args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(csv_rows[0]))
        writer.writeheader()
        writer.writerows(csv_rows)
    elif args.format == "dot":
        print(dot_fn())
    else:
        text_fn()
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_invariants(args):
    if args.format == "dot":
        # the diagram reads only the elements and covers, so no invariant
        # is computed and the Mobius cap does not apply
        print(pt.to_dot(pt.build_poset(args.n, args.variant)))
        return 0
    rep = pt.json_report(args.n, args.variant)

    def text():
        # the rank sizes count every element, Top included
        print(f"poset: n={args.n} variant={args.variant} "
              f"({sum(rep['rank_sizes'])} elements)")
        print(f"rank sizes:      {rep['rank_sizes']}")
        print(f"mu poly:         {rep['mu_poly']}")
        print(f"char poly:       {pt.poly_str(rep['char_poly'])}"
              if rep["char_poly"] else "char poly:       (augmented: none)")
        print(f"whitney first:   {rep['whitney_first']}")
        print(f"whitney second:  {rep['whitney_second']}")

    return _emit(args, text, rep)


def cmd_el_verify(args):
    P, labels = lb.cover_labels(args.n)
    rep = lb.verify_el(P, labels)
    if not rep["passed"]:
        print(f"EL verification failed at n={args.n}; first violations:")
        for v in rep["violations"][:5]:
            print(f"  {v}")
        return 1
    summary = {"n": args.n, "passed": True, "intervals": rep["intervals"]}

    def text():
        print(f"EL verification passed at n={args.n}: "
              f"{rep['intervals']} intervals checked")

    return _emit(args, text, summary, csv_rows=rep["rows"],
                 dot_fn=lambda: lb.labeled_dot(P, labels))


def cmd_homology(args):
    host = (hm.open_interval(args.n, args.i) if args.i is not None
            else hm.proper_part(args.n))
    rep = hm.homology_report(host)

    def text():
        print(f"poset: {rep['poset_id']}")
        print(f"chain counts by dim: {rep['dims']}")
        print(f"reduced Betti:       {rep['betti']}")
        torsion = {r: v for r, v in rep["torsion_top"].items() if v}
        print(f"torsion (top maps):  {torsion or 'none'}")

    rows = [{"dim": r, "chains": rep["dims"].get(r, 0),
             "betti": rep["betti"][r]} for r in sorted(rep["betti"], key=int)]
    return _emit(args, text, rep, csv_rows=rows)


def cmd_bases(args):
    family = args.family or "comb"
    if args.side == st.FULL:
        # the full side reads neither flag, so neither is accepted
        for flag, value in (("--i", args.i), ("--family", args.family)):
            if value is not None:
                raise ValueError(f"{flag} does not apply to --side full")
        family = "tree"
    elif args.i is None:
        raise ValueError("bases needs --i (or --side full)")
    if family == "tree":
        # args.i is None exactly on the full side
        rep = st.verify_bases(args.n, args.i)
        if not rep["passed"]:
            print(f"basis verification failed: {_dumps(rep)}")
            return 1
        return _emit(args, lambda: print(_dumps(rep)), rep)
    ((count, rank, betti),) = st.family_ranks(args.n, args.i, [(family, None)])
    out = {"count": count, "full_rank": rank == betti == count}
    if not out["full_rank"]:
        print(f"family {family} at n={args.n} i={args.i}: "
              f"rank {rank} of {count} vectors, Betti {betti}")
        return 1

    def text():
        print(f"family {family}, n={args.n} i={args.i}: "
              f"{out['count']} cochains, full rank {rank} = Betti {betti}")

    return _emit(args, text, out)


def cmd_straighten(args):
    # choosing from the index range draws the same index as choosing from
    # the enumerated list, so a seed picks the same tree as it always has
    rng = random.Random(args.seed)
    k = rng.choice(range(tr.bicolored_count(args.n, args.i)))
    t = tr.bicolored_at(args.n, k, args.i)
    trace = []
    out = st.straighten(t, args.side, trace=trace)
    rep = {
        "n": args.n,
        "seed": args.seed,
        "side": args.side,
        "input": tr.tree_to_bracket(t),
        "terms": {tr.tree_to_bracket(c): x for c, x in out.items()},
    }

    def text():
        print(f"input (seed {args.seed}): {rep['input']}")
        for line in trace:
            print(f"  {line}")
        print("output:")
        for b, x in rep["terms"].items():
            print(f"  {x:+d} * {b}")

    return _emit(args, text, rep)


def cmd_psi(args):
    rows = []
    for T in tr.enumerate_rooted_trees(range(1, args.n + 1), args.i):
        t = tr.psi(T)
        if tr.psi_inverse(t) != T:
            print(f"psi round trip failed on {T!r}")
            return 1
        rows.append({
            "root": T.root,
            "parent_map": " ".join(f"{c}>{p}" for c, p in T.parent),
            "descents": T.descent_count(),
            "psi": tr.tree_to_bracket(t),
        })
    rep = {"n": args.n, "i": args.i, "count": len(rows), "rows": rows}

    def text():
        for r in rows:
            print(f"root {r['root']}  [{r['parent_map']}]  "
                  f"descents {r['descents']}  ->  {r['psi']}")
        print(f"{len(rows)} trees, bijection verified")

    return _emit(args, text, rep, csv_rows=rows)


def cmd_whitney(args):
    first, second = pt.whitney_numbers(args.n)
    ranks = pt.whitney_cohomology_ranks(args.n)
    rep = {"n": args.n, "whitney_first": first, "whitney_second": second,
           "cohomology_ranks": ranks, "cohomology_total": sum(ranks)}

    def text():
        print(f"whitney first:      {first}")
        print(f"whitney second:     {second}")
        print(f"cohomology ranks:   {ranks} (total {sum(ranks)})")

    return _emit(args, text, rep)


def cmd_report_all(args):
    # the text rows are printed as each criterion finishes
    emit = print if args.format == "text" else (lambda line: None)
    ok_all, results = acceptance.run_all(args.n, emit=emit, jobs=args.jobs)
    _emit(args, lambda: print(f"all {len(results)} criteria passed at "
                              f"n <= {args.n}" if ok_all else "FAILED"),
          {"n": args.n, "passed": ok_all, "criteria": results})
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="wpposet",
        description="Exact invariants, homology and bases of the weighted "
                    "partition poset.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, formats, cap, *flags):
        # cap: (what, size of args), checked against --max-elements
        p = sub.add_parser(name, help=help_)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", default="text", choices=formats)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        if cap:
            p.add_argument("--max-elements", type=int, default=None)
        p.set_defaults(fn=fn, cap=cap)

    index = ("--i", {"type": int, "default": None})
    text_json = ["text", "json"]
    add("invariants", cmd_invariants,
        "rank sizes, Mobius, characteristic and Whitney invariants",
        ["text", "json", "dot"],
        ("poset", lambda args: pt.poset_size(args.n, args.variant)),
        ("--variant", {"default": pt.WEIGHTED,
                       "choices": [pt.WEIGHTED, pt.POINTED, pt.AUGMENTED]}))
    add("el-verify", cmd_el_verify,
        "verify the edge labeling is an EL-labeling",
        ["text", "json", "csv", "dot"],
        ("poset", lambda args: pt.poset_size(args.n, pt.AUGMENTED)))
    add("homology", cmd_homology,
        "integral homology of (0,[n]^i), or of the proper part without --i",
        ["text", "json", "csv"],
        ("open poset", lambda args: pt.poset_size(args.n) - 1
         if args.i is None else hm.interval_size(args.n, args.i)), index)
    add("bases", cmd_bases,
        "cardinality / full-rank verification of a cochain family",
        text_json, None, index,
        ("--family", {"default": None,
                      "choices": ["comb", "lyndon", "liu", "tree"]}),
        ("--side", {"default": st.COHOMOLOGY,
                    "choices": [st.COHOMOLOGY, st.FULL]}))
    add("straighten", cmd_straighten,
        "straighten a seeded random tree onto the comb basis",
        text_json, None, index,
        ("--side", {"default": st.COHOMOLOGY,
                    "choices": [st.COHOMOLOGY, st.LIE2, st.FULL]}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}))
    add("psi", cmd_psi,
        "the bijection from rooted trees to bicolored Lyndon-type trees",
        ["text", "json", "csv"], None, index)
    add("whitney", cmd_whitney,
        "Whitney numbers and Whitney cohomology ranks", text_json, None)
    add("report-all", cmd_report_all,
        "run the full acceptance suite with every size capped at n",
        text_json, None, ("--jobs", {"type": int, "default": 1}))
    return parser


def main(argv=None):
    try:
        try:
            args = build_parser().parse_args(argv)
            if args.n < 1:
                raise ValueError(f"--n must be >= 1, got {args.n}")
            i = getattr(args, "i", None)
            if i is not None and not 0 <= i < args.n:
                raise ValueError(f"--i must be in 0..{args.n - 1}, got {i}")
            if args.cap and args.max_elements is not None:
                if args.max_elements < 0:
                    raise ValueError(f"--max-elements must be >= 0, "
                                     f"got {args.max_elements}")
                what, size = args.cap[0], args.cap[1](args)
                if size > args.max_elements:
                    raise ResourceCapError(f"{what} with {size} elements",
                                           args.max_elements)
            code = args.fn(args)
        except SystemExit:
            # argparse exits after --help with the text still buffered
            sys.stdout.flush()
            raise
        except ResourceCapError as exc:
            print(_dumps({"error": "resource-cap", "what": exc.what,
                          "limit": exc.limit}))
            code = 3
        except AssertionError as exc:
            print(f"assertion failed: {exc}")
            code = 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
