"""Span tracing of wpposet from outside its source.

``install`` replaces the listed public functions and methods of the
package with wrappers.  Package code calls across modules through module
globals (``pt.build_poset``, ``linalg.rank_of``) and within a module by
global name, so replacing the module attribute catches both.  Helpers
called millions of times (``pt.leq``, ``tr.min_leaf``, ``tr.liu_leq``)
are left unwrapped: their time is self time of the traced caller.

Each traced call is a span (name, start, end, parent).  Spans are
aggregated in memory as they close: per name the call count, total and
self time (duration minus the time covered by child spans), and per
(parent, name) edge the call count and total.  A call that re-enters a
traced function already on the stack (recursive ``psi``) is counted but
opens no span.  ``Tracer.report`` writes the aggregate out at the end.
"""

import time

# (module, attribute) pairs; "Class.method" names a method.  The span is
# named "<module>.<function>"; methods drop the class name.  These are the
# entry points the four workloads reach, so each module's work is charged
# to a span of that module.
SPANS = [
    ("partitions", "build_poset"),
    ("partitions", "Poset.mu_from_bottom"),
    ("partitions", "rank_generating_function"),
    ("partitions", "mu_polynomial"),
    ("partitions", "mu_augmented"),
    ("partitions", "characteristic_polynomial"),
    ("partitions", "whitney_numbers"),
    ("partitions", "whitney_matrices"),
    ("partitions", "json_report"),
    ("labeling", "verify_el"),
    ("labeling", "ascent_free_chains"),
    ("chains", "chain_partitions_of_tree"),
    ("chains", "alpha_of_forest"),
    ("chains", "pi_subposet"),
    ("homology", "open_interval"),
    ("homology", "proper_part"),
    ("homology", "open_boolean_of_tree"),
    ("homology", "OpenPoset.chains_by_dim"),
    ("homology", "OpenPoset.cycle_basis"),
    ("homology", "betti_numbers"),
    ("homology", "coboundary_member"),
    ("homology", "chain_vector_of_tree"),
    ("homology", "fundamental_cycle"),
    ("homology", "rank_in_top_quotient"),
    ("homology", "whitney_cohomology_ranks"),
    ("homology", "homology_report"),
    ("linalg", "rank_of"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve_rational"),
    ("linalg", "snf_invariant_factors"),
    ("trees", "enumerate_family"),
    ("trees", "enumerate_bicolored"),
    ("trees", "enumerate_rooted_trees"),
    ("trees", "valency_decreasing_tau"),
    ("trees", "descent_counts"),
    ("trees", "descent_polynomial"),
    ("trees", "forest_count"),
    ("trees", "psi"),
    ("trees", "psi_inverse"),
    ("trees", "liu_linear_extension"),
    ("straighten", "straighten"),
    ("straighten", "straighten_sum"),
    ("straighten", "relation_instances"),
    ("straighten", "cochain_sum"),
    ("straighten", "phi"),
    ("straighten", "phi_of_sum"),
    ("straighten", "verify_bases"),
    ("acceptance", "run_all"),
    ("cli", "main"),
]

# Counted on every call, without a span.
COUNTED = [("trees", "is_comb")]

# lru caches whose hit ratio is reported as homology.host.cache_hit_ratio
HOST_CACHES = ("open_interval", "proper_part", "open_boolean_of_tree")


def _vectors_nonzeros(args):
    vectors = args[0] if args else None
    if isinstance(vectors, list):
        return sum(len(v) for v in vectors), len(vectors)
    return 0, 0


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.stack = []          # [name, start, child_total]
        self.active = {}         # name -> 1 while its span is open
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.edges = {}          # (parent, name) -> [calls, total_s]
        self.counts = {}         # counter name -> int
        self.seen = {}           # counter name -> {id: object}, kept alive
        self.restore = []        # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        for module, attr in SPANS:
            self._patch(module, attr, self._span_wrapper)
        for module, attr in COUNTED:
            self._patch(module, attr, self._count_wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self.restore):
            setattr(owner, attr, orig)
        self.restore.clear()

    def _patch(self, module, attr, make):
        owner = self.modules[module]
        cls, _, name = attr.rpartition(".")
        if cls:
            owner = getattr(owner, cls, None)
        orig = getattr(owner, name, None) if owner is not None else None
        if orig is None:
            return  # renamed or removed: its metrics read 0
        setattr(owner, name, make(f"{module}.{name}", orig))
        self.restore.append((owner, name, orig))

    def _count_wrapper(self, name, orig):
        counts = self.counts
        key = f"{name}.calls"
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name, orig):
        after = _AFTER.get(name)
        stack, active, spans, edges, counts = (
            self.stack, self.active, self.spans, self.edges, self.counts)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = name
            if name == "trees.enumerate_family":
                family = args[0] if args else kwargs.get("family")
                span = f"{name}.{family}"
            if active.get(span):
                key = f"{span}.reentered"
                counts[key] = counts.get(key, 0) + 1
                return orig(*args, **kwargs)
            active[span] = 1
            frame = [span, clock(), 0.0]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[span] = 0
                total = end - frame[1]
                agg = spans.setdefault(span, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += total
                agg[2] += total - frame[2]
                parent = stack[-1][0] if stack else None
                edge = edges.setdefault((parent, span), [0, 0.0])
                edge[0] += 1
                edge[1] += total
                if stack:
                    stack[-1][2] += total
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def first_time(self, key, obj):
        """True the first time obj is seen under key (obj is kept alive so
        its id is not reused)."""
        seen = self.seen.setdefault(key, {})
        if id(obj) in seen:
            return False
        seen[id(obj)] = obj
        return True

    # -- output ------------------------------------------------------------

    def report(self):
        """Aggregated spans and counters, as plain JSON-able data."""
        counts = dict(self.counts)
        for name, (calls, _total, _self) in self.spans.items():
            counts[f"{name}.calls"] = (
                calls + counts.pop(f"{name}.reentered", 0))
        originals = {(owner, attr): orig for owner, attr, orig in self.restore}
        hm = self.modules["homology"]
        hits = misses = 0
        for fn in HOST_CACHES:
            cached = originals.get((hm, fn), getattr(hm, fn, None))
            info = getattr(cached, "cache_info", None)
            if info is not None:
                hits += info().hits
                misses += info().misses
        counts["homology.host.cache_hits"] = hits
        counts["homology.host.cache_misses"] = misses
        memo = getattr(self.modules["straighten"], "_memo", None)
        counts["straighten.memo_entries"] = len(memo) if memo is not None else 0
        return {
            "spans": {k: [v[1], v[2]] for k, v in self.spans.items()},
            "edges": [[p, n, c, t] for (p, n), (c, t) in self.edges.items()],
            "counts": counts,
        }


def _after_build_poset(tracer, args, poset):
    if tracer.first_time("posets", poset):
        tracer.add("partitions.build_poset.elements", len(poset.elements))


def _after_chains_by_dim(tracer, args, by_dim):
    if tracer.first_time("hosts", args[0]):
        tracer.add("homology.chains_by_dim.chains",
                   sum(len(v) for v in by_dim.values()))


def _after_verify_el(tracer, args, report):
    tracer.add("labeling.verify_el.intervals", report.get("intervals", 0))


def _after_rank_of(tracer, args, rank):
    nonzeros, columns = _vectors_nonzeros(args)
    tracer.add("linalg.nonzeros", nonzeros)
    tracer.add("linalg.rank_of.columns", columns)
    tracer.add("linalg.rank_of.rank", rank)


def _after_kernel_basis(tracer, args, basis):
    tracer.add("linalg.nonzeros", _vectors_nonzeros(args)[0])
    tracer.add("linalg.kernel_basis.kernel_dim", len(basis))


def _after_vectors(tracer, args, _result):
    tracer.add("linalg.nonzeros", _vectors_nonzeros(args)[0])


_AFTER = {
    "partitions.build_poset": _after_build_poset,
    "homology.chains_by_dim": _after_chains_by_dim,
    "labeling.verify_el": _after_verify_el,
    "linalg.rank_of": _after_rank_of,
    "linalg.kernel_basis": _after_kernel_basis,
    "linalg.snf_invariant_factors": _after_vectors,
    "linalg.solve_rational": _after_vectors,
}
