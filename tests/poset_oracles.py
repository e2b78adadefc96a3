"""Direct definitions the tests use as oracles: every weighted (or
pointed) partition listed as a set partition with each weight (or
point) its blocks allow, the cover and order relations read blockwise
from two partitions, a partition from its blocks in any order
(``sort_blocks``), the cover step as a merge of named blocks re-sorted
afterwards (``u_merge``, ``upper_covers``), the edge label of a cover
pair, an open poset's order transposed from down-sets, its chains as
tuples of partitions, its top cycles as ChainVectors, a whole integer
kernel by tracked elimination, the boundary and coboundary of
ChainVectors, the pairing that makes chains orthonormal, the lower
covers transposed from the upper ones with the down-sets folded over
them, and the EL check and the ascent-free chains over every listed
saturated chain.  The package reaches its elements from the bottom by
covers, decides covers only by generating them, merges two blocks in
place (the union takes the place of the block with the lesser least
element, so no sort is needed), keeps only the upper covers, reads each
host's order and each label off a pair the poset's covers hold, reduces
coboundary maps over index chains by pairing each chain with its
largest coface, solves the cycle index off the top map's pairs and
counts chains over covers, so none of these is needed there."""

import itertools
from math import gcd

from wpposet import labeling as lb
from wpposet import linalg
from wpposet import partitions as pt


def ground_size(p):
    union = 0
    for m, _v in p:
        union |= m
    return union.bit_length()


def members_mask(members):
    m = 0
    for a in members:
        m |= 1 << (a - 1)
    return m


def set_partitions_masks(n):
    """Set partitions of [n] as tuples of masks sorted by minimum."""

    def rec(remaining):
        if not remaining:
            yield ()
            return
        first = remaining & -remaining
        rest = remaining ^ first
        others = pt.mask_members(rest)
        for k in range(len(others) + 1):
            for extra in itertools.combinations(others, k):
                block = first | members_mask(extra)
                for tail in rec(remaining ^ block):
                    yield (block,) + tail

    return rec((1 << n) - 1)


def enumerate_partitions(n, variant=pt.WEIGHTED):
    """All weighted (or pointed) partitions of [n], rank by rank from the
    bottom and sorted within a rank: each set partition with every weight
    in [0, |B|-1] (or every point in B) on each block B."""
    out = []
    for part in set_partitions_masks(n):
        if variant == pt.WEIGHTED:
            choices = [range(m.bit_count()) for m in part]
        else:
            choices = [pt.mask_members(m) for m in part]
        for vals in itertools.product(*choices):
            out.append(tuple(zip(part, vals)))
    out.sort(key=lambda p: (-len(p), p))
    return out


def sort_blocks(blocks):
    """The partition with the given blocks: their tuple sorted by least
    element."""
    return tuple(sorted(blocks, key=lambda b: b[0] & -b[0]))


def covers(a, b, variant=pt.WEIGHTED):
    """True iff b covers a (merge of exactly two blocks of a)."""
    if a is pt.TOP:
        return False
    if b is pt.TOP:
        return len(a) == 1
    if ground_size(a) != ground_size(b):
        raise ValueError("partitions over different ground sets")
    new = set(b) - set(a)
    gone = set(a) - set(b)
    if len(new) != 1 or len(gone) != 2:
        return False
    ((m, v),) = new
    (m1, v1), (m2, v2) = gone
    if m1 | m2 != m or m1 & m2:
        return False
    if variant == pt.WEIGHTED:
        return v - (v1 + v2) in (0, 1)
    return v in (v1, v2)


def edge_label(x, y, n):
    """Label of the cover x < y in the augmented poset on [n]."""
    if y is pt.TOP:
        if x is pt.TOP or len(x) != 1:
            raise ValueError("Top covers only the one-block partitions")
        return lb.EdgeLabel(1, n + 1, 0)
    if not covers(x, y, pt.WEIGHTED):
        raise ValueError("edge_label requires a cover pair")
    gone = sorted(set(x) - set(y), key=lambda blk: pt.mask_min(blk[0]))
    (m1, v1), (m2, v2) = gone
    ((_m, v),) = set(y) - set(x)
    return lb.EdgeLabel(pt.mask_min(m1), pt.mask_min(m2), v - (v1 + v2))


def u_merge(p, block_masks, u):
    """Replace the named blocks of p by their union with weight sum+u."""
    if not 0 <= u <= len(block_masks) - 1:
        raise ValueError(f"u={u} out of range for {len(block_masks)} blocks")
    named = set(block_masks)
    chosen = [b for b in p if b[0] in named]
    if len(chosen) != len(block_masks):
        raise ValueError("some blocks are absent from the partition")
    rest = [b for b in p if b[0] not in named]
    mask = 0
    total = u
    for m, v in chosen:
        mask |= m
        total += v
    rest.append((mask, total))
    return sort_blocks(rest)


def upper_covers(p, variant=pt.WEIGHTED):
    """The partitions covering p, in the order of
    ``partitions.upper_covers``: every merge of two of its blocks with
    each weight (or point) it allows, the union appended to the other
    blocks and the whole re-sorted."""
    out = []
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            (m1, v1), (m2, v2) = p[i], p[j]
            rest = p[:i] + p[i + 1:j] + p[j + 1:]
            m = m1 | m2
            choices = (v1 + v2, v1 + v2 + 1) if variant == pt.WEIGHTED else (v1, v2)
            for v in choices:
                out.append(sort_blocks(rest + ((m, v),)))
    return out


def leq(a, b, variant=pt.WEIGHTED):
    """Order relation: b coarsens a, blockwise weight window / point origin."""
    if b is pt.TOP:
        return True
    if a is pt.TOP:
        return False
    if ground_size(a) != ground_size(b):
        raise ValueError("partitions over different ground sets")
    for m, v in b:
        total, count, points = 0, 0, ()
        for ma, va in a:
            if ma & m == ma:
                total += va
                count += 1
                points += (va,)
            elif ma & m:
                return False
        if variant == pt.WEIGHTED:
            if not total <= v <= total + count - 1:
                return False
        else:
            if v not in points:
                return False
    return True


def chains_by_dim(host):
    """dict r -> list of r-chains of host as tuples of elements, in the
    order of ``host.index_chains()``."""
    elements = host.elements
    return {r: [tuple(elements[k] for k in host.unpack(c, r)) for c in cs]
            for r, cs in host.index_chains().items()}


def cycle_basis(host):
    """Integer basis of the top cycles of host as ChainVectors, read from
    its cycle index."""
    index, count = host.cycle_index()
    basis = [{} for _ in range(count)]
    elements, top = host.elements, host.top_dim
    for c, entries in index.items():
        chain = tuple(elements[k] for k in host.unpack(c, top))
        for j, x in zip(entries[::2], entries[1::2]):
            basis[j][chain] = x
    return basis


def kernel_basis(vectors):
    """Integer basis of {x : sum_j x_j vectors[j] = 0}, all at once.

    A tracked elimination: each stored vector carries the combination of
    the inputs it equals, and an input that reduces to zero yields its
    combination, made primitive.  Returned vectors are keyed by the input
    index j.
    """
    stored = {}  # pivot key -> (vector, combination)
    out = []
    for j, v in enumerate(vectors):
        v, t = dict(v), {j: 1}
        while v and max(v) in stored:
            low = max(v)
            pv, pt_ = stored[low]
            g = gcd(v[low], pv[low])
            a, b = pv[low] // g, v[low] // g
            v = linalg.vec_combine(v, a, pv, -b)
            t = linalg.vec_combine(t, a, pt_, -b)
        if v:
            stored[max(v)] = v, t
        else:
            out.append(linalg.vec_primitive(t))
    return out


def up_by_transposition(P, elements):
    """The up bitsets of ``homology.OpenPoset(name, P, elements)``, read
    by transposing P's down-sets one bit at a time: up[k] is the bitset
    of the local indices of the elements strictly above element k."""
    hosts = [P.index[e] for e in sorted(elements)]
    local = {h: k for k, h in enumerate(hosts)}
    keep_mask = 0
    for h in hosts:
        keep_mask |= 1 << h
    down_sets = P.down_sets()
    up = [0] * len(hosts)
    for k, h in enumerate(hosts):
        for g in pt.bits(down_sets[h] & keep_mask & ~(1 << h)):
            up[local[g]] |= 1 << k
    return up


def boundary_of_chain(c):
    return {c[:i] + c[i + 1:]: -1 if i & 1 else 1 for i in range(len(c))}


def boundary(v):
    """The boundary of a homogeneous ChainVector."""
    out = {}
    for c, coeff in v.items():
        linalg.vec_add(out, boundary_of_chain(c), coeff)
    return out


def coboundary(host, v):
    """The coboundary: insert every admissible element into every gap,
    with the gaps at the ends open toward the (virtual) bottom and top."""
    # down[k], the elements strictly below k, transposes host.up
    down = [0] * len(host.elements)
    for j, above in enumerate(host.up):
        for k in pt.bits(above):
            down[k] |= 1 << j
    out = {}
    for c, coeff in v.items():
        linalg.vec_add(out, _coboundary_of_chain(host, down, c), coeff)
    return out


def _coboundary_of_chain(host, down, c):
    everything = (1 << len(host.elements)) - 1
    idx = [host.index[e] for e in c]
    out = {}
    for i in range(len(c) + 1):
        lower = host.up[idx[i - 1]] if i > 0 else everything
        upper = down[idx[i]] if i < len(c) else everything
        for j in pt.bits(lower & upper):
            out[c[:i] + (host.elements[j],) + c[i:]] = (-1) ** i
    return out


def pairing(u, v):
    """<u, v> with the chains orthonormal."""
    if len(v) < len(u):
        u, v = v, u
    return sum(x * v[k] for k, x in u.items() if k in v)


def lower_covers(P):
    """The lower covers of every element of P, each list ascending: the
    upper covers ``P.covers`` transposed."""
    lows = [[] for _ in P.elements]
    for k, ups in enumerate(P.covers):
        for j in ups:
            lows[j].append(k)
    return lows


def down_sets_by_lower_covers(P):
    """``P.down_sets()`` as one fold over the lower covers: every lower
    cover of k has a smaller index, so its down-set is already built."""
    down = []
    for k, lows in enumerate(lower_covers(P)):
        d = 1 << k
        for j in lows:
            d |= down[j]
        down.append(d)
    return down


def saturated_chains_by_interval(P):
    """{(x_index, y_index): the saturated chains of [x, y] as index
    tuples}, each interval's chains in the order they are grown down from
    y through the lower covers."""
    down, lows = {}, lower_covers(P)

    def descend(y):
        # every saturated chain that ends at y
        if y not in down:
            down[y] = [(y,)] + [c + (y,) for x in lows[y]
                                for c in descend(x)]
        return down[y]

    by_interval = {}
    for y in range(len(P.elements)):
        for c in descend(y):
            by_interval.setdefault((c[0], c[-1]), []).append(c)
    return by_interval


def label_word(labels, chain):
    return tuple(labels[step] for step in zip(chain, chain[1:]))


def is_increasing(word):
    return all(lb.label_less(p, q) for p, q in zip(word, word[1:]))


def is_ascent_free(word):
    return not any(lb.label_less(p, q) for p, q in zip(word, word[1:]))


def lex_precedes(word, other):
    """True iff word lexicographically precedes other: at the first
    differing position, word's label is strictly less in Lambda_n."""
    for p, q in zip(word, other):
        if p != q:
            return lb.label_less(p, q)
    return len(word) <= len(other)


def el_report_by_listing(P, labels):
    """The report of ``labeling.verify_el`` from the definition: every
    saturated chain of every interval listed with its label word, and the
    words compared pairwise."""
    violations, rows = [], []
    by_interval = saturated_chains_by_interval(P)
    for (x, y), chainlist in sorted(by_interval.items()):
        if x == y:
            continue
        words = [label_word(labels, c) for c in chainlist]
        increasing = [k for k, w in enumerate(words) if is_increasing(w)]
        lex_ok = (len(increasing) == 1 and all(
            lex_precedes(words[increasing[0]], w)
            for k, w in enumerate(words) if k != increasing[0]))
        if not lex_ok:
            violations.append({
                "interval": (pt.partition_str(P.elements[x]),
                             pt.partition_str(P.elements[y])),
                "increasing": len(increasing),
                "lex_first_ok": lex_ok,
            })
        rows.append({
            "x": pt.partition_str(P.elements[x]),
            "y": pt.partition_str(P.elements[y]),
            "max_chains": len(words),
            "increasing": len(increasing),
            "lex_first_ok": lex_ok,
            "ascent_free": sum(1 for w in words if is_ascent_free(w)),
        })
    return {"n": P.n, "intervals": len(rows), "violations": violations,
            "passed": not violations, "rows": rows}


def ascent_free_chains_by_listing(P, labels, top):
    """The ascent-free maximal chains of [0-hat, top], filtered from the
    listing in its order; 0-hat is element 0."""
    chains = saturated_chains_by_interval(P)[0, P.index[top]]
    return [c for c in chains if is_ascent_free(label_word(labels, c))]
