"""Direct definitions the tests use as oracles: the order relation read
blockwise from two partitions, an open poset's chains as tuples of
partitions, its top cycles as ChainVectors, a whole integer kernel, the
boundary and coboundary of ChainVectors, and the pairing that makes
chains orthonormal.  The package reads the order from down-set bitsets,
reduces boundary maps over index chains and folds each kernel vector
into the cycle index as it is found, so none of these is needed there."""

from wpposet import linalg
from wpposet import partitions as pt


def leq(a, b, variant=pt.WEIGHTED):
    """Order relation: b coarsens a, blockwise weight window / point origin."""
    if b is pt.TOP:
        return True
    if a is pt.TOP:
        return False
    if pt.ground_size(a) != pt.ground_size(b):
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
    return {r: [tuple(elements[k] for k in c) for c in cs]
            for r, cs in host.index_chains().items()}


def cycle_basis(host):
    """Integer basis of the top cycles of host as ChainVectors, read from
    its cycle index."""
    index, count = host.cycle_index()
    basis = [{} for _ in range(count)]
    elements = host.elements
    for c, entries in index.items():
        chain = tuple(elements[k] for k in c)
        for j, x in zip(entries[::2], entries[1::2]):
            basis[j][chain] = x
    return basis


def kernel_basis(vectors, ech=None):
    """Integer basis of {x : sum_j x_j vectors[j] = 0}, all at once.

    Returned vectors are primitive dicts keyed by the input index j.  The
    reduction runs in ``ech``, an empty ``Echelon(track=True)`` made here
    when none is passed; a caller that passes one reads the rank, the
    unit-pivot certificate and the pivots of the same reduction from it.
    """
    if ech is None:
        ech = linalg.Echelon(track=True)
    out = []
    for j, v in enumerate(vectors):
        combo = ech.add(v, tag=j)
        if combo is not None:
            out.append(linalg.vec_primitive(combo))
    return out


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
