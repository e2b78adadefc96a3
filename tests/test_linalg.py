import random

from hypothesis import given, strategies as st

from wpposet import linalg

from poset_oracles import kernel_basis


def dense_to_vecs(M):
    return [{j: x for j, x in enumerate(row) if x} for row in M]


def bareiss_det(matrix):
    """Exact determinant of a dense square integer matrix (list of lists),
    by fraction-free Bareiss elimination: the oracle the sparse routines
    are checked against."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def test_rank_simple():
    M = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank_of(dense_to_vecs(M)) == 2


def test_kernel_basis_annihilates():
    M = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    vecs = dense_to_vecs(M)
    basis = kernel_basis(vecs)
    assert len(basis) == 2
    for combo in basis:
        total = {}
        for j, c in combo.items():
            total = linalg.vec_combine(total, 1, vecs[j], c)
        assert total == {}
        assert linalg.vec_content(combo) == 1


def test_add_takes_one_max_per_step(monkeypatch):
    # a vector installed as it is takes one max, one cleared against a
    # stored pivot one more per step, and the caller's vector is kept
    calls = []

    def counted_max(v):
        calls.append(dict(v))
        return max(v)

    monkeypatch.setattr(linalg, "max", counted_max, raising=False)
    ech = linalg.Echelon()
    first, second, again = {0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}
    for v, steps, grew in [(first, 1, True), (second, 2, True),
                           (again, 1, False)]:
        calls.clear()
        assert ech.add(v) is grew
        assert len(calls) == steps
    assert (first, second, again) == ({0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 2: 1})
    assert ech.by_pivot == {2: {0: 1, 2: 1}, 1: {0: -1, 1: 1}}


def test_bareiss_det_known():
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert bareiss_det([[1, 1], [1, 1]]) == 0
    assert bareiss_det([]) == 1


@given(st.integers(0, 10_000))
def test_random_matrix_rank_vs_det(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    det = bareiss_det(M)
    rank = linalg.rank_of(dense_to_vecs(M))
    if det != 0:
        assert rank == n
    else:
        assert rank < n


@given(st.integers(0, 10_000))
def test_random_kernel_dimension(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    vecs = dense_to_vecs(M)
    basis = kernel_basis(vecs)
    assert len(basis) == rows - linalg.rank_of(vecs)
    for combo in basis:
        total = {}
        for j, c in combo.items():
            total = linalg.vec_combine(total, 1, vecs[j], c)
        assert total == {}
