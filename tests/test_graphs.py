import gc
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from qumodelab import (
    adjacency_from_edges,
    hafnian,
    substructure_signature,
)
from qumodelab.graphs import _hafnians, _read_edges

from oracles import perfect_matching_count


def complete_graph(n):
    A = np.ones((n, n)) - np.eye(n)
    return A


def path_graph(n):
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = 1.0
    return A


def random_binary_graph(n, rng, p=0.5):
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                A[i, j] = A[j, i] = 1.0
    return A


def pairing_sum(A):
    """The hafnian by its definition, a sum over all pairings: the reference."""
    entries = np.asarray(A).tolist()

    def pairings(rows):
        if not rows:
            return 1.0
        first, rest = rows[0], rows[1:]
        total = 0.0
        for i, j in enumerate(rest):
            total += entries[first][j] * pairings(rest[:i] + rest[i + 1 :])
        return total

    return pairings(tuple(range(len(entries))))


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# hafnian
# ---------------------------------------------------------------------------


def test_single_edge():
    assert hafnian(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1.0


def test_odd_dimension_is_zero():
    assert hafnian(np.zeros((3, 3))) == 0.0
    assert hafnian(complete_graph(5)) == 0.0


def test_k4_has_three_matchings():
    assert hafnian(complete_graph(4)) == 3.0


def test_weighted_hafnian():
    A = np.array(
        [
            [0.0, 2.0, 0.5, 0.0],
            [2.0, 0.0, 0.0, 3.0],
            [0.5, 0.0, 0.0, 1.0],
            [0.0, 3.0, 1.0, 0.0],
        ]
    )
    # pairings: (12)(34), (13)(24), (14)(23)
    expected = 2.0 * 1.0 + 0.5 * 3.0 + 0.0 * 0.0
    assert hafnian(A) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("entries", ["positive", "signed"])
def test_hafnian_equals_pairing_sum(entries):
    # Round-off scales with the hafnian of |A|, which bounds every term.
    rng = np.random.default_rng(59)
    for n in range(2, 13, 2):
        for _ in range(5):
            X = rng.uniform(0.05, 0.95, (n, n)) if entries == "positive" else rng.normal(size=(n, n))
            A = np.triu(X, 1)
            A = A + A.T
            assert abs(hafnian(A) - pairing_sum(A)) <= 1e-13 * pairing_sum(np.abs(A))


@pytest.mark.parametrize("n", [14, 18, 20])
def test_stacked_hafnians_equal_single_calls(n):
    # Chunks and padding must not depend on the other matrices in the stack.
    rng = np.random.default_rng(n)
    for _ in range(4):
        As = np.triu(rng.uniform(0.05, 0.95, (3, n, n)), 1)
        As = As + As.transpose(0, 2, 1)
        single = np.array([_hafnians(A[None])[0] for A in As])
        assert np.abs(_hafnians(As) - single).max() <= 1e-13 * np.abs(single).min()


def test_kernel_small_sizes():
    assert np.array_equal(_hafnians(np.zeros((3, 0, 0))), np.ones(3))
    weights = np.array([0.5, -2.0, 3.0])
    pairs = np.zeros((3, 2, 2))
    pairs[:, 0, 1] = pairs[:, 1, 0] = weights
    assert np.array_equal(_hafnians(pairs), weights)


def test_asymmetric_rejected():
    with pytest.raises(ValueError):
        hafnian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_size_cap():
    with pytest.raises(ValueError):
        hafnian(np.zeros((22, 22)))


def test_empty_matrix():
    assert hafnian(np.zeros((0, 0))) == 1.0


def test_hafnian_frees_its_cache_on_return():
    # The call must leave nothing behind for the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        hafnian(complete_graph(12))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("m", range(1, 11))
def test_complete_graph_hafnian_is_double_factorial(m):
    assert hafnian(complete_graph(2 * m)) == double_factorial(2 * m - 1)


def test_block_diagonal_count_at_the_cap():
    rng = np.random.default_rng(43)
    A, B = random_binary_graph(10, rng, p=0.6), random_binary_graph(10, rng, p=0.6)
    M = np.zeros((20, 20))
    M[:10, :10], M[10:, 10:] = A, B
    expected = perfect_matching_count(A) * perfect_matching_count(B)
    assert expected > 1
    perm = rng.permutation(20)
    assert hafnian(M) == expected
    assert hafnian(M[np.ix_(perm, perm)]) == expected


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entry_is_refused_by_name(value):
    A = complete_graph(4)
    A[0, 1] = A[1, 0] = value
    for f in (hafnian, substructure_signature):
        with pytest.raises(ValueError, match="non-finite entry"):
            f(A)


def test_hafnian_memory_is_bounded():
    rng = np.random.default_rng(53)
    A = np.triu(rng.uniform(0.05, 0.95, (20, 20)), 1)
    A = A + A.T
    hafnian(A)
    tracemalloc.start()
    try:
        hafnian(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# perfect matchings
# ---------------------------------------------------------------------------


def test_path_graph_single_matching():
    assert perfect_matching_count(path_graph(4)) == 1


def test_complete_graph_double_factorial():
    assert perfect_matching_count(complete_graph(6)) == double_factorial(5)


def test_empty_graph_no_matching():
    assert perfect_matching_count(np.zeros((4, 4))) == 0


def test_non_binary_rejected():
    A = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        perfect_matching_count(A)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


def test_signature_deterministic():
    A = random_binary_graph(6, np.random.default_rng(0))
    assert np.array_equal(substructure_signature(A), substructure_signature(A))


def test_signature_invariant_under_relabelling():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        A = random_binary_graph(n, rng)
        perm = rng.permutation(n)
        B = A[np.ix_(perm, perm)]
        assert np.allclose(substructure_signature(A), substructure_signature(B))


def test_signature_equals_per_submatrix_hafnians():
    rng = np.random.default_rng(47)
    A = np.triu(rng.uniform(0.05, 0.95, (10, 10)), 1)
    A = A + A.T
    expected = sorted(
        hafnian(A[np.ix_(s, s)]) for size in (2, 4, 6, 8) for s in combinations(range(10), size)
    )
    np.testing.assert_allclose(substructure_signature(A), expected, rtol=1e-12, atol=0)


def test_signature_separates_path_from_clique():
    assert not np.array_equal(
        substructure_signature(path_graph(4)), substructure_signature(complete_graph(4))
    )


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_hafnian_counts_matchings_on_random_graphs():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        A = random_binary_graph(n, rng)
        assert hafnian(A) == float(perfect_matching_count(A) if n <= 16 else 0)


def test_hafnian_permutation_invariance():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(8, 8))
    A = X + X.T
    np.fill_diagonal(A, 0.0)
    base = hafnian(A)
    for _ in range(20):
        perm = rng.permutation(8)
        assert hafnian(A[np.ix_(perm, perm)]) == pytest.approx(base, rel=1e-12)


def test_block_diagonal_multiplicativity():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(4, 4))
    A = X + X.T
    np.fill_diagonal(A, 0.0)
    Y = rng.normal(size=(6, 6))
    B = Y + Y.T
    np.fill_diagonal(B, 0.0)
    M = np.zeros((10, 10))
    M[:4, :4] = A
    M[4:, 4:] = B
    assert hafnian(M) == pytest.approx(hafnian(A) * hafnian(B), rel=1e-12)


# ---------------------------------------------------------------------------
# edge-list parsing
# ---------------------------------------------------------------------------


def test_adjacency_from_edges():
    A = adjacency_from_edges([[1, 2], [2, 3, 0.5]])
    assert A.shape == (3, 3)
    assert A[0, 1] == A[1, 0] == 1.0
    assert A[1, 2] == A[2, 1] == 0.5


def test_adjacency_validation():
    with pytest.raises(ValueError):
        adjacency_from_edges([[1, 1]])
    with pytest.raises(ValueError):
        adjacency_from_edges([[1, 5]], n=3)
    with pytest.raises(ValueError):
        adjacency_from_edges([], n=None)


@pytest.mark.parametrize("n", [3.5, 3.0, True])
def test_adjacency_refuses_non_integer_vertex_count(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        adjacency_from_edges([[1, 2]], n=n)
    assert adjacency_from_edges([[1, 2]], n=np.int64(3)).shape == (3, 3)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_adjacency_refuses_non_finite_weight(weight):
    with pytest.raises(ValueError, match=r"edge \(2, 3\) has non-finite weight"):
        adjacency_from_edges([[1, 2], [2, 3, weight]])


def test_read_edge_list(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text("# complete graph on 4 vertices\n1 2\n1 3\n\n1 4\n2 3\n2 4\n3 4\n")
    A = adjacency_from_edges(_read_edges(path))
    assert np.array_equal(A, complete_graph(4))
    weighted = tmp_path / "w.edges"
    weighted.write_text("1 2 2.5\n")
    B = adjacency_from_edges(_read_edges(weighted), n=3)
    assert B.shape == (3, 3) and B[0, 1] == 2.5
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2 3 4\n")
    with pytest.raises(ValueError):
        _read_edges(bad)
