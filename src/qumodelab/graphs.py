"""Hafnians and perfect matchings of molecular graphs.

The hafnian of a symmetric matrix sums, over all ways of partitioning the
index set into pairs, the product of the paired entries. On a 0/1 adjacency
matrix it counts the perfect matchings of the graph, which is what a Gaussian
boson sampler estimates photonically. For n = 2m it is computed by the
power-trace formula ``haf(A) = sum_S (-1)^(m-|S|) [x^m] exp(sum_j tr((XA)_S^j)
x^j / 2j)`` over the pair subsets ``S`` of ``{1..m}`` (Björklund, Gupt & Quesada,
arXiv:1805.12498), all subsets at once in numpy. ``X`` swaps the two halves of
the index set. The matching count by exhaustive enumeration is the oracle.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = [
    "hafnian",
    "perfect_matching_count",
    "substructure_signature",
    "adjacency_from_edges",
    "read_edge_list",
]

MAX_HAFNIAN_SIZE = 20
MAX_MATCHING_SIZE = 16
SIGNATURE_MAX_BLOCK = 8
# Entries per hafnian work array (64 KiB); 128 KiB ones held 1 MiB more resident memory.
_CHUNK_FLOATS = 2**13


def _as_symmetric(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {A.shape}")
    if A.size and np.abs(A - A.T).max() != 0.0:
        raise ValueError("matrix must be exactly symmetric")
    return A


def _hafnians(As: np.ndarray) -> np.ndarray:
    """Hafnians of a stack of symmetric n×n matrices, n even, by the power-trace
    formula, walking the (matrix, subset) pairs in chunks of bounded size."""
    count, n, _ = As.shape
    m = n // 2
    swap = np.r_[m:n, 0:m]  # X exchanges the two halves of the index set
    out = np.zeros(count)
    pairs, step = count << m, _CHUNK_FLOATS // max(n * n, 1)
    for start in range(0, pairs, step):
        mat, subset = np.divmod(np.arange(start, min(start + step, pairs)), 1 << m)
        half = (subset[:, None] >> np.arange(m)) & 1  # S as 0/1 flags
        keep = np.tile(half, 2)  # the indices S and S + m
        XA = As[mat[:, None], swap] * keep[:, :, None] * keep[:, None, :]
        traces, power = np.empty((len(mat), m + 1)), XA
        for j in range(1, m + 1):
            traces[:, j] = np.trace(power, axis1=1, axis2=2)
            if j < m:
                power = power @ XA
        # [x^m] exp(sum_j traces_j x^j / 2j), by k p_k = sum_j (traces_j / 2) p_(k-j)
        p = np.ones((len(mat), m + 1))
        for k in range(1, m + 1):
            p[:, k] = (traces[:, 1 : k + 1] * p[:, k - 1 :: -1]).sum(axis=1) / (2 * k)
        sign = 1 - 2 * ((m - half.sum(axis=1)) & 1)  # (-1)^(m - |S|)
        out[mat[0] : mat[-1] + 1] += np.bincount(mat - mat[0], weights=sign * p[:, m])
    return out


def hafnian(A) -> float:
    """Sum over perfect matchings of the product of matched entries; 0 for an
    odd dimension. Even dimensions are capped at 20."""
    A = _as_symmetric(A)
    n = A.shape[0]
    if n % 2 == 1:
        return 0.0
    if n > MAX_HAFNIAN_SIZE:
        raise ValueError(f"hafnian limited to dimension {MAX_HAFNIAN_SIZE}, got {n}")
    return float(_hafnians(A[None])[0])


def _pairings(items: tuple[int, ...]):
    """All partitions of ``items`` into unordered pairs."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for idx, partner in enumerate(rest):
        remaining = rest[:idx] + rest[idx + 1 :]
        for tail in _pairings(remaining):
            yield ((first, partner),) + tail


def perfect_matching_count(A) -> int:
    """Number of perfect matchings of a 0/1 graph, by brute enumeration."""
    A = _as_symmetric(A)
    n = A.shape[0]
    if not np.isin(A, (0.0, 1.0)).all():
        raise ValueError("perfect matching count needs 0/1 entries")
    if n > MAX_MATCHING_SIZE:
        raise ValueError(
            f"matching enumeration limited to {MAX_MATCHING_SIZE} vertices, got {n}"
        )
    if n % 2 == 1:
        return 0
    count = 0
    for pairing in _pairings(tuple(range(n))):
        if all(A[i, j] == 1.0 for i, j in pairing):
            count += 1
    return count


def substructure_signature(A) -> np.ndarray:
    """Sorted hafnians of every principal submatrix of even size up to 8.

    The multiset is invariant under vertex relabelling, so it fingerprints
    the graph up to isomorphism (not injectively, but cheaply).
    """
    A = _as_symmetric(A)
    n = A.shape[0]
    if n > MAX_MATCHING_SIZE:
        raise ValueError(f"signature limited to {MAX_MATCHING_SIZE} vertices, got {n}")
    values = [np.zeros(0)]
    for size in range(2, min(n, SIGNATURE_MAX_BLOCK) + 1, 2):
        ix = np.fromiter(combinations(range(n), size), dtype=(int, size))
        values.append(_hafnians(A[ix[:, :, None], ix[:, None, :]]))
    return np.sort(np.concatenate(values))


def adjacency_from_edges(edges, n: int | None = None) -> np.ndarray:
    """Symmetric adjacency matrix from ``(i, j)`` or ``(i, j, weight)`` tuples
    with 1-based vertex labels."""
    edges = [tuple(e) for e in edges]
    if n is None:
        if not edges:
            raise ValueError("cannot infer the vertex count from an empty edge list")
        n = max(max(e[0], e[1]) for e in edges)
    A = np.zeros((int(n), int(n)))
    for e in edges:
        if len(e) == 2:
            i, j = e
            w = 1.0
        elif len(e) == 3:
            i, j, w = e
        else:
            raise ValueError(f"edge {e!r} must be (i, j) or (i, j, weight)")
        i, j = int(i), int(j)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i}, {j}) outside 1..{n}")
        if i == j:
            raise ValueError(f"self-loop on vertex {i} is not allowed")
        if not np.isfinite(float(w)):
            raise ValueError(f"edge ({i}, {j}) has non-finite weight {w}")
        A[i - 1, j - 1] = A[j - 1, i - 1] = float(w)
    return A


def _read_edges(path) -> list[tuple]:
    """The ``(i, j)`` and ``(i, j, weight)`` tuples of an edge-list file."""
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 'i j [weight]', got {raw!r}")
            try:
                edges.append((int(parts[0]), int(parts[1]), *map(float, parts[2:])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return edges


def read_edge_list(path, n: int | None = None) -> np.ndarray:
    """Parse an edge-list file: one ``i j [weight]`` per line, 1-indexed.

    Blank lines and lines starting with ``#`` are skipped.
    """
    return adjacency_from_edges(_read_edges(path), n=n)
