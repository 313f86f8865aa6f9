"""Hafnians and perfect matchings of molecular graphs.

The hafnian of a symmetric matrix sums, over all ways of partitioning the
index set into pairs, the product of the paired entries. On a 0/1 adjacency
matrix it counts the perfect matchings of the graph, which is what a Gaussian
boson sampler estimates photonically. For n = 2m it is computed by the
power-trace formula ``haf(A) = sum_S (-1)^(m-|S|) [x^m] exp(sum_j tr((XA)_S^j)
x^j / 2j)`` over the pair subsets ``S`` of ``{1..m}`` (Björklund, Gupt & Quesada,
arXiv:1805.12498). ``X`` swaps the two halves of the index set. Each subset is
evaluated on its own ``2|S|×2|S|`` block, the rows and columns of ``S`` and
``S + m``, since the others would only add zeros; the subsets are batched in
numpy in order of size. Its oracle on 0/1 graphs, the matching count by
exhaustive enumeration, is ``perfect_matching_count`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .fock import _integer

__all__ = ["hafnian", "substructure_signature", "adjacency_from_edges"]

MAX_HAFNIAN_SIZE = 20
MAX_MATCHING_SIZE = 16
SIGNATURE_MAX_BLOCK = 8
# Entries per hafnian work array (64 KiB); 128 KiB ones held 1 MiB more resident memory.
_CHUNK_FLOATS = 2**13


def _as_symmetric(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("adjacency matrix has a non-finite entry")
    if A.size and np.abs(A - A.T).max() != 0.0:
        raise ValueError("matrix must be exactly symmetric")
    return A


def _subsets_by_size(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair subsets of ``{0..m-1}`` in order of size: each one's size, and
    its block indices ``p0, p0 + m, p1, p1 + m, ...`` over its pairs ``p0 <
    p1 < ...``. A prefix of a row is the subset padded to a larger size."""
    bits = (np.arange(1 << m, dtype=np.int32)[:, None] >> np.arange(m, dtype=np.int32)) & 1
    size = bits.sum(axis=1)
    order = np.argsort(size, kind="stable")
    pairs = np.argsort(1 - bits[order], axis=1, kind="stable").astype(np.int32)
    block = np.repeat(pairs, 2, axis=1)
    block[:, 1::2] += m
    return size[order], block


def _hafnians(As: np.ndarray) -> np.ndarray:
    """Hafnians of a stack of symmetric n×n matrices, n even, by the power-trace
    formula. Each (matrix, subset) pair is evaluated on its own 2|S|×2|S| block
    ``(XA)[S ∪ (S+m), S ∪ (S+m)]``. The subsets are walked in order of size, in
    chunks of bounded size that pad their smaller subsets to their largest; the
    chunks do not depend on the stack, so neither does any matrix's result."""
    count, n, _ = As.shape
    m = n // 2
    size, block = _subsets_by_size(m)
    flat = As.reshape(-1)
    out = np.zeros(count)
    start = 0
    while start < len(size):
        # As many subsets as the budget holds, padded to the last one taken.
        padded = np.arange(1, len(size) - start + 1) * np.maximum(4 * size[start:] ** 2, 1)
        stop = start + max(1, int(np.searchsorted(padded, _CHUNK_FLOATS, side="right")))
        k = size[start:stop]
        cols = block[start:stop, : 2 * k[-1]]
        rows = (cols + m) % n  # X exchanges the two halves of the index set
        entry = (rows * n)[:, :, None] + cols[:, None, :]
        # Zeroed padding rows keep every power block-triangular, with the
        # powers of the true block on its diagonal.
        keep = (np.arange(cols.shape[1]) < 2 * k[:, None])[:, :, None]
        sign = 1 - 2 * ((m - k) & 1)  # (-1)^(m - |S|)
        group = max(1, _CHUNK_FLOATS // max(entry.size, 1))  # matrices per chunk
        for low in range(0, count, group):
            mats = np.arange(low, min(low + group, count))
            XA = flat.take((mats * n * n)[:, None, None, None] + entry)
            XA *= keep
            terms = _power_trace_terms(XA.reshape(len(mats) * len(k), *entry.shape[1:]), m)
            out[mats] += (sign * terms.reshape(len(mats), -1)).sum(axis=1)
            del XA  # before the next chunk's is taken
        start = stop
    return out


def _power_trace_terms(XA: np.ndarray, m: int) -> np.ndarray:
    """``[x^m] exp(sum_j tr(XA^j) x^j / 2j)`` for each matrix of the stack ``XA``."""
    traces, power = np.empty((m + 1, len(XA))), XA
    for j in range(1, m + 1):
        traces[j] = power.diagonal(axis1=1, axis2=2).sum(axis=1)
        if j < m:
            power = power @ XA
    # j p_j = sum_i (traces_i / 2) p_(j-i). einsum adds the i terms in the same
    # order for any stack width; .sum(axis=0) does not for a one-matrix stack.
    p = np.ones((m + 1, len(XA)))
    for j in range(1, m + 1):
        p[j] = np.einsum("il,il->l", traces[1 : j + 1], p[j - 1 :: -1]) / (2 * j)
    return p[m]


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
        n = int(max(max(e[0], e[1]) for e in edges))
    n = _integer(n, "n")
    A = np.zeros((n, n))
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

