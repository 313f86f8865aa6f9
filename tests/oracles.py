"""Dense references that the tests compare the library's run paths against.

Each computes what a run path computes, the slow and obvious way, at small
sizes: ``qpe_circuit`` for ``run_qpe``, ``sbm_projector`` for
``map_hamiltonian``, ``parity_split`` for the parity blocks that
``excitation_sweep`` and ``metapotential_dos`` build from the bands,
``labelled_levels`` for the levels of ``excitation_sweep`` and
``dos_reference`` for ``metapotential_dos`` (at 400 rows they stand for the
untruncated operator that both certify against), ``perfect_matching_count``
for ``hafnian`` on 0/1 graphs, ``franck_condon_factor`` for ``fcf_table``,
and ``lifted_gate`` for ``gate_matrix`` of a single-mode gate.
"""

import math
from functools import reduce

import numpy as np

from qumodelab import (
    ContractViolation,
    FockIndex,
    GateSpec,
    KerrCatParams,
    Operator,
    QpeSpec,
    QumodeRegister,
    Spectrum,
    flat_index,
    kerrcat_hamiltonian,
)
from qumodelab.fock import _single_mode_annihilation
from qumodelab.gates import _single_mode_unitary
from qumodelab.graphs import MAX_MATCHING_SIZE, _as_symmetric
from qumodelab.kerrcat import _bands, _merged_levels, _roundoff
from qumodelab.sbm import _check_mapping_args

PARITY_TOL = 1e-9


def qudit_fourier(d: int) -> Operator:
    """Fourier matrix F_jk = exp(2 pi i j k / d) / sqrt(d); the d=2 case is
    the Hadamard gate."""
    if d < 2:
        raise ValueError("Fourier transform needs dimension at least 2")
    j = np.arange(d)
    F = np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)
    return Operator(F, QumodeRegister((d,)))


def _controlled(W: np.ndarray, n: int) -> np.ndarray:
    """Block ladder ``sum_c |c><c| (x) W^c`` over ``n`` control values."""
    m = W.shape[0]
    out = np.zeros((n * m, n * m), dtype=complex)
    block = np.eye(m, dtype=complex)
    for c in range(n):
        out[c * m : (c + 1) * m, c * m : (c + 1) * m] = block
        block = block @ W
    return out


def qpe_circuit(spec: QpeSpec) -> Operator:
    """Full circuit unitary on the ``t + 1`` qudit register + target space.

    The controlled powers form one ladder over the register readout, read as
    a base-d integer with qudit 1 most significant (the flat-index convention).
    """
    d, t = spec.d, spec.t
    prepare = np.kron(reduce(np.kron, [qudit_fourier(d).entries] * t), np.eye(d))
    readout = np.kron(qudit_fourier(d**t).entries.conj().T, np.eye(d))
    circuit = readout @ _controlled(spec.U.entries, d**t) @ prepare
    return Operator(circuit, QumodeRegister((d,) * (t + 1)))


def sbm_projector(n: int, m: int, k: int, cutoff: int) -> Operator:
    """Ladder-operator polynomial acting as ``|n><m|`` on levels 0..k-1,
    a float64 operator."""
    if not (0 <= n <= k - 1 and 0 <= m <= k - 1):
        raise ValueError(f"projector labels ({n}, {m}) outside 0..{k - 1}")
    _check_mapping_args(k, cutoff)
    reg = QumodeRegister((cutoff,))
    a = _single_mode_annihilation(cutoff)
    adag = a.T
    gamma = ((k - 1) - np.arange(cutoff, dtype=float))[:, None] * a
    poly = (
        np.linalg.matrix_power(adag, n)
        @ np.linalg.matrix_power(gamma, k - 1)
        @ np.linalg.matrix_power(adag, k - 1 - m)
    )
    scale = math.sqrt(math.factorial(m) / math.factorial(n)) / math.factorial(k - 1) ** 2
    return Operator(scale * poly, reg)


def parity_split(H: Operator) -> tuple[Operator, Operator]:
    """Blocks of a parity-conserving Hamiltonian on even/odd Fock levels."""
    reg = H.register
    occ_sum = np.indices(reg.cutoffs).sum(axis=0).ravel()
    even = np.flatnonzero(occ_sum % 2 == 0)
    odd = np.flatnonzero(occ_sum % 2 == 1)
    # (HP - PH)[i, j] = (p_j - p_i) H[i, j]: twice the largest opposite-parity entry.
    cross = (H.entries[np.ix_(even, odd)], H.entries[np.ix_(odd, even)])
    defect = 2.0 * max(np.abs(block).max(initial=0.0) for block in cross)
    if defect > PARITY_TOL:
        raise ContractViolation(
            f"Hamiltonian does not commute with parity: defect {defect:.3e}"
        )
    even_block = H.entries[np.ix_(even, even)]
    odd_block = H.entries[np.ix_(odd, odd)]
    return (
        Operator(even_block, QumodeRegister((len(even),))),
        Operator(odd_block, QumodeRegister((len(odd),))),
    )


def labelled_levels(K: float, xi: float, cutoff: int, n_levels: int):
    """The lowest ``n_levels`` energies of both whole parity blocks at ``cutoff``,
    merged, with labels."""
    even, odd = _parity_levels(KerrCatParams(xi=xi, K=K, cutoff=cutoff))
    (roundoff,) = _roundoff(*_bands(K, [xi], cutoff))
    return _merged_levels(even, odd, roundoff, n_levels)


def dos_reference(K: float, xi: float, bins: int, span: float, cutoff: int = 400) -> Spectrum:
    """The DOS of ``metapotential_dos``, histogrammed from both whole parity
    blocks at ``cutoff``."""
    evals = np.sort(np.concatenate(_parity_levels(KerrCatParams(xi=xi, K=K, cutoff=cutoff))))
    counts, edges = np.histogram(evals - evals[0], bins=bins, range=(0.0, span * K * xi**2))
    return Spectrum(0.5 * (edges[:-1] + edges[1:]), counts / counts.sum())


def _parity_levels(p: KerrCatParams) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the even and odd blocks of ``kerrcat_hamiltonian(p)``."""
    return tuple(np.linalg.eigvalsh(block.entries) for block in parity_split(kerrcat_hamiltonian(p)))


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


def franck_condon_factor(U: Operator, initial: FockIndex, final: FockIndex) -> float:
    """``|<initial| U |final>|^2`` for two-mode occupation labels."""
    row, col = flat_index(initial, U.register), flat_index(final, U.register)
    return float(abs(U.entries[row, col]) ** 2)


def lifted_gate(gate: GateSpec, reg: QumodeRegister) -> np.ndarray:
    """A single-mode gate on the register: the Kronecker product of its
    ``d_j x d_j`` unitary with identities on the other modes."""
    (mode,) = gate.modes
    j = reg.check_mode(mode)
    U = _single_mode_unitary(gate.kind, gate.params[0], reg.cutoffs[j])
    return reduce(np.kron, [U if k == j else np.eye(d) for k, d in enumerate(reg.cutoffs)])
