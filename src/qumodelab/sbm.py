"""Single-bosonic-mode (SBM) embedding of k-level Hamiltonians.

Any k x k matrix ``H = sum_{n,m} H_nm |n><m|`` can be written exactly in the
ladder operators of one qumode by replacing each matrix unit with the
polynomial

    P_nm = sqrt(m!/n!) / ((k-1)!)^2 * adag^n Gamma^(k-1) adag^(k-1-m),
    Gamma = ((k-1) - n) a,

whose restriction to the lowest k Fock levels is exactly ``|n><m|``. The
product above reaches level ``2(k-1)`` in intermediate states, so the
truncated construction needs at least ``2k - 1`` retained levels; anything
smaller corrupts the polynomial.

:func:`map_hamiltonian` does not build the k^2 polynomials. ``Gamma^(k-1)``
is the same in every term, so the sum factors as

    sum_n adag^n Gamma^(k-1) (sum_m H_nm sqrt(m!/n!) adag^(k-1-m)) / ((k-1)!)^2,

one ``Gamma^(k-1)``, one ladder of ``adag`` powers and O(k) matrix
products. Its oracle, ``sbm_projector`` in ``tests/oracles.py``, builds one
``P_nm`` as written.

Outside the lowest k levels the mapped operator is in general non-Hermitian
and carries no meaning for the embedded dynamics, so time evolution here
projects onto the computational levels first. The unprojected matrix stays
available from :func:`map_hamiltonian` for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .fock import (
    Operator,
    QumodeRegister,
    _check_hermitian,
    _integer,
    _propagate,
    _real_or_complex_copy,
    _single_mode_annihilation,
)

__all__ = [
    "WAVENUMBER_TO_RAD_PER_PS",
    "DenseHamiltonian",
    "fmo_hamiltonian",
    "map_hamiltonian",
    "computational_block",
    "sbm_evolve",
]

# Angular frequency per wavenumber: 2 pi c = 0.18836 rad/ps per 1/cm.
WAVENUMBER_TO_RAD_PER_PS = 0.18836

# Four-site excitonic model of the Fenna-Matthews-Olson complex, in 1/cm.
# Diagonal entries are site excitation energies, off-diagonal ones couplings.
_FMO_ENTRIES = np.array(
    [
        [310.0, -97.9, 5.5, -5.8],
        [-97.9, 230.0, 30.1, 7.3],
        [5.5, 30.1, 0.0, -58.8],
        [-5.8, 7.3, -58.8, 180.0],
    ]
)


@dataclass(frozen=True, eq=False)
class DenseHamiltonian:
    """A k x k Hermitian matrix with a units label ("1/cm" or "dimensionless").

    Real entries are stored as float64 (a real symmetric matrix), complex ones
    as complex128, the same rule as :class:`~qumodelab.fock.Operator`.
    """

    entries: np.ndarray
    units: str = "dimensionless"

    def __post_init__(self) -> None:
        m = _real_or_complex_copy(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Hamiltonian must be square, got shape {m.shape}")
        if m.size == 0:
            raise ValueError("Hamiltonian must have at least one level, got shape (0, 0)")
        _check_hermitian(m, 1e-10)
        if self.units not in ("1/cm", "dimensionless"):
            raise ValueError(f"unknown units label {self.units!r}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def k(self) -> int:
        return self.entries.shape[0]


def fmo_hamiltonian() -> DenseHamiltonian:
    """The bundled 4-site FMO model (1/cm)."""
    return DenseHamiltonian(_FMO_ENTRIES, units="1/cm")


def _check_mapping_args(k: int, cutoff: int) -> None:
    if _integer(k, "k") < 1:
        raise ParamError("k", "k must be positive")
    if _integer(cutoff, "cutoff") < 2 * k - 1:
        raise ParamError(
            "cutoff",
            f"cutoff {cutoff} too small: the projector polynomial reaches level "
            f"{2 * (k - 1)}, so at least {2 * k - 1} levels are required",
        )


def map_hamiltonian(H: DenseHamiltonian, cutoff: int) -> Operator:
    """Embed a k x k Hamiltonian into one qumode: ``sum_nm H_nm P_nm``.

    The restriction of the result to levels 0..k-1 reproduces ``H``
    entrywise; the block beyond those levels is a by-product of the
    construction. No unit conversion is applied here.
    """
    k = H.k
    _check_mapping_args(k, cutoff)
    a = _single_mode_annihilation(cutoff)
    adag = a.T
    ladder = [np.eye(cutoff)]  # adag^j for j = 0..k-1
    for _ in range(k - 1):
        ladder.append(adag @ ladder[-1])
    ladder = np.array(ladder)
    gamma = ((k - 1) - np.arange(cutoff, dtype=float))[:, None] * a
    # coeffs[n, m] = H_nm sqrt(m!/n!): the n-th right factor is
    # sum_m coeffs[n, m] adag^(k-1-m).
    fact = [math.factorial(j) for j in range(k)]
    coeffs = H.entries * np.sqrt([[fm / fn for fm in fact] for fn in fact])
    right = np.tensordot(coeffs, ladder[::-1], axes=1)
    terms = ladder @ (np.linalg.matrix_power(gamma, k - 1) @ right)
    return Operator(terms.sum(axis=0) / math.factorial(k - 1) ** 2, QumodeRegister((cutoff,)))


def computational_block(op: Operator, k: int) -> np.ndarray:
    """The upper-left k x k block of a single-mode operator."""
    if op.register.nmodes != 1:
        raise ValueError("restriction is defined for single-mode operators")
    if not 1 <= _integer(k, "block size") <= op.register.cutoffs[0]:
        raise ValueError(f"block size {k} outside 1..{op.register.cutoffs[0]}")
    return np.array(op.entries[:k, :k])


def sbm_evolve(
    H: DenseHamiltonian,
    psi0: np.ndarray,
    times,
    cutoff: int,
) -> np.ndarray:
    """Level populations of the embedded dynamics at the requested times.

    ``psi0`` (length k, normalized) is placed on the lowest k Fock levels and
    propagated under the mapped Hamiltonian projected back onto those levels.
    Hamiltonians labelled 1/cm are converted to rad/ps, with times in ps.
    Returns an array of shape ``(len(times), k)`` whose rows sum to one; a
    non-finite time raises ``ValueError``.
    """
    psi0 = _start_state(psi0, H.k)
    block = computational_block(map_hamiltonian(H, cutoff), H.k)
    return _evolve_block(block, H.units, psi0, times)


def _start_state(psi0, k: int) -> np.ndarray:
    """``psi0`` as k complex amplitudes, refused unless its norm is 1 within 1e-8."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (k,) or abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError(f"initial state must be {k} amplitudes of norm 1")
    return psi0


def _evolve_block(block: np.ndarray, units: str, psi0: np.ndarray, times) -> np.ndarray:
    """Populations of ``psi0`` propagated under a restricted mapped block."""
    if units == "1/cm":
        block = block * WAVENUMBER_TO_RAD_PER_PS
    # The restriction reproduces a Hermitian matrix up to round-off;
    # symmetrize before diagonalizing so the propagation is exactly unitary.
    block = 0.5 * (block + block.conj().T)
    return np.abs(_propagate(block, psi0, times)) ** 2
