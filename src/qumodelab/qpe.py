"""Qudit quantum phase estimation on truncated qumodes.

Qudits are the lowest ``d`` levels of qumodes with cutoff exactly ``d``; the
circuit is simulated at the logical level. A register of ``t`` qudits is
Fourier-prepared, each register qudit controls a power ``U^(c d^j)`` of the
target unitary (the first register qudit carries the most significant digit,
controlling ``U^(d^(t-1))``), and an inverse Fourier transform over the whole
register maps the accumulated phase onto the computational basis. For an
eigenphase ``phi = a / d^t`` the readout is exactly the base-d digits of
``a``; otherwise the distribution concentrates on the nearest t-digit
approximations.

The controlled powers multiply to ``sum_x |x><x| (x) U^x`` over the register
readout ``x``, so :func:`run_qpe` computes the readout as one statevector pass
over the ``d^t`` vectors ``U^x |eigenstate>`` and an FFT; :func:`qpe_circuit`,
the full circuit unitary, is its small-size oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ContractViolation
from .fock import Operator, QumodeRegister, StateVector

__all__ = [
    "UNITARITY_TOL",
    "QpeSpec",
    "qudit_fourier",
    "controlled_power",
    "qpe_circuit",
    "run_qpe",
    "phase_from_outcome",
    "outcome_digits",
    "sample_readout",
]

UNITARITY_TOL = 1e-9
EIGENSTATE_TOL = 1e-8


def _check_unitary(U: np.ndarray, what: str = "matrix") -> None:
    defect = np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()
    if defect > UNITARITY_TOL:
        raise ContractViolation(f"{what} is not unitary: defect {defect:.3e}")


@dataclass(frozen=True, eq=False)
class QpeSpec:
    """Problem statement: qudit dimension, register size, unitary, eigenstate."""

    d: int
    t: int
    U: Operator
    eigenstate: StateVector

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("qudit dimension must be at least 2")
        if self.t < 1:
            raise ValueError("register needs at least one qudit")
        if self.U.register.cutoffs != (self.d,):
            raise ValueError("U must act on a single qudit of dimension d")
        if self.eigenstate.register.cutoffs != (self.d,):
            raise ValueError("eigenstate must live on a single qudit of dimension d")
        _check_unitary(self.U.entries, "U")
        psi = self.eigenstate.amplitudes
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ValueError("eigenstate must be normalized")
        lam = complex(np.vdot(psi, self.U.entries @ psi))
        residual = np.linalg.norm(self.U.entries @ psi - lam * psi)
        if residual > EIGENSTATE_TOL:
            raise ContractViolation(
                f"state is not an eigenstate of U: residual {residual:.3e}"
            )

    @property
    def phase(self) -> float:
        """Eigenphase phi in [0, 1): U|psi> = exp(2 pi i phi)|psi>."""
        psi = self.eigenstate.amplitudes
        lam = complex(np.vdot(psi, self.U.entries @ psi))
        return (cmath.phase(lam) / (2.0 * math.pi)) % 1.0


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


def controlled_power(U: Operator, j: int, d: int) -> Operator:
    """Two-qudit gate ``sum_c |c><c| (x) U^(c d^j)`` on control (x) target."""
    if j < 0:
        raise ValueError("power index must be non-negative")
    if U.register.cutoffs != (d,):
        raise ValueError("U must act on a single qudit of dimension d")
    _check_unitary(U.entries, "U")
    W = np.linalg.matrix_power(U.entries, d**j)
    return Operator(_controlled(W, d), QumodeRegister((d, d)))


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


def run_qpe(spec: QpeSpec) -> np.ndarray:
    """Exact outcome distribution over the ``d^t`` register readouts."""
    n = spec.d**spec.t
    kicked = np.empty((n, spec.d), dtype=complex)  # row x: U^x |eigenstate>
    kicked[0] = spec.eigenstate.amplitudes
    for x in range(1, n):
        kicked[x] = spec.U.entries @ kicked[x - 1]
    final = np.fft.fft(kicked, axis=0) / n  # qudit_fourier(n)^dag @ kicked / sqrt(n)
    return (np.abs(final) ** 2).sum(axis=1)


def outcome_digits(outcome: int, d: int, t: int) -> str:
    """Base-d digit string of a readout, most significant digit first."""
    digits = []
    for _ in range(t):
        outcome, r = divmod(outcome, d)
        digits.append(str(r))
    return "".join(reversed(digits))


def phase_from_outcome(outcome: int, d: int, t: int) -> float:
    """Phase estimate encoded by a readout: outcome / d^t."""
    return outcome / d**t


def sample_readout(dist: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts over the outcomes; deterministic for a given seed."""
    dist = np.asarray(dist, dtype=float)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if np.any(dist < -1e-12) or abs(dist.sum() - 1.0) > 1e-9:
        raise ValueError("distribution must be non-negative and sum to 1")
    p = np.clip(dist, 0.0, None)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p / p.sum())
