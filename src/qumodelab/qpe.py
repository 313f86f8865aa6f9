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
over the ``d^t`` vectors ``U^x |eigenstate>`` and an FFT. Its oracle, the full
circuit unitary at small sizes, is ``qpe_circuit`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .fock import Operator, StateVector, _integer

__all__ = [
    "UNITARITY_TOL",
    "QpeSpec",
    "run_qpe",
    "phase_from_outcome",
    "outcome_digits",
    "sample_readout",
]

UNITARITY_TOL = 1e-9
EIGENSTATE_TOL = 1e-8


def _check_unitary(U: np.ndarray) -> None:
    defect = np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()
    if defect > UNITARITY_TOL:
        raise ParamError("U", f"U is not unitary: defect {defect:.3e}")


@dataclass(frozen=True, eq=False)
class QpeSpec:
    """Problem statement: qudit dimension, register size, unitary, eigenstate."""

    d: int
    t: int
    U: Operator
    eigenstate: StateVector

    def __post_init__(self) -> None:
        _check_register(self.d, self.t)
        if self.U.register.cutoffs != (self.d,):
            raise ValueError("U must act on a single qudit of dimension d")
        if self.eigenstate.register.cutoffs != (self.d,):
            raise ValueError("eigenstate must live on a single qudit of dimension d")
        _check_unitary(self.U.entries)
        psi = self.eigenstate.amplitudes
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ValueError("eigenstate must be normalized")
        lam = complex(np.vdot(psi, self.U.entries @ psi))
        residual = np.linalg.norm(self.U.entries @ psi - lam * psi)
        if residual > EIGENSTATE_TOL:
            raise ParamError(
                "eigenstate", f"state is not an eigenstate of U: residual {residual:.3e}"
            )

    @property
    def phase(self) -> float:
        """Eigenphase phi in [0, 1): U|psi> = exp(2 pi i phi)|psi>."""
        psi = self.eigenstate.amplitudes
        lam = complex(np.vdot(psi, self.U.entries @ psi))
        return (cmath.phase(lam) / (2.0 * math.pi)) % 1.0


def _check_register(d: int, t: int) -> None:
    if _integer(d, "d") < 2:
        raise ParamError("d", "qudit dimension must be at least 2")
    if _integer(t, "t") < 1:
        raise ParamError("t", "register needs at least one qudit")


def run_qpe(spec: QpeSpec) -> np.ndarray:
    """Exact outcome distribution over the ``d^t`` register readouts."""
    n = spec.d**spec.t
    kicked = np.empty((n, spec.d), dtype=complex)  # row x: U^x |eigenstate>
    kicked[0] = spec.eigenstate.amplitudes
    for x in range(1, n):
        kicked[x] = spec.U.entries @ kicked[x - 1]
    final = np.fft.fft(kicked, axis=0) / n  # (register Fourier matrix)^dag @ kicked / sqrt(n)
    return (np.abs(final) ** 2).sum(axis=1)


def _check_outcome(outcome: int, d: int, t: int) -> None:
    if not 0 <= _integer(outcome, "outcome") < d**t:
        raise ValueError(f"outcome {outcome} outside 0..{d**t - 1}")


def outcome_digits(outcome: int, d: int, t: int) -> str:
    """Base-d digit string of a readout, most significant digit first.

    Above d = 10 each digit is written in decimal, zero-padded to the width of
    ``d - 1``, so that every readout has a distinct string of the same length.
    """
    _check_outcome(outcome, d, t)
    width = len(str(d - 1))
    digits = []
    for _ in range(t):
        outcome, r = divmod(outcome, d)
        digits.append(str(r).zfill(width))
    return "".join(reversed(digits))


def phase_from_outcome(outcome: int, d: int, t: int) -> float:
    """Phase estimate encoded by a readout: outcome / d^t."""
    _check_outcome(outcome, d, t)
    return outcome / d**t


def sample_readout(dist: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts over the outcomes; deterministic for a given seed."""
    dist = np.asarray(dist, dtype=float)
    if _integer(shots, "shots") < 1:
        raise ValueError("shots must be at least 1")
    if np.any(dist < -1e-12) or abs(dist.sum() - 1.0) > 1e-9:
        raise ValueError("distribution must be non-negative and sum to 1")
    p = np.clip(dist, 0.0, None)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p / p.sum())
