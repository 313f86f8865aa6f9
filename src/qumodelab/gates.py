"""Gaussian gate matrices on the truncated Fock basis.

The four standard single- and two-mode Gaussian unitaries:

    displacement   D_j(alpha) = exp(alpha adag_j - conj(alpha) a_j)
    rotation       R_j(phi)   = exp(i phi n_j)
    squeezing      S_j(z)     = exp[ (conj(z) a_j^2 - z adag_j^2) / 2 ]
    beamsplitter   BS_jk(theta, phi)
                 = exp[ theta (e^{i phi} adag_j a_k - e^{-i phi} a_j adag_k) ]

Each generator is anti-Hermitian even after truncation (the truncated ladder
operators stay exact adjoints of each other), so exponentiating it by
spectral decomposition yields an exactly unitary matrix on the retained
space. Truncation error instead shows up as matrix *entries* that deviate
from their infinite-cutoff values near the top levels; the interior of the
matrix converges rapidly with the cutoff.

Because the edge effect is invisible to unitarity checks, circuit
applications come with a leak monitor: :func:`apply_circuit` warns when the
output state puts more than ``warn_threshold`` probability in the top two
levels of any mode, which is the signal to raise the cutoff.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import (
    Operator,
    QumodeRegister,
    StateVector,
    _lift,
    _single_mode_annihilation,
)

__all__ = [
    "GateSpec",
    "displacement",
    "rotation",
    "squeezing",
    "beamsplitter",
    "gate_matrix",
    "beamsplitter_action",
    "compose_circuit",
    "apply_circuit",
    "top_level_population",
    "LEAK_WARN_THRESHOLD",
]

# Probability in the top two levels of a mode above which a circuit
# application emits a truncation warning.
LEAK_WARN_THRESHOLD = 1e-6

_SINGLE_MODE_KINDS = ("displacement", "rotation", "squeezing")


@dataclass(frozen=True)
class GateSpec:
    """One Gaussian gate: a kind, the 1-based modes it acts on, parameters.

    Use the :func:`displacement`, :func:`rotation`, :func:`squeezing` and
    :func:`beamsplitter` constructors rather than building instances by hand.
    Every parameter must be finite; rotation and beamsplitter parameters must
    also be real.
    """

    kind: str
    modes: tuple[int, ...]
    params: tuple[complex, ...]

    def __post_init__(self) -> None:
        if self.kind in _SINGLE_MODE_KINDS:
            if len(self.modes) != 1:
                raise ValueError(f"{self.kind} acts on exactly one mode")
        elif self.kind == "beamsplitter":
            if len(self.modes) != 2:
                raise ValueError("beamsplitter acts on exactly two modes")
            if self.modes[0] == self.modes[1]:
                raise ValueError("beamsplitter modes must be distinct")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        for p in self.params:
            if not (math.isfinite(p.real) and math.isfinite(p.imag)):
                raise ValueError(f"non-finite gate parameter {p!r}")
            if p.imag != 0.0 and self.kind in ("rotation", "beamsplitter"):
                raise ValueError(f"{self.kind} parameters must be real, got {p!r}")


def displacement(mode: int, alpha: complex) -> GateSpec:
    return GateSpec("displacement", (mode,), (complex(alpha),))


def rotation(mode: int, phi: float) -> GateSpec:
    return GateSpec("rotation", (mode,), (complex(phi),))


def squeezing(mode: int, z: complex) -> GateSpec:
    return GateSpec("squeezing", (mode,), (complex(z),))


def beamsplitter(mode_j: int, mode_k: int, theta: float, phi: float) -> GateSpec:
    return GateSpec("beamsplitter", (mode_j, mode_k), (complex(theta), complex(phi)))


def _expm_antihermitian(G: np.ndarray) -> np.ndarray:
    """exp(G) for anti-Hermitian G via the spectral decomposition of iG."""
    H = 1j * G
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w)) @ V.conj().T


def _single_mode_unitary(kind: str, param: complex, d: int) -> np.ndarray:
    a = _single_mode_annihilation(d)
    adag = a.T
    if kind == "displacement":
        G = param * adag - np.conjugate(param) * a
    elif kind == "rotation":
        # Diagonal in the Fock basis: write the phases down directly.
        phi = param.real
        return np.diag(np.exp(1j * phi * np.arange(d)))
    elif kind == "squeezing":
        G = 0.5 * (np.conjugate(param) * (a @ a) - param * (adag @ adag))
    else:  # pragma: no cover
        raise ValueError(kind)
    return _expm_antihermitian(G)


def gate_matrix(gate: GateSpec, reg: QumodeRegister) -> Operator:
    """Unitary matrix of a gate on the full register basis."""
    return compose_circuit([gate], reg)


def beamsplitter_action(
    theta: float, phi: float, reg: QumodeRegister, modes: tuple[int, int]
) -> Operator:
    """Two-mode beamsplitter unitary; conserves the total photon number of
    the two modes it couples."""
    mode_j, mode_k = modes
    if mode_j == mode_k:
        raise ValueError("beamsplitter modes must be distinct")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("non-finite beamsplitter parameter")
    aj = _single_mode_annihilation(reg.cutoffs[reg.check_mode(mode_j)])
    ak = _single_mode_annihilation(reg.cutoffs[reg.check_mode(mode_k)])
    # e^{-i phi} a_j adag_k is the adjoint of e^{i phi} adag_j a_k.
    hop = _lift(reg, {mode_j: cmath.exp(1j * phi) * aj.T, mode_k: ak})
    return Operator(_expm_antihermitian(theta * (hop - hop.conj().T)), reg)


def _apply(gate: GateSpec, reg: QumodeRegister, T: np.ndarray) -> np.ndarray:
    """The gate applied to ``T``, a C-contiguous (reg.dim, batch) array; a
    single-mode gate on mode j multiplies axis 1 of the (prod(cutoffs[:j]),
    d_j, rest) view of ``T``, at D^2 d_j flops rather than D^3."""
    if gate.kind == "beamsplitter":
        theta, phi = gate.params
        return beamsplitter_action(theta.real, phi.real, reg, gate.modes).entries @ T
    j = reg.check_mode(gate.modes[0])
    U = _single_mode_unitary(gate.kind, gate.params[0], reg.cutoffs[j])
    return (U @ T.reshape(math.prod(reg.cutoffs[:j]), reg.cutoffs[j], -1)).reshape(T.shape)


def compose_circuit(gates: list[GateSpec], reg: QumodeRegister) -> Operator:
    """Product of gate matrices, applied left to right in time: the first
    gate in the list is the rightmost factor of the matrix product; no gates
    give the identity."""
    U = np.eye(reg.dim, dtype=complex)
    for gate in gates:
        U = _apply(gate, reg, U)
    return Operator(U, reg)


def top_level_population(psi: StateVector) -> np.ndarray:
    """Per-mode probability found in the top two Fock levels."""
    modes = range(1, psi.register.nmodes + 1)
    return np.array([psi.mode_populations(mode)[-2:].sum() for mode in modes])


def apply_circuit(
    gates: list[GateSpec],
    reg: QumodeRegister,
    psi: StateVector,
    warn_threshold: float = LEAK_WARN_THRESHOLD,
) -> tuple[StateVector, np.ndarray]:
    """Apply a gate sequence to a state and report the truncation leak.

    Returns the output state together with the per-mode probability in the
    top two levels. A warning is emitted when any mode exceeds
    ``warn_threshold``; it is then up to the caller to raise the cutoff.
    """
    out = compose_circuit(gates, reg).apply(psi)
    leak = top_level_population(out)
    if np.any(leak > warn_threshold):
        worst = int(np.argmax(leak)) + 1
        warnings.warn(
            f"top-two-level population {leak[worst - 1]:.2e} on mode {worst} "
            f"exceeds {warn_threshold:.0e}; consider raising the cutoff",
            RuntimeWarning,
            stacklevel=2,
        )
    return out, leak
