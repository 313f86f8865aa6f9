"""Truncated multi-mode Fock basis and elementary bosonic operators.

A register of N qumodes keeps ``d_j`` Fock levels for mode ``j`` (levels
``0 .. d_j - 1``). Multi-mode states live on the flattened tensor-product
basis with mode 1 as the most significant digit, so the flat index of
``|n_1, n_2, ..., n_N>`` is ``sum_j n_j * prod_{k>j} d_k``. Everything is
dense and works in units with hbar = 1. Operators are dense real or complex
matrices: real input is stored as float64 and complex input as complex128,
so a real symmetric Hamiltonian reaches the real eigensolver.

The other modules build on the primitives kept here: the single-mode ladder
matrix ``a``, which is real (so ``adag = a.T``), the Kronecker lift of
per-mode factors to a register, the spectral propagator and the Hermiticity
check.

Truncation convention: the creation operator drops the amplitude that would
raise the top level ``d - 1`` out of the retained space. This keeps
``adag @ a`` exactly equal to the number operator at any cutoff, at the price
of a non-unitary edge that callers should monitor (see
:func:`qumodelab.gates.top_level_population`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParamError

__all__ = [
    "FockIndex",
    "QumodeRegister",
    "StateVector",
    "Operator",
    "flat_index",
    "basis_state",
    "identity",
    "annihilation",
    "creation",
    "number",
    "quadratures",
    "commutator",
]

# Occupation tuples double as Fock indices throughout the library.
FockIndex = tuple[int, ...]


def _integer(value, name: str) -> int:
    """``value`` as an int; a :class:`ParamError` naming ``name`` unless it is
    a Python or numpy integer (a bool or a float is refused)."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParamError(name, f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class QumodeRegister:
    """Ordered list of per-mode Fock cutoffs. Modes are numbered from 1."""

    cutoffs: tuple[int, ...]

    def __post_init__(self) -> None:
        cutoffs = tuple(_integer(d, "cutoff") for d in self.cutoffs)
        if len(cutoffs) == 0:
            raise ValueError("register needs at least one mode")
        if any(d < 1 for d in cutoffs):
            raise ValueError(f"every cutoff must be >= 1, got {cutoffs}")
        dim = math.prod(cutoffs)
        if dim > np.iinfo(np.intp).max:
            raise ValueError(f"total dimension {dim} overflows the index type")
        object.__setattr__(self, "cutoffs", cutoffs)

    @property
    def nmodes(self) -> int:
        return len(self.cutoffs)

    @property
    def dim(self) -> int:
        return math.prod(self.cutoffs)

    def check_mode(self, mode: int) -> int:
        """Validate a 1-based mode index and return it zero-based."""
        if not 1 <= mode <= self.nmodes:
            raise ValueError(f"mode {mode} out of range 1..{self.nmodes}")
        return mode - 1


def flat_index(occupations: FockIndex, reg: QumodeRegister) -> int:
    """Flat basis index of ``|n_1, ..., n_N>``; mode 1 is most significant."""
    occs = tuple(_integer(n, "occupation") for n in occupations)
    if len(occs) != reg.nmodes:
        raise ParamError(
            "occupations",
            f"occupation tuple has {len(occs)} entries for {reg.nmodes} modes"
        )
    idx = 0
    for n, d in zip(occs, reg.cutoffs):
        if not 0 <= n < d:
            raise ParamError("occupations", f"occupation {n} out of range for cutoff {d}")
        idx = idx * d + n
    return idx


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector on the flattened register basis."""

    amplitudes: np.ndarray
    register: QumodeRegister

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.register.dim,):
            raise ValueError(
                f"amplitude vector of shape {amp.shape} does not match "
                f"register dimension {self.register.dim}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        n = self.norm
        if n < 1e-300:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.amplitudes / n, self.register)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def mode_populations(self, mode: int) -> np.ndarray:
        """Marginal probability of each Fock level of one mode."""
        j = self.register.check_mode(mode)
        probs = self.probabilities().reshape(self.register.cutoffs)
        axes = tuple(k for k in range(self.register.nmodes) if k != j)
        return probs.sum(axis=axes)


def basis_state(reg: QumodeRegister, occupations: FockIndex) -> StateVector:
    """The Fock basis state ``|n_1, ..., n_N>``."""
    amp = np.zeros(reg.dim, dtype=complex)
    amp[flat_index(occupations, reg)] = 1.0
    return StateVector(amp, reg)


def _real_or_complex_copy(entries) -> np.ndarray:
    """A copy of ``entries`` as float64 when real (integer and bool too),
    as complex128 when complex."""
    m = np.asarray(entries)
    return np.array(m, dtype=np.result_type(m, float))


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense real or complex square matrix on the flattened register basis.

    Real (including integer and bool) entries are stored as float64,
    complex ones as complex128.
    """

    entries: np.ndarray
    register: QumodeRegister

    def __post_init__(self) -> None:
        m = _real_or_complex_copy(self.entries)
        if m.shape != (self.register.dim, self.register.dim):
            raise ValueError(
                f"matrix of shape {m.shape} does not match register "
                f"dimension {self.register.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.register.dim

    @property
    def adjoint(self) -> "Operator":
        return Operator(self.entries.conj().T, self.register)

    def apply(self, psi: StateVector) -> StateVector:
        self._check_register(psi.register)
        return StateVector(self.entries @ psi.amplitudes, self.register)

    def _check_register(self, other: QumodeRegister) -> None:
        if other != self.register:
            raise ValueError("register mismatch")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_register(other.register)
        return Operator(self.entries @ other.entries, self.register)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_register(other.register)
        return Operator(self.entries + other.entries, self.register)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_register(other.register)
        return Operator(self.entries - other.entries, self.register)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.entries * scalar, self.register)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.entries, self.register)


def identity(reg: QumodeRegister) -> Operator:
    return Operator(np.eye(reg.dim, dtype=complex), reg)


def _single_mode_annihilation(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)


def _lift(reg: QumodeRegister, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product of ``factors[mode]`` over the register; identity elsewhere."""
    full = np.eye(1)
    for mode, d in enumerate(reg.cutoffs, start=1):
        full = np.kron(full, factors.get(mode, np.eye(d)))
    return full


def annihilation(reg: QumodeRegister, mode: int) -> Operator:
    """Lowering operator ``a`` on the selected mode: <n-1|a|n> = sqrt(n)."""
    a = _single_mode_annihilation(reg.cutoffs[reg.check_mode(mode)])
    return Operator(_lift(reg, {mode: a.astype(complex)}), reg)


def creation(reg: QumodeRegister, mode: int) -> Operator:
    """Raising operator ``adag``: <n+1|adag|n> = sqrt(n+1), truncated so the
    top level has nowhere to go."""
    return annihilation(reg, mode).adjoint


def number(reg: QumodeRegister, mode: int) -> Operator:
    """Number operator, constructed as the matrix product ``adag @ a`` so the
    identity n = adag a holds exactly at any cutoff."""
    return creation(reg, mode) @ annihilation(reg, mode)


def quadratures(reg: QumodeRegister, mode: int) -> tuple[Operator, Operator]:
    """Position and momentum operators (hbar = 1):
    x = sqrt(1/2) (adag + a),  p = i sqrt(1/2) (adag - a)."""
    a = annihilation(reg, mode)
    adag = a.adjoint
    x = math.sqrt(0.5) * (adag + a)
    p = 1j * math.sqrt(0.5) * (adag - a)
    return x, p


def commutator(A: Operator, B: Operator) -> Operator:
    """AB - BA."""
    return A @ B - B @ A


def _check_hermitian(m: np.ndarray, tol: float) -> None:
    """Refuse a Hamiltonian matrix with ``max |H - Hdag| > tol``."""
    defect = float(np.abs(m - m.conj().T).max())
    if defect > tol:
        raise ParamError("entries", f"Hamiltonian is not Hermitian: max |H - Hdag| = {defect:.3e}")


def _propagate(H: np.ndarray, psi: np.ndarray, times) -> np.ndarray:
    """``exp(-i H t) psi``, one row per ``t`` in ``times``, from one ``eigh`` of ``H``."""
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"time must be finite, got {times[~np.isfinite(times)][0]}")
    w, V = np.linalg.eigh(H)
    coeffs = V.conj().T @ psi
    phases = np.exp(-1j * np.outer(times, w))
    return (V @ (phases * coeffs).T).T
