"""Two-mode vibronic overlaps: Doktorov operator, Franck-Condon factors,
stick spectra.

The Doktorov operator encodes the relation between the vibrational normal
modes of two electronic surfaces as a fixed Gaussian circuit on two qumodes:
two single-mode squeezers (distortion), one beamsplitter (mode mixing), and
two single-mode displacements (shifted equilibria). The factor ordering used
here, with squeezers acting first,

    U = D_1(alpha_1) D_2(alpha_2) BS(theta, phi) S_1(z_1) S_2(z_2),

is a convention of this library and is documented rather than configurable.

A Franck-Condon factor ``|<initial| U |final>|^2`` is the squared modulus of
one matrix element of that unitary: ``initial`` labels the vibrational state
on the starting surface (the bra, the measured photon-number outcome) and
``final`` the prepared Fock state on the target surface (the ket).
:func:`fcf_table` gives them for one ``initial`` label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .fock import FockIndex, Operator, QumodeRegister, _integer, flat_index
from .gates import GateSpec, beamsplitter, compose_circuit, displacement, squeezing
from .spectrum import Spectrum

__all__ = ["DoktorovSpec", "doktorov_operator", "fcf_table", "stick_spectrum"]


@dataclass(frozen=True)
class DoktorovSpec:
    """Parameters of the six Gaussian gates composing the Doktorov operator."""

    alpha1: complex = 0.0
    alpha2: complex = 0.0
    z1: complex = 0.0
    z2: complex = 0.0
    theta_bs: float = 0.0
    phi_bs: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "z1", "z2", "theta_bs", "phi_bs"):
            kind = float if name.endswith("_bs") else complex
            object.__setattr__(self, name, kind(getattr(self, name)))
        _circuit(self)  # the gate constructors refuse a non-finite parameter


def _circuit(spec: DoktorovSpec) -> list[GateSpec]:
    """The five gates of the Doktorov operator, in time order."""
    return [
        squeezing(1, spec.z1),
        squeezing(2, spec.z2),
        beamsplitter(1, 2, spec.theta_bs, spec.phi_bs),
        displacement(1, spec.alpha1),
        displacement(2, spec.alpha2),
    ]


def doktorov_operator(spec: DoktorovSpec, reg: QumodeRegister) -> Operator:
    """Compose the Doktorov unitary on a two-mode register."""
    if reg.nmodes != 2:
        raise ValueError(f"Doktorov operator needs exactly 2 modes, got {reg.nmodes}")
    return compose_circuit(_circuit(spec), reg)


def fcf_table(U: Operator, initial: FockIndex, maxq: int) -> np.ndarray:
    """All Franck-Condon factors from a fixed initial-surface label.

    Returns a ``(maxq+1, maxq+1)`` array whose ``[n, m]`` entry is the factor
    for the prepared state ``|n, m>`` on the final surface.
    """
    reg = U.register
    if reg.nmodes != 2:
        raise ValueError("FCF tables are defined for two-mode operators")
    _check_maxq(maxq, min(reg.cutoffs))
    row = U.entries[flat_index(initial, reg), :].reshape(reg.cutoffs)
    return np.abs(row[: maxq + 1, : maxq + 1]) ** 2


def _check_maxq(maxq: int, cutoff: int) -> None:
    if not 0 <= _integer(maxq, "maxq") < cutoff:
        raise ParamError("maxq", f"maxq={maxq} must be in 0..{cutoff - 1}, below the mode cutoff")


def stick_spectrum(
    table: np.ndarray, mode_freqs: tuple[float, float], e00: float
) -> Spectrum:
    """Stick spectrum of an FCF table on a harmonic final surface.

    One line per table entry ``(n, m)`` at energy ``e00 + n w1 + m w2``, with
    the factor as its weight; lines come out sorted by increasing energy.
    """
    w1, w2 = _mode_freqs(mode_freqs)
    table = np.asarray(table, dtype=float)
    n_idx, m_idx = np.indices(table.shape)
    energies = e00 + n_idx.ravel() * w1 + m_idx.ravel() * w2
    return Spectrum(energies, table.ravel()).sorted()


def _mode_freqs(mode_freqs) -> tuple[float, float]:
    """The two frequencies as floats, refused unless each is finite and positive."""
    w1, w2 = (float(w) for w in mode_freqs)
    if not (0 < w1 < math.inf and 0 < w2 < math.inf):
        raise ParamError("mode_freqs", f"mode frequencies must be finite and > 0, got {w1}, {w2}")
    return w1, w2
