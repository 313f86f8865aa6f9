"""Spectral structure of the driven Kerr oscillator and chemical double wells.

The squeeze-driven Kerr oscillator

    H / K = n (n - 1) - xi (adag^2 + a^2)

has a double-well metapotential whose depth grows with the control parameter
``xi``. Its spectrum splits into even and odd photon-number parity sectors;
below the barrier, adjacent even/odd levels cluster into quasi-degenerate
pairs ("spectral kissing"), and the density of states piles up at the barrier
energy, the excited-state quantum phase transition (ESQPT). The lowest pair
is special: the coherent states ``|+-sqrt(xi)>`` are exact degenerate
eigenstates with energy ``-K xi^2``, so its splitting is zero at every drive
and the first resolvable kissing pair is the next one up.

The same single-mode machinery diagonalizes a chemical double-well Hamiltonian

    H = p^2 / (2 m) + k4 x^4 - k2 x^2 + k1 x,

where the kinetic term completes the printed potential into an operator with
a vibrational spectrum. Symmetric deep wells show the textbook tunneling
doublet; a linear tilt ``k1`` biases the ground state into one well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ConvergenceError
from .fock import Operator, QumodeRegister, _single_mode_annihilation
from .spectrum import Spectrum

__all__ = [
    "KerrCatParams",
    "DoubleWellParams",
    "SpectrumSweep",
    "kerrcat_hamiltonian",
    "parity_split",
    "excitation_sweep",
    "pair_gaps",
    "density_of_states",
    "metapotential_dos",
    "esqpt_energy",
    "doublewell_hamiltonian",
]

PARITY_TOL = 1e-9
SWEEP_CONVERGENCE_TOL = 1e-8


@dataclass(frozen=True)
class KerrCatParams:
    """Kerr scale K, drive parameter xi >= 0, and Fock cutoff."""

    xi: float
    K: float = 1.0
    cutoff: int = 80

    def __post_init__(self) -> None:
        if not math.isfinite(self.xi) or self.xi < 0:
            raise ValueError(f"xi must be finite and non-negative, got {self.xi}")
        if not math.isfinite(self.K):
            raise ValueError("K must be finite")
        if self.cutoff < 4:
            raise ValueError("cutoff must be at least 4")


@dataclass(frozen=True)
class DoubleWellParams:
    """Coefficients of k4 x^4 - k2 x^2 + k1 x plus mass and cutoff."""

    k4: float
    k2: float
    k1: float = 0.0
    mass: float = 1.0
    cutoff: int = 60

    def __post_init__(self) -> None:
        if self.k4 < 0 or (self.k4 == 0 and self.k2 > 0):
            raise ValueError(
                "potential must be bounded below: need k4 > 0, or k4 = 0 with k2 <= 0"
            )
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")


@dataclass(frozen=True, eq=False)
class SpectrumSweep:
    """Excitation energies and parity labels over a grid of drive values.

    ``excitations[i, l]`` is the l-th excitation energy E' = E - E0 at
    ``xi[i]`` (sorted ascending, first entry zero); ``parities[i, l]`` is +1
    for the even sector and -1 for the odd one. Levels that agree within
    round-off are listed even first.
    """

    xi: np.ndarray
    excitations: np.ndarray
    parities: np.ndarray

    def __post_init__(self) -> None:
        xi = np.array(self.xi, dtype=float)
        ex = np.array(self.excitations, dtype=float)
        par = np.array(self.parities, dtype=int)
        if ex.shape != par.shape or ex.shape[0] != xi.shape[0]:
            raise ValueError("inconsistent sweep array shapes")
        for arr in (xi, ex, par):
            arr.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "excitations", ex)
        object.__setattr__(self, "parities", par)

    @property
    def n_levels(self) -> int:
        return self.excitations.shape[1]


def kerrcat_hamiltonian(p: KerrCatParams) -> Operator:
    """K [ n (n - 1) - xi (adag^2 + a^2) ] on a single truncated mode.

    Filled from its Fock-basis bands: ``K n (n - 1)`` on the diagonal and
    ``-K xi <m|a^2|m+2> = -K xi sqrt(m+1) sqrt(m+2)`` on the two diagonals
    two places off it.
    """
    n = np.arange(p.cutoff, dtype=float)
    H = np.diag(p.K * (n * (n - 1.0)))
    m = np.arange(p.cutoff - 2)
    H[m, m + 2] = H[m + 2, m] = p.K * -(p.xi * (np.sqrt(m + 1.0) * np.sqrt(m + 2.0)))
    return Operator(H, QumodeRegister((p.cutoff,)))


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


def _labelled_excitations(K: float, xi: float, cutoff: int, n_levels: int):
    H = kerrcat_hamiltonian(KerrCatParams(xi=xi, K=K, cutoff=cutoff))
    even, odd = parity_split(H)
    ev_e = np.linalg.eigvalsh(even.entries)
    ev_o = np.linalg.eigvalsh(odd.entries)
    energies = np.concatenate([ev_e, ev_o])
    labels = np.concatenate([np.ones(len(ev_e), int), -np.ones(len(ev_o), int)])
    order = np.argsort(energies, kind="stable")
    energies, labels = energies[order], labels[order]
    # Levels equal within round-off (the cat pair at -K xi^2) are labelled even first.
    split = np.diff(energies) > 8 * np.finfo(float).eps * np.abs(energies).max()
    labels = labels[np.lexsort((-labels, np.r_[0, np.cumsum(split)]))]
    return energies[:n_levels] - energies[0], labels[:n_levels]


def excitation_sweep(
    K: float, xi_grid, cutoff: int, n_levels: int
) -> SpectrumSweep:
    """Lowest excitation energies with parity labels over a xi grid.

    Each grid point is checked for truncation convergence by recomputing at
    ``cutoff + 10``; disagreement beyond 1e-8 raises :class:`ConvergenceError`
    naming the offending xi.
    """
    xi_grid = np.atleast_1d(np.asarray(xi_grid, dtype=float))
    if n_levels < 1:
        raise ValueError("n_levels must be positive")
    if n_levels > cutoff:
        raise ValueError("n_levels cannot exceed the cutoff")
    all_ex = np.empty((len(xi_grid), n_levels))
    all_par = np.empty((len(xi_grid), n_levels), dtype=int)
    for i, xi in enumerate(xi_grid):
        ex, par = _labelled_excitations(K, xi, cutoff, n_levels)
        ex_check, _ = _labelled_excitations(K, xi, cutoff + 10, n_levels)
        drift = np.abs(ex - ex_check).max()
        if drift > SWEEP_CONVERGENCE_TOL:
            raise ConvergenceError(
                f"lowest {n_levels} levels not converged at xi={xi:g}: "
                f"cutoff {cutoff} vs {cutoff + 10} differ by {drift:.3e}"
            )
        all_ex[i], all_par[i] = ex, par
    return SpectrumSweep(xi_grid, all_ex, all_par)


def pair_gaps(sweep: SpectrumSweep) -> list[np.ndarray]:
    """Per grid point: (mean pair energy, gap) of consecutive level pairs.

    Levels ``(0, 1), (2, 3), ...`` are paired in energy order; each row of
    the returned arrays is one pair. Requires an even level count.
    """
    if sweep.n_levels % 2 != 0:
        raise ValueError("pair gaps need an even number of levels")
    out = []
    for ex in sweep.excitations:
        lower, upper = ex[0::2], ex[1::2]
        out.append(np.column_stack([(lower + upper) / 2.0, upper - lower]))
    return out


def density_of_states(
    H: Operator, bins: int, energy_range: tuple[float, float] | None = None
) -> Spectrum:
    """Normalized eigenvalue histogram; weights sum to one.

    By default the histogram covers the lowest 80% of the eigenvalues, which
    keeps the truncation-polluted top of the spectrum out. Pass
    ``energy_range`` to histogram a specific window instead (eigenvalues
    outside it are dropped before normalizing).
    """
    if bins < 10:
        raise ValueError("at least 10 bins are required")
    evals = np.linalg.eigvalsh(H.entries)
    if energy_range is None:
        keep = max(2, int(math.floor(0.8 * len(evals))))
        evals = evals[:keep]
        energy_range = (float(evals[0]), float(evals[-1]))
    lo, hi = energy_range
    evals = evals[(evals >= lo) & (evals <= hi)]
    if len(evals) == 0:
        raise ValueError("no eigenvalues inside the requested energy range")
    counts, edges = np.histogram(evals, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Spectrum(centers, counts / counts.sum())


def metapotential_dos(p: KerrCatParams, bins: int = 10, span: float = 6.0) -> Spectrum:
    """Excitation-energy DOS over the metapotential region.

    Histograms E' = E - E0 over the window ``[0, span * K * xi^2]``, i.e. the
    double well (depth K xi^2) plus a comparable range above the barrier. A
    uniform histogram over the full truncated spectrum cannot expose the
    ESQPT pileup because the level spacing grows linearly with n, which
    stacks the lowest bin regardless of binning; the windowed histogram peaks
    at the barrier energy instead.

    The window needs xi > 0 and K > 0: it is empty at K = 0, and for K < 0
    the spectrum is inverted, so its lowest levels sit at the truncation edge.
    """
    if p.xi <= 0:
        raise ValueError("the metapotential window needs xi > 0")
    if p.K <= 0:
        raise ValueError(f"the metapotential window needs K > 0, got {p.K:g}")
    H = kerrcat_hamiltonian(p)
    evals = np.linalg.eigvalsh(H.entries)
    ex = evals - evals[0]
    window = (0.0, span * p.K * p.xi**2)
    kept = ex[(ex >= window[0]) & (ex <= window[1])]
    counts, edges = np.histogram(kept, bins=bins, range=window)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Spectrum(centers, counts / counts.sum())


def esqpt_energy(p: KerrCatParams, bins: int = 10, span: float = 6.0) -> float:
    """Estimate of the ESQPT excitation energy: the DOS-peak bin center.

    The resolution is one bin width; the underlying critical energy of the
    metapotential barrier sits at E' = K xi^2.
    """
    return metapotential_dos(p, bins=bins, span=span).peak_energy()


def doublewell_hamiltonian(p: DoubleWellParams) -> Operator:
    """p^2/(2 m) + k4 x^4 - k2 x^2 + k1 x (hbar = 1), a real symmetric matrix.

    Built from the real ladder matrix ``a``, not from
    :func:`~qumodelab.fock.quadratures`: ``x = sqrt(1/2) (adag + a)`` and
    ``p^2 = -1/2 (adag - a)(adag - a)``, the same truncated products without
    the factor ``i`` that would make them complex.
    """
    a = _single_mode_annihilation(p.cutoff).real
    adag = a.T
    x = math.sqrt(0.5) * (adag + a)
    x2 = x @ x
    mom2 = -0.5 * ((adag - a) @ (adag - a))
    H = (1.0 / (2.0 * p.mass)) * mom2 + p.k4 * (x2 @ x2) - p.k2 * x2 + p.k1 * x
    return Operator(H, QumodeRegister((p.cutoff,)))
