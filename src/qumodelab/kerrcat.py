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
MIN_DOS_BINS = 10


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
        for name in ("k4", "k2", "k1", "mass"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def _bands(p: KerrCatParams) -> tuple[np.ndarray, np.ndarray]:
    """The Fock-basis bands of the Kerr-cat Hamiltonian: ``K n (n - 1)`` on the
    diagonal, and ``-K xi <m|a^2|m+2> = -K xi sqrt(m+1) sqrt(m+2)`` at (m, m + 2)."""
    n = np.arange(p.cutoff, dtype=float)
    m = np.arange(p.cutoff - 2)
    return p.K * (n * (n - 1.0)), p.K * -(p.xi * (np.sqrt(m + 1.0) * np.sqrt(m + 2.0)))


def _symmetric_band_matrix(diagonal: np.ndarray, band: np.ndarray, offset: int) -> np.ndarray:
    """Symmetric matrix with ``diagonal`` and ``band`` at ``offset`` places off it."""
    H = np.diag(diagonal)
    i = np.arange(len(band))
    H[i, i + offset] = H[i + offset, i] = band
    return H


def kerrcat_hamiltonian(p: KerrCatParams) -> Operator:
    """K [ n (n - 1) - xi (adag^2 + a^2) ] on a single truncated mode, filled
    from its diagonal and the two bands two places off it."""
    H = _symmetric_band_matrix(*_bands(p), offset=2)
    return Operator(H, QumodeRegister((p.cutoff,)))


def _parity_blocks(p: KerrCatParams) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd Fock-level blocks of :func:`kerrcat_hamiltonian`, the
    same entries as its :func:`parity_split`, as tridiagonal matrices built
    from the bands without the full matrix."""
    diagonal, drive = _bands(p)
    return tuple(_symmetric_band_matrix(diagonal[s::2], drive[s::2], 1) for s in (0, 1))


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


def _labelled_levels(K: float, xi: float, cutoff: int, n_levels: int):
    """The lowest ``n_levels`` energies of both parity blocks, merged, with labels."""
    even, odd = _parity_blocks(KerrCatParams(xi=xi, K=K, cutoff=cutoff))
    ev_e = np.linalg.eigvalsh(even)
    ev_o = np.linalg.eigvalsh(odd)
    energies = np.concatenate([ev_e, ev_o])
    labels = np.concatenate([np.ones(len(ev_e), int), -np.ones(len(ev_o), int)])
    order = np.argsort(energies, kind="stable")
    energies, labels = energies[order], labels[order]
    # Levels equal within round-off (the cat pair at -K xi^2) are labelled even first.
    split = np.diff(energies) > 8 * np.finfo(float).eps * np.abs(energies).max()
    labels = labels[np.lexsort((-labels, np.r_[0, np.cumsum(split)]))]
    return energies[:n_levels], labels[:n_levels]


def _count_below(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each ``x[g, l]`` of the symmetric tridiagonal
    matrix with diagonal ``d`` and off-diagonal ``e[g]``.

    This is the Sturm count: the number of negative pivots of the LDL^T
    factorization of ``T_g - x[g, l]`` (Kahan's bisection, as in LAPACK
    ``dstebz``), one vectorized pass over the rows.
    """
    # Scale each matrix by a power of two (exact) so that its largest entry is
    # below 1; then e^2 and every pivot stay finite at any input size.
    largest = np.abs(np.hstack([e, x])).max(axis=1, initial=np.abs(d).max(initial=0.0))
    shift = -np.frexp(largest)[1][:, None]
    d, e, x = np.ldexp(d, shift), np.ldexp(e, shift), np.ldexp(x, shift)
    e2 = e * e
    # dstebz's pivmin = tiny * max(1, max e^2) is tiny here, since max e^2 <= 1.
    pivmin = np.finfo(float).tiny
    count = np.zeros(x.shape, dtype=int)
    for j in range(d.shape[1]):
        q = d[:, j, None] - x - (e2[:, j - 1, None] / q if j else 0.0)
        q[np.abs(q) < pivmin] = -pivmin
        count += q < 0
    return count


def excitation_sweep(
    K: float, xi_grid, cutoff: int, n_levels: int
) -> SpectrumSweep:
    """Lowest excitation energies with parity labels over a xi grid.

    Each grid point is checked for truncation convergence against
    ``cutoff + 10``; disagreement beyond 1e-8 raises :class:`ConvergenceError`
    naming the offending xi. A Sturm count on the ``cutoff + 10`` parity
    blocks clears most points without solving them: when it proves that no
    level moves by more than half the tolerance, no excitation can move by
    more than the tolerance. Only the other points are solved again at
    ``cutoff + 10``.
    """
    xi_grid = np.atleast_1d(np.asarray(xi_grid, dtype=float))
    if n_levels < 1:
        raise ValueError("n_levels must be positive")
    if n_levels > cutoff:
        raise ValueError("n_levels cannot exceed the cutoff")
    levels = np.empty((len(xi_grid), n_levels))
    all_par = np.empty((len(xi_grid), n_levels), dtype=int)
    for i, xi in enumerate(xi_grid):
        levels[i], all_par[i] = _labelled_levels(K, xi, cutoff, n_levels)
    all_ex = levels - levels[:, :1]
    # Each cutoff block is a leading block of its cutoff + 10 block, so by
    # interlacing the k-th merged level there is at most levels[:, k]. At most
    # k eigenvalues below levels[:, k] - tol/2 bound it from below as well.
    diagonal, _ = _bands(KerrCatParams(xi=0.0, K=K, cutoff=cutoff + 10))
    drive = np.array(
        [_bands(KerrCatParams(xi=xi, K=K, cutoff=cutoff + 10))[1] for xi in xi_grid]
    ).reshape(len(xi_grid), cutoff + 8)
    x = levels - SWEEP_CONVERGENCE_TOL / 2
    below = sum(_count_below(diagonal[s::2], drive[:, s::2], x) for s in (0, 1))
    for i in np.flatnonzero((below > np.arange(n_levels)).any(axis=1)):
        xi = xi_grid[i]
        check, _ = _labelled_levels(K, xi, cutoff + 10, n_levels)
        drift = np.abs(all_ex[i] - (check - check[0])).max()
        if drift > SWEEP_CONVERGENCE_TOL:
            raise ConvergenceError(
                f"lowest {n_levels} levels not converged at xi={xi:g}: "
                f"cutoff {cutoff} vs {cutoff + 10} differ by {drift:.3e}"
            )
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
    evals = np.linalg.eigvalsh(H.entries)
    if energy_range is None:
        keep = max(2, int(math.floor(0.8 * len(evals))))
        evals = evals[:keep]
        energy_range = (float(evals[0]), float(evals[-1]))
    return _histogram(evals, bins, energy_range)


def _histogram(evals: np.ndarray, bins: int, window: tuple[float, float]) -> Spectrum:
    """Normalized histogram of the eigenvalues inside ``window``, at bin centers."""
    if bins < MIN_DOS_BINS:
        raise ValueError(f"at least {MIN_DOS_BINS} bins are required, got {bins}")
    lo, hi = window
    kept = evals[(evals >= lo) & (evals <= hi)]
    if len(kept) == 0:
        raise ValueError("no eigenvalues inside the requested energy range")
    counts, edges = np.histogram(kept, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Spectrum(centers, counts / counts.sum())


def metapotential_dos(p: KerrCatParams, bins: int = MIN_DOS_BINS, span: float = 6.0) -> Spectrum:
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
    try:
        top = span * p.K * p.xi**2
    except OverflowError:
        top = math.inf
    if math.isinf(top):
        raise OverflowError(
            f"the metapotential window [0, span K xi^2] overflows at "
            f"span={span:g}, K={p.K:g}, xi={p.xi:g}"
        )
    evals = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in _parity_blocks(p)]))
    return _histogram(evals - evals[0], bins, (0.0, top))


def esqpt_energy(p: KerrCatParams, bins: int = MIN_DOS_BINS, span: float = 6.0) -> float:
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
    a = _single_mode_annihilation(p.cutoff)
    adag = a.T
    x = math.sqrt(0.5) * (adag + a)
    x2 = x @ x
    mom2 = -0.5 * ((adag - a) @ (adag - a))
    H = (1.0 / (2.0 * p.mass)) * mom2 + p.k4 * (x2 @ x2) - p.k2 * x2 + p.k1 * x
    return Operator(H, QumodeRegister((p.cutoff,)))
