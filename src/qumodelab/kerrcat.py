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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParamError
from .fock import Operator, QumodeRegister, _integer, _single_mode_annihilation
from .spectrum import Spectrum

__all__ = [
    "KerrCatParams",
    "DoubleWellParams",
    "SpectrumSweep",
    "kerrcat_hamiltonian",
    "excitation_sweep",
    "pair_gaps",
    "metapotential_dos",
    "esqpt_energy",
    "doublewell_hamiltonian",
]

SWEEP_CONVERGENCE_TOL = 1e-8
MIN_DOS_BINS = 10
# Floats per stacked eigvalsh call (512 KiB): the sweep's leading blocks take
# bounded memory at any grid length.
_STACK_FLOATS = 2**16


@dataclass(frozen=True)
class KerrCatParams:
    """Kerr scale K, drive parameter xi >= 0, and Fock cutoff."""

    xi: float
    K: float = 1.0
    cutoff: int = 80

    def __post_init__(self) -> None:
        if not math.isfinite(self.xi) or self.xi < 0:
            raise ParamError("xi", f"xi must be finite and non-negative, got {self.xi}")
        if not math.isfinite(self.K):
            raise ParamError("K", "K must be finite")
        if _integer(self.cutoff, "cutoff") < 4:
            raise ParamError("cutoff", "cutoff must be at least 4")


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
                raise ParamError(name, f"{name} must be finite, got {getattr(self, name)}")
        if self.k4 < 0 or (self.k4 == 0 and self.k2 > 0):
            raise ParamError(
                "k4", "potential must be bounded below: need k4 > 0, or k4 = 0 with k2 <= 0"
            )
        _check_mass(self.mass)
        if _integer(self.cutoff, "cutoff") < 2:
            raise ParamError("cutoff", "cutoff must be at least 2")


def _check_mass(mass: float) -> None:
    if not mass > 0:
        raise ParamError("mass", "mass must be positive")


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


def _bands(K: float, xi, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The Fock-basis bands of the Kerr-cat Hamiltonian: ``K n (n - 1)`` on the
    diagonal, and ``-K xi <m|a^2|m+2> = -K xi sqrt(m+1) sqrt(m+2)`` at (m, m + 2),
    one drive row per entry of an array ``xi``."""
    n = np.arange(cutoff, dtype=float)
    m = np.arange(cutoff - 2)
    return K * (n * (n - 1.0)), K * -np.multiply.outer(xi, np.sqrt(m + 1.0) * np.sqrt(m + 2.0))


def _symmetric_band_matrix(diagonal: np.ndarray, band: np.ndarray, offset: int) -> np.ndarray:
    """Symmetric matrices with ``diagonal`` and ``band`` at ``offset`` places off
    it, one per leading index of ``band``."""
    H = np.zeros(band.shape[:-1] + diagonal.shape * 2)
    i = np.arange(len(diagonal))
    H[..., i, i] = diagonal
    j = i[: band.shape[-1]]
    H[..., j, j + offset] = H[..., j + offset, j] = band
    return H


def kerrcat_hamiltonian(p: KerrCatParams) -> Operator:
    """K [ n (n - 1) - xi (adag^2 + a^2) ] on a single truncated mode, filled
    from its diagonal and the two bands two places off it."""
    H = _symmetric_band_matrix(*_bands(p.K, p.xi, p.cutoff), offset=2)
    return Operator(H, QumodeRegister((p.cutoff,)))


def _roundoff(diagonal: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """eps times a Gershgorin bound on the spectrum of the Hamiltonian with these
    bands, one per drive row; summed in quarters so that it stays finite."""
    quarter = np.abs(drive) / 4
    rows = np.abs(diagonal) / 4 + np.pad(quarter, ((0, 0), (2, 0)))
    rows += np.pad(quarter, ((0, 0), (0, 2)))
    return 4 * np.finfo(float).eps * rows.max(axis=1)


def _merged_levels(even: np.ndarray, odd: np.ndarray, roundoff: float, n_levels: int):
    """The lowest ``n_levels`` of two ascending parity spectra, merged, with labels.

    Levels closer than ``8 roundoff`` (the cat pair at -K xi^2) are labelled even
    first. ``roundoff`` comes from the whole cutoff's bands, so the labels do not
    depend on how many levels of each block are passed in.
    """
    energies = np.concatenate([even, odd])
    labels = np.concatenate([np.ones(len(even), int), -np.ones(len(odd), int)])
    order = np.argsort(energies, kind="stable")
    energies, labels = energies[order], labels[order]
    split = np.diff(energies) > 8 * roundoff
    labels = labels[np.lexsort((-labels, np.r_[0, np.cumsum(split)]))]
    return energies[:n_levels], labels[:n_levels]


def _count_below(d: np.ndarray, e: np.ndarray, x: np.ndarray, lowered=None) -> np.ndarray:
    """Number of eigenvalues below each ``x[g, l]`` of the symmetric tridiagonal
    matrix with diagonal ``d`` and off-diagonal ``e[g]``, its last diagonal
    entry lowered by ``c[g]^2 / gap[g]`` if ``lowered = (c, gap)``, ``gap > 0``.

    This is the Sturm count: the number of negative pivots of the LDL^T
    factorization of ``T_g - x[g, l]`` (Kahan's bisection, as in LAPACK
    ``dstebz``), one vectorized pass over the rows.
    """
    c, gap = np.zeros((2, len(e))) if lowered is None else lowered
    # Scale each matrix, c and gap by a power of two (exact) so that the largest
    # is below 1; then e^2, the lowering and every pivot stay finite at any size.
    largest = np.abs(np.column_stack([e, x, c, gap])).max(
        axis=1, initial=np.abs(d).max(initial=0.0)
    )
    shift = -np.frexp(largest)[1]
    d, e, x = (np.ldexp(a, shift[:, None]) for a in (d, e, x))
    c, gap = np.ldexp(c, shift), np.ldexp(gap, shift)
    e2 = e * e
    # dstebz's pivmin = tiny * max(1, max e^2) is tiny here, since max e^2 <= 1.
    pivmin = np.finfo(float).tiny
    # With gap raised to pivmin the entry is lowered further, never less.
    lower = c * (c / np.maximum(gap, pivmin))
    count = np.zeros(x.shape, dtype=int)
    for j in range(d.shape[1]):
        q = d[:, j, None] - x - (e2[:, j - 1, None] / q if j else 0.0)
        q -= lower[:, None] if j == d.shape[1] - 1 else 0.0
        q[np.abs(q) < pivmin] = -pivmin
        count += q < 0
    return count


def excitation_sweep(K: float, xi_grid, cutoff: int, n_levels: int) -> SpectrumSweep:
    """Lowest excitation energies with parity labels over a xi grid, each within
    1e-8 of the untruncated operator's.

    Each parity block ``J`` of the untruncated operator is solved on its leading
    ``m`` rows ``B``, stacked over the grid. By Cauchy interlacing, the merged
    levels ``L_k`` of both parities are upper bounds. The rest of ``J`` starts at
    Fock level ``n``; the Gershgorin bound of its row at level ``n``,
    ``t = K [n (n - 1) - 2 xi sqrt((n + 1)(n + 2))]``, rises with ``n`` once
    ``n >= xi + 1`` and so bounds the rest below (as 0 does for K = 0). By
    Haynsworth inertia additivity, below any ``x < t`` ``J`` has at most as many
    levels as ``B`` with its last diagonal entry lowered by ``c^2 / (t - x)``,
    ``c`` the drive entry that couples ``B`` to the rest. A point is certified
    when this Sturm count, summed over both parities, is at most k below
    ``L_k - tol + 64 roundoff`` for every k (the lowering at the top ``x``
    serves them all): then every level, and so every excitation, is within
    ``tol`` of the untruncated one.

    ``m`` starts at 32 rows (or ``n_levels``) and doubles for the points not
    certified, up to the ``cutoff`` blocks. A point that these do not certify
    raises :class:`ConvergenceError` naming the first such xi and the cause:
    truncation, or round-off that reaches the tolerance. ``K < 0`` is refused:
    its spectrum has no lowest levels.
    """
    xi_grid = _sweep_grid(K, xi_grid, cutoff, n_levels)
    # The cutoff bands, and the drive entries that couple the cutoff blocks on.
    diagonal, drive = _bands(K, xi_grid, cutoff + 2)
    roundoff = _roundoff(diagonal[:cutoff], drive[:, : cutoff - 2])
    levels = np.empty((len(xi_grid), n_levels))
    parities = np.empty((len(xi_grid), n_levels), dtype=int)
    todo = np.arange(len(xi_grid))
    m = max(32, n_levels)
    while len(todo):
        xi, solved, blocks = xi_grid[todo], [], []
        for s in (0, 1):
            r = min(m, (cutoff + 1 - s) // 2)
            d, e = diagonal[s : 2 * r + s : 2], drive[todo, s : 2 * r + s : 2]
            solved.append(np.concatenate([
                np.linalg.eigvalsh(_symmetric_band_matrix(d, band, 1))[:, :n_levels]
                for band in np.array_split(e[:, :-1], -(-len(e) * r * r // _STACK_FLOATS))
            ]))
            n = 2 * r + s  # the first Fock level past B; t = -inf where no bound holds
            bounded = (K == 0) | (n >= xi + 1)
            radius = 2 * np.where(bounded, xi, 0.0) * math.sqrt((n + 1.0) * (n + 2.0))
            blocks.append((d, e, np.where(bounded, K * (n * (n - 1.0) - radius), -np.inf)))
        for i, even, odd in zip(todo, *solved):
            levels[i], parities[i] = _merged_levels(even, odd, roundoff[i], n_levels)
        x = levels[todo] - SWEEP_CONVERGENCE_TOL + 64 * roundoff[todo, None]
        top = x[:, -1]
        ok = np.logical_and.reduce([top < t for _, _, t in blocks])
        below = sum(
            _count_below(d, e[ok, :-1], x[ok], (e[ok, -1], t[ok] - top[ok])) for d, e, t in blocks
        )
        ok[ok] = (below <= np.arange(n_levels)).all(axis=1)
        todo = todo[~ok]
        if len(todo) and m >= (cutoff + 1) // 2:  # the cutoff blocks were solved
            i = todo[0]
            cause = (
                f"round-off 64 x {roundoff[i]:.3e} reaches the tolerance"
                if 64 * roundoff[i] >= SWEEP_CONVERGENCE_TOL
                else f"the cutoff-{cutoff} blocks do not bound them to the untruncated operator"
            )
            raise ConvergenceError(
                f"lowest {n_levels} levels not converged at xi={xi_grid[i]:g} "
                f"within {SWEEP_CONVERGENCE_TOL:g}: {cause}"
            )
        m *= 2
    return SpectrumSweep(xi_grid, levels - levels[:, :1], parities)


def _sweep_grid(K: float, xi_grid, cutoff: int, n_levels: int) -> np.ndarray:
    """The drive grid of :func:`excitation_sweep` as a float array, once the
    sweep's arguments are checked."""
    xi_grid = np.atleast_1d(np.asarray(xi_grid, dtype=float))
    # The xi rule is an interval, so the grid's extremes decide it (NaN
    # propagates to both); an empty grid still checks K and the cutoff.
    for xi in (xi_grid.min(initial=0.0), xi_grid.max(initial=0.0)):
        KerrCatParams(xi=float(xi), K=K, cutoff=cutoff)
    if K < 0:
        raise ParamError("K", f"K must be >= 0: for K < 0 there are no lowest levels, got {K:g}")
    if not 1 <= _integer(n_levels, "n_levels") <= cutoff:
        raise ParamError("n_levels", f"n_levels={n_levels} must be in 1..{cutoff}, the cutoff")
    return xi_grid


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


def metapotential_dos(p: KerrCatParams, bins: int = MIN_DOS_BINS, span: float = 6.0) -> Spectrum:
    """Excitation-energy DOS over the metapotential region.

    Histograms E' = E - E0 over the window ``[0, span * K * xi^2]``: the double
    well (depth K xi^2) plus a comparable range above the barrier, where the DOS
    peaks (the ESQPT). Over the whole truncated spectrum the level spacing,
    which grows linearly with n, would stack the lowest bin at any binning.

    Its levels are :func:`excitation_sweep`'s at ``p.cutoff``, within 1e-8 of the
    untruncated operator's. The ground level is -K xi^2 exactly; by Cauchy
    interlacing, the cutoff parity blocks' Sturm count below the window top is a
    lower bound, so the lowest ``1 + count`` levels cover the window once the last
    lies above it. Otherwise, past ``cutoff`` levels, or with a level within 1e-8
    of an interior bin edge or the top, it raises :class:`ConvergenceError`.

    The window needs a finite span > 0, xi > 0 and K > 0; a top that underflows
    is refused, and one that overflows raises ``OverflowError``.
    """
    top = _dos_window(p, span)
    if math.isinf(top):
        raise OverflowError(
            f"the metapotential window [0, span K xi^2] overflows at "
            f"span={span:g}, K={p.K:g}, xi={p.xi:g}"
        )
    _check_bins(bins)
    K, xi, cutoff, tol = float(p.K), float(p.xi), p.cutoff, SWEEP_CONVERGENCE_TOL
    diagonal, (drive,) = _bands(K, [xi], cutoff // 2 * 2)  # both parities, cutoff // 2 rows
    x = np.full((2, 1), top - K * xi * xi + tol)
    n = 1 + _count_below(diagonal.reshape(-1, 2).T, drive.reshape(-1, 2).T, x).sum()
    refused = f"DOS at xi={xi:g} not certified at cutoff {cutoff}"
    if n > cutoff:
        raise ConvergenceError(f"{refused}: its window holds at least {cutoff} levels")
    try:
        ex = excitation_sweep(K, [xi], cutoff, n).excitations[0]
    except ConvergenceError as exc:
        raise ConvergenceError(f"{refused}: {exc}") from None
    counts, edges = np.histogram(ex, bins=bins, range=(0.0, top))
    if not ex[-1] > top + tol:
        raise ConvergenceError(f"{refused}: level {n - 1} is not above its top")
    if (np.abs(ex[:, None] - edges[1:]) <= tol).any():
        raise ConvergenceError(f"{refused}: a level lies within {tol:g} of a bin edge")
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Spectrum(centers, counts / counts.sum())


def _dos_window(p: KerrCatParams, span: float) -> float:
    """The top ``span K xi^2`` of the window of :func:`metapotential_dos`, once
    the window is checked: a normal float, or ``inf`` when it overflows."""
    if p.xi <= 0:
        raise ParamError("xi", "the metapotential window needs xi > 0")
    if p.K <= 0:
        raise ParamError("K", f"the metapotential window needs K > 0, got {p.K:g}")
    _check_span(span)
    try:
        top = float(span * p.K * p.xi**2)
    except OverflowError:
        return math.inf
    if top < sys.float_info.min:
        raise ParamError(
            "xi",
            f"the metapotential window [0, span K xi^2] underflows at "
            f"span={span:g}, K={p.K:g}, xi={p.xi:g}",
        )
    return top


def _check_span(span: float) -> None:
    if not 0 < span < math.inf:
        raise ParamError("span", f"span must be finite and > 0, got {span!r}")


def _check_bins(bins: int) -> None:
    if _integer(bins, "bins") < MIN_DOS_BINS:
        raise ParamError("bins", f"at least {MIN_DOS_BINS} bins are required, got {bins}")


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
    return Operator(_doublewell_matrix(p), QumodeRegister((p.cutoff,)))


def _doublewell_matrix(p: DoubleWellParams) -> np.ndarray:
    """The matrix of :func:`doublewell_hamiltonian`, summed in place in the
    order of its formula: at most four cutoff x cutoff arrays are alive at
    once, and only the result when ``Operator`` copies it. This transient
    tops the peak memory of a process that runs cutoff-200 double wells."""
    a = _single_mode_annihilation(p.cutoff)
    adag = a.T
    x = math.sqrt(0.5) * (adag + a)
    H = adag - a
    H = H @ H
    del a, adag
    H *= -0.5
    H *= 1.0 / (2.0 * p.mass)
    x2 = x @ x
    x4 = x2 @ x2
    x4 *= p.k4
    H += x4
    x2 *= p.k2
    H -= x2
    x *= p.k1
    H += x
    return H
