import functools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qumodelab import (
    ContractViolation,
    ConvergenceError,
    DoubleWellParams,
    KerrCatParams,
    ParamError,
    QumodeRegister,
    annihilation,
    doublewell_hamiltonian,
    esqpt_energy,
    excitation_sweep,
    kerrcat_hamiltonian,
    metapotential_dos,
    pair_gaps,
    quadratures,
)
from qumodelab import cli, kerrcat

from oracles import dos_reference, labelled_levels, parity_split


def eig(H):
    return np.linalg.eigvalsh(H.entries)


# ---------------------------------------------------------------------------
# Kerr-cat Hamiltonian
# ---------------------------------------------------------------------------


def test_undriven_spectrum_is_number_polynomial():
    K = 1.3
    H = kerrcat_hamiltonian(KerrCatParams(xi=0.0, K=K, cutoff=12))
    n = np.arange(12)
    assert np.abs(H.entries - np.diag(K * n * (n - 1))).max() < 1e-12


@pytest.mark.parametrize("cutoff", [4, 8, 60, 210])
def test_hamiltonian_equals_ladder_products(cutoff):
    # The band fill against K (adag a (adag a - I) - xi (adag^2 + a^2)).
    a = annihilation(QumodeRegister((cutoff,)), 1).entries
    adag = a.conj().T
    n = adag @ a
    for K in (1.3, -0.8):
        for xi in (0.0, 0.7, 5.5):
            oracle = K * (n @ (n - np.eye(cutoff)) - xi * (adag @ adag + a @ a))
            H = kerrcat_hamiltonian(KerrCatParams(xi=xi, K=K, cutoff=cutoff)).entries
            assert np.abs(H - oracle).max() <= 1e-15 * np.abs(oracle).max()


def test_commutes_with_parity():
    H = kerrcat_hamiltonian(KerrCatParams(xi=3.7, K=1.0, cutoff=40))
    parity = np.diag((-1.0) ** np.arange(40))
    assert np.abs(H.entries @ parity - parity @ H.entries).max() < 1e-12


def test_drive_matrix_element():
    K, xi = 1.4, 0.9
    H = kerrcat_hamiltonian(KerrCatParams(xi=xi, K=K, cutoff=8))
    assert abs(H.entries[0, 2] - (-K * xi * np.sqrt(2))) < 1e-12


def test_ground_energy_is_exact_cat_energy():
    # the coherent states at +-sqrt(xi) are exact eigenstates at -K xi^2
    for xi in (2.0, 5.0):
        H = kerrcat_hamiltonian(KerrCatParams(xi=xi, K=1.0, cutoff=100))
        evals = eig(H)
        assert abs(evals[0] - (-(xi**2))) < 1e-8
        assert abs(evals[1] - (-(xi**2))) < 1e-8


# ---------------------------------------------------------------------------
# parity blocks
# ---------------------------------------------------------------------------


def test_parity_block_sizes():
    H = kerrcat_hamiltonian(KerrCatParams(xi=1.0, K=1.0, cutoff=6))
    even, odd = parity_split(H)
    assert even.dim == 3 and odd.dim == 3


def test_even_block_at_zero_drive():
    K = 1.0
    H = kerrcat_hamiltonian(KerrCatParams(xi=0.0, K=K, cutoff=6))
    even, _ = parity_split(H)
    assert np.abs(even.entries - np.diag([0.0, 2.0, 12.0])).max() < 1e-12


def test_blocks_cover_full_spectrum():
    H = kerrcat_hamiltonian(KerrCatParams(xi=2.5, K=1.0, cutoff=30))
    even, odd = parity_split(H)
    merged = np.sort(np.concatenate([eig(even), eig(odd)]))
    assert np.abs(merged - eig(H)).max() < 1e-9


def test_parity_violation_rejected():
    H = doublewell_hamiltonian(DoubleWellParams(k4=1.0, k2=4.0, k1=0.3, cutoff=20))
    with pytest.raises(ContractViolation):
        parity_split(H)


# ---------------------------------------------------------------------------
# excitation sweeps and pair gaps
# ---------------------------------------------------------------------------


def test_sweep_at_zero_drive():
    sweep = excitation_sweep(1.0, [0.0], cutoff=40, n_levels=6)
    assert np.abs(sweep.excitations[0] - [0.0, 0.0, 2.0, 6.0, 12.0, 20.0]).max() < 1e-10
    assert list(sweep.parities[0]) == [1, -1, 1, -1, 1, -1]


def test_sweep_excitations_non_negative_and_sorted():
    sweep = excitation_sweep(1.0, [0.0, 1.0, 2.0], cutoff=60, n_levels=10)
    assert np.all(sweep.excitations >= 0.0)
    assert np.all(np.diff(sweep.excitations, axis=1) >= -1e-12)
    assert np.abs(sweep.excitations[:, 0]).max() == 0.0


def test_degenerate_cat_pair_is_labelled_even_first():
    # The lowest pair is exactly degenerate at -K xi^2, so its computed order is round-off.
    grid = np.arange(0.0, 4.01, 0.5)
    sweep = excitation_sweep(1.0, grid, cutoff=60, n_levels=12)
    assert (sweep.parities[:, :2] == [1, -1]).all()
    # The second pair is split by at least 1: its labels follow the computed energies.
    for xi, parities in zip(grid, sweep.parities):
        even, odd = parity_split(kerrcat_hamiltonian(KerrCatParams(xi=xi, K=1.0, cutoff=60)))
        e, o = eig(even)[1], eig(odd)[1]
        assert abs(e - o) >= 1.0
        assert list(parities[2:4]) == ([1, -1] if e < o else [-1, 1])


def test_sweep_convergence_error_names_xi():
    with pytest.raises(ConvergenceError, match="xi=4"):
        excitation_sweep(1.0, [0.0, 4.0], cutoff=10, n_levels=8)


@functools.cache
def reference(K, xi, cutoff=400):
    """The lowest 16 levels and labels of the whole cutoff parity blocks; at
    400 rows they stand for the untruncated operator's."""
    return labelled_levels(K, xi, cutoff, 16)


def labels_agree(parities, levels, labels, gap):
    """Whether ``parities`` are the reference ``labels``, up to order within
    each cluster of reference levels less than ``gap`` apart. A 1e-8 bound
    does not fix the order of levels closer than that (the cat pair, split
    only by truncation in a small block), so a cluster's printed labels need
    only be some of its reference labels; a cluster that runs past the
    reference's levels is not checked."""
    cluster = np.r_[0, np.cumsum(np.diff(levels) >= gap)]
    printed = cluster[: len(parities)]
    return all(
        (parities[printed == c] == p).sum() <= (labels[cluster == c] == p).sum()
        for c in set(printed) - {cluster[-1]}
        for p in (1, -1)
    )


def check_sweep(K, grid, cutoff, n_levels):
    """excitation_sweep against the 400-row reference: a sweep of K < 0 is
    refused by name; an accepted point is within the tolerance of the reference,
    and so are its parities; a sweep whose whole cutoff blocks are further than
    that from the reference is refused."""
    tol = kerrcat.SWEEP_CONVERGENCE_TOL
    try:
        with np.errstate(over="raise", invalid="raise"):
            sweep = excitation_sweep(K, grid, cutoff, n_levels)
    except ParamError as exc:
        assert K < 0 and exc.name == "K"
        return
    except ConvergenceError:
        return
    assert K >= 0
    for xi, excitations, parities in zip(grid, sweep.excitations, sweep.parities):
        levels, labels = reference(K, xi)
        assert np.abs(excitations - (levels[:n_levels] - levels[0])).max() <= tol
        assert labels_agree(parities, levels, labels, 2 * tol)
        truncated = reference(K, xi, cutoff)[0][:n_levels]
        assert np.abs(truncated - levels[:n_levels]).max() <= tol


SCAN_XI = np.linspace(0.0, 6.0, 25)
SCAN_GRIDS = [[xi] for xi in SCAN_XI] + [SCAN_XI]


@pytest.mark.parametrize("n_levels", [1, 2, 6, 12])
@pytest.mark.parametrize("K", [-1.0, 0.0, 0.5, 1.0, 1.5])
def test_sweep_equals_solving_every_point_again(K, n_levels):
    for cutoff in range(max(4, n_levels), 61, 4):
        for grid in SCAN_GRIDS:
            check_sweep(K, grid, cutoff, n_levels)


@pytest.mark.parametrize("n_levels", [1, 12])
@pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
def test_sweep_equals_solving_every_point_again_past_32_rows(K, n_levels):
    # Parity blocks of 35 to 101 rows, unequal at cutoff 201: the sweep takes
    # leading blocks of them, doubled up to the whole block where needed.
    for cutoff in (70, 120, 200, 201):
        for grid in ([6.0], SCAN_XI):
            check_sweep(K, grid, cutoff, n_levels)


@pytest.mark.parametrize(
    "K, grid, cutoff",
    [(1e3, [1e3], 20), (1e5, [0.5, 5.0], 400), (1.0, [0.0, 1e155], 30),
     (1.0, [1e300], 20), (1e150, [0.0, 1.0], 30), (1e-300, [1.0, 1e300], 30)],
)
def test_sweep_equals_solving_every_point_again_at_extremes(K, grid, cutoff):
    with np.errstate(over="raise", invalid="raise"), pytest.raises(ConvergenceError):
        excitation_sweep(K, grid, cutoff, 4)


@pytest.mark.parametrize("K, grid, cutoff", [(1e3, np.linspace(15.0, 17.5, 11), 60), (2e3, [18.1], 64)])
def test_sweep_equals_solving_every_point_again_at_coarse_roundoff(K, grid, cutoff):
    # Here 64 roundoff reaches the tolerance: no Sturm count can certify 1e-8.
    with pytest.raises(ConvergenceError, match="round-off"):
        excitation_sweep(K, grid, cutoff, 4)


def test_fig4_sweep_solves_each_parity_block_once(monkeypatch):
    p = json.loads(Path(cli.demo_path("kerrcat-fig4")).read_text())["params"]
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: shapes.append(H.shape) or eigvalsh(H))
    excitation_sweep(p["K"], p["xi_grid"], p["cutoff"], p["n_levels"])
    # A call may stack several blocks; each of the 9 x 2 blocks of 30 rows is solved once.
    assert sum(math.prod(shape[:-2]) for shape in shapes) == 2 * len(p["xi_grid"]) == 18
    assert {shape[-2:] for shape in shapes} == {(30, 30)}


def test_cutoff_200_sweep_solves_only_32_row_blocks(monkeypatch):
    rows = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: rows.append(H.shape[-1]) or eigvalsh(H))
    sweep = excitation_sweep(1.0, np.linspace(0.0, 4.0, 40), 200, 12)
    assert rows and max(rows) <= 32
    assert sweep.excitations.shape == (40, 12)


def tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e200])
def test_sturm_count_matches_eigvalsh(scale):
    rng = np.random.default_rng(11)
    lowering = np.random.default_rng(12)
    for n in (1, 2, 5, 17):
        d = scale * rng.normal(size=n)
        e = scale * rng.normal(size=(4, n - 1))
        e[1] = 0.0
        e[2, ::2] = 0.0
        # The last diagonal entry lowered by c^2 / gap, as large as the matrix:
        # at scale 1e200, c^2 alone overflows.
        c, gap = scale * lowering.normal(size=4), scale * lowering.uniform(0.5, 2.0, size=4)
        for lowered, by in ((None, np.zeros(4)), ((c, gap), c * (c / gap))):
            evals = [
                np.linalg.eigvalsh(tridiagonal(np.r_[d[:-1], d[-1] - b], row))
                for row, b in zip(e, by)
            ]
            # Between, below and above the eigenvalues the count is exact.
            x = np.array([np.r_[ev[0] - scale, (ev[:-1] + ev[1:]) / 2, ev[-1] + scale] for ev in evals])
            with np.errstate(over="raise", invalid="raise"):
                counts = kerrcat._count_below(d, e, x, lowered)
            assert (counts == np.arange(n + 1)).all()
        with np.errstate(over="raise", invalid="raise"):
            # At a diagonal entry of the decoupled matrix a pivot is exactly zero.
            (ties,) = kerrcat._count_below(d, e[1:2], d[None, :])
        assert ((d[:, None] < d).sum(axis=0) <= ties).all()
        assert (ties <= (d[:, None] <= d).sum(axis=0)).all()


def test_sturm_count_survives_a_zero_pivot():
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1; its first pivot at x = 0 is 0.
    with np.errstate(over="raise", invalid="raise"):
        counts = kerrcat._count_below(np.zeros(2), np.ones((1, 1)), np.array([[-2.0, 0.0, 2.0]]))
    assert counts.tolist() == [[0, 1, 2]]


def test_pair_gap_structure():
    sweep = excitation_sweep(1.0, [0.0], cutoff=40, n_levels=8)
    (gaps,) = pair_gaps(sweep)
    assert gaps.shape == (4, 2)
    assert abs(gaps[0, 1]) < 1e-12  # n(n-1) degeneracy of levels 0 and 1


def test_pair_gaps_need_even_levels():
    sweep = excitation_sweep(1.0, [0.0], cutoff=40, n_levels=5)
    with pytest.raises(ValueError):
        pair_gaps(sweep)


def test_first_resolvable_pair_gap_shrinks_with_drive():
    sweep = excitation_sweep(1.0, [1.0, 2.0], cutoff=60, n_levels=4)
    gaps = pair_gaps(sweep)
    gap_pair1 = [g[1, 1] for g in gaps]
    assert gap_pair1[1] < gap_pair1[0]


def test_pairs_below_esqpt_are_kissing():
    # every pair below the DOS-peak energy is tighter than its distance to
    # the next pair up
    xi = 3.0
    sweep = excitation_sweep(1.0, [xi], cutoff=80, n_levels=20)
    (gaps,) = pair_gaps(sweep)
    peak = esqpt_energy(KerrCatParams(xi=xi, K=1.0, cutoff=120))
    for i in range(len(gaps) - 1):
        energy, gap = gaps[i]
        if energy < peak:
            spacing_to_next = gaps[i + 1, 0] - energy
            assert gap < spacing_to_next


# ---------------------------------------------------------------------------
# density of states
# ---------------------------------------------------------------------------


def test_dos_normalized():
    dos = metapotential_dos(KerrCatParams(xi=2.0, K=1.0, cutoff=60), bins=20)
    assert abs(dos.total_weight - 1.0) < 1e-12


def test_dos_bin_count_validation():
    with pytest.raises(ValueError):
        metapotential_dos(KerrCatParams(xi=2.0, K=1.0, cutoff=60), bins=5)


def test_every_dos_refuses_fewer_than_ten_bins():
    p = KerrCatParams(xi=2.0)
    with pytest.raises(ValueError, match="at least 10 bins"):
        metapotential_dos(p, bins=3)
    with pytest.raises(ValueError, match="at least 10 bins"):
        esqpt_energy(p, bins=1)
    assert len(metapotential_dos(p, bins=kerrcat.MIN_DOS_BINS)) == 10


def test_dos_refuses_a_window_of_zero_width():
    # The window top span K xi^2 underflows to 0 at xi = 1e-200, and to the
    # subnormal 6e-320 at xi = 1e-160.
    for xi in (1e-200, 1e-160):
        with pytest.raises(ParamError, match="window .* underflows at span=6, K=1") as exc:
            metapotential_dos(KerrCatParams(xi=xi, cutoff=30))
        assert exc.value.name == "xi"


def test_metapotential_dos_peaks_at_barrier():
    params = KerrCatParams(xi=5.0, K=1.0, cutoff=120)
    dos = metapotential_dos(params, bins=10, span=6.0)
    weights = dos.weights
    imax = int(np.argmax(weights))
    assert np.sum(weights == weights[imax]) == 1  # unique maximum
    assert 0 < imax < len(weights) - 1  # interior bin
    peak = dos.energies[imax]
    assert peak > 0.0
    midpoint = (dos.energies[0] + dos.energies[-1]) / 2
    assert peak < midpoint
    # the barrier of the metapotential sits at excitation energy K xi^2
    assert abs(peak - 25.0) <= (dos.energies[1] - dos.energies[0])


@pytest.mark.parametrize("K", [0.0, -1.0])
def test_metapotential_window_needs_positive_kerr(K):
    # K = 0 gives a zero-width window; K < 0 inverts the spectrum.
    params = KerrCatParams(xi=2.0, K=K, cutoff=60)
    with pytest.raises(ValueError, match="K > 0"):
        metapotential_dos(params)
    with pytest.raises(ValueError, match="K > 0"):
        esqpt_energy(params)


@pytest.mark.parametrize("span", [0.0, -1.0, float("nan"), float("inf")])
def test_metapotential_window_needs_finite_positive_span(span):
    # numpy widens the empty window of span 0 to (-0.5, 0.5).
    params = KerrCatParams(xi=2.0, K=1.0, cutoff=60)
    for estimate in (metapotential_dos, esqpt_energy):
        with pytest.raises(ValueError, match="span must be finite and > 0"):
            estimate(params, span=span)


# ---------------------------------------------------------------------------
# double well
# ---------------------------------------------------------------------------


def test_harmonic_limit():
    # k4 = 0, k2 = -1/2 gives p^2/2 + x^2/2 with levels n + 1/2
    H = doublewell_hamiltonian(DoubleWellParams(k4=0.0, k2=-0.5, k1=0.0, cutoff=60))
    evals = eig(H)[:10]
    assert np.abs(evals - (np.arange(10) + 0.5)).max() < 1e-6


def test_symmetric_well_position_expectation_vanishes():
    p = DoubleWellParams(k4=1.0, k2=4.0, k1=0.0, cutoff=60)
    H = doublewell_hamiltonian(p)
    _, vecs = np.linalg.eigh(H.entries)
    x, _ = quadratures(H.register, 1)
    for level in range(6):
        v = vecs[:, level]
        assert abs(np.vdot(v, x.entries @ v).real) < 1e-8


def test_quasi_degenerate_doublet():
    # oracle values for k4=1, k2=4: splitting 9.57e-2 against a 2.47 gap to
    # the next level; deepening the well to k2=6 pushes the ratio below 1e-2
    evals = eig(doublewell_hamiltonian(DoubleWellParams(k4=1.0, k2=4.0, k1=0.0, cutoff=80)))
    gap01, gap12 = evals[1] - evals[0], evals[2] - evals[1]
    assert gap01 == pytest.approx(9.569e-2, abs=2e-4)
    assert gap01 / gap12 < 5e-2

    evals = eig(doublewell_hamiltonian(DoubleWellParams(k4=1.0, k2=6.0, k1=0.0, cutoff=80)))
    assert (evals[1] - evals[0]) / (evals[2] - evals[1]) < 1e-2


def test_tilt_direction():
    for k1 in (0.05, -0.05):
        H = doublewell_hamiltonian(DoubleWellParams(k4=1.0, k2=4.0, k1=k1, cutoff=60))
        _, vecs = np.linalg.eigh(H.entries)
        x, _ = quadratures(H.register, 1)
        mean_x = np.vdot(vecs[:, 0], x.entries @ vecs[:, 0]).real
        assert np.sign(mean_x) == -np.sign(k1)


def test_unbounded_potential_rejected():
    with pytest.raises(ValueError):
        DoubleWellParams(k4=0.0, k2=1.0, k1=0.0, cutoff=20)
    with pytest.raises(ValueError):
        DoubleWellParams(k4=-1.0, k2=0.0, k1=0.0, cutoff=20)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["k4", "k2", "k1", "mass"])
def test_doublewell_params_refuse_non_finite(field, value):
    kwargs = {"k4": 1.0, "k2": 1.0, "k1": 0.0, "mass": 1.0, "cutoff": 20}
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DoubleWellParams(**kwargs)


@pytest.mark.parametrize("cutoff", [4.5, 60.0, np.float64(60.0), True])
def test_params_refuse_non_integer_cutoff(cutoff):
    with pytest.raises(ValueError, match="cutoff must be an integer"):
        DoubleWellParams(1.0, 1.0, cutoff=cutoff)
    with pytest.raises(ValueError, match="cutoff must be an integer"):
        KerrCatParams(xi=1.0, cutoff=cutoff)


@pytest.mark.parametrize("n_levels, bins", [(2.5, 10.5), (4.0, 12.0), (True, np.True_)])
def test_sweep_and_dos_refuse_non_integer_sizes(n_levels, bins):
    with pytest.raises(ValueError, match="n_levels must be an integer"):
        excitation_sweep(1.0, [1.0], 20, n_levels)
    for estimate in (metapotential_dos, esqpt_energy):
        with pytest.raises(ValueError, match="bins must be an integer"):
            estimate(KerrCatParams(xi=2.0), bins=bins)
    assert excitation_sweep(1.0, [1.0], 20, np.int64(4)).n_levels == 4
    assert len(metapotential_dos(KerrCatParams(xi=2.0), bins=np.int64(12))) == 12


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_parity_blocks_lossless_across_drives():
    for xi in (0.0, 2.5, 10.0):
        H = kerrcat_hamiltonian(KerrCatParams(xi=xi, K=1.0, cutoff=80))
        even, odd = parity_split(H)
        merged = np.sort(np.concatenate([eig(even), eig(odd)]))
        assert np.abs(merged - eig(H)).max() < 1e-9


def test_kissing_monotone_over_drive():
    sweep = excitation_sweep(1.0, [0.5, 1.0, 2.0, 4.0], cutoff=80, n_levels=4)
    gaps = [g[1, 1] for g in pair_gaps(sweep)]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-10


def test_cutoff_convergence_of_low_spectrum():
    for xi in (1.0, 5.0):
        e80 = eig(kerrcat_hamiltonian(KerrCatParams(xi=xi, K=1.0, cutoff=80)))[:20]
        e120 = eig(kerrcat_hamiltonian(KerrCatParams(xi=xi, K=1.0, cutoff=120)))[:20]
        assert np.abs(e80 - e120).max() < 1e-8


# ---------------------------------------------------------------------------
# real symmetric path
# ---------------------------------------------------------------------------


def test_kerrcat_operators_are_real():
    H = kerrcat_hamiltonian(KerrCatParams(xi=2.0, K=1.0, cutoff=21))
    assert H.entries.dtype == np.float64
    for block in parity_split(H):
        assert block.entries.dtype == np.float64


@pytest.mark.parametrize(
    "k4, k2, k1, mass",
    [(1.0, 4.0, 0.0, 1.0), (0.5, 6.0, 0.3, 2.0), (0.0, -0.5, 0.2, 0.7), (2.0, 0.0, -0.5, 0.5)],
)
@pytest.mark.parametrize("cutoff", [2, 3, 17, 60, 200])
def test_doublewell_matches_quadrature_build(k4, k2, k1, mass, cutoff):
    # Oracle: the same polynomial in the complex quadrature operators.
    H = doublewell_hamiltonian(DoubleWellParams(k4, k2, k1, mass, cutoff)).entries
    assert H.dtype == np.float64
    x, p = quadratures(QumodeRegister((cutoff,)), 1)
    x2 = x @ x
    oracle = ((1.0 / (2.0 * mass)) * (p @ p) + k4 * (x2 @ x2) - k2 * x2 + k1 * x).entries
    assert np.abs(H - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_doublewell_build_holds_at_most_four_matrices():
    p = DoubleWellParams(1.0, 4.0, 0.1, cutoff=200)
    doublewell_hamiltonian(p)
    tracemalloc.start()
    try:
        doublewell_hamiltonian(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 200**2 * 8 + 2**16


def complex_levels(K, grid, cutoff, n_levels):
    """Excitations and labels from the whole parity blocks of the full matrix,
    solved as complex Hermitian matrices at every grid point."""
    ex, par = [], []
    for xi in grid:
        H = kerrcat_hamiltonian(KerrCatParams(xi=xi, K=K, cutoff=cutoff))
        even, odd = (np.linalg.eigvalsh(block.entries.astype(complex)) for block in parity_split(H))
        (roundoff,) = kerrcat._roundoff(*kerrcat._bands(K, [xi], cutoff))
        levels, labels = kerrcat._merged_levels(even, odd, roundoff, n_levels)
        ex.append(levels - levels[0])
        par.append(labels)
    return kerrcat.SpectrumSweep(grid, ex, par)


@pytest.mark.parametrize("cutoff", [60, 200])
def test_sweep_matches_complex_eigensolver(cutoff):
    # At xi = 20 the 32-row leading blocks of cutoff 200 are not converged.
    grid = [0.0, 0.7, 2.0, 4.0] + [20.0] * (cutoff == 200)
    sweep = excitation_sweep(1.0, grid, cutoff, 12)
    oracle = complex_levels(1.0, grid, cutoff, 12)
    scale = np.abs(oracle.excitations).max()
    assert np.abs(sweep.excitations - oracle.excitations).max() <= 1e-12 * scale
    assert np.array_equal(sweep.parities, oracle.parities)


@pytest.mark.parametrize("xi", [1.0, 2.5, 4.0])
def test_metapotential_dos_equals_full_solve(xi):
    p = KerrCatParams(xi=xi, K=1.0, cutoff=90)
    evals = eig(kerrcat_hamiltonian(p))
    counts, _ = np.histogram(evals - evals[0], bins=12, range=(0.0, 6.0 * xi**2))
    assert np.array_equal(metapotential_dos(p, bins=12).weights, counts / counts.sum())


@pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
def test_dos_equals_the_400_row_reference_or_is_refused(K):
    # Cutoff 16 leaves every window uncertified; cutoff 200 certifies each one.
    outcomes = []
    for xi in (2.0, 6.0, 10.0, 28.0, 40.0):
        reference = dos_reference(K, xi, bins=10, span=6.0)
        for cutoff in (16, 60, 120, 200):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    dos = metapotential_dos(KerrCatParams(xi=xi, K=K, cutoff=cutoff))
            except ConvergenceError as exc:
                assert f"DOS at xi={xi:g} not certified at cutoff {cutoff}: " in str(exc)
                outcomes.append((xi, cutoff, "refused"))
                continue
            assert np.array_equal(dos.energies, reference.energies)
            assert np.array_equal(dos.weights, reference.weights)
            outcomes.append((xi, cutoff, "equal"))
    assert all(o == "refused" for xi, cutoff, o in outcomes if cutoff == 16)
    assert all(o == "equal" for xi, cutoff, o in outcomes if cutoff == 200)


def test_dos_refuses_a_level_on_an_interior_bin_edge():
    # The 5th of 10 edges, at half the window top, falls on a certified level.
    K, xi = 1.0, 2.0
    level = excitation_sweep(K, [xi], 60, 8).excitations[0, 6]
    span = 2 * level / (K * xi**2)
    with pytest.raises(ConvergenceError, match=f"within {kerrcat.SWEEP_CONVERGENCE_TOL:g} of a bin edge"):
        metapotential_dos(KerrCatParams(xi=xi, K=K, cutoff=60), bins=10, span=span)
    # Off the edges, the same level is binned as the reference bins it.
    span *= 1.01
    dos = metapotential_dos(KerrCatParams(xi=xi, K=K, cutoff=60), bins=10, span=span)
    assert np.array_equal(dos.weights, dos_reference(K, xi, bins=10, span=span).weights)


def test_spectra_paths_raise_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        excitation_sweep(1.0, [0.0, 1.5, 3.0], 60, 8)
        metapotential_dos(KerrCatParams(xi=3.0, K=1.0, cutoff=80), bins=12)
        eig(doublewell_hamiltonian(DoubleWellParams(k4=1.0, k2=4.0, k1=0.1, cutoff=60)))
