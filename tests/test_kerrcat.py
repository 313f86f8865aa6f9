import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from qumodelab import (
    ContractViolation,
    ConvergenceError,
    DoubleWellParams,
    KerrCatParams,
    QumodeRegister,
    annihilation,
    density_of_states,
    doublewell_hamiltonian,
    esqpt_energy,
    excitation_sweep,
    kerrcat_hamiltonian,
    metapotential_dos,
    pair_gaps,
    parity_split,
    quadratures,
)
from qumodelab import cli, kerrcat


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


def sweep_oracle(K, grid, cutoff, n_levels):
    """excitation_sweep with every grid point solved again at cutoff + 10."""
    ex, par = [], []
    for xi in grid:
        levels, labels = kerrcat._labelled_levels(K, xi, cutoff, n_levels)
        check, _ = kerrcat._labelled_levels(K, xi, cutoff + 10, n_levels)
        drift = np.abs((levels - levels[0]) - (check - check[0])).max()
        if drift > kerrcat.SWEEP_CONVERGENCE_TOL:
            raise ConvergenceError(
                f"lowest {n_levels} levels not converged at xi={xi:g}: "
                f"cutoff {cutoff} vs {cutoff + 10} differ by {drift:.3e}"
            )
        ex.append(levels - levels[0])
        par.append(labels)
    return kerrcat.SpectrumSweep(grid, ex, par)


def sweep_outcome(sweep, *args):
    try:
        with np.errstate(over="raise", invalid="raise"):
            result = sweep(*args)
    except ConvergenceError as exc:
        return str(exc)
    return result.excitations.tobytes(), result.parities.tobytes()


SCAN_XI = np.linspace(0.0, 6.0, 25)
SCAN_GRIDS = [[xi] for xi in SCAN_XI] + [SCAN_XI]


@pytest.mark.parametrize("n_levels", [1, 2, 6, 12])
@pytest.mark.parametrize("K", [-1.0, 0.0, 0.5, 1.0, 1.5])
def test_sweep_equals_solving_every_point_again(K, n_levels):
    # The Sturm count may clear a point only where the exact rule passes it;
    # every other point gets the exact rule itself.
    for cutoff in range(max(4, n_levels), 61, 4):
        for grid in SCAN_GRIDS:
            args = (K, grid, cutoff, n_levels)
            assert sweep_outcome(excitation_sweep, *args) == sweep_outcome(sweep_oracle, *args)


@pytest.mark.parametrize(
    "K, grid, cutoff",
    [(1e3, [1e3], 20), (1e5, [0.5, 5.0], 400), (1.0, [0.0, 1e155], 30),
     (1.0, [1e300], 20), (1e150, [0.0, 1.0], 30), (1e-300, [1.0, 1e300], 30)],
)
def test_sweep_equals_solving_every_point_again_at_extremes(K, grid, cutoff):
    args = (K, grid, cutoff, 4)
    assert sweep_outcome(excitation_sweep, *args) == sweep_outcome(sweep_oracle, *args)


def test_fig4_sweep_solves_each_parity_block_once(monkeypatch):
    p = json.loads(Path(cli.demo_path("kerrcat-fig4")).read_text())["params"]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: calls.append(len(H)) or eigvalsh(H))
    excitation_sweep(p["K"], p["xi_grid"], p["cutoff"], p["n_levels"])
    assert len(calls) == 2 * len(p["xi_grid"]) == 18


def tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e200])
def test_sturm_count_matches_eigvalsh(scale):
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 17):
        d = scale * rng.normal(size=n)
        e = scale * rng.normal(size=(4, n - 1))
        e[1] = 0.0
        e[2, ::2] = 0.0
        evals = [np.linalg.eigvalsh(tridiagonal(d, row)) for row in e]
        # Between, below and above the eigenvalues the count is exact.
        x = np.array([np.r_[ev[0] - scale, (ev[:-1] + ev[1:]) / 2, ev[-1] + scale] for ev in evals])
        with np.errstate(over="raise", invalid="raise"):
            counts = kerrcat._count_below(d, e, x)
            # At a diagonal entry of the decoupled matrix a pivot is exactly zero.
            (ties,) = kerrcat._count_below(d, e[1:2], d[None, :])
        assert (counts == np.arange(n + 1)).all()
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
    H = kerrcat_hamiltonian(KerrCatParams(xi=2.0, K=1.0, cutoff=60))
    dos = density_of_states(H, bins=20)
    assert abs(dos.total_weight - 1.0) < 1e-12


def test_dos_bin_count_validation():
    H = kerrcat_hamiltonian(KerrCatParams(xi=2.0, K=1.0, cutoff=60))
    with pytest.raises(ValueError):
        density_of_states(H, bins=5)


def test_every_dos_refuses_fewer_than_ten_bins():
    p = KerrCatParams(xi=2.0)
    with pytest.raises(ValueError, match="at least 10 bins"):
        metapotential_dos(p, bins=3)
    with pytest.raises(ValueError, match="at least 10 bins"):
        esqpt_energy(p, bins=1)
    assert len(metapotential_dos(p, bins=kerrcat.MIN_DOS_BINS)) == 10


def test_dos_refuses_an_empty_energy_range():
    H = kerrcat_hamiltonian(KerrCatParams(xi=2.0, K=1.0, cutoff=60))
    with pytest.raises(ValueError, match="no eigenvalues inside"):
        density_of_states(H, bins=10, energy_range=(-100.0, -50.0))


def test_dos_zero_drive_supported_on_number_values():
    H = kerrcat_hamiltonian(KerrCatParams(xi=0.0, K=1.0, cutoff=40))
    dos = density_of_states(H, bins=30)
    half_width = (dos.energies[1] - dos.energies[0]) / 2
    values = {n * (n - 1) for n in range(40)}
    for center, weight in zip(dos.energies, dos.weights):
        if weight > 0:
            assert any(abs(v - center) <= half_width + 1e-9 for v in values)


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


def _complex_blocks(p):
    return tuple(
        block.entries.astype(complex) for block in parity_split(kerrcat_hamiltonian(p))
    )


@pytest.mark.parametrize("cutoff", [60, 200])
def test_sweep_matches_complex_eigensolver(monkeypatch, cutoff):
    grid = [0.0, 0.7, 2.0, 4.0]
    sweep = excitation_sweep(1.0, grid, cutoff, 12)
    monkeypatch.setattr(kerrcat, "_parity_blocks", _complex_blocks)
    oracle = excitation_sweep(1.0, grid, cutoff, 12)
    scale = np.abs(oracle.excitations).max()
    assert np.abs(sweep.excitations - oracle.excitations).max() <= 1e-12 * scale
    assert np.array_equal(sweep.parities, oracle.parities)


@pytest.mark.parametrize("cutoff", [4, 5, 60, 200, 201, 210])
def test_parity_blocks_equal_parity_split(cutoff):
    # The sweep's blocks, built from the bands, against the full matrix's split.
    for K in (1.0, -0.7, 1.3):
        for xi in (0.0, 0.7, 5.5):
            p = KerrCatParams(xi=xi, K=K, cutoff=cutoff)
            blocks = kerrcat._parity_blocks(p)
            for block, oracle in zip(blocks, parity_split(kerrcat_hamiltonian(p))):
                assert block.dtype == oracle.entries.dtype == np.float64
                assert block.shape == oracle.entries.shape
                assert block.tobytes() == oracle.entries.tobytes()


@pytest.mark.parametrize("xi", [1.0, 2.5, 4.0])
def test_metapotential_dos_equals_full_solve(xi):
    p = KerrCatParams(xi=xi, K=1.0, cutoff=90)
    evals = eig(kerrcat_hamiltonian(p))
    counts, _ = np.histogram(evals - evals[0], bins=12, range=(0.0, 6.0 * xi**2))
    assert np.array_equal(metapotential_dos(p, bins=12).weights, counts / counts.sum())


def test_spectra_paths_raise_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        excitation_sweep(1.0, [0.0, 1.5, 3.0], 60, 8)
        metapotential_dos(KerrCatParams(xi=3.0, K=1.0, cutoff=80), bins=12)
        eig(doublewell_hamiltonian(DoubleWellParams(k4=1.0, k2=4.0, k1=0.1, cutoff=60)))
