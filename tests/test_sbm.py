import math
import warnings

import numpy as np
import pytest

from qumodelab import (
    ContractViolation,
    DenseHamiltonian,
    Operator,
    QumodeRegister,
    WAVENUMBER_TO_RAD_PER_PS,
    annihilation,
    computational_block,
    fmo_hamiltonian,
    map_hamiltonian,
    number,
    sbm_evolve,
)
from qumodelab.fock import _propagate

from oracles import sbm_projector


def random_hermitian(k, rng):
    X = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return (X + X.conj().T) / 2


def direct_populations(H, psi0, times):
    """k x k diagonalization oracle, including the wavenumber conversion."""
    M = H.entries * (WAVENUMBER_TO_RAD_PER_PS if H.units == "1/cm" else 1.0)
    w, V = np.linalg.eigh(M)
    coeffs = V.conj().T @ psi0
    out = []
    for t in times:
        out.append(np.abs(V @ (np.exp(-1j * w * t) * coeffs)) ** 2)
    return np.array(out)


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------


def test_k2_projectors_are_matrix_units():
    # Gamma_2 = (1 - n) a sends |1> to |0> and kills |0>, |2>; the four
    # dressed polynomials act as the 2x2 matrix units on levels {0, 1}.
    for (n, m) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        P = sbm_projector(n, m, k=2, cutoff=3)
        expected = np.zeros((2, 2))
        expected[n, m] = 1.0
        assert np.abs(computational_block(P, 2) - expected).max() < 1e-9


def test_k3_projectors_reproduce_all_matrix_units():
    for n in range(3):
        for m in range(3):
            P = sbm_projector(n, m, k=3, cutoff=5)
            expected = np.zeros((3, 3))
            expected[n, m] = 1.0
            assert np.abs(computational_block(P, 3) - expected).max() < 1e-9


@pytest.mark.parametrize("k", range(1, 7))
def test_map_equals_sum_of_projector_polynomials(k):
    # The factored map against the k^2 projector polynomials it replaces.
    rng = np.random.default_rng(100 + k)
    H = random_hermitian(k, rng)
    for cutoff in (2 * k - 1, 2 * k + 5):
        oracle = sum(
            H[n, m] * sbm_projector(n, m, k, cutoff).entries
            for n in range(k)
            for m in range(k)
        )
        mapped = map_hamiltonian(DenseHamiltonian(H), cutoff).entries
        assert np.abs(mapped - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_projector_validation():
    with pytest.raises(ValueError):
        sbm_projector(2, 0, k=2, cutoff=3)
    with pytest.raises(ValueError):
        sbm_projector(0, 0, k=3, cutoff=4)  # needs 2k-1 = 5 levels


# ---------------------------------------------------------------------------
# Hamiltonian mapping
# ---------------------------------------------------------------------------


def test_pauli_z_mapping():
    H = DenseHamiltonian(np.diag([1.0, -1.0]))
    mapped = map_hamiltonian(H, cutoff=3)
    block = computational_block(mapped, 2)
    assert np.array_equal(block.real, np.diag([1.0, -1.0]))
    assert np.abs(block.imag).max() == 0.0
    # closed form 1 - 2 adag a on the same levels
    reg = QumodeRegister((3,))
    closed = np.eye(3) - 2.0 * number(reg, 1).entries
    assert np.array_equal(block, closed[:2, :2])


def test_identity_mapping():
    H = DenseHamiltonian(np.eye(2))
    block = computational_block(map_hamiltonian(H, cutoff=3), 2)
    assert np.abs(block - np.eye(2)).max() < 1e-12


def test_fmo_mapping_reproduces_entries():
    H = fmo_hamiltonian()
    block = computational_block(map_hamiltonian(H, cutoff=7), 4)
    assert np.abs(block - H.entries).max() < 1e-9
    assert abs(block[0, 1].real - (-97.9)) < 1e-9


def test_non_hermitian_input_rejected():
    with pytest.raises(ContractViolation):
        DenseHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_empty_hamiltonian_rejected():
    with pytest.raises(ValueError, match="at least one level"):
        DenseHamiltonian(np.zeros((0, 0)))


def test_mapping_cutoff_too_small():
    H = DenseHamiltonian(np.eye(3))
    with pytest.raises(ValueError):
        map_hamiltonian(H, cutoff=4)


# ---------------------------------------------------------------------------
# embedded dynamics
# ---------------------------------------------------------------------------


def test_time_zero_populations():
    H = fmo_hamiltonian()
    psi0 = np.zeros(4, dtype=complex)
    psi0[1] = 1.0
    pops = sbm_evolve(H, psi0, [0.0], cutoff=7)
    assert np.abs(pops[0] - np.abs(psi0) ** 2).max() < 1e-12


def test_fmo_dynamics_match_direct_diagonalization():
    H = fmo_hamiltonian()
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    times = np.linspace(0.0, 1.0, 100)
    pops = sbm_evolve(H, psi0, times, cutoff=7)
    oracle = direct_populations(H, psi0, times)
    assert np.abs(pops - oracle).max() < 1e-8
    assert np.abs(pops.sum(axis=1) - 1.0).max() < 1e-8


def test_two_level_rabi_oscillation():
    # X-form coupling: population of the start level goes as cos^2(|H01| t)
    coupling = 0.8
    H = DenseHamiltonian(np.array([[0.0, coupling], [coupling, 0.0]]))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    times = np.linspace(0.0, 4.0, 25)
    pops = sbm_evolve(H, psi0, times, cutoff=3)
    assert np.abs(pops[:, 0] - np.cos(coupling * times) ** 2).max() < 1e-8


def test_unnormalized_initial_state_rejected():
    H = fmo_hamiltonian()
    with pytest.raises(ValueError):
        sbm_evolve(H, np.array([1.0, 1.0, 0.0, 0.0]), [0.0], cutoff=7)


@pytest.mark.parametrize(
    "times, bad", [([float("nan"), 1.0], "nan"), ([0.0, float("inf")], "inf")]
)
def test_non_finite_time_rejected(times, bad):
    with pytest.raises(ValueError, match=f"time must be finite, got {bad}"):
        sbm_evolve(fmo_hamiltonian(), np.eye(4)[0], times, cutoff=7)


@pytest.mark.parametrize("cutoff", [3.5, 7.0, True])
def test_sizes_refuse_non_integers(cutoff):
    with pytest.raises(ValueError, match="cutoff must be an integer"):
        map_hamiltonian(fmo_hamiltonian(), cutoff)
    with pytest.raises(ValueError, match="k must be an integer"):
        sbm_projector(0, 0, 2.0, 3)
    assert map_hamiltonian(fmo_hamiltonian(), np.int64(7)).dim == 7


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_subspace_fidelity_random_hamiltonians():
    rng = np.random.default_rng(17)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        H = DenseHamiltonian(random_hermitian(k, rng))
        block = computational_block(map_hamiltonian(H, 2 * k - 1), k)
        assert np.abs(block - H.entries).max() < 1e-9


def test_restricted_propagation_equivalence():
    rng = np.random.default_rng(23)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        H = DenseHamiltonian(random_hermitian(k, rng))
        amp = rng.normal(size=k) + 1j * rng.normal(size=k)
        psi0 = amp / np.linalg.norm(amp)
        tmax = 10.0 / np.linalg.norm(H.entries, 2)
        times = np.linspace(0.0, tmax, 7)
        pops = sbm_evolve(H, psi0, times, cutoff=2 * k - 1)
        oracle = direct_populations(H, psi0, times)
        assert np.abs(pops - oracle).max() < 1e-8


@pytest.mark.parametrize("k", [4, 13, 20, 25, 30])
def test_map_is_exact_at_large_k(k):
    # Oracle: H itself, not sbm_projector, which builds the same (k - 1 - n) a.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(k, k))
    H = DenseHamiltonian((X + X.T) / 2)
    block = computational_block(map_hamiltonian(H, 2 * k - 1), k)
    assert np.abs(block - H.entries).max() <= 1e-14 * np.abs(H.entries).max()
    psi0 = np.eye(k)[1]
    times = [0.0, 1.0, 2.0]
    oracle = np.abs(_propagate(H.entries, psi0, times)) ** 2
    assert np.abs(sbm_evolve(H, psi0, times, cutoff=2 * k - 1) - oracle).max() < 1e-12


def test_mapping_linearity():
    rng = np.random.default_rng(29)
    k = 3
    H1 = random_hermitian(k, rng)
    H2 = random_hermitian(k, rng)
    a, b = 0.7, -1.3
    combo = map_hamiltonian(DenseHamiltonian(a * H1 + b * H2), 2 * k - 1).entries
    parts = (
        a * map_hamiltonian(DenseHamiltonian(H1), 2 * k - 1).entries
        + b * map_hamiltonian(DenseHamiltonian(H2), 2 * k - 1).entries
    )
    assert np.abs(combo - parts).max() < 1e-12


# ---------------------------------------------------------------------------
# dtype rule
# ---------------------------------------------------------------------------


def test_real_hamiltonian_maps_to_real_operator():
    H = fmo_hamiltonian()
    assert H.entries.dtype == np.float64
    assert map_hamiltonian(H, cutoff=7).entries.dtype == np.float64
    assert DenseHamiltonian([[1, 0], [0, -1]]).entries.dtype == np.float64


def test_complex_hamiltonian_stays_complex():
    H = DenseHamiltonian(random_hermitian(3, np.random.default_rng(3)))
    assert H.entries.dtype == np.complex128
    mapped = map_hamiltonian(H, cutoff=5)
    assert mapped.entries.dtype == np.complex128
    assert np.abs(computational_block(mapped, 3) - H.entries).max() < 1e-10


def test_sbm_evolve_raises_no_warnings():
    H = fmo_hamiltonian()
    psi0 = np.eye(4)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pops = sbm_evolve(H, psi0, np.linspace(0.0, 1.0, 5), cutoff=7)
    assert np.abs(pops.sum(axis=1) - 1.0).max() < 1e-10


def test_projector_and_snail_are_real_and_match_the_complex_build():
    k, cutoff = 4, 9
    a = annihilation(QumodeRegister((cutoff,)), 1).entries
    adag = a.conj().T
    gamma = ((k - 1) * np.eye(cutoff) - adag @ a) @ a
    mp = np.linalg.matrix_power
    for n, m in [(0, 0), (1, 3), (3, 2)]:
        scale = math.sqrt(math.factorial(m) / math.factorial(n)) / math.factorial(k - 1) ** 2
        oracle = scale * (mp(adag, n) @ mp(gamma, k - 1) @ mp(adag, k - 1 - m))
        P = sbm_projector(n, m, k, cutoff).entries
        assert P.dtype == np.float64
        assert np.abs(P - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_hermiticity_tolerances_stay_distinct():
    """DenseHamiltonian refuses a defect of 5e-10 (tolerance 1e-10)."""

    def skewed(defect):
        return np.array([[0.0, 1.0 + defect], [1.0, 0.0]])

    with pytest.raises(ContractViolation, match="not Hermitian"):
        DenseHamiltonian(skewed(5e-10))


@pytest.mark.parametrize("k", [-2, 0, 6])
def test_computational_block_refuses_sizes_outside_the_cutoff(k):
    op = Operator(np.arange(25.0).reshape(5, 5), QumodeRegister((5,)))
    assert computational_block(op, 5).shape == (5, 5)
    with pytest.raises(ValueError, match=r"block size .* outside 1\.\.5"):
        computational_block(op, k)
