import numpy as np
import pytest

from qumodelab import (
    ContractViolation,
    DoktorovSpec,
    Operator,
    QumodeRegister,
    StateVector,
    annihilation,
    basis_state,
    beamsplitter,
    commutator,
    compose_circuit,
    creation,
    displacement,
    doktorov_operator,
    evolve,
    flat_index,
    gate_matrix,
    identity,
    number,
    quadratures,
    qudit_fourier,
    rotation,
    squeezing,
    unflatten,
)


def taylor_expm(M, nterms=50):
    """Brute-force matrix exponential: scaled 50-term Taylor series, squared back."""
    M = np.asarray(M, dtype=complex)
    norm = np.linalg.norm(M, ord=np.inf)
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    A = M / 2**s
    out = np.eye(len(M), dtype=complex)
    term = np.eye(len(M), dtype=complex)
    for k in range(1, nterms + 1):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# register and indexing
# ---------------------------------------------------------------------------


def test_register_validation():
    with pytest.raises(ValueError):
        QumodeRegister(())
    with pytest.raises(ValueError):
        QumodeRegister((3, 0))
    reg = QumodeRegister((3, 4))
    assert reg.dim == 12
    assert reg.nmodes == 2


def test_flat_index_examples():
    assert flat_index((0, 0), QumodeRegister((3, 3))) == 0
    assert flat_index((1, 2), QumodeRegister((3, 3))) == 5
    assert flat_index((1, 0, 1), QumodeRegister((2, 2, 2))) == 5


def test_flat_index_out_of_range():
    reg = QumodeRegister((3, 3))
    with pytest.raises(ValueError):
        flat_index((3, 0), reg)
    with pytest.raises(ValueError):
        flat_index((0, -1), reg)
    with pytest.raises(ValueError):
        flat_index((0, 0, 0), reg)


def test_flat_unflatten_roundtrip_random_registers():
    rng = np.random.default_rng(42)
    for _ in range(20):
        nmodes = int(rng.integers(1, 5))
        cutoffs = tuple(int(rng.integers(1, 6)) for _ in range(nmodes))
        reg = QumodeRegister(cutoffs)
        for i in range(reg.dim):
            assert flat_index(unflatten(i, reg), reg) == i


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------


def test_annihilation_on_vacuum_and_fock_states():
    reg = QumodeRegister((4,))
    a = annihilation(reg, 1)
    vac = basis_state(reg, (0,))
    assert np.allclose(a.apply(vac).amplitudes, 0.0)
    two = basis_state(reg, (2,))
    out = a.apply(two).amplitudes
    expected = np.sqrt(2.0) * basis_state(reg, (1,)).amplitudes
    assert np.allclose(out, expected, atol=1e-14)


def test_annihilation_superdiagonal_structure():
    reg = QumodeRegister((4,))
    a = annihilation(reg, 1).entries
    mask = np.zeros_like(a, dtype=bool)
    mask[np.arange(3), np.arange(1, 4)] = True
    assert np.all(a[~mask] == 0)
    assert np.all(a[mask] != 0)


def test_creation_examples_and_adjoint():
    reg = QumodeRegister((4,))
    adag = creation(reg, 1)
    vac = basis_state(reg, (0,))
    assert np.allclose(adag.apply(vac).amplitudes, basis_state(reg, (1,)).amplitudes)
    top = basis_state(reg, (3,))
    assert np.allclose(adag.apply(top).amplitudes, 0.0)
    # exact adjoint relation, not just within tolerance
    assert np.array_equal(adag.entries, annihilation(reg, 1).entries.conj().T)


def test_invalid_mode_index():
    reg = QumodeRegister((4, 4))
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            annihilation(reg, bad)


def test_number_operator():
    reg = QumodeRegister((5,))
    n = number(reg, 1)
    assert np.abs(np.diag(n.entries) - np.arange(5)).max() < 1e-12
    assert np.allclose(n.apply(basis_state(reg, (0,))).amplitudes, 0.0)
    prod = creation(reg, 1) @ annihilation(reg, 1)
    assert np.array_equal(n.entries, prod.entries)


def test_number_equals_product_multimode():
    reg = QumodeRegister((3, 4))
    for mode in (1, 2):
        n = number(reg, mode)
        prod = creation(reg, mode) @ annihilation(reg, mode)
        assert np.array_equal(n.entries, prod.entries)


def test_quadratures():
    reg = QumodeRegister((6,))
    x, p = quadratures(reg, 1)
    assert abs(x.entries[0, 1] - np.sqrt(0.5)) < 1e-14
    assert x.hermiticity_defect() < 1e-12
    assert p.hermiticity_defect() < 1e-12
    # canonical commutator i*hbar on all levels except the truncated top
    comm = commutator(x, p).entries
    expected = 1j * np.eye(6)
    assert np.abs((comm - expected)[:5, :5]).max() < 1e-12


def test_commutator_ladder_identity():
    for d in range(2, 13):
        reg = QumodeRegister((d,))
        a = annihilation(reg, 1)
        c = commutator(a, a.adjoint).entries - np.eye(d)
        c_interior = c.copy()
        c_interior[d - 1, d - 1] = 0.0
        assert np.abs(c_interior).max() < 1e-12
        assert abs(c[d - 1, d - 1] + d) < 1e-12


def test_commutator_distinct_modes_and_self():
    reg = QumodeRegister((3, 3))
    a1 = annihilation(reg, 1)
    a2dag = creation(reg, 2)
    assert np.abs(commutator(a1, a2dag).entries).max() == 0.0
    assert np.abs(commutator(a1, a1).entries).max() == 0.0


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_statevector_normalize():
    reg = QumodeRegister((4,))
    psi = StateVector(np.array([1.0, 1.0, 0, 0], dtype=complex), reg)
    assert abs(psi.normalize().norm - 1.0) < 1e-10
    with pytest.raises(ValueError):
        StateVector(np.zeros(4, dtype=complex), reg).normalize()


def test_statevector_mode_populations():
    reg = QumodeRegister((2, 3))
    psi = basis_state(reg, (1, 2))
    assert np.allclose(psi.mode_populations(1), [0, 1])
    assert np.allclose(psi.mode_populations(2), [0, 0, 1])


def test_values_are_immutable():
    reg = QumodeRegister((3,))
    psi = basis_state(reg, (0,))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0
    op = number(reg, 1)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 7.0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_zero_time_is_identity():
    reg = QumodeRegister((4,))
    psi = basis_state(reg, (2,))
    out = evolve(number(reg, 1), 0.0, psi)
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-14)


def test_evolve_diagonal_phases():
    reg = QumodeRegister((2,))
    H = Operator(np.diag([0.3, 1.7]).astype(complex), reg)
    psi = StateVector(np.array([0.6, 0.8], dtype=complex), reg)
    out = evolve(H, 2.5, psi)
    expected = psi.amplitudes * np.exp(-1j * np.array([0.3, 1.7]) * 2.5)
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_evolve_pauli_x_population_swap():
    reg = QumodeRegister((2,))
    H = Operator(np.array([[0, 1], [1, 0]], dtype=complex), reg)
    out = evolve(H, np.pi / 2, basis_state(reg, (0,)))
    probs = out.probabilities()
    assert abs(probs[1] - 1.0) < 1e-12
    assert probs[0] < 1e-12


def test_evolve_rejects_non_hermitian():
    reg = QumodeRegister((3,))
    with pytest.raises(ContractViolation):
        evolve(annihilation(reg, 1), 1.0, basis_state(reg, (0,)))


def test_evolve_norm_and_taylor_oracle():
    rng = np.random.default_rng(7)
    for cutoffs in [(8,), (4, 4), (4, 4, 4)]:
        reg = QumodeRegister(cutoffs)
        X = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
        H = Operator((X + X.conj().T) / 2, reg)
        amp = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
        psi = StateVector(amp, reg).normalize()
        t = 0.37
        out = evolve(H, t, psi)
        assert abs(out.norm - 1.0) < 1e-9
        oracle = taylor_expm(-1j * H.entries * t) @ psi.amplitudes
        assert np.abs(out.amplitudes - oracle).max() < 1e-8


def test_identity_helper():
    reg = QumodeRegister((3, 2))
    assert np.array_equal(identity(reg).entries, np.eye(6))


# ---------------------------------------------------------------------------
# dtype rule: real entries stay real, complex ones stay complex
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entries, dtype",
    [
        (np.eye(3), np.float64),
        (np.eye(3, dtype=np.float32), np.float64),
        (np.eye(3, dtype=int), np.float64),
        (np.eye(3, dtype=bool), np.float64),
        ([[0, 1, 0], [1, 0, 0], [0, 0, 2]], np.float64),
        (1j * np.eye(3), np.complex128),
        (np.eye(3, dtype=np.complex64), np.complex128),
        ([[0, 1j, 0], [-1j, 0, 0], [0, 0, 1]], np.complex128),
    ],
)
def test_operator_dtype_rule(entries, dtype):
    op = Operator(entries, QumodeRegister((3,)))
    assert op.entries.dtype == dtype
    assert np.array_equal(op.entries, np.asarray(entries))


def test_operator_copies_its_input():
    m = np.eye(3)
    op = Operator(m, QumodeRegister((3,)))
    m[0, 0] = 5.0
    assert op.entries[0, 0] == 1.0


def test_real_operator_arithmetic_and_evolution():
    reg = QumodeRegister((2,))
    sx = Operator([[0.0, 1.0], [1.0, 0.0]], reg)
    assert (sx @ sx).entries.dtype == np.float64
    assert (sx.adjoint - sx).entries.dtype == np.float64
    assert (1j * sx).entries.dtype == np.complex128
    out = evolve(sx, np.pi / 2, basis_state(reg, (0,)))
    assert np.allclose(out.probabilities(), [0.0, 1.0], atol=1e-12)


def test_complex_sources_stay_complex():
    reg = QumodeRegister((4, 3))
    gates = [
        displacement(1, 0.3 + 0.1j),
        rotation(2, 0.4),
        squeezing(1, 0.2),
        beamsplitter(1, 2, 0.5, 0.0),
    ]
    for gate in gates:
        assert gate_matrix(gate, reg).entries.dtype == np.complex128, gate.kind
    assert compose_circuit(gates, reg).entries.dtype == np.complex128
    assert compose_circuit([], reg).entries.dtype == np.complex128
    assert identity(reg).entries.dtype == np.complex128
    assert annihilation(reg, 1).entries.dtype == np.complex128
    assert qudit_fourier(3).entries.dtype == np.complex128
    spec = DoktorovSpec(z1=0.1, z2=0.0, theta_bs=0.2, phi_bs=0.0, alpha1=0.3, alpha2=0.0)
    assert doktorov_operator(spec, QumodeRegister((5, 5))).entries.dtype == np.complex128
