import numpy as np
import pytest

from qumodelab import (
    QumodeRegister,
    StateVector,
    annihilation,
    apply_circuit,
    basis_state,
    beamsplitter,
    beamsplitter_action,
    compose_circuit,
    displacement,
    number,
    rotation,
    squeezing,
    top_level_population,
)

from oracles import lifted_gate


def unitarity_defect(U, keep=None):
    G = U.conj().T @ U - np.eye(U.shape[0])
    if keep is not None:
        G = G[np.ix_(keep, keep)]
    return np.abs(G).max()


def interior_indices(reg, involved, margin=2):
    """Flat indices whose occupation on every involved mode is below d - margin."""
    keep = []
    for i in range(reg.dim):
        occs = np.unravel_index(i, reg.cutoffs)
        if all(occs[m - 1] < reg.cutoffs[m - 1] - margin for m in involved):
            keep.append(i)
    return keep


# ---------------------------------------------------------------------------
# single gates
# ---------------------------------------------------------------------------


def test_displacement_zero_is_identity():
    reg = QumodeRegister((8,))
    U = compose_circuit([displacement(1, 0.0)], reg)
    assert np.abs(U.entries - np.eye(8)).max() < 1e-14


def test_rotation_is_diagonal_phases():
    reg = QumodeRegister((5,))
    phi = 0.7
    U = compose_circuit([rotation(1, phi)], reg)
    expected = np.diag(np.exp(1j * phi * np.arange(5)))
    assert np.abs(U.entries - expected).max() < 1e-14


def test_squeezed_vacuum_overlap():
    # |<0|S(r)|0>|^2 = 1/cosh(r) for real squeezing
    reg = QumodeRegister((30,))
    for r in (0.1, 0.5, 1.0):
        U = compose_circuit([squeezing(1, r)], reg)
        assert abs(abs(U.entries[0, 0]) ** 2 - 1.0 / np.cosh(r)) < 1e-6


def test_gate_validation():
    with pytest.raises(ValueError):
        beamsplitter(1, 1, 0.3, 0.0)
    with pytest.raises(ValueError):
        displacement(1, complex("inf"))
    reg = QumodeRegister((4, 4))
    with pytest.raises(ValueError):
        compose_circuit([displacement(3, 0.1)], reg)


def test_complex_rotation_and_beamsplitter_parameters_refused_at_construction():
    with pytest.raises(ValueError, match="rotation parameters must be real"):
        rotation(1, 0.5j)
    with pytest.raises(ValueError, match="beamsplitter parameters must be real"):
        beamsplitter(1, 2, 0.3j, 0.0)
    with pytest.raises(ValueError, match="beamsplitter parameters must be real"):
        beamsplitter(1, 2, 0.3, 1 + 0.1j)
    assert squeezing(1, 0.2j).params == (0.2j,)


# ---------------------------------------------------------------------------
# beamsplitter
# ---------------------------------------------------------------------------


def test_beamsplitter_zero_angle_identity():
    reg = QumodeRegister((4, 4))
    U = beamsplitter_action(0.0, 0.0, reg, (1, 2))
    assert np.abs(U.entries - np.eye(16)).max() < 1e-14


def test_beamsplitter_half_angle_swaps_single_photon():
    # On the single-excitation block the generator is [[0, theta], [-theta, 0]],
    # whose exponential at theta = pi/2 maps |1,0> to -|0,1>.
    reg = QumodeRegister((4, 4))
    U = beamsplitter_action(np.pi / 2, 0.0, reg, (1, 2))
    out = U.apply(basis_state(reg, (1, 0)))
    amp = out.amplitudes[1]  # flat index of |0,1>
    assert abs(abs(amp) - 1.0) < 1e-12
    oracle = np.array([[np.cos(np.pi / 2), np.sin(np.pi / 2)],
                       [-np.sin(np.pi / 2), np.cos(np.pi / 2)]])
    assert abs(amp - oracle[1, 0]) < 1e-12


def test_beamsplitter_conserves_photon_number():
    reg = QumodeRegister((6, 6))
    U = beamsplitter_action(0.8, 0.3, reg, (1, 2))
    N = number(reg, 1) + number(reg, 2)
    assert np.abs(U.entries @ N.entries - N.entries @ U.entries).max() < 1e-9

    rng = np.random.default_rng(3)
    for _ in range(5):
        amp = rng.normal(size=36) + 1j * rng.normal(size=36)
        psi = StateVector(amp, reg).normalize()
        before = np.vdot(psi.amplitudes, N.entries @ psi.amplitudes).real
        after_state = U.apply(psi)
        after = np.vdot(after_state.amplitudes, N.entries @ after_state.amplitudes).real
        assert abs(before - after) < 1e-9


def test_beamsplitter_identical_modes_rejected():
    reg = QumodeRegister((4, 4))
    with pytest.raises(ValueError):
        beamsplitter_action(0.5, 0.0, reg, (2, 2))


@pytest.mark.parametrize(
    "theta, phi, modes",
    [(0.3j, 0.0, (1, 2)), (np.nan, 0.0, (1, 2)), (0.3, np.inf, (1, 2)), (0.3, 0.0, (2, 2))],
    ids=["complex theta", "nan theta", "infinite phi", "equal modes"],
)
def test_beamsplitter_action_refuses_as_the_gate_does(theta, phi, modes):
    with pytest.raises(ValueError) as gate:
        beamsplitter(*modes, theta, phi)
    with pytest.raises(ValueError) as action:
        beamsplitter_action(theta, phi, QumodeRegister((4, 4)), modes)
    assert str(action.value) == str(gate.value)


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def test_empty_circuit_is_identity():
    reg = QumodeRegister((5,))
    assert np.array_equal(compose_circuit([], reg).entries, np.eye(5))


def test_displacement_group_law():
    reg = QumodeRegister((16,))
    for alpha in (0.3, 0.8, 1.0):
        U = compose_circuit([displacement(1, alpha), displacement(1, -alpha)], reg)
        keep = interior_indices(reg, (1,))
        diff = np.abs((U.entries - np.eye(16))[np.ix_(keep, keep)]).max()
        assert diff < 1e-7


def test_rotation_angles_add():
    reg = QumodeRegister((6,))
    U = compose_circuit([rotation(1, 0.4), rotation(1, 1.1)], reg)
    V = compose_circuit([rotation(1, 1.5)], reg)
    assert np.abs(U.entries - V.entries).max() < 1e-12


def test_circuit_ordering_first_gate_rightmost():
    reg = QumodeRegister((10,))
    circ = compose_circuit([displacement(1, 0.5), rotation(1, 0.9)], reg)
    later, first = (compose_circuit([g], reg) for g in (rotation(1, 0.9), displacement(1, 0.5)))
    manual = later @ first
    assert np.abs(circ.entries - manual.entries).max() < 1e-13


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_random_gates_unitary_on_interior():
    rng = np.random.default_rng(11)
    reg1 = QumodeRegister((16,))
    reg2 = QumodeRegister((16, 16))
    for _ in range(25):
        kind = rng.integers(0, 4)
        if kind == 0:
            g = displacement(1, rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            U, reg, involved = compose_circuit([g], reg1), reg1, (1,)
        elif kind == 1:
            g = rotation(1, rng.uniform(-np.pi, np.pi))
            U, reg, involved = compose_circuit([g], reg1), reg1, (1,)
        elif kind == 2:
            g = squeezing(1, rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            U, reg, involved = compose_circuit([g], reg1), reg1, (1,)
        else:
            g = beamsplitter(1, 2, rng.uniform(0, 1), rng.uniform(0, 2 * np.pi))
            U, reg, involved = compose_circuit([g], reg2), reg2, (1, 2)
        keep = interior_indices(reg, involved)
        assert unitarity_defect(U.entries, keep) < 1e-7


def test_displacement_cutoff_convergence():
    U20 = compose_circuit([displacement(1, 1.0)], QumodeRegister((20,))).entries
    U30 = compose_circuit([displacement(1, 1.0)], QumodeRegister((30,))).entries
    assert np.abs(U20[:10, :10] - U30[:10, :10]).max() < 1e-8


def test_rotation_commutes_with_number_exactly():
    reg = QumodeRegister((7,))
    R = compose_circuit([rotation(1, 0.6)], reg)
    n = number(reg, 1)
    assert np.abs(R.entries @ n.entries - n.entries @ R.entries).max() == 0.0


# ---------------------------------------------------------------------------
# truncation guard
# ---------------------------------------------------------------------------


def test_apply_circuit_reports_leak():
    reg = QumodeRegister((20,))
    psi = basis_state(reg, (0,))
    out, leak = apply_circuit([displacement(1, 0.5)], reg, psi)
    assert leak.shape == (1,)
    assert leak[0] < 1e-6
    assert abs(out.norm - 1.0) < 1e-10


def test_apply_circuit_warns_on_truncation_stress():
    reg = QumodeRegister((6,))
    psi = basis_state(reg, (0,))
    with pytest.warns(RuntimeWarning):
        apply_circuit([displacement(1, 2.0)], reg, psi)


def test_top_level_population_counts_top_two_levels():
    reg = QumodeRegister((5,))
    psi = basis_state(reg, (4,))
    assert np.allclose(top_level_population(psi), [1.0])
    psi = basis_state(reg, (2,))
    assert np.allclose(top_level_population(psi), [0.0])


@pytest.mark.parametrize(
    "cutoffs, modes", [((12, 12), (1, 2)), ((6, 7, 5), (1, 2)), ((6, 7, 5), (3, 1))]
)
def test_beamsplitter_matches_full_register_generator(cutoffs, modes):
    """The lifted generator gives the exponential of
    theta (e^{i phi} adag_j a_k - e^{-i phi} a_j adag_k) built from
    full-register ladder operators."""
    reg = QumodeRegister(cutoffs)
    theta, phi = 0.8, 0.3
    aj = annihilation(reg, modes[0]).entries
    ak = annihilation(reg, modes[1]).entries
    G = theta * (np.exp(1j * phi) * aj.conj().T @ ak - np.exp(-1j * phi) * aj @ ak.conj().T)
    w, V = np.linalg.eigh(1j * G)
    oracle = (V * np.exp(-1j * w)) @ V.conj().T
    U = beamsplitter_action(theta, phi, reg, modes).entries
    assert U.dtype == np.complex128
    assert np.abs(U - oracle).max() < 1e-13


# ---------------------------------------------------------------------------
# mode indexing on a register of unequal cutoffs
# ---------------------------------------------------------------------------

UNEQUAL = QumodeRegister((2, 3, 4))
SINGLE_MODE_GATES = (
    lambda m: displacement(m, 0.3 - 0.2j),
    lambda m: rotation(m, 0.7),
    lambda m: squeezing(m, 0.25 + 0.1j),
)


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("make", SINGLE_MODE_GATES, ids=["displacement", "rotation", "squeezing"])
def test_single_mode_gate_acts_on_its_own_mode(make, mode):
    # A product with the identity adds only exact zeros to each entry.
    gate = make(mode)
    assert np.array_equal(compose_circuit([gate], UNEQUAL).entries, lifted_gate(gate, UNEQUAL))


def test_gate_chain_on_unequal_cutoffs_matches_lifted_product():
    gates = [
        squeezing(2, 0.2),
        beamsplitter(1, 3, 0.6, 0.4),
        displacement(3, 0.3 + 0.1j),
        rotation(1, 1.1),
        beamsplitter(2, 3, 0.5, -0.2),
        displacement(2, -0.2j),
    ]
    expected = np.eye(UNEQUAL.dim)
    for gate in gates:
        if gate.kind == "beamsplitter":
            theta, phi = gate.params
            U = beamsplitter_action(theta.real, phi.real, UNEQUAL, gate.modes).entries
        else:
            U = lifted_gate(gate, UNEQUAL)
        expected = U @ expected
    assert np.abs(compose_circuit(gates, UNEQUAL).entries - expected).max() < 1e-13
    psi = basis_state(UNEQUAL, (1, 2, 1))
    out, _ = apply_circuit(gates, UNEQUAL, psi, warn_threshold=1.0)
    assert np.abs(out.amplitudes - expected @ psi.amplitudes).max() < 1e-13
