import tracemalloc

import numpy as np
import pytest

from qumodelab import (
    ContractViolation,
    Operator,
    QpeSpec,
    QumodeRegister,
    StateVector,
    basis_state,
    outcome_digits,
    phase_from_outcome,
    run_qpe,
    sample_readout,
)

from oracles import qpe_circuit, qudit_fourier


def phase_spec(d, t, phi, eigenlevel=1):
    """QPE problem for the diagonal unitary with U|j> = exp(2 pi i j phi)|j>."""
    reg = QumodeRegister((d,))
    U = Operator(np.diag(np.exp(2j * np.pi * phi * np.arange(d))), reg)
    return QpeSpec(d=d, t=t, U=U, eigenstate=basis_state(reg, (eigenlevel,)))


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


def test_fourier_d2_is_hadamard():
    F = qudit_fourier(2).entries
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert np.abs(F - H).max() < 1e-14


def test_fourier_unitary():
    for d in (2, 3, 5, 8):
        F = qudit_fourier(d).entries
        assert np.abs(F @ F.conj().T - np.eye(d)).max() < 1e-12


def test_fourier_fourth_power_is_identity():
    for d in (2, 3, 4, 6):
        F = qudit_fourier(d).entries
        F4 = np.linalg.matrix_power(F, 4)
        assert np.abs(F4 - np.eye(d)).max() < 1e-10


def test_fourier_dimension_validation():
    with pytest.raises(ValueError):
        qudit_fourier(1)


# ---------------------------------------------------------------------------
# full circuit
# ---------------------------------------------------------------------------


def test_zero_phase_reads_all_zeros():
    dist = run_qpe(phase_spec(3, 2, phi=0.0, eigenlevel=0))
    assert abs(dist[0] - 1.0) < 1e-12


def test_exactly_representable_phase_d3():
    dist = run_qpe(phase_spec(3, 1, phi=2.0 / 3.0))
    assert abs(dist[2] - 1.0) < 1e-9


def test_representable_phases_recovered_deterministically():
    for d, t in [(2, 2), (3, 2), (4, 1)]:
        for a in range(d**t):
            dist = run_qpe(phase_spec(d, t, phi=a / d**t))
            assert abs(dist[a] - 1.0) < 1e-9


def test_non_representable_phase_modal_outcome():
    phi = 0.2
    dist = run_qpe(phase_spec(2, 3, phi=phi))
    modal = int(np.argmax(dist))
    assert modal == 2  # 0.25 is the best 3-bit approximation of 0.2
    assert dist[modal] >= 4.0 / np.pi**2
    # direct statevector oracle: |sin(pi D delta) / (D sin(pi delta))|^2
    D = 8
    delta = phi - modal / D
    oracle = (np.sin(np.pi * D * delta) / (D * np.sin(np.pi * delta))) ** 2
    assert abs(dist[modal] - oracle) < 1e-12


def test_distribution_normalized_and_circuit_unitary():
    spec = phase_spec(3, 2, phi=0.37)
    dist = run_qpe(spec)
    assert abs(dist.sum() - 1.0) < 1e-10
    C = qpe_circuit(spec).entries
    assert np.abs(C.conj().T @ C - np.eye(C.shape[0])).max() < 1e-10


def circuit_readout(spec):
    """Readout marginals of the full circuit unitary on |0...0> (x) |eigenstate>."""
    psi0 = np.zeros(spec.d ** (spec.t + 1), dtype=complex)
    psi0[: spec.d] = spec.eigenstate.amplitudes
    final = qpe_circuit(spec).entries @ psi0
    return (np.abs(final.reshape(spec.d**spec.t, spec.d)) ** 2).sum(axis=1)


def pauli_x_minus_spec():
    reg = QumodeRegister((2,))
    U = Operator(np.array([[0.0, 1.0], [1.0, 0.0]]).astype(complex), reg)
    minus = StateVector(np.array([1.0, -1.0]) / np.sqrt(2), reg)
    return QpeSpec(d=2, t=2, U=U, eigenstate=minus)


@pytest.mark.parametrize(
    "spec",
    [phase_spec(2, 3, 0.37), phase_spec(3, 2, 0.2), phase_spec(4, 2, 0.81), pauli_x_minus_spec()],
    ids=["d2-t3", "d3-t2", "d4-t2", "pauli-x-minus"],
)
def test_run_qpe_matches_circuit_oracle(spec):
    assert np.abs(run_qpe(spec) - circuit_readout(spec)).max() < 1e-12


def test_distribution_is_fejer_kernel():
    d, t, phi = 4, 4, 0.3137
    n = d**t
    dist = run_qpe(phase_spec(d, t, phi))
    delta = phi - np.arange(n) / n
    fejer = (np.sin(np.pi * n * delta) / (n * np.sin(np.pi * delta))) ** 2
    assert np.abs(dist - fejer).max() < 1e-12


def test_run_qpe_never_builds_the_circuit():
    # The circuit unitary at d=8, t=3 is 4096 x 4096 complex: 256 MiB.
    spec = phase_spec(8, 3, 0.3137)
    tracemalloc.start()
    try:
        run_qpe(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_run_qpe_builds_no_register_fourier_matrix():
    # The register Fourier matrix at d=2, t=11 is 2048 x 2048 complex: 64 MiB.
    spec = phase_spec(2, 11, 0.3137)
    tracemalloc.start()
    try:
        run_qpe(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_global_phase_shifts_distribution_cyclically():
    d, t = 2, 3
    phi = 0.37  # not representable
    base = run_qpe(phase_spec(d, t, phi))
    for a in (1, 3):
        shifted = run_qpe(phase_spec(d, t, phi + a / d**t))
        assert np.abs(shifted - np.roll(base, a)).max() < 1e-10


def test_eigenstate_validation():
    reg = QumodeRegister((2,))
    U = Operator(np.array([[0.0, 1.0], [1.0, 0.0]]).astype(complex), reg)
    with pytest.raises(ContractViolation):
        QpeSpec(d=2, t=1, U=U, eigenstate=basis_state(reg, (0,)))
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), reg)
    spec = QpeSpec(d=2, t=1, U=U, eigenstate=plus)
    assert abs(spec.phase - 0.0) < 1e-12
    with pytest.raises(ContractViolation, match="U is not unitary"):
        QpeSpec(d=2, t=1, U=0.5 * U, eigenstate=plus)


def test_non_diagonal_unitary():
    # X has eigenstates |+> (phase 0) and |-> (phase 1/2); both phases are
    # representable with a single qubit of register
    reg = QumodeRegister((2,))
    U = Operator(np.array([[0.0, 1.0], [1.0, 0.0]]).astype(complex), reg)
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), reg)
    minus = StateVector(np.array([1.0, -1.0]) / np.sqrt(2), reg)
    dist_plus = run_qpe(QpeSpec(d=2, t=1, U=U, eigenstate=plus))
    dist_minus = run_qpe(QpeSpec(d=2, t=1, U=U, eigenstate=minus))
    assert abs(dist_plus[0] - 1.0) < 1e-12
    assert abs(dist_minus[1] - 1.0) < 1e-12


@pytest.mark.parametrize("field, value", [("d", 2.0), ("d", True), ("t", 1.5), ("t", np.True_)])
def test_spec_refuses_non_integer_sizes(field, value):
    spec = phase_spec(2, 1, 0.5)
    kwargs = {"d": 2, "t": 1, "U": spec.U, "eigenstate": spec.eigenstate, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        QpeSpec(**kwargs)


def test_spec_accepts_numpy_integer_sizes():
    spec = phase_spec(2, 2, 0.25)
    numpy_sizes = QpeSpec(d=np.int64(2), t=np.int32(2), U=spec.U, eigenstate=spec.eigenstate)
    assert np.array_equal(run_qpe(numpy_sizes), run_qpe(spec))


def test_phase_property():
    spec = phase_spec(4, 1, phi=0.625)
    assert abs(spec.phase - 0.625) < 1e-12


def test_outcome_helpers():
    assert outcome_digits(5, d=2, t=3) == "101"
    assert outcome_digits(4, d=3, t=2) == "11"
    assert outcome_digits(22, d=12, t=2) == "0110"  # digits (1, 10)
    assert outcome_digits(132, d=12, t=2) == "1100"  # digits (11, 0)
    assert phase_from_outcome(3, d=2, t=3) == pytest.approx(0.375)


def test_outcome_digits_refuses_a_readout_outside_the_register():
    assert outcome_digits(7, d=2, t=3) == "111"
    for outcome in (-1, 8, 100):
        with pytest.raises(ValueError, match=r"outside 0\.\.7"):
            outcome_digits(outcome, d=2, t=3)


def test_phase_from_outcome_refuses_a_readout_outside_the_register():
    assert phase_from_outcome(7, d=2, t=3) == 0.875
    for outcome in (-1, 8, 9):
        with pytest.raises(ValueError, match=r"outside 0\.\.7"):
            phase_from_outcome(outcome, d=2, t=3)


@pytest.mark.parametrize("d", [2, 3, 10, 11, 12, 64])
def test_outcome_strings_are_distinct_and_equally_long(d):
    # Every register size the CLI accepts (d^(t+1) <= 4096); above d = 10 a
    # digit takes more than one character.
    for t in range(1, 12):
        if d ** (t + 1) > 4096:
            break
        strings = {outcome_digits(x, d, t) for x in range(d**t)}
        assert len(strings) == d**t
        assert {len(s) for s in strings} == {t * len(str(d - 1))}


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_point_distribution_sampling():
    dist = np.array([0.0, 1.0, 0.0])
    counts = sample_readout(dist, shots=500, seed=4)
    assert counts[1] == 500 and counts.sum() == 500


def test_sampling_deterministic_for_seed():
    dist = np.array([0.25, 0.25, 0.25, 0.25])
    a = sample_readout(dist, shots=1000, seed=123)
    b = sample_readout(dist, shots=1000, seed=123)
    assert np.array_equal(a, b)


def test_uniform_sampling_within_five_sigma():
    shots = 100_000
    dist = np.full(4, 0.25)
    counts = sample_readout(dist, shots=shots, seed=0)
    sigma = np.sqrt(shots * 0.25 * 0.75)
    assert np.abs(counts - shots * 0.25).max() < 5 * sigma


def test_sampling_validation():
    with pytest.raises(ValueError):
        sample_readout(np.array([0.5, 0.2]), shots=10, seed=0)
    with pytest.raises(ValueError):
        sample_readout(np.array([0.5, 0.5]), shots=0, seed=0)


@pytest.mark.parametrize("shots", [2.5, 2.0, True])
def test_sampling_refuses_non_integer_shots(shots):
    with pytest.raises(ValueError, match="shots must be an integer"):
        sample_readout([0.5, 0.5], shots, 0)
    assert sample_readout([0.5, 0.5], np.int64(3), 0).sum() == 3
