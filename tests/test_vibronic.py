import math

import numpy as np
import pytest

from qumodelab import (
    DoktorovSpec,
    ParamError,
    QumodeRegister,
    Spectrum,
    doktorov_operator,
    fcf_table,
    gate_matrix,
    displacement,
    stick_spectrum,
)

from oracles import franck_condon_factor


def make_reg(d=16):
    return QumodeRegister((d, d))


# ---------------------------------------------------------------------------
# Doktorov operator
# ---------------------------------------------------------------------------


def test_zero_spec_gives_identity():
    reg = make_reg(8)
    U = doktorov_operator(DoktorovSpec(), reg)
    assert np.abs(U.entries - np.eye(64)).max() < 1e-13


def test_displacement_only_spec():
    reg = make_reg(10)
    U = doktorov_operator(DoktorovSpec(alpha1=0.4), reg)
    expected = gate_matrix(displacement(1, 0.4), reg)
    assert np.abs(U.entries - expected.entries).max() < 1e-12


def test_wrong_mode_count_rejected():
    with pytest.raises(ValueError):
        doktorov_operator(DoktorovSpec(), QumodeRegister((8,)))
    with pytest.raises(ValueError):
        doktorov_operator(DoktorovSpec(), QumodeRegister((4, 4, 4)))


def test_random_spec_unitarity():
    rng = np.random.default_rng(5)
    reg = make_reg(16)
    for _ in range(3):
        spec = DoktorovSpec(
            alpha1=rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            alpha2=rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            z1=rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            z2=rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            theta_bs=rng.uniform(0, 0.8),
            phi_bs=rng.uniform(0, 2 * np.pi),
        )
        U = doktorov_operator(spec, reg).entries
        # interior rows/cols: both occupations at least two below the cutoff
        keep = [i * 16 + j for i in range(14) for j in range(14)]
        G = (U.conj().T @ U - np.eye(256))[np.ix_(keep, keep)]
        assert np.abs(G).max() < 1e-6


def test_non_finite_parameters_rejected():
    with pytest.raises(ValueError):
        DoktorovSpec(alpha1=complex("nan"))


# ---------------------------------------------------------------------------
# Franck-Condon factors
# ---------------------------------------------------------------------------


def test_identity_fcf_is_kronecker_delta():
    reg = make_reg(6)
    U = doktorov_operator(DoktorovSpec(), reg)
    for pair in [((0, 0), (0, 0)), ((1, 2), (1, 2))]:
        assert abs(franck_condon_factor(U, *pair) - 1.0) < 1e-12
    assert franck_condon_factor(U, (1, 0), (0, 1)) < 1e-12


def test_displacement_fcf_matches_poisson():
    # |<n,0| D_1(alpha) (x) I |0,0>|^2 = e^(-alpha^2) alpha^(2n) / n!
    reg = make_reg(16)
    for alpha in (0.25, 0.5, 1.0):
        U = doktorov_operator(DoktorovSpec(alpha1=alpha), reg)
        for n in range(7):
            got = franck_condon_factor(U, (n, 0), (0, 0))
            expected = math.exp(-alpha**2) * alpha ** (2 * n) / math.factorial(n)
            assert abs(got - expected) < 1e-6


def test_squeezing_fcf_two_quanta():
    # |<2,0| S_1(r) (x) I |0,0>|^2 = tanh(r)^2 / (2 cosh r)
    reg = make_reg(30)
    for r in (0.3, 0.5, 0.9):
        U = doktorov_operator(DoktorovSpec(z1=r), reg)
        got = franck_condon_factor(U, (2, 0), (0, 0))
        expected = math.tanh(r) ** 2 / (2.0 * math.cosh(r))
        assert abs(got - expected) < 1e-8


def test_fcf_index_out_of_range():
    reg = make_reg(6)
    U = doktorov_operator(DoktorovSpec(), reg)
    with pytest.raises(ValueError):
        franck_condon_factor(U, (6, 0), (0, 0))


# ---------------------------------------------------------------------------
# FCF tables
# ---------------------------------------------------------------------------


def test_identity_table_single_entry():
    reg = make_reg(6)
    U = doktorov_operator(DoktorovSpec(), reg)
    table = fcf_table(U, (0, 0), maxq=3)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(table - expected).max() < 1e-12


def test_table_completeness():
    reg = make_reg(16)
    spec = DoktorovSpec(alpha1=0.35, alpha2=0.2, z1=0.25, z2=0.15, theta_bs=0.6)
    U = doktorov_operator(spec, reg)
    table = fcf_table(U, (0, 0), maxq=15)
    leak = abs(1.0 - table.sum())
    assert leak < 1e-4


def test_table_matches_elementwise():
    reg = make_reg(8)
    spec = DoktorovSpec(alpha1=0.3, z2=0.2, theta_bs=0.4)
    U = doktorov_operator(spec, reg)
    table = fcf_table(U, (1, 0), maxq=4)
    for n in range(5):
        for m in range(5):
            assert table[n, m] == pytest.approx(
                franck_condon_factor(U, (1, 0), (n, m)), abs=1e-15
            )


def test_table_maxq_too_large():
    reg = make_reg(8)
    U = doktorov_operator(DoktorovSpec(), reg)
    with pytest.raises(ValueError):
        fcf_table(U, (0, 0), maxq=8)


@pytest.mark.parametrize("maxq", [2.7, 3.0, True])
def test_table_refuses_non_integer_maxq(maxq):
    U = doktorov_operator(DoktorovSpec(), make_reg(6))
    with pytest.raises(ValueError, match="maxq must be an integer"):
        fcf_table(U, (0, 0), maxq=maxq)
    assert fcf_table(U, (0, 0), maxq=np.int64(2)).shape == (3, 3)


# ---------------------------------------------------------------------------
# stick spectra
# ---------------------------------------------------------------------------


def test_single_line_spectrum():
    table = np.zeros((3, 3))
    table[0, 0] = 1.0
    spec = stick_spectrum(table, (100.0, 50.0), e00=12.0)
    assert abs(spec.energies[0] - 12.0) < 1e-12
    assert abs(spec.weights[0] - 1.0) < 1e-12


def test_line_spacing_along_first_mode():
    table = np.eye(4) * 0.0
    table[:, 0] = [0.4, 0.3, 0.2, 0.1]
    spec = stick_spectrum(table, (100.0, 7.0), e00=0.0)
    line_energies = sorted(e for e, w in zip(spec.energies, spec.weights) if w > 0)
    assert np.allclose(np.diff(line_energies), 100.0)


def test_total_weight_conserved_and_sorted():
    rng = np.random.default_rng(1)
    table = rng.uniform(size=(5, 5))
    spec = stick_spectrum(table, (3.0, 2.0), e00=-1.0)
    assert abs(spec.total_weight - table.sum()) < 1e-12
    assert np.all(np.diff(spec.energies) >= 0)


def test_nonpositive_frequency_rejected():
    with pytest.raises(ValueError):
        stick_spectrum(np.ones((2, 2)), (0.0, 1.0), e00=0.0)


@pytest.mark.parametrize("freqs", [(math.inf, 1.0), (1.0, math.nan)])
def test_non_finite_frequency_is_refused_by_name(freqs):
    with pytest.raises(ParamError, match="mode frequencies must be finite") as exc:
        stick_spectrum(np.ones((2, 2)), freqs, e00=0.0)
    assert exc.value.name == "mode_freqs"


def test_spectrum_rejects_negative_weights():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0]), np.array([-0.5]))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_sum_rule_bounded_and_monotone_in_cutoff():
    spec = DoktorovSpec(alpha1=0.5, alpha2=0.3, z1=0.4, z2=0.2, theta_bs=0.7, phi_bs=0.5)
    sums = {}
    for d in (12, 20):
        U = doktorov_operator(spec, make_reg(d))
        sums[d] = fcf_table(U, (0, 0), maxq=d - 1).sum()
        assert sums[d] <= 1.0 + 1e-9
    assert sums[20] >= sums[12] - 1e-10


def test_fcf_symmetric_under_adjoint():
    reg = make_reg(10)
    spec = DoktorovSpec(alpha1=0.4, z2=0.3, theta_bs=0.5, phi_bs=1.0)
    U = doktorov_operator(spec, reg)
    Ud = U.adjoint
    for a, b in [((0, 0), (2, 1)), ((1, 3), (0, 0)), ((2, 2), (1, 1))]:
        assert franck_condon_factor(U, a, b) == franck_condon_factor(Ud, b, a)


def test_beamsplitter_only_conserves_total_quanta():
    reg = make_reg(8)
    U = doktorov_operator(DoktorovSpec(theta_bs=0.9, phi_bs=0.4), reg)
    for initial in [(0, 0), (1, 1), (2, 0)]:
        table = fcf_table(U, initial, maxq=5)
        for n in range(6):
            for m in range(6):
                if n + m != sum(initial):
                    assert table[n, m] < 1e-18
