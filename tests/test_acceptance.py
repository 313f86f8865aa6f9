"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the test results.
"""

import json
import math
import time

import numpy as np
import pytest

from qumodelab import (
    DenseHamiltonian,
    DoktorovSpec,
    KerrCatParams,
    DoubleWellParams,
    Operator,
    QpeSpec,
    QumodeRegister,
    WAVENUMBER_TO_RAD_PER_PS,
    annihilation,
    basis_state,
    beamsplitter,
    cli,
    commutator,
    computational_block,
    creation,
    displacement,
    doktorov_operator,
    doublewell_hamiltonian,
    excitation_sweep,
    fcf_table,
    fmo_hamiltonian,
    gate_matrix,
    hafnian,
    kerrcat_hamiltonian,
    map_hamiltonian,
    metapotential_dos,
    number,
    pair_gaps,
    rotation,
    run_qpe,
    sbm_evolve,
    squeezing,
)

from oracles import franck_condon_factor, perfect_matching_count


class Timer:
    def __init__(self, budget_s: float):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def report(self, number_: int, text: str) -> None:
        print(f"PASS criterion {number_}: {text} [{self.elapsed:.2f}s < {self.budget:g}s]")
        assert self.elapsed < self.budget


def test_criterion_1_fock_algebra():
    with Timer(1.0) as t:
        for d in range(2, 13):
            reg = QumodeRegister((d,))
            a = annihilation(reg, 1)
            resid = commutator(a, a.adjoint).entries - np.eye(d)
            resid_off_top = resid.copy()
            resid_off_top[d - 1, d - 1] = 0.0
            assert np.abs(resid_off_top).max() < 1e-12
            n = number(reg, 1)
            prod = creation(reg, 1) @ annihilation(reg, 1)
            assert np.array_equal(n.entries, prod.entries)
    t.report(1, "ladder commutator clean below the cutoff edge; n = adag a exactly")


def test_criterion_2_gaussian_gates():
    with Timer(10.0) as t:
        rng = np.random.default_rng(2024)
        d = 16
        reg1 = QumodeRegister((d,))
        reg2 = QumodeRegister((d, d))
        interior1 = np.arange(d - 2)
        interior2 = np.array(
            [i for i in range(d * d) if max(np.unravel_index(i, reg2.cutoffs)) < d - 2]
        )
        for trial in range(100):
            kind = trial % 4
            if kind == 0:
                g = displacement(1, rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform()))
                U, keep = gate_matrix(g, reg1).entries, interior1
            elif kind == 1:
                g = rotation(1, rng.uniform(-np.pi, np.pi))
                U, keep = gate_matrix(g, reg1).entries, interior1
            elif kind == 2:
                g = squeezing(1, rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform()))
                U, keep = gate_matrix(g, reg1).entries, interior1
            else:
                g = beamsplitter(1, 2, rng.uniform(0, 1), rng.uniform(0, 2 * np.pi))
                U, keep = gate_matrix(g, reg2).entries, interior2
            defect = U.conj().T @ U - np.eye(U.shape[0])
            assert np.abs(defect[np.ix_(keep, keep)]).max() < 1e-7

        reg30 = QumodeRegister((30,))
        for r in (0.1, 0.5, 1.0):
            S = gate_matrix(squeezing(1, r), reg30).entries
            assert abs(abs(S[0, 0]) ** 2 - 1.0 / math.cosh(r)) < 1e-6
    t.report(2, "100 random gates unitary on the interior; squeezed-vacuum overlap matches 1/cosh r")


def test_criterion_3_fcf_oracles():
    with Timer(10.0) as t:
        reg = QumodeRegister((16, 16))
        for alpha in (0.25, 0.5, 0.75, 1.0):
            U = doktorov_operator(DoktorovSpec(alpha1=alpha), reg)
            for n in range(7):
                got = franck_condon_factor(U, (n, 0), (0, 0))
                want = math.exp(-(alpha**2)) * alpha ** (2 * n) / math.factorial(n)
                assert abs(got - want) < 1e-6

        demo = json.loads(open(cli.demo_path("h2o-illustrative")).read())["params"]
        spec = DoktorovSpec(
            alpha1=demo["alpha1"],
            alpha2=demo["alpha2"],
            z1=demo["z1"],
            z2=demo["z2"],
            theta_bs=demo["theta_bs"],
            phi_bs=demo["phi_bs"],
        )
        U = doktorov_operator(spec, reg)
        leak = abs(1.0 - fcf_table(U, (0, 0), maxq=15).sum())
        assert leak < 1e-4
    t.report(3, "displacement-only FCFs reproduce the Poisson law; sum-rule leak below 1e-4")


def test_criterion_4_sbm_mapping():
    with Timer(30.0) as t:
        rng = np.random.default_rng(99)
        for trial in range(200):
            k = 2 + trial % 4
            X = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            H = DenseHamiltonian((X + X.conj().T) / 2)
            block = computational_block(map_hamiltonian(H, 2 * k - 1), k)
            assert np.abs(block - H.entries).max() < 1e-9

        Z = DenseHamiltonian(np.diag([1.0, -1.0]))
        block = computational_block(map_hamiltonian(Z, 3), 2)
        assert np.array_equal(block, np.diag([1.0, -1.0]).astype(complex))
        reg = QumodeRegister((3,))
        closed_form = np.eye(3) - 2.0 * number(reg, 1).entries
        assert np.array_equal(block, closed_form[:2, :2])
    t.report(4, "200 random embeddings restrict to H entrywise; Pauli-Z matches 1 - 2 adag a exactly")


def test_criterion_5_fmo_dynamics():
    with Timer(5.0) as t:
        H = fmo_hamiltonian()
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        times = np.linspace(0.0, 1.0, 100)
        pops = sbm_evolve(H, psi0, times, cutoff=7)

        M = H.entries * WAVENUMBER_TO_RAD_PER_PS
        w, V = np.linalg.eigh(M)
        coeffs = V.conj().T @ psi0
        oracle = np.array(
            [np.abs(V @ (np.exp(-1j * w * tau) * coeffs)) ** 2 for tau in times]
        )
        assert np.abs(pops - oracle).max() < 1e-8
        assert np.abs(pops.sum(axis=1) - 1.0).max() < 1e-8
    t.report(5, "FMO populations via the embedding match direct diagonalization to 1e-8")


def test_criterion_6_kerrcat_spectrum():
    with Timer(60.0) as t:
        K = 1.0
        H0 = kerrcat_hamiltonian(KerrCatParams(xi=0.0, K=K, cutoff=60))
        n = np.arange(60)
        assert np.abs(np.linalg.eigvalsh(H0.entries) - np.sort(K * n * (n - 1))).max() < 1e-10

        # The lowest pair is exactly degenerate at every drive (the +-sqrt(xi)
        # coherent states are exact eigenstates), so the kissing trend shows
        # in the first resolvable pair: its gap must strictly decrease.
        sweep = excitation_sweep(K, [0.5, 1.0, 2.0, 4.0], cutoff=80, n_levels=4)
        gaps = pair_gaps(sweep)
        for g in gaps:
            assert g[0, 1] < 1e-9  # ground pair: exact kissing
        pair1 = [g[1, 1] for g in gaps]
        for a, b in zip(pair1, pair1[1:]):
            assert b < a

        dos = metapotential_dos(KerrCatParams(xi=5.0, K=K, cutoff=120), bins=10, span=6.0)
        imax = int(np.argmax(dos.weights))
        assert np.sum(dos.weights == dos.weights[imax]) == 1
        assert 0 < imax < len(dos.weights) - 1
        assert dos.energies[imax] > 0.0
        assert dos.energies[imax] < (dos.energies[0] + dos.energies[-1]) / 2
    t.report(6, "xi=0 spectrum exact; resolvable pair gap strictly decreasing; DOS peak interior")


def test_criterion_7_double_well():
    with Timer(10.0) as t:
        H = doublewell_hamiltonian(DoubleWellParams(k4=0.0, k2=-0.5, k1=0.0, cutoff=60))
        evals = np.linalg.eigvalsh(H.entries)
        assert np.abs(evals[:10] - (np.arange(10) + 0.5)).max() < 1e-6

        deep = doublewell_hamiltonian(DoubleWellParams(k4=1.0, k2=6.0, k1=0.0, cutoff=80))
        e = np.linalg.eigvalsh(deep.entries)
        assert (e[1] - e[0]) < 1e-2 * (e[2] - e[1])
    t.report(7, "harmonic limit reproduces n + 1/2; deep symmetric well shows a tunneling doublet")


def test_criterion_8_hafnian():
    with Timer(10.0) as t:
        rng = np.random.default_rng(8)
        for _ in range(100):
            size = int(rng.integers(2, 11))
            A = np.zeros((size, size))
            for i in range(size):
                for j in range(i + 1, size):
                    if rng.random() < 0.5:
                        A[i, j] = A[j, i] = 1.0
            assert hafnian(A) == float(perfect_matching_count(A))

        K6 = np.ones((6, 6)) - np.eye(6)
        assert hafnian(K6) == 15.0
    t.report(8, "hafnian equals brute-force matching count on 100 random graphs; K6 -> 15")


def test_criterion_9_qudit_qpe():
    with Timer(10.0) as t:
        for d in (2, 3, 4):
            for levels in (1, 2, 3):
                denom = d**levels
                for a in range(denom):
                    reg = QumodeRegister((d,))
                    U = Operator(
                        np.diag(np.exp(2j * np.pi * (a / denom) * np.arange(d))), reg
                    )
                    spec = QpeSpec(d=d, t=levels, U=U, eigenstate=basis_state(reg, (1,)))
                    dist = run_qpe(spec)
                    assert abs(dist[a] - 1.0) < 1e-9

        reg = QumodeRegister((2,))
        U = Operator(np.diag(np.exp(2j * np.pi * 0.2 * np.arange(2))), reg)
        spec = QpeSpec(d=2, t=3, U=U, eigenstate=basis_state(reg, (1,)))
        dist = run_qpe(spec)
        assert dist.max() >= 4.0 / np.pi**2
        assert int(np.argmax(dist)) == 2
    t.report(9, "every representable phase is read out deterministically; phi=0.2 modal mass >= 4/pi^2")


def test_criterion_10_cli_demos(tmp_path, monkeypatch):
    with Timer(120.0) as t:
        monkeypatch.chdir(tmp_path)
        for name in cli.list_demos():
            path = cli.demo_path(name)
            diags = cli.validate(path)
            assert [d for d in diags if d.severity == "error"] == [], name
            assert cli.run(path) == 0, name
            cfg = json.loads(open(path).read())
            outputs = [cfg["output"]]
            if "dos_output" in cfg.get("params", {}):
                outputs.append(cfg["params"]["dos_output"])
            snapshot = {out: open(out, "rb").read() for out in outputs}
            assert cli.run(path) == 0, name
            for out in outputs:
                assert open(out, "rb").read() == snapshot[out], f"{name}:{out}"
    t.report(10, "all bundled demos validate, run with exit 0, and rerun byte-identically")
