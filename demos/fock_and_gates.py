"""Tour of the truncated Fock toolbox: ladder algebra, Gaussian gates, and
the truncation monitor.

Everything downstream (vibronic spectra, embedded dynamics, Kerr-cat
spectroscopy) is built from the handful of dense matrices shown here, so this
script doubles as a correctness walkthrough: the commutation relation is
clean everywhere except the cutoff edge, gates are exactly unitary, and the
leak monitor tells you when a cutoff is too small for the state you made.
"""

import numpy as np

from qumodelab import (
    QumodeRegister,
    annihilation,
    apply_circuit,
    basis_state,
    commutator,
    compose_circuit,
    displacement,
    squeezing,
)

d = 8
reg = QumodeRegister((d,))
a = annihilation(reg, 1)

print("== ladder algebra on %d retained levels ==" % d)
resid = commutator(a, a.adjoint).entries - np.eye(d)
print("max |[a, adag] - 1| below the edge:", np.abs(resid[: d - 1, : d - 1]).max())
print("edge entry (d-1, d-1):", resid[d - 1, d - 1].real, " (the truncation scar)")

print("\n== a displaced vacuum is a coherent state ==")
alpha = 0.8
reg16 = QumodeRegister((16,))
coherent = compose_circuit([displacement(1, alpha)], reg16).apply(basis_state(reg16, (0,)))
poisson = np.exp(-(alpha**2)) * alpha ** (2 * np.arange(6)) / [1, 1, 2, 6, 24, 120]
print("level  simulated      Poisson law")
for n in range(6):
    print(f"  {n}    {coherent.probabilities()[n]:.9f}    {poisson[n]:.9f}")

print("\n== squeezing the vacuum populates even levels only ==")
sq = compose_circuit([squeezing(1, 0.6)], reg16).apply(basis_state(reg16, (0,)))
probs = sq.probabilities()
print("odd-level population:", probs[1::2].sum())
print("vacuum overlap^2 vs 1/cosh(r):", probs[0], 1 / np.cosh(0.6))

print("\n== the truncation monitor ==")
small = QumodeRegister((6,))
state, leak = apply_circuit([displacement(1, 0.8)], small, basis_state(small, (0,)))
print("top-two-level population at cutoff 6, alpha=0.8:", leak[0])
state, leak = apply_circuit(
    [displacement(1, 0.8)], reg16, basis_state(reg16, (0,)), warn_threshold=1.0
)
print("same displacement at cutoff 16:", leak[0], " (raise the cutoff until this is tiny)")
