"""Spectral kissing and the ESQPT of the squeeze-driven Kerr oscillator,
plus the tunneling doublet of a chemical double well.

As the drive grows, the metapotential wells deepen: even/odd level pairs
inside the wells collapse onto each other while levels above the barrier stay
split, and the density of states piles up at the barrier energy. The ground
pair is exactly degenerate at every drive (coherent-state doublet); the next
pair shows the kissing trend.
"""

import numpy as np

from qumodelab import (
    DoubleWellParams,
    KerrCatParams,
    doublewell_hamiltonian,
    excitation_sweep,
    metapotential_dos,
    pair_gaps,
)

print("== spectral kissing vs drive (K = 1, cutoff 80) ==")
grid = [0.5, 1.0, 2.0, 4.0, 6.0]
sweep = excitation_sweep(1.0, grid, cutoff=80, n_levels=6)
gaps = pair_gaps(sweep)
print("  xi    pair0 gap     pair1 gap     pair2 gap")
for xi, g in zip(grid, gaps):
    print(f" {xi:4.1f}   {g[0, 1]:.3e}    {g[1, 1]:.3e}    {g[2, 1]:.3e}")

print("\n== density of states around the metapotential (xi = 5, cutoff 120) ==")
params = KerrCatParams(xi=5.0, K=1.0, cutoff=120)
dos = metapotential_dos(params, bins=10, span=6.0)
for e, w in zip(dos.energies, dos.weights):
    print(f"  E' = {e:6.1f}   {'#' * int(60 * w / dos.weights.max())}")
print("DOS-peak estimate of the critical energy:", dos.peak_energy())
print("barrier of the metapotential sits at K xi^2 =", params.K * params.xi**2)

print("\n== chemical double well: tunneling doublet ==")
for k2 in (4.0, 6.0):
    H = doublewell_hamiltonian(DoubleWellParams(k4=1.0, k2=k2, k1=0.0, cutoff=80))
    e = np.linalg.eigvalsh(H.entries)
    print(
        f" k2 = {k2}: doublet splitting {e[1] - e[0]:.3e}, "
        f"gap to next level {e[2] - e[1]:.3f}, ratio {(e[1] - e[0]) / (e[2] - e[1]):.1e}"
    )
print("deeper wells -> exponentially tighter doublets, the bosonic analog of")
print("slow tunneling between reactant and product minima")
