"""Stick spectra and histograms as (energy, weight) line lists, and the CSV
writer that every output table of the library and the runner goes through."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum"]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A list of spectral lines: finite energies with non-negative weights."""

    energies: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        e = np.atleast_1d(np.array(self.energies, dtype=float))
        w = np.atleast_1d(np.array(self.weights, dtype=float))
        if e.shape != w.shape or e.ndim != 1:
            raise ValueError("energies and weights must be 1-d and equal length")
        if not np.all(np.isfinite(e)):
            raise ValueError("non-finite energy in spectrum")
        if np.any(w < -1e-12) or not np.all(np.isfinite(w)):
            raise ValueError("spectrum weights must be non-negative and finite")
        w = np.clip(w, 0.0, None)
        e.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.energies)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def sorted(self) -> "Spectrum":
        order = np.argsort(self.energies, kind="stable")
        return Spectrum(self.energies[order], self.weights[order])

    def peak_energy(self) -> float:
        """Energy of the line with the largest weight."""
        if len(self) == 0:
            raise ValueError("empty spectrum")
        return float(self.energies[int(np.argmax(self.weights))])

    def write_csv(self, path, header: tuple[str, str] = ("energy", "weight")) -> None:
        """Write ``header[0],header[1]`` and one row per line, as :func:`_write_csv`."""
        _write_csv(path, header, zip(self.energies, self.weights))


def _fmt(x) -> str:
    """A cell: strings as they are, integers in full, numbers to 12 significant digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_csv(path, header, rows) -> None:
    """A header row, then ``rows`` of cells formatted by :func:`_fmt`; LF line endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
