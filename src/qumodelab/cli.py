"""Config-driven experiment runner (the ``qumode-lab`` entry point).

One experiment per JSON config file:

    {"experiment": "...", "params": {...}, "output": "path", "seed": 0}

Subcommands: ``run <config.json>``, ``validate <config.json>``, ``demos``.
Exit codes: 0 success, 1 validation failure, 2 convergence failure or
numerical breakdown (overflow, invalid value, failed eigensolve), 3 I/O
failure. Outputs are CSV (header row, LF endings, 12 significant digits) or
JSON, byte-stable across reruns for a fixed config and seed.

Each parameter is declared once, in its experiment's table (``_VIBRONIC``,
``_SBM``, ...): type, allowed range, default or required, and the library
constructor that builds it. Validation and the runners read the same table,
so each default lives there and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .fock import Operator, QumodeRegister, StateVector, basis_state, flat_index
from .gates import top_level_population
from .graphs import MAX_HAFNIAN_SIZE, _read_edges, adjacency_from_edges, hafnian
from .kerrcat import (
    MIN_DOS_BINS,
    DoubleWellParams,
    KerrCatParams,
    doublewell_hamiltonian,
    excitation_sweep,
    metapotential_dos,
)
from .qpe import (
    QpeSpec,
    outcome_digits,
    phase_from_outcome,
    run_qpe,
    sample_readout,
)
from .sbm import (
    DenseHamiltonian,
    _evolve_block,
    _start_state,
    computational_block,
    fmo_hamiltonian,
    map_hamiltonian,
)
from .spectrum import _fmt, _write_csv
from .vibronic import DoktorovSpec, doktorov_operator, fcf_table, stick_spectrum

__all__ = ["Diagnostic", "validate", "validate_config", "run", "list_demos", "demo_path", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.field}: {self.message}"


def _err(field: str, message: str) -> Diagnostic:
    return Diagnostic("error", field, message)


# ---------------------------------------------------------------------------
# parameter tables
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _REAL[1](x) and math.isfinite(x)


def _is_list(x, test, length: int | None = None) -> bool:
    return isinstance(x, list) and length in (None, len(x)) and all(test(e) for e in x)


def _pair_to_complex(x):
    return complex(*x) if isinstance(x, list) else x


def _is_times(x) -> bool:
    if isinstance(x, dict):
        start, stop, num = (x.get(key) for key in ("start", "stop", "num"))
        return len(x) == 3 and _is_list([start, stop], _is_number) and _is_int(num) and num >= 1
    return _NUMBERS[1](x)


# JSON types, as (description, test). A "number" may be non-finite: the
# library constructor that reads the field refuses it. An int too large for a
# float is not a number, since converting it raises OverflowError.
_INT = ("an integer", _is_int)
_REAL = ("a number", lambda x: isinstance(x, float) or _is_int(x) and abs(x) <= sys.float_info.max)
_NUMBER = ("a finite number", _is_number)
_POSITIVE = ("a positive number", lambda x: _is_number(x) and x > 0)
_PATH = ("a non-empty path", lambda x: isinstance(x, str) and x != "")
_NUMBERS = ("a non-empty list of numbers", lambda x: _is_list(x, _is_number) and len(x) > 0)


class _Field(NamedTuple):
    """One parameter: JSON type, bounds, default (``...``: required), builder.

    ``lo``/``hi`` bound each number of the value, inclusive; they and the
    default may be functions of the fields before this one. ``make(value,
    values)`` builds the runner's input, mostly with a library constructor.
    """

    kind: tuple[str, Callable]
    default: object = ...
    lo: object = None
    hi: object = None
    make: Callable = lambda x, values: x


def _fill(table: dict[str, _Field], given: dict, prefix: str, diags: list[Diagnostic]) -> dict:
    """Check ``given`` against ``table``; return the values, defaults filled in.

    A field that fails its type, its bounds or its builder (by ValueError) is
    reported once and takes its default, if any. Otherwise it is left out, and
    every later bound, default or builder that reads it is skipped.
    """
    diags.extend(_err(prefix + key, "unknown key") for key in sorted(set(given) - set(table)))
    values: dict = {}

    def at(spec):  # a bound or default; None when it reads a field that failed
        with suppress(KeyError):
            return spec(values) if callable(spec) else spec

    for name, ((text, test), default, lo, hi, make) in table.items():
        lo, hi = at(lo), at(hi)
        text += f" in {lo}..{hi}" if hi is not None else "" if lo is None else f" >= {lo}"
        try:
            if name in given:
                x = given[name]
                xs = x if isinstance(x, list) else [x]
                if not test(x) or any(
                    lo is not None and e < lo or hi is not None and e > hi for e in xs
                ):
                    raise ValueError("must be " + text)
                values[name] = make(x, values)
                continue
            if default is ...:
                raise ValueError("required: " + text)
        except ValueError as exc:
            diags.append(_err(prefix + name, str(exc)))
        except KeyError:  # the builder reads a field that failed
            continue
        if default is not ...:
            values[name] = at(default)
    return values


def _doktorov(name: str) -> Callable:
    return lambda x, v: getattr(DoktorovSpec(**{name: _pair_to_complex(x)}), name)


def _below_cutoff(v) -> int:
    return v["cutoff"] - 1


_COMPLEX = ("a number or [re, im] pair", lambda x: _REAL[1](x) or _is_list(x, _REAL[1], 2))
_INT_PAIR = ("two integers", lambda x: _is_list(x, _is_int, 2))

_VIBRONIC = {
    **{n: _Field(_COMPLEX, 0.0, make=_doktorov(n)) for n in ("alpha1", "alpha2", "z1", "z2")},
    **{n: _Field(_REAL, 0.0, make=_doktorov(n)) for n in ("theta_bs", "phi_bs")},
    "cutoff": _Field(_INT, 16, lo=2),
    "initial": _Field(_INT_PAIR, [0, 0], lo=0, hi=_below_cutoff),
    "maxq": _Field(_INT, _below_cutoff, lo=0, hi=_below_cutoff),
    "freqs": _Field(("two positive numbers", lambda x: _is_list(x, _POSITIVE[1], 2))),
    "e00": _Field(_NUMBER, 0.0),
    "note": _Field(("a string", lambda x: isinstance(x, str)), None),
}


def _hamiltonian(x, v) -> DenseHamiltonian:
    if x == "fmo4":
        return fmo_hamiltonian()
    return DenseHamiltonian(np.array(x, dtype=float), units=v["units"])


def _sbm_min_cutoff(v) -> int:
    return 2 * v["hamiltonian"].k - 1  # the mapped polynomial reaches level 2(k - 1)


def _initial_state(x, v) -> np.ndarray:
    k = v["hamiltonian"].k
    if not _is_int(x):
        return _start_state([_pair_to_complex(a) for a in x], k)
    if not 1 <= x <= k:
        raise ValueError(f"site index must be in 1..{k}")
    return np.eye(k, dtype=complex)[x - 1]


def _times(x, v) -> np.ndarray:
    if not isinstance(x, dict):
        return np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        times = np.linspace(x["start"], x["stop"], x["num"])
    if not np.isfinite(times).all():
        raise ValueError("the grid from start to stop overflows to a non-finite time")
    return times


_MODEL = (
    "'fmo4' or a square matrix of numbers",
    lambda x: x == "fmo4" or _is_list(x, lambda row: _is_list(row, _is_number, len(x))),
)
_SITE_OR_AMPLITUDES = (
    "a site index or a list of amplitudes (numbers or [re, im] pairs)",
    lambda x: _is_int(x) or _is_list(x, lambda a: _is_number(a) or _is_list(a, _is_number, 2)),
)
_TIMES = ("a non-empty list of numbers or {start, stop, num >= 1}", _is_times)
_UNITS = ("1/cm", "dimensionless")

_SBM = {
    "units": _Field(("'1/cm' or 'dimensionless'", lambda x: x in _UNITS), "dimensionless"),
    "hamiltonian": _Field(_MODEL, make=_hamiltonian),
    "cutoff": _Field(_INT, _sbm_min_cutoff, lo=_sbm_min_cutoff),
    "initial": _Field(_SITE_OR_AMPLITUDES, make=_initial_state),
    "times": _Field(_TIMES, make=_times),
}

_KERRCAT = {
    "K": _Field(_REAL, 1.0, make=lambda x, v: KerrCatParams(xi=0.0, K=x).K),
    "xi_grid": _Field(_NUMBERS, lo=0),
    "cutoff": _Field(_INT, make=lambda x, v: KerrCatParams(xi=0.0, cutoff=x).cutoff),
    "n_levels": _Field(_INT, lo=1, hi=lambda v: v["cutoff"]),
    "dos_xi": _Field(_POSITIVE, None),
    "dos_bins": _Field(_INT, MIN_DOS_BINS, lo=MIN_DOS_BINS),
    "dos_span": _Field(_POSITIVE, 6.0),
    "dos_output": _Field(_PATH, None),
}

# The mass and cutoff builders use a flat potential (k4 = k2 = 0), so each
# library check is reported against its own field.
_DOUBLEWELL = {
    "k2": _Field(_NUMBER),
    "k4": _Field(_NUMBER, make=lambda x, v: DoubleWellParams(k4=x, k2=v["k2"]).k4),
    "k1": _Field(_NUMBER, 0.0),
    "mass": _Field(_NUMBER, 1.0, make=lambda x, v: DoubleWellParams(0.0, 0.0, mass=x).mass),
    "cutoff": _Field(_INT, make=lambda x, v: DoubleWellParams(0.0, 0.0, cutoff=x).cutoff),
    "n_levels": _Field(_INT, lo=1, hi=lambda v: v["cutoff"]),
}


def _graph(edges: list, v: dict) -> np.ndarray:
    """The adjacency matrix; a graph above the hafnian's cap is refused before
    it is built. A given ``n`` is capped by its table bound."""
    if v["n"] is None:
        size = max((max(e[0], e[1]) for e in edges), default=0)
        if size > MAX_HAFNIAN_SIZE:
            raise ValueError(f"hafnian limited to dimension {MAX_HAFNIAN_SIZE}, got {size}")
    return adjacency_from_edges(edges, n=v["n"])


def _is_edge(e) -> bool:
    return _is_list(e, _is_number) and len(e) in (2, 3) and _is_int(e[0]) and _is_int(e[1])


_EDGES = ("a list of [i, j] or [i, j, weight]", lambda x: _is_list(x, _is_edge))


_HAFNIAN = {
    "n": _Field(_INT, None, lo=1, hi=MAX_HAFNIAN_SIZE),
    "edges": _Field(_EDGES, None, make=_graph),
    "edges_file": _Field(_PATH, None, make=lambda x, v: _graph(_read_edges(x), v)),
}


_QPE = {
    "d": _Field(_INT, lo=2),
    "t": _Field(_INT, lo=1),
    "phase": _Field(_NUMBER),
    "shots": _Field(_INT, 0, lo=0),
}


def _rules(experiment: str, given: dict, values: dict):
    """Rules across fields, on the given params and the values that passed."""
    if experiment == "sbm-evolve" and given.get("hamiltonian") == "fmo4" and "units" in given:
        if given["units"] != "1/cm":
            yield _err("params.units", "the fmo4 model is defined in 1/cm")
    if experiment == "kerrcat-sweep":
        grid = values.get("xi_grid", [])
        if grid != sorted(grid):
            yield Diagnostic("warning", "params.xi_grid", "grid is not sorted ascending")
        if ("dos_xi" in given) != ("dos_output" in given):
            yield _err("params.dos_output", "give dos_output together with dos_xi, or neither")
        if values.get("dos_xi") is not None and values["K"] <= 0:
            yield _err("params.K", "the DOS window [0, dos_span * K * dos_xi^2] needs K > 0")
    if experiment == "hafnian" and ("edges" in given) == ("edges_file" in given):
        yield _err("params.edges", "give exactly one of edges or edges_file")
    if experiment == "qpe" and "d" in values and "t" in values:
        size = values["d"] ** (values["t"] + 1)
        if size > 4096:
            yield _err("params.t", f"register too large: d^(t+1) = {size} > 4096")


def validate(config_path: str) -> list[Diagnostic]:
    """All violations in a config file, without running it.

    An empty list, or warnings only, means the config is runnable.
    """
    return _check_file(config_path)[0]


def _check_file(config_path: str) -> tuple[list[Diagnostic], dict]:
    with open(config_path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            return [_err("config", f"invalid JSON: {exc}")], {}
    return validate_config(cfg)


def validate_config(cfg) -> tuple[list[Diagnostic], dict]:
    """Diagnostics and filled-in values of a parsed config. OSError propagates."""
    if not isinstance(cfg, dict):
        return [_err("config", "top level must be a JSON object")], {}
    diags: list[Diagnostic] = []
    values = _fill(_CONFIG, cfg, "", diags)
    if "experiment" in values and "params" in values:
        table = _EXPERIMENTS[values["experiment"]][0]
        values["params"] = _fill(table, cfg["params"], "params.", diags)
        diags.extend(_rules(values["experiment"], cfg["params"], values["params"]))
    return diags, values


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def _write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _round12(x: float) -> float:
    return float(_fmt(x))


def _run_vibronic(cfg: dict) -> str:
    p = cfg["params"]
    spec = DoktorovSpec(**{f.name: p[f.name] for f in fields(DoktorovSpec)})
    reg = QumodeRegister((p["cutoff"], p["cutoff"]))
    U = doktorov_operator(spec, reg)
    table = fcf_table(U, p["initial"], p["maxq"])
    spectrum = stick_spectrum(table, p["freqs"], p["e00"])
    spectrum.write_csv(cfg["output"], header=("energy", "weight"))
    # Truncation stress of the row state U^dag |initial>, the conjugate of the
    # row fcf_table reads: if its top levels are empty, the tabulated factors
    # are converged in the cutoff.
    row_state = StateVector(U.entries[flat_index(p["initial"], reg)].conj(), reg)
    leak = float(top_level_population(row_state).max())
    return (
        f"vibronic: wrote {cfg['output']} ({len(spectrum)} lines, "
        f"total weight {spectrum.total_weight:.6f}, truncation leak {leak:.2e})"
    )


def _run_sbm_evolve(cfg: dict) -> str:
    p = cfg["params"]
    H, cutoff, times = p["hamiltonian"], p["cutoff"], p["times"]
    block = computational_block(map_hamiltonian(H, cutoff), H.k)
    pops = _evolve_block(block, H.units, p["initial"], times)
    header = ["time"] + [f"pop_{i + 1}" for i in range(H.k)]
    rows = ([t] + list(row) for t, row in zip(times, pops))
    _write_csv(cfg["output"], header, rows)
    restriction_err = float(np.abs(block - H.entries).max())
    return (
        f"sbm-evolve: wrote {cfg['output']} ({len(times)} times, k={H.k}, "
        f"mapping restriction error {restriction_err:.2e})"
    )


def _run_kerrcat(cfg: dict) -> str:
    p = cfg["params"]
    K, grid, cutoff, n_levels = p["K"], p["xi_grid"], p["cutoff"], p["n_levels"]
    sweep = excitation_sweep(K, grid, cutoff, n_levels)
    rows = []
    for i, xi in enumerate(sweep.xi):
        for level in range(n_levels):
            parity = "even" if sweep.parities[i, level] == 1 else "odd"
            rows.append([xi, level, parity, sweep.excitations[i, level]])
    _write_csv(cfg["output"], ["xi", "level_index", "parity", "excitation_energy"], rows)
    summary = f"kerrcat-sweep: wrote {cfg['output']} ({len(grid)} grid points, {n_levels} levels)"
    if p["dos_xi"] is not None:
        params = KerrCatParams(xi=p["dos_xi"], K=K, cutoff=max(cutoff, 120))
        dos = metapotential_dos(params, bins=p["dos_bins"], span=p["dos_span"])
        dos.write_csv(p["dos_output"], header=("energy", "density"))
        peak = dos.peak_energy()  # the ESQPT estimate, as in esqpt_energy
        summary += f"; DOS at xi={params.xi:g} -> {p['dos_output']} (peak near E'={peak:g})"
    return summary


def _run_doublewell(cfg: dict) -> str:
    p = cfg["params"]
    params = DoubleWellParams(p["k4"], p["k2"], p["k1"], p["mass"], p["cutoff"])
    check_cutoff = params.cutoff + 10
    evals, check = (
        np.linalg.eigvalsh(doublewell_hamiltonian(q).entries)[: p["n_levels"]]
        for q in (params, replace(params, cutoff=check_cutoff))
    )
    _write_csv(cfg["output"], ["level", "energy"], ([i, e] for i, e in enumerate(evals)))
    gap01 = evals[1] - evals[0] if len(evals) > 1 else float("nan")
    # The convergence figure of excitation_sweep, reported but not enforced.
    drift = np.abs(evals - check).max()
    return (
        f"doublewell: wrote {cfg['output']} ({len(evals)} levels, "
        f"lowest gap {gap01:.6g}, cutoff drift {drift:.2e} vs cutoff {check_cutoff})"
    )


def _run_hafnian(cfg: dict) -> str:
    p = cfg["params"]
    A = p["edges"] if p["edges"] is not None else p["edges_file"]
    value = hafnian(A)
    # On a 0/1 graph the hafnian counts the perfect matchings; the count, at
    # most 19!! at the 20-vertex cap, is the nearest integer to it.
    matchings = round(value) if np.isin(A, (0.0, 1.0)).all() else None
    _write_json(cfg["output"], {"hafnian": _round12(value), "matchings": matchings})
    return f"hafnian: wrote {cfg['output']} (n={A.shape[0]}, hafnian={value:g})"


def _run_qpe(cfg: dict) -> str:
    p = cfg["params"]
    d, t = p["d"], p["t"]
    phi = p["phase"] % 1.0
    reg = QumodeRegister((d,))
    levels = np.arange(d)
    U = Operator(np.diag(np.exp(2j * np.pi * phi * levels)), reg)
    eigenstate = basis_state(reg, (1,))
    spec = QpeSpec(d=d, t=t, U=U, eigenstate=eigenstate)
    dist = run_qpe(spec)
    modal = int(np.argmax(dist))
    out = {
        "d": d,
        "t": t,
        "distribution": [_round12(x) for x in dist],
        "modal_outcome": outcome_digits(modal, d, t),
        "modal_probability": _round12(dist[modal]),
        "phase_estimate": _round12(phase_from_outcome(modal, d, t)),
    }
    shots = p["shots"]
    if shots > 0:
        seed = cfg["seed"]
        counts = sample_readout(dist, shots, seed)
        out["shots"] = shots
        out["seed"] = seed
        out["histogram"] = {
            outcome_digits(i, d, t): int(c) for i, c in enumerate(counts) if c > 0
        }
    _write_json(cfg["output"], out)
    return (
        f"qpe: wrote {cfg['output']} (modal outcome {out['modal_outcome']}, "
        f"phase estimate {out['phase_estimate']:g})"
    )


# experiment -> (parameter table, runner)
_EXPERIMENTS = {
    "vibronic": (_VIBRONIC, _run_vibronic),
    "sbm-evolve": (_SBM, _run_sbm_evolve),
    "kerrcat-sweep": (_KERRCAT, _run_kerrcat),
    "doublewell": (_DOUBLEWELL, _run_doublewell),
    "hafnian": (_HAFNIAN, _run_hafnian),
    "qpe": (_QPE, _run_qpe),
}

_CONFIG = {
    "experiment": _Field(("one of " + ", ".join(_EXPERIMENTS), lambda x: x in _EXPERIMENTS)),
    "params": _Field(("a JSON object", lambda x: isinstance(x, dict))),
    "output": _Field(_PATH),
    "seed": _Field(_INT, 0, lo=0),
}


def run(config_path: str) -> int:
    """Validate and execute one experiment config; returns the exit status."""
    try:
        diags, values = _check_file(config_path)
        for d in diags:
            print(str(d), file=sys.stderr)
        if any(d.severity == "error" for d in diags):
            return EXIT_VALIDATION
        try:  # a number that overflows or turns invalid cannot be certified
            with np.errstate(over="raise", invalid="raise"):
                summary = _EXPERIMENTS[values["experiment"]][1](values)
        except (FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
            print(f"error: numerical: {exc}", file=sys.stderr)
            return EXIT_CONVERGENCE
    except ConvergenceError as exc:
        print(f"error: convergence: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: I/O: {exc}", file=sys.stderr)
        return EXIT_IO
    print(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bundled demo configs
# ---------------------------------------------------------------------------


def list_demos() -> list[str]:
    """Names of the bundled demo configs."""
    root = resources.files("qumodelab") / "demo_configs"
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def demo_path(name: str) -> str:
    """Filesystem path of a bundled demo config."""
    root = resources.files("qumodelab") / "demo_configs"
    path = root / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"unknown demo {name!r}; available: {', '.join(list_demos())}")
    return str(path)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qumode-lab",
        description="Run truncated-Fock-space qumode experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="validate and execute a config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    val_p = sub.add_parser("validate", help="report config problems without running")
    val_p.add_argument("config", help="path to a JSON experiment config")
    sub.add_parser("demos", help="list bundled demo configs")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "validate":
        try:
            diags = validate(args.config)
        except OSError as exc:
            print(f"error: I/O: {exc}", file=sys.stderr)
            return EXIT_IO
        for d in diags:
            print(str(d))
        if any(d.severity == "error" for d in diags):
            return EXIT_VALIDATION
        print(f"ok: {args.config} is runnable")
        return EXIT_OK
    if args.command == "demos":
        for name in list_demos():
            print(f"{name}\t{demo_path(name)}")
        return EXIT_OK
    return EXIT_VALIDATION  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
