"""Seeded job pools for the four benchmark workloads, and the checks on
their outputs.

A workload is a fixed list of job slots. The slot list fixes each job's kind
and size (cutoff, register, graph order, ...); the seed draws every physical
parameter, graph and phase inside those sizes. Sizes are fixed so that the
timing distribution, and with it the median and the tail, does not move
from seed to seed; see README.md for why each tier exists.

A job is either a JSON config run in-process through ``qumodelab.cli.run``
or a library call ``qumodelab.gates.apply_circuit``. Every output is checked
against an oracle that holds for any seed where one exists, and against the
stored golden outputs for the demos and for every job of the golden seed.
"""

from __future__ import annotations

import io
import json
import math
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from qumodelab import cli, gates
from qumodelab.fock import QumodeRegister, basis_state

# Seed whose job outputs are stored under golden/; demos are checked at
# every seed because their inputs do not depend on it.
GOLDEN_SEED = 0
# Each numeric field of an output (a CSV column, a JSON key, a circuit's
# real or imaginary amplitudes) is compared on its own. A fingerprint entry
# matches when |new - old| <= GOLDEN_RTOL * max|x| + GOLDEN_ATOL, with max|x|
# the field's largest magnitude at the golden commit, so every entry is
# checked to about 1e-8 of its own field's scale. CSV cells carry 12
# significant digits; 1e-8 leaves room for round-off from a reordered but
# equivalent computation and catches any real change.
GOLDEN_RTOL = 1e-8
GOLDEN_ATOL = 1e-12
# Fields that only echo a job's inputs or number its rows; not compared.
ECHOED = frozenset({"d", "t", "seed", "shots", "time", "xi", "level", "level_index"})
# Oracle tolerances (absolute, on probabilities and energies).
ORACLE_TOL = 1e-9

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass
class Job:
    """One unit of closed-loop work. Exactly one of ``config`` and
    ``circuit`` is set."""

    id: str
    config: dict | None = None
    circuit: tuple | None = None  # (register, gate list, initial state)
    oracle: dict = field(default_factory=dict)
    config_path: str = ""
    outputs: tuple[str, ...] = ()


@dataclass
class Outcome:
    seconds: float
    failure: str | None
    fingerprints: list[dict[str, list[float]]] | None = None
    output_bytes: int = 0
    leak_warnings: int = 0


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _cplx(rng: random.Random, lo: float, hi: float) -> list[float]:
    r, ph = rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(ph), r * math.sin(ph)]


def _demo(workload: str, index: int, name: str) -> Job:
    with open(cli.demo_path(name)) as fh:
        cfg = json.load(fh)
    oracle = {"sbm-evolve": {"rows_sum_to_one": True}, "kerrcat-sweep": {"ascending": True}}
    return Job(f"{workload}/{index:02d}-demo-{name}", cfg, oracle=oracle.get(cfg["experiment"], {}))


def _vibronic_job(rng: random.Random, cutoff: int, displacement_only: bool) -> tuple[dict, dict]:
    # |alpha| <= 1 at cutoff >= 16 keeps every tabulated factor converged to
    # ~1e-15 (measured), so the Poisson law is an exact oracle here.
    p = {
        "alpha1": _cplx(rng, 0.2, 1.0),
        "alpha2": _cplx(rng, 0.2, 1.0),
        "cutoff": cutoff,
        "maxq": rng.randint(4, 10),
        "freqs": [round(rng.uniform(1000.0, 3500.0), 3), round(rng.uniform(500.0, 1600.0), 3)],
        "e00": round(rng.uniform(0.0, 20000.0), 3),
    }
    if displacement_only:
        return p, {"poisson": True}
    p.update(
        z1=_cplx(rng, 0.0, 0.3),
        z2=_cplx(rng, 0.0, 0.3),
        theta_bs=rng.uniform(0.0, math.pi / 2),
        phi_bs=rng.uniform(0.0, 2.0 * math.pi),
        initial=[rng.randint(0, 1), rng.randint(0, 1)],
    )
    return p, {}


def _vibronic(rng: random.Random) -> list[Job]:
    # (cutoff, displacement-only); demo-sized cutoff 16 sets the median,
    # the cutoff-28 plateau the tail, one cutoff-32 job the peak memory.
    slots = [(16, False), (28, False), (16, True), (16, False), (20, False), (16, False),
             (28, False), (16, True), (16, False), (32, False), (16, False), (28, False),
             (16, True), (24, False), (16, False), (28, False)]
    jobs = [_demo("vibronic", 0, "h2o-illustrative")]
    for cutoff, disp in slots:
        p, oracle = _vibronic_job(rng, cutoff, disp)
        tag = "poisson" if disp else "doktorov"
        cfg = {"experiment": "vibronic", "params": p}
        jobs.append(Job(f"vibronic/{len(jobs):02d}-{tag}-c{cutoff}", cfg, oracle=oracle))
    return jobs


def _circuit(rng: random.Random, cutoff: int, n_gates: int, n_bs: int):
    reg = QumodeRegister((cutoff,) * 3)
    bs_at = set(rng.sample(range(n_gates), n_bs))
    chain = []
    for i in range(n_gates):
        if i in bs_at:
            j, k = rng.sample((1, 2, 3), 2)
            chain.append(gates.beamsplitter(j, k, rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2 * math.pi)))
            continue
        mode, kind = rng.randint(1, 3), rng.choice(("displacement", "rotation", "squeezing"))
        if kind == "displacement":
            chain.append(gates.displacement(mode, complex(*_cplx(rng, 0.0, 0.5))))
        elif kind == "rotation":
            chain.append(gates.rotation(mode, rng.uniform(0.0, 2 * math.pi)))
        else:
            chain.append(gates.squeezing(mode, complex(*_cplx(rng, 0.0, 0.3))))
    psi = basis_state(reg, tuple(rng.randint(0, 1) for _ in range(3)))
    return reg, chain, psi


def _circuits(rng: random.Random) -> list[Job]:
    # (cutoff, gates, beamsplitters): cutoff-6 chains set the median,
    # cutoff-8 chains the tail, one cutoff-10 chain the peak memory.
    slots = [(6, 6, 2), (8, 6, 2), (6, 6, 2), (6, 4, 1), (6, 6, 2), (7, 10, 3), (6, 6, 2),
             (8, 6, 2), (6, 6, 2), (6, 8, 3), (6, 6, 2), (6, 6, 2), (10, 6, 2), (6, 6, 2),
             (6, 6, 2), (8, 6, 2), (6, 6, 2), (6, 10, 4), (6, 6, 2), (6, 6, 2), (8, 6, 2),
             (6, 6, 2), (6, 6, 2)]
    jobs = []
    for cutoff, n_gates, n_bs in slots:
        jobs.append(Job(f"circuits/{len(jobs):02d}-c{cutoff}-g{n_gates}-bs{n_bs}",
                        circuit=_circuit(rng, cutoff, n_gates, n_bs), oracle={"unit_norm": True}))
    return jobs


def _sym_matrix(rng: random.Random, k: int) -> list[list[float]]:
    m = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = round(rng.gauss(0.0, 1.0), 6)
    return m


def _spectra(rng: random.Random) -> list[Job]:
    jobs = [_demo("spectra", i, name) for i, name in
            enumerate(("kerrcat-fig4", "fmo4", "pauli-z", "doublewell-symmetric"))]

    def add(label: str, cfg: dict, oracle: dict) -> None:
        jobs.append(Job(f"spectra/{len(jobs):02d}-{label}", cfg, oracle=oracle))

    def sbm(k: int) -> None:
        p = {"hamiltonian": _sym_matrix(rng, k), "units": "dimensionless", "initial": rng.randint(1, k),
             "times": {"start": 0.0, "stop": round(rng.uniform(1.0, 5.0), 3), "num": 200}}
        add(f"sbm-k{k}", {"experiment": "sbm-evolve", "params": p}, {"rows_sum_to_one": True})

    def doublewell(cutoff: int) -> None:
        p = {"k4": round(rng.uniform(0.5, 2.0), 4), "k2": round(rng.uniform(0.0, 6.0), 4),
             "k1": round(rng.uniform(-0.5, 0.5), 4), "mass": round(rng.uniform(0.5, 2.0), 4),
             "cutoff": cutoff, "n_levels": rng.randint(4, 10)}
        add(f"doublewell-c{cutoff}", {"experiment": "doublewell", "params": p}, {})

    def kerrcat(cutoff: int, points: int, dos: bool) -> None:
        # xi <= 4 with at most 12 levels is converged at cutoff 60 (the
        # bundled fig4 demo runs exactly that), and more so at larger cutoffs.
        xi_max = rng.uniform(2.0, 4.0)
        p = {"K": round(rng.uniform(0.5, 1.5), 4),
             "xi_grid": [round(xi_max * i / (points - 1), 6) for i in range(points)],
             "cutoff": cutoff, "n_levels": rng.randint(6, 12)}
        if dos:
            p.update(dos_xi=round(rng.uniform(3.0, 6.0), 4), dos_bins=rng.randint(10, 30), dos_span=6.0)
        add(f"kerrcat-c{cutoff}-x{points}" + ("-dos" if dos else ""),
            {"experiment": "kerrcat-sweep", "params": p}, {"ascending": True})

    doublewell(60)
    kerrcat(200, 40, True)
    sbm(8)
    sbm(4)
    doublewell(100)
    sbm(8)
    kerrcat(200, 40, False)
    sbm(6)
    kerrcat(60, 20, False)
    sbm(8)
    doublewell(150)
    sbm(10)
    kerrcat(200, 40, True)
    sbm(8)
    kerrcat(100, 30, True)
    sbm(12)
    doublewell(200)
    sbm(8)
    kerrcat(150, 30, False)
    kerrcat(200, 40, False)
    return jobs


def _combinatorics(rng: random.Random) -> list[Job]:
    jobs = [_demo("combinatorics", 0, "qpe-d3"), _demo("combinatorics", 1, "k4-hafnian")]
    jobs[1].oracle = {"hafnian_is_matching_count": True, "complete": 4}

    def add(label: str, cfg: dict, oracle: dict) -> None:
        jobs.append(Job(f"combinatorics/{len(jobs):02d}-{label}", cfg, oracle=oracle))

    def qpe(d: int, t: int, exact: bool) -> None:
        a = rng.randrange(d**t)
        phase = a / d**t if exact else rng.random()
        p = {"d": d, "t": t, "phase": phase, "shots": rng.choice((0, 200, 1000))}
        add(f"qpe-d{d}-t{t}" + ("-exact" if exact else ""),
            {"experiment": "qpe", "params": p, "seed": rng.randrange(1000)},
            {"exact_outcome": a} if exact else {})

    def graph(n: int, weighted: bool) -> None:
        # Fixed densities: the hafnian recursion skips zero entries, so a
        # seeded density would move the timing from seed to seed.
        prob = 0.7 if weighted else 0.6
        edges = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < prob:
                    edges.append([i, j, round(rng.uniform(0.05, 0.95), 3)] if weighted else [i, j])
        label = f"hafnian-w{n}" if weighted else f"hafnian-01-n{n}"
        add(label, {"experiment": "hafnian", "params": {"edges": edges, "n": n}},
            {} if weighted else {"hafnian_is_matching_count": True})

    def complete(n: int) -> None:
        edges = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        add(f"hafnian-K{n}", {"experiment": "hafnian", "params": {"edges": edges}},
            {"hafnian_is_matching_count": True, "complete": n})

    # Tiers: 12 jobs below the 7-job qpe d^(t+1)=256 plateau that holds
    # the median, 12 above it; three 0/1 n=14 graphs per round hold the
    # tail under the one d^(t+1)=1024 QPE.
    graph(16, True)
    qpe(4, 3, True)
    qpe(4, 4, True)
    graph(14, True)
    graph(14, False)
    qpe(3, 3, True)
    graph(18, True)
    qpe(4, 3, False)
    graph(10, False)
    qpe(3, 5, True)
    graph(12, False)
    qpe(4, 3, True)
    graph(16, True)
    complete(10)
    graph(14, False)
    qpe(4, 3, False)
    graph(20, True)
    graph(14, True)
    qpe(3, 4, False)
    qpe(4, 3, True)
    graph(10, False)
    qpe(5, 3, True)
    graph(16, True)
    complete(12)
    qpe(3, 3, False)
    graph(14, False)
    qpe(4, 3, False)
    graph(18, True)
    qpe(4, 3, True)
    graph(12, False)
    qpe(3, 5, False)
    return jobs


_GENERATORS = {"vibronic": _vibronic, "circuits": _circuits, "spectra": _spectra,
               "combinatorics": _combinatorics}
WORKLOADS = tuple(_GENERATORS)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job pool for ``seed``; the same seed gives the same jobs."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def prepare(jobs: list[Job], workdir: Path) -> None:
    """Point every CLI job's outputs into ``workdir`` and write its config."""
    for sub in ("cfg", "out"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.config is None:
            continue
        stem = job.id.split("/", 1)[1]
        cfg = json.loads(json.dumps(job.config))
        ext = ".json" if cfg["experiment"] in ("hafnian", "qpe") else ".csv"
        cfg["output"] = str(workdir / "out" / f"{stem}{ext}")
        outputs = [cfg["output"]]
        if "dos_xi" in cfg["params"]:
            cfg["params"]["dos_output"] = str(workdir / "out" / f"{stem}.dos.csv")
            outputs.append(cfg["params"]["dos_output"])
        job.outputs = tuple(outputs)
        job.config_path = str(workdir / "cfg" / f"{stem}.json")
        with open(job.config_path, "w") as fh:
            json.dump(cfg, fh)


# ---------------------------------------------------------------------------
# execution and checks
# ---------------------------------------------------------------------------


def execute(job: Job, golden: dict | None) -> Outcome:
    """Run one job, timing only the library or CLI call, then check its
    outputs against the oracles and, where stored, the golden fingerprints."""
    leaks = size = 0
    t0 = perf_counter()
    try:
        if job.circuit is None:
            log = io.StringIO()
            with redirect_stdout(log), redirect_stderr(log):
                t0 = perf_counter()
                rc = cli.run(job.config_path)
                dt = perf_counter() - t0
            if rc != 0:
                return Outcome(dt, f"exit {rc}: {log.getvalue().strip()[:300]}")
            data = [_read_output(path) for path in job.outputs]
            size = sum(Path(p).stat().st_size for p in job.outputs)
            failure = _check_cli(job.oracle, job.config["params"], data)
            outputs = [fields(d) for d in data]
        else:
            reg, chain, psi = job.circuit
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                t0 = perf_counter()
                state, leak = gates.apply_circuit(chain, reg, psi)
                dt = perf_counter() - t0
            leaks = len(caught)
            norm = float(np.linalg.norm(state.amplitudes))
            failure = f"oracle: output norm {norm:.12g} != 1" if abs(norm - 1.0) > ORACLE_TOL else None
            outputs = [{"re": state.amplitudes.real, "im": state.amplitudes.imag, "leak": leak}]
    except Exception as exc:  # a job that raises is a named failure, not a crash
        return Outcome(perf_counter() - t0, f"raised {type(exc).__name__}: {exc}")
    prints = [{name: fingerprint(x) for name, x in out.items()} for out in outputs]
    failure = failure or _check_golden(job.id, prints, golden)
    return Outcome(dt, failure, prints, size, leaks)


def _read_output(path: str):
    """Parsed output file: a JSON object, or the CSV columns by header name,
    numeric cells as floats and labels as strings."""
    with open(path) as fh:
        if path.endswith(".json"):
            return json.load(fh)
        header, *rows = (line.split(",") for line in fh.read().splitlines())
        return {name: [_num(row[k]) for row in rows] for k, name in enumerate(header)}


def _num(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def fields(out: dict) -> dict[str, np.ndarray]:
    """The numeric fields of a parsed output by name. A JSON object's values
    count in key order; labels, nulls and ECHOED fields are left out."""
    got = {}
    for name, x in out.items():
        if isinstance(x, dict):
            x = [x[k] for k in sorted(x)]
        values = x if isinstance(x, list) else [x]
        if name in ECHOED or not values or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            continue
        got[name] = np.asarray(values, dtype=float)
    return got


def fingerprint(x) -> list[float]:
    """Count, largest magnitude, sum and three fixed projections of a field.

    The sum moves by the full size of any one entry's change, and the
    projections catch changes that cancel in the sum; storing these instead
    of the arrays keeps golden/ small.
    """
    x = np.asarray(x, dtype=float).ravel()
    i = np.arange(1, x.size + 1)
    probes = [float(np.cos(i * 0.7548776662 * k) @ x) for k in (1, 2, 3)]
    return [float(x.size), float(np.abs(x).max(initial=0.0)), float(x.sum())] + probes


def _check_golden(job_id: str, got: list[dict], golden: dict | None) -> str | None:
    if not golden or job_id not in golden:
        return None
    want = golden[job_id]
    if len(got) != len(want):
        return f"golden: {len(got)} outputs, expected {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if sorted(g) != sorted(w):
            return f"golden: output {k} has fields {sorted(g)}, expected {sorted(w)}"
        for name, ref in w.items():
            new = g[name]
            if new[0] != ref[0]:
                return f"golden: output {k} field {name} has {int(new[0])} numbers, expected {int(ref[0])}"
            tol = GOLDEN_RTOL * ref[1] + GOLDEN_ATOL
            worst = max(abs(a - b) for a, b in zip(new[1:], ref[1:]))
            if worst > tol:
                return f"golden: output {k} field {name} differs by {worst:.3e} (tolerance {tol:.3e})"
    return None


def _check_cli(o: dict, params: dict, data) -> str | None:
    """The first oracle failure of a CLI job's outputs, or None."""
    out = data[0]
    if o.get("poisson"):
        failure = _check_poisson(params, out)
        if failure:
            return failure
    if o.get("rows_sum_to_one"):
        pops = np.array([col for name, col in out.items() if name.startswith("pop_")])
        worst = float(np.abs(pops.sum(axis=0) - 1.0).max())
        if worst > ORACLE_TOL:
            return f"oracle: sbm-evolve row sums off by {worst:.3e}"
    if o.get("ascending"):
        by_xi: dict[float, list[float]] = {}
        for xi, energy in zip(out["xi"], out["excitation_energy"]):
            by_xi.setdefault(xi, []).append(energy)
        for xi, levels in by_xi.items():
            if abs(levels[0]) > ORACLE_TOL or any(b < a for a, b in zip(levels, levels[1:])):
                return f"oracle: kerrcat excitations at xi={xi:g} do not start at 0 and ascend"
    if o.get("hafnian_is_matching_count") and out["matchings"] != out["hafnian"]:
        return f"oracle: hafnian {out['hafnian']} != matching count {out['matchings']}"
    if "complete" in o:
        n = o["complete"]
        want = math.prod(range(n - 1, 0, -2))
        if out["hafnian"] != want:
            return f"oracle: haf(K_{n}) = {out['hafnian']}, expected (n-1)!! = {want}"
    if "exact_outcome" in o:
        p = out["distribution"][o["exact_outcome"]]
        if abs(p - 1.0) > ORACLE_TOL:
            return f"oracle: exact phase gives probability {p} on outcome {o['exact_outcome']}, expected 1"
    return None


def _check_poisson(p: dict, out: dict) -> str | None:
    """FCFs of a displacement-only Doktorov operator from |0,0> are products
    of Poisson weights in |alpha1|^2 and |alpha2|^2."""
    maxq = p["maxq"]
    w1, w2 = p["freqs"]
    lam1 = p["alpha1"][0] ** 2 + p["alpha1"][1] ** 2
    lam2 = p["alpha2"][0] ** 2 + p["alpha2"][1] ** 2

    def poisson(lam: float, n: int) -> float:
        return math.exp(-lam) * lam**n / math.factorial(n)

    expected = sorted(
        (p["e00"] + n * w1 + m * w2, poisson(lam1, n) * poisson(lam2, m))
        for n in range(maxq + 1)
        for m in range(maxq + 1)
    )
    weights = out["weight"]
    if len(weights) != len(expected):
        return f"oracle: {len(weights)} lines, expected {len(expected)}"
    worst = max(abs(got - w) for got, (_, w) in zip(weights, expected))
    if worst > ORACLE_TOL:
        return f"oracle: FCFs differ from the Poisson law by {worst:.3e}"
    return None


def load_golden(workload: str, seed: int) -> dict:
    """Golden fingerprints that apply at ``seed``: all jobs at the golden
    seed, the demos at any seed."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path) as fh:
        stored = json.load(fh)["jobs"]
    if seed == GOLDEN_SEED:
        return stored
    return {k: v for k, v in stored.items() if "-demo-" in k}
