import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest

from qumodelab import cli, fmo_hamiltonian, sbm_evolve


DATA = Path(__file__).resolve().parent / "data"


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------


def test_demo_listing():
    demos = cli.list_demos()
    assert "fmo4" in demos
    assert "kerrcat-fig4" in demos
    assert set(demos) == {
        "fmo4",
        "pauli-z",
        "kerrcat-fig4",
        "doublewell-symmetric",
        "h2o-illustrative",
        "k4-hafnian",
        "qpe-d3",
    }


def test_every_demo_validates():
    for name in cli.list_demos():
        diags = cli.validate(cli.demo_path(name))
        assert [d for d in diags if d.severity == "error"] == [], name


def test_every_demo_runs_and_is_byte_stable(in_tmp):
    for name in cli.list_demos():
        path = cli.demo_path(name)
        assert cli.run(path) == 0, name
        cfg = json.loads(open(path).read())
        outputs = [cfg["output"]]
        if "dos_output" in cfg.get("params", {}):
            outputs.append(cfg["params"]["dos_output"])
        first = {out: open(out, "rb").read() for out in outputs}
        assert cli.run(path) == 0, name
        for out in outputs:
            assert open(out, "rb").read() == first[out], f"{name}:{out}"


def test_doublewell_reports_cutoff_drift(in_tmp, capsys):
    assert cli.run(cli.demo_path("doublewell-symmetric")) == 0
    out = capsys.readouterr().out
    drift = re.search(r"cutoff drift (\S+) vs cutoff 70\)", out)
    assert drift is not None, out
    assert abs(float(drift.group(1)) - 9.5e-6) < 1e-7


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_missing_experiment_field(in_tmp, tmp_path, capsys):
    path = write_config(tmp_path, {"params": {}, "output": "x.csv"})
    assert cli.run(path) == 1
    err = capsys.readouterr().err
    assert "experiment" in err


def test_unknown_experiment(tmp_path):
    path = write_config(tmp_path, {"experiment": "nope", "params": {}, "output": "x"})
    diags = cli.validate(path)
    assert any(d.field == "experiment" for d in diags if d.severity == "error")


def test_negative_cutoff_single_diagnostic(tmp_path):
    cfg = {
        "experiment": "kerrcat-sweep",
        "params": {"xi_grid": [0.0, 1.0], "cutoff": -3, "n_levels": 4},
        "output": "x.csv",
    }
    diags = cli.validate(write_config(tmp_path, cfg))
    errors = [d for d in diags if d.severity == "error"]
    assert len(errors) == 1
    assert errors[0].field == "params.cutoff"


def test_unsorted_grid_is_warning_only(in_tmp, tmp_path):
    cfg = {
        "experiment": "kerrcat-sweep",
        "params": {"xi_grid": [1.0, 0.0], "cutoff": 30, "n_levels": 4},
        "output": "sweep.csv",
    }
    path = write_config(tmp_path, cfg)
    diags = cli.validate(path)
    assert [d.severity for d in diags] == ["warning"]
    assert cli.run(path) == 0


def test_unknown_keys_rejected(tmp_path):
    cfg = {
        "experiment": "hafnian",
        "params": {"edges": [[1, 2]], "surprise": 1},
        "output": "x.json",
        "extra": True,
    }
    diags = cli.validate(write_config(tmp_path, cfg))
    fields = {d.field for d in diags if d.severity == "error"}
    assert "extra" in fields
    assert "params.surprise" in fields


# Characterization of config validation: for each bad config, the exact set of
# (severity, field) pairs it reports. Each case starts from a valid config of
# its experiment and applies a change; DROP removes a key.

DROP = object()
INF, NAN = float("inf"), float("nan")

VALID_PARAMS = {
    "vibronic": {"freqs": [1.0, 1.5]},
    "sbm-evolve": {"hamiltonian": "fmo4", "initial": 1, "times": [0.0, 1.0]},
    "kerrcat-sweep": {"xi_grid": [0.0, 1.0], "cutoff": 30, "n_levels": 4},
    "doublewell": {"k4": 1.0, "k2": 2.0, "cutoff": 30, "n_levels": 4},
    "hafnian": {"edges": [[1, 2]]},
    "qpe": {"d": 3, "t": 1, "phase": 0.5},
}


def errors(*fields):
    return {("error", f) for f in fields}


BAD_PARAMS = [
    ("vibronic", {"freqs": DROP}, errors("params.freqs")),
    ("vibronic", {"freqs": [1.0, -1.0]}, errors("params.freqs")),
    ("vibronic", {"freqs": [1.0]}, errors("params.freqs")),
    ("vibronic", {"alpha1": "x"}, errors("params.alpha1")),
    ("vibronic", {"alpha1": [1.0, 2.0, 3.0]}, errors("params.alpha1")),
    ("vibronic", {"alpha1": INF}, errors("params.alpha1")),
    ("vibronic", {"z2": [0.1, NAN]}, errors("params.z2")),
    ("vibronic", {"theta_bs": "a"}, errors("params.theta_bs")),
    ("vibronic", {"phi_bs": INF}, errors("params.phi_bs")),
    ("vibronic", {"e00": NAN}, errors("params.e00")),
    ("vibronic", {"cutoff": 1}, errors("params.cutoff")),
    ("vibronic", {"cutoff": 2.5}, errors("params.cutoff")),
    ("vibronic", {"cutoff": 4, "initial": [4, 0]}, errors("params.initial")),
    ("vibronic", {"cutoff": 4, "maxq": 4}, errors("params.maxq")),
    ("vibronic", {"initial": [0]}, errors("params.initial")),
    ("vibronic", {"cutoff": 1, "initial": [20, 0]}, errors("params.cutoff", "params.initial")),
    ("vibronic", {"note": 5, "foo": 1}, errors("params.note", "params.foo")),
    ("sbm-evolve", {"hamiltonian": DROP}, errors("params.hamiltonian")),
    ("sbm-evolve", {"hamiltonian": [[1.0, 2.0], [3.0, 1.0]]}, errors("params.hamiltonian")),
    ("sbm-evolve", {"hamiltonian": [[1.0, 2.0], [2.0]]}, errors("params.hamiltonian")),
    ("sbm-evolve", {"hamiltonian": "fmo5"}, errors("params.hamiltonian")),
    ("sbm-evolve", {"units": "dimensionless"}, errors("params.units")),
    ("sbm-evolve", {"units": "eV"}, errors("params.units")),
    ("sbm-evolve", {"hamiltonian": [[1.0, 0.5], [0.5, 2.0]], "units": "eV"}, errors("params.units")),
    ("sbm-evolve", {"cutoff": 5}, errors("params.cutoff")),
    ("sbm-evolve", {"initial": 5}, errors("params.initial")),
    ("sbm-evolve", {"initial": [1.0, 0.0]}, errors("params.initial")),
    ("sbm-evolve", {"initial": [0.5, 0.5, 0.5, 0.4]}, errors("params.initial")),
    ("sbm-evolve", {"initial": [[0.5, 0.5], 0.5, "x", 0.5]}, errors("params.initial")),
    ("sbm-evolve", {"initial": "a"}, errors("params.initial")),
    ("sbm-evolve", {"times": DROP, "initial": DROP}, errors("params.times", "params.initial")),
    ("sbm-evolve", {"times": {"start": 0.0, "stop": 1.0}}, errors("params.times")),
    ("sbm-evolve", {"times": {"start": 0.0, "stop": 1.0, "num": 0}}, errors("params.times")),
    ("sbm-evolve", {"times": []}, errors("params.times")),
    ("sbm-evolve", {"times": "soon"}, errors("params.times")),
    ("kerrcat-sweep", {"cutoff": -3}, errors("params.cutoff")),
    ("kerrcat-sweep", {"cutoff": "x"}, errors("params.cutoff")),
    ("kerrcat-sweep", {"n_levels": 40}, errors("params.n_levels")),
    ("kerrcat-sweep", {"n_levels": 0}, errors("params.n_levels")),
    ("kerrcat-sweep", {"xi_grid": DROP}, errors("params.xi_grid")),
    ("kerrcat-sweep", {"xi_grid": [-1.0]}, errors("params.xi_grid")),
    ("kerrcat-sweep", {"xi_grid": []}, errors("params.xi_grid")),
    ("kerrcat-sweep", {"xi_grid": [1.0, 0.0]}, {("warning", "params.xi_grid")}),
    ("kerrcat-sweep", {"K": NAN}, errors("params.K")),
    ("kerrcat-sweep", {"K": "k"}, errors("params.K")),
    ("kerrcat-sweep", {"dos_xi": 1.0}, errors("params.dos_output")),
    ("kerrcat-sweep", {"dos_output": "dos.csv"}, errors("params.dos_output")),
    ("kerrcat-sweep", {"dos_xi": -1.0, "dos_output": "dos.csv"}, errors("params.dos_xi")),
    ("kerrcat-sweep", {"dos_xi": 1.0, "dos_output": ""}, errors("params.dos_output")),
    ("kerrcat-sweep", {"dos_bins": 5, "dos_span": 0.0}, errors("params.dos_bins", "params.dos_span")),
    ("doublewell", {"k4": -1.0}, errors("params.k4")),
    ("doublewell", {"k4": 0.0, "k2": 1.0}, errors("params.k4")),
    ("doublewell", {"k2": DROP}, errors("params.k2")),
    ("doublewell", {"k4": "x"}, errors("params.k4")),
    ("doublewell", {"mass": 0.0}, errors("params.mass")),
    ("doublewell", {"k4": -1.0, "mass": -1.0}, errors("params.k4", "params.mass")),
    ("doublewell", {"k1": INF}, errors("params.k1")),
    ("doublewell", {"cutoff": 1}, errors("params.cutoff")),
    ("doublewell", {"cutoff": 1, "n_levels": 8}, errors("params.cutoff")),
    ("doublewell", {"n_levels": 31}, errors("params.n_levels")),
    ("doublewell", {"n_levels": DROP}, errors("params.n_levels")),
    ("hafnian", {"edges": DROP}, errors("params.edges")),
    ("hafnian", {"edges_file": "graph.txt"}, errors("params.edges")),
    ("hafnian", {"edges": [[1]]}, errors("params.edges")),
    ("hafnian", {"edges": [[1, 2, "w"]]}, errors("params.edges")),
    ("hafnian", {"edges": DROP, "edges_file": ""}, errors("params.edges_file")),
    ("hafnian", {"n": 0}, errors("params.n")),
    ("qpe", {"d": 1}, errors("params.d")),
    ("qpe", {"t": 0}, errors("params.t")),
    ("qpe", {"d": 4, "t": 6}, errors("params.t")),
    ("qpe", {"phase": DROP}, errors("params.phase")),
    ("qpe", {"phase": "x"}, errors("params.phase")),
    ("qpe", {"shots": -1, "seed": 1}, errors("params.shots", "params.seed")),
    ("sbm-evolve", {"times": {"start": -1e308, "stop": 1e308, "num": 3}}, errors("params.times")),
    # an int too large for a float
    ("qpe", {"phase": 10**400}, errors("params.phase")),
    ("kerrcat-sweep", {"K": -(10**400)}, errors("params.K")),
    ("vibronic", {"alpha1": [0.0, 10**400]}, errors("params.alpha1")),
]

BAD_TOP_LEVEL = [
    ({"output": DROP}, errors("output")),
    ({"output": ""}, errors("output")),
    ({"seed": "a"}, errors("seed")),
    ({"threads": 0}, errors("threads")),
    ({"params": "x"}, errors("params")),
    ({"params": DROP}, errors("params")),
    ({"experiment": DROP}, errors("experiment")),
    ({"experiment": "nope"}, errors("experiment")),
    ({"extra": True}, errors("extra")),
    ({"seed": -1}, errors("seed")),
]


def changed(base, change):
    out = dict(base)
    for key, value in change.items():
        if value is DROP:
            out.pop(key)
        else:
            out[key] = value
    return out


def reported(tmp_path, cfg):
    diags = cli.validate(write_config(tmp_path, cfg))
    return {(d.severity, d.field) for d in diags}


@pytest.mark.parametrize(
    "experiment, change, expected",
    BAD_PARAMS,
    ids=[f"{exp}-{i}" for i, (exp, _, _) in enumerate(BAD_PARAMS)],
)
def test_bad_params_diagnostics(in_tmp, experiment, change, expected):
    (in_tmp / "graph.txt").write_text("1 2\n3 4\n")
    params = changed(VALID_PARAMS[experiment], change)
    cfg = {"experiment": experiment, "params": params, "output": "out"}
    assert reported(in_tmp, cfg) == expected


@pytest.mark.parametrize("change, expected", BAD_TOP_LEVEL)
def test_bad_top_level_diagnostics(tmp_path, change, expected):
    base = {"experiment": "vibronic", "params": VALID_PARAMS["vibronic"], "output": "out"}
    assert reported(tmp_path, changed(base, change)) == expected


def test_top_level_must_be_object(tmp_path):
    assert reported(tmp_path, [1, 2]) == errors("config")


def test_valid_params_have_no_diagnostics(in_tmp):
    for experiment, params in VALID_PARAMS.items():
        cfg = {"experiment": experiment, "params": params, "output": "out"}
        assert reported(in_tmp, cfg) == set(), experiment


def test_invalid_json_is_validation_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.run(str(path)) == 1
    diags = cli.validate(str(path))
    assert diags[0].field == "config"


def test_unreadable_file_is_io_failure(capsys):
    assert cli.run("/nonexistent/config.json") == 3


def test_qpe_register_size_capped(tmp_path):
    cfg = {
        "experiment": "qpe",
        "params": {"d": 4, "t": 6, "phase": 0.5},
        "output": "x.json",
    }
    diags = cli.validate(write_config(tmp_path, cfg))
    assert any(d.field == "params.t" for d in diags if d.severity == "error")


# ---------------------------------------------------------------------------
# experiment outputs
# ---------------------------------------------------------------------------


def test_kerrcat_csv_echoes_grid(in_tmp, tmp_path):
    cfg = {
        "experiment": "kerrcat-sweep",
        "params": {"xi_grid": [0.0, 1.0, 2.0], "cutoff": 30, "n_levels": 4},
        "output": "sweep.csv",
    }
    assert cli.run(write_config(tmp_path, cfg)) == 0
    lines = open("sweep.csv").read().splitlines()
    assert lines[0] == "xi,level_index,parity,excitation_energy"
    xs = {line.split(",")[0] for line in lines[1:]}
    assert xs == {"0", "1", "2"}


def test_fmo_rows_sum_to_one(in_tmp):
    assert cli.run(cli.demo_path("fmo4")) == 0
    rows = open("fmo4_populations.csv").read().splitlines()
    assert rows[0] == "time,pop_1,pop_2,pop_3,pop_4"
    for row in rows[1:]:
        pops = [float(x) for x in row.split(",")[1:]]
        assert abs(sum(pops) - 1.0) < 1e-8


def test_threads_key_rejected(in_tmp, tmp_path, capsys):
    cfg = {
        "experiment": "kerrcat-sweep",
        "params": {"xi_grid": [0.0, 0.5], "cutoff": 30, "n_levels": 4},
        "output": "sweep.csv",
        "threads": 2,
    }
    assert cli.run(write_config(tmp_path, cfg)) == 1
    assert "error: threads: unknown key" in capsys.readouterr().err
    assert not (in_tmp / "sweep.csv").exists()


@pytest.mark.parametrize(
    "params, field, detail",
    [
        ({"edges": [[1, 1]]}, "params.edges", "self-loop"),
        ({"edges": [[2 * i + 1, 2 * i + 2] for i in range(11)]}, "params.edges", "got 22"),
        ({"edges_file": "bad.txt"}, "params.edges_file", "bad.txt:2: "),
        ({"edges": [[1, 5]], "n": 3}, "params.edges", "outside 1..3"),
        ({"edges": []}, "params.edges", "empty edge list"),
        ({"edges": [[1, 2]], "n": 3000}, "params.n", "1..20"),
        ({"edges": [[1, 3001]]}, "params.edges", "got 3001"),
        ({"edges_file": "big.txt"}, "params.edges_file", "got 3001"),
        ({"edges_file": str(DATA / "edges-nan-weight.txt")}, "params.edges_file",
         "edge (1, 2) has non-finite weight nan"),
        ({"edges_file": str(DATA / "edges-inf-weight.txt")}, "params.edges_file",
         "edge (2, 3) has non-finite weight inf"),
    ],
    ids=[
        "self-loop",
        "22-vertices",
        "malformed-file",
        "vertex-beyond-n",
        "no-edges",
        "n-3000",
        "label-3001",
        "file-label-3001",
        "nan-weight-file",
        "inf-weight-file",
    ],
)
def test_bad_graph_is_field_error(in_tmp, tmp_path, capsys, params, field, detail):
    (in_tmp / "bad.txt").write_text("1 2\n3 x\n")
    (in_tmp / "big.txt").write_text("1 3001\n")
    cfg = {"experiment": "hafnian", "params": params, "output": "h.json"}
    assert cli.run(write_config(tmp_path, cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert detail in err
    assert not (in_tmp / "h.json").exists()


@pytest.mark.parametrize("name", ["edges-nan-weight.txt", "edges-inf-weight.txt"])
def test_non_finite_edge_weight_fails_validation(tmp_path, capsys, name):
    cfg = {"experiment": "hafnian", "params": {"edges_file": str(DATA / name)}, "output": "h.json"}
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().out.startswith("error: params.edges_file: edge (")


def test_oversized_graph_refused_before_allocation(tmp_path):
    cfg = {"experiment": "hafnian", "params": {"edges": [[1, 2]], "n": 3000}, "output": "h.json"}
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        diags = cli.validate(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(d.severity, d.field) for d in diags] == [("error", "params.n")]
    assert peak < 2**20


def test_missing_edges_file_is_io_failure(in_tmp, tmp_path, capsys):
    cfg = {"experiment": "hafnian", "params": {"edges_file": "absent.txt"}, "output": "h.json"}
    assert cli.run(write_config(tmp_path, cfg)) == 3
    assert "absent.txt" in capsys.readouterr().err


def test_hafnian_reports_matchings_beyond_16_vertices(in_tmp, tmp_path):
    # The 18-vertex cycle has exactly two perfect matchings.
    ring = [[i + 1, (i + 1) % 18 + 1] for i in range(18)]
    cfg = {"experiment": "hafnian", "params": {"edges": ring}, "output": "ring.json"}
    assert cli.run(write_config(tmp_path, cfg)) == 0
    assert json.loads(open("ring.json").read()) == {"hafnian": 2.0, "matchings": 2}


def test_hafnian_reports_matchings_at_the_cap(in_tmp, tmp_path):
    # K_20 has 19!! perfect matchings.
    clique = [[i, j] for i in range(1, 21) for j in range(i + 1, 21)]
    cfg = {"experiment": "hafnian", "params": {"edges": clique}, "output": "k20.json"}
    assert cli.run(write_config(tmp_path, cfg)) == 0
    assert '"matchings": 654729075' in open("k20.json").read()
    assert json.loads(open("k20.json").read()) == {"hafnian": 654729075.0, "matchings": 654729075}


def test_qpe_output_structure(in_tmp):
    assert cli.run(cli.demo_path("qpe-d3")) == 0
    out = json.loads(open("qpe_d3.json").read())
    assert out["modal_outcome"] == "11"  # base-3 digits of 4
    assert out["phase_estimate"] == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert abs(sum(out["distribution"]) - 1.0) < 1e-9
    assert sum(out["histogram"].values()) == out["shots"]


def test_hafnian_output(in_tmp):
    assert cli.run(cli.demo_path("k4-hafnian")) == 0
    out = json.loads(open("k4_hafnian.json").read())
    assert out == {"hafnian": 3.0, "matchings": 3}


def test_convergence_failure_exit_code(in_tmp, tmp_path, capsys):
    cfg = {
        "experiment": "kerrcat-sweep",
        "params": {"xi_grid": [6.0], "cutoff": 10, "n_levels": 8},
        "output": "sweep.csv",
    }
    assert cli.run(write_config(tmp_path, cfg)) == 2
    assert "convergence" in capsys.readouterr().err


@pytest.mark.parametrize("K", [0.0, -1.0])
def test_dos_needs_positive_kerr(in_tmp, tmp_path, capsys, K):
    cfg = {
        "experiment": "kerrcat-sweep",
        "params": {"K": K, "xi_grid": [0.0, 1.0], "cutoff": 30, "n_levels": 4,
                   "dos_xi": 2.0, "dos_output": "dos.csv"},
        "output": "sweep.csv",
    }
    path = write_config(tmp_path, cfg)
    assert reported(tmp_path, cfg) == errors("params.K")
    assert cli.main(["validate", path]) == 1
    assert "error: params.K: " in capsys.readouterr().out
    assert cli.run(path) == 1
    assert "error: params.K: " in capsys.readouterr().err
    assert not (in_tmp / "dos.csv").exists()


def test_main_subcommands(in_tmp, capsys):
    assert cli.main(["demos"]) == 0
    listing = capsys.readouterr().out
    assert "fmo4" in listing
    assert cli.main(["validate", cli.demo_path("k4-hafnian")]) == 0
    assert "runnable" in capsys.readouterr().out
    assert cli.main(["run", cli.demo_path("k4-hafnian")]) == 0


def test_csv_uses_lf_endings(in_tmp):
    assert cli.run(cli.demo_path("doublewell-symmetric")) == 0
    data = open("doublewell_levels.csv", "rb").read()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_sbm_start_vector_check_is_shared(in_tmp):
    for psi0 in ([1.0, 0.0], [0.9, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError) as exc:
            sbm_evolve(fmo_hamiltonian(), psi0, [0.0], cutoff=7)
        params = changed(VALID_PARAMS["sbm-evolve"], {"initial": psi0})
        cfg = {"experiment": "sbm-evolve", "params": params, "output": "out"}
        diags = cli.validate(write_config(in_tmp, cfg))
        assert [(d.field, d.message) for d in diags] == [("params.initial", str(exc.value))]


# ---------------------------------------------------------------------------
# extreme values: refused (exit 1), numerical breakdown (exit 2) or finite output
# ---------------------------------------------------------------------------

EXTREMES = [0, -1, 1e-300, 1e300, 1e308, -1e308]

SMALL_PARAMS = {
    "vibronic": {"freqs": [1.0, 1.5], "cutoff": 6},
    "sbm-evolve": {"hamiltonian": "fmo4", "initial": 1, "times": [0.0, 1.0]},
    "kerrcat-sweep": {"xi_grid": [0.0, 1.0], "cutoff": 30, "n_levels": 4,
                      "dos_xi": 1.0, "dos_output": "dos.csv"},
    "doublewell": {"k4": 1.0, "k2": 2.0, "cutoff": 30, "n_levels": 4},
    "hafnian": {"edges": [[1, 2], [3, 4], [1, 3], [2, 4]]},
    "qpe": {"d": 2, "t": 2, "phase": 0.5, "shots": 4},
}


def _set(name):
    return lambda v: {name: v}


# (experiment, field) -> the params change that puts the value v into the field
# ("seed" is the top-level key). Size fields (cutoff, n, d, t, num) are left out.
EXTREME_FIELDS = {
    **{("vibronic", n): _set(n) for n in ("alpha1", "alpha2", "z1", "z2", "theta_bs", "phi_bs")},
    ("vibronic", "freqs"): lambda v: {"freqs": [v, v]},
    ("vibronic", "e00"): _set("e00"),
    ("sbm-evolve", "hamiltonian"): lambda v: {"hamiltonian": [[v, 1.0], [1.0, 0.0]]},
    ("sbm-evolve", "times"): lambda v: {"times": {"start": -v, "stop": v, "num": 3}},
    **{("kerrcat-sweep", n): _set(n) for n in ("K", "dos_xi", "dos_span")},
    ("kerrcat-sweep", "xi_grid"): lambda v: {"xi_grid": [0.0, v]},
    **{("doublewell", n): _set(n) for n in ("k4", "k2", "k1", "mass")},
    ("hafnian", "edges"): lambda v: {"edges": [[1, 2, v], [3, 4, v], [1, 3, v], [2, 4, v]]},
    ("qpe", "phase"): _set("phase"),
    ("qpe", "seed"): None,
}


def _numbers(path):
    """Every number in a CSV or JSON output file."""
    text = Path(path).read_text()
    if path.endswith(".csv"):
        cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
        return [float(c) for c in cells if c not in ("even", "odd")]
    found = []
    hook = lambda s: found.append(float(s))  # also sees NaN and Infinity
    json.loads(text, parse_int=hook, parse_float=hook, parse_constant=hook)
    return found


@pytest.mark.parametrize("value", EXTREMES, ids=repr)
@pytest.mark.parametrize(
    "experiment, field", list(EXTREME_FIELDS), ids=[f"{e}-{f}" for e, f in EXTREME_FIELDS]
)
def test_extreme_values_are_refused_or_finite(in_tmp, capsys, experiment, field, value):
    change = EXTREME_FIELDS[experiment, field]
    output = "out.json" if experiment in ("hafnian", "qpe") else "out.csv"
    cfg = {"experiment": experiment, "params": dict(SMALL_PARAMS[experiment]), "output": output}
    if change is None:
        cfg["seed"] = value
    else:
        cfg["params"].update(change(value))
    path = write_config(in_tmp, cfg)
    accepted = not any(d.severity == "error" for d in cli.validate(path))
    rc = cli.run(path)
    assert rc in ((0, 2) if accepted else (1,)), capsys.readouterr().err
    if rc == 0:
        outputs = [output] + (["dos.csv"] if experiment == "kerrcat-sweep" else [])
        for out in outputs:
            assert all(math.isfinite(x) for x in _numbers(out)), out


def test_overflowing_dos_window_is_named(in_tmp, capsys):
    cfg = json.loads(Path(cli.demo_path("kerrcat-fig4")).read_text())
    cfg["params"]["dos_xi"] = 1e300
    assert cli.run(write_config(in_tmp, cfg)) == 2
    assert capsys.readouterr().err == (
        "error: numerical: the metapotential window [0, span K xi^2] overflows at "
        "span=6, K=1, xi=1e+300\n"
    )
