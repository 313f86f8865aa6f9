"""Seed-0 benchmark pools of all four workloads against their stored golden
outputs.

The `vibronic` pool runs the bundled `h2o-illustrative` demo and seeded
`vibronic` configs (beamsplitter, Doktorov operator, FCF table); the
`circuits` pool runs seeded `apply_circuit` jobs on 3-mode registers through
the library; the `spectra` pool runs the bundled Kerr-cat, FMO, Pauli-Z and
double-well demos and seeded `kerrcat-sweep`, `doublewell` and `sbm-evolve`
configs; the `combinatorics` pool runs the bundled hafnian and QPE demos and
seeded `hafnian` and `qpe` configs. Each job's output must match the
fingerprints in `perfbench/golden/` to the benchmark's golden tolerance and
pass its oracle. The `vibronic` and `circuits` pools take about 5 s each on
2 CPUs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

JOBS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


def load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["vibronic", "circuits", "spectra", "combinatorics"])
def test_pool_matches_golden(workload, tmp_path):
    J = load_jobs()
    golden = J.load_golden(workload, 0)
    jobs = J.make_jobs(workload, 0)
    assert set(golden) == {job.id for job in jobs}
    J.prepare(jobs, tmp_path)
    failures = {job.id: J.execute(job, golden).failure for job in jobs}
    assert {k: v for k, v in failures.items() if v is not None} == {}
