"""The seed-0 `spectra` benchmark pool against its stored golden outputs.

The pool runs the bundled Kerr-cat, FMO, Pauli-Z and double-well demos and
seeded `kerrcat-sweep`, `doublewell` and `sbm-evolve` configs through the
CLI; each output must match the fingerprints in `perfbench/golden/` to the
benchmark's golden tolerance and pass its oracle.
"""

import importlib.util
import sys
from pathlib import Path

JOBS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


def load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_spectra_pool_matches_golden(tmp_path):
    J = load_jobs()
    golden = J.load_golden("spectra", 0)
    jobs = J.make_jobs("spectra", 0)
    assert set(golden) == {job.id for job in jobs}
    J.prepare(jobs, tmp_path)
    failures = {job.id: J.execute(job, golden).failure for job in jobs}
    assert {k: v for k, v in failures.items() if v is not None} == {}
