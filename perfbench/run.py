"""Closed-loop job benchmark for qumodelab.

    python3 perfbench/run.py --workload vibronic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25      # every workload

One client, one process: each job starts when the previous one has returned
and been checked. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see README.md). The last line of
standard output is one JSON object; the lines before it name every metric
with its unit, every failing job, and the environment. The full record is
written to ``.perfbench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# numpy asks the kernel for transparent huge pages on large arrays; whether
# it gets them depends on the memory of the whole machine, which moved the
# peak RSS of the same run by one D x D matrix. Read when numpy is imported,
# and inherited by the set-up probes.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

# Fresh processes that repeat the set-up, half of them before the timed
# loop and half after it, so that drift in machine speed during a run
# reaches them evenly; set-up time is the median over them and the
# measuring process itself.
SETUP_PROBES = 10
# The tail is the highest percentile with at least this many jobs beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def _setup(workload: str, seed: int):
    """Import the library, generate and write the jobs, run one untimed
    warm-up job. Returns (jobs, golden, set-up seconds)."""
    import jobs as J

    pool = J.make_jobs(workload, seed)
    J.prepare(pool, WORK / workload)
    golden = J.load_golden(workload, seed)
    J.execute(pool[0], golden)
    return pool, golden, perf_counter() - T_START


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs
    beyond it; the maximum when fewer jobs ran."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND above it
    return ordered[rank - 1], 100.0 * rank / n


def _loop(pool, seconds: float, run_one):
    """Closed loop over the pool until ``seconds`` have passed; at least one
    job runs. ``run_one(i, job)`` runs the i-th job and returns its outcome.
    Returns (job, outcome, seconds since the loop began) per job."""
    records = []
    t0 = perf_counter()
    i = 0
    while True:
        job = pool[i % len(pool)]
        records.append((job, run_one(i, job), perf_counter() - t0))
        i += 1
        if records[-1][2] >= seconds:
            return records


def _traced_pairs(tracer, golden, untraced: list[float]):
    """``run_one`` for the traced run: each job runs once traced and once
    untraced, in alternating order, so that drift in machine speed cancels
    out of the tracing overhead. Returns the traced outcome."""
    import jobs as J

    def run_one(i: int, job):
        for traced in (True, False) if i % 2 == 0 else (False, True):
            if not traced:
                untraced.append(J.execute(job, golden).seconds)
                continue
            tracer.install()
            tracer.job = i
            span = tracer.open("bench.job")
            try:
                out = J.execute(job, golden)
            finally:
                tracer.close(span)
                tracer.uninstall()
            tracer.counts["cli.output_bytes"] += out.output_bytes
            tracer.counts["gates.leak_warnings"] += out.leak_warnings
        return out

    return run_one


def _env(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "git_commit": _git_commit(),
        "seed": seed,
        "clients": 1,
    }


def _git_commit() -> str:
    """HEAD of the checkout; "unknown" when the checkout has no .git of its
    own, so that an enclosing repository's commit is never recorded."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _probe_setups(workload: str, seed: int, count: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _report(workload: str, seed: int, trace: bool, payload: dict, extra: dict) -> None:
    record = {"workload": workload, "env": _env(seed), **extra, **payload}
    path = WORK / workload / f"result-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"record: {path.relative_to(ROOT)}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pool, golden, setup_s = _setup(workload, seed)
    import jobs as J

    if not trace:
        setups = [setup_s, *_probe_setups(workload, seed, SETUP_PROBES // 2)]
        records = _loop(pool, seconds, lambda i, job: J.execute(job, golden))
        setups += _probe_setups(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
        # Timing metrics use whole passes over the pool, so every run times
        # the same job mix and where the deadline falls in a pass does not
        # matter; a run shorter than one pass uses every job.
        timed = records[: len(records) // len(pool) * len(pool)] or records
        times = [o.seconds for _, o, _ in timed]
        passed = sum(1 for _, o, _ in timed if not o.failure)
        wall = timed[-1][2]
        tail, pct = _tail(times)
        metrics = {
            "setup_s": statistics.median(setups),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail,
            "jobs_per_s": passed / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        notes = {
            "job_tail_s": f"p{pct:.1f} of {len(times)} jobs ({TAIL_BEYOND} beyond it)",
            "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
            "jobs_per_s": f"{passed} passing jobs in {wall:.2f} s, "
                          f"{len(timed) // len(pool)} whole passes over {len(pool)} jobs",
        }
        extra = {"job_times": [[j.id, o.seconds] for j, o, _ in records]}
    else:
        import tracing

        tracer = tracing.Tracer()
        untraced: list[float] = []
        records = _loop(pool, seconds, _traced_pairs(tracer, golden, untraced))
        traced_s = sum(o.seconds for _, o, _ in records)
        untraced_s = sum(untraced)
        metrics, by_caller = tracer.summary()
        metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        units = tracing.PER_LAYER
        notes = {"trace.overhead_frac": f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s "
                                        f"over the same {len(records)} jobs, run in pairs"}
        for name, split in by_caller.items():
            notes[f"{name}.self_s"] = "by caller: " + ", ".join(
                f"{k} {v:.3f}" for k, v in sorted(split.items(), key=lambda kv: -kv[1]))
        spans_path = WORK / workload / f"spans-seed{seed}.csv"
        with open(spans_path, "w") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, start, end, parent, job in tracer.spans:
                fh.write(f"{name},{start - T_START:.9f},{end - T_START:.9f},{parent},{job}\n")
        extra = {"linalg_self_s_by_caller": by_caller, "spans": str(spans_path.relative_to(ROOT)),
                 "jobs": [[i, j.id] for i, (j, _, _) in enumerate(records)]}

    failures = [(j.id, o.failure) for j, o, _ in records if o.failure]
    attempted = len(records)
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"{workload} {name} = {metrics[name]:.6g} {unit}" + (f"  [{note}]" if note else ""))
    print(f"{workload} failed_frac = {len(failures) / attempted:.6g} ratio  [{len(failures)} of {attempted}]")
    for job_id, why in failures:
        print(f"FAILED {job_id}: {why}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    _report(workload, seed, trace, result,
            {**extra, "failed_frac": len(failures) / attempted, "failures": failures, "notes": notes})
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table of the results."""
    from jobs import WORKLOADS

    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(rows[WORKLOADS[0]]["metrics"])
    print()
    print(f"{'metric':<40}{'unit':<14}" + "".join(f"{w:>15}" for w in WORKLOADS))
    for name in names:
        unit = rows[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<40}{unit:<14}" + "".join(f"{rows[w]['metrics'][name]['value']:>15.6g}" for w in WORKLOADS))
    print(f"{'failed_frac':<40}{'ratio':<14}"
          + "".join(f"{rows[w]['failed'] / rows[w]['attempted']:>15.6g}" for w in WORKLOADS))
    print(json.dumps({"workloads": rows}))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qumodelab" / "__init__.py").is_file():
        print(f"error: no qumodelab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from jobs import WORKLOADS

    if args.workload not in (*WORKLOADS, "all"):
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_probe:
        print(json.dumps({"setup_s": _setup(args.workload, args.seed)[2]}))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
