"""Regenerate golden/<workload>.json from the library as it stands.

    python3 perfbench/make_golden.py

Run it only on a commit whose outputs are meant to become the reference:
every later benchmark run compares against what this writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs as J  # noqa: E402


def main() -> int:
    J.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in J.WORKLOADS:
        pool = J.make_jobs(workload, J.GOLDEN_SEED)
        J.prepare(pool, ROOT / ".perfbench_work" / workload)
        stored = {}
        for job in pool:
            out = J.execute(job, None)
            if out.failure:
                print(f"{job.id}: {out.failure}", file=sys.stderr)
                return 1
            stored[job.id] = out.fingerprints
        path = J.GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps({"jobs": stored}, indent=1, sort_keys=True) + "\n")
        print(f"{path.relative_to(ROOT)}: {len(stored)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
