"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one tiny job per workload (``--seconds 0`` runs exactly the first job
of the pool), untraced and traced, and checks that every metric named in
BENCHMARK.json is printed, by name and with its unit, both in the text lines
and in the final JSON object. Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in wanted.items():
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "0",
                   "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"{workload} trace={trace}: bad result {lines[-1][:300]}")
            if set(result["metrics"]) != {m["name"] for m in metrics}:
                problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
            for m in metrics:
                got = result["metrics"].get(m["name"], {})
                text = [ln for ln in lines[:-1] if ln.startswith(f"{workload} {m['name']} = ")]
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: {m['name']} JSON entry {got}")
                if len(text) != 1 or text[0].split("  [")[0].split()[-1] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} text line {text}")
            print(f"{workload} trace={trace}: {len(metrics)} metrics checked", flush=True)
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
