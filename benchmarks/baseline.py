"""Run the benchmark over seeds 1-10 and summarise each end-to-end metric.

    python3 benchmarks/baseline.py --out benchmarks/baseline.json

For every workload in ``BENCHMARK.json`` and every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median next to the metric's bound; the benchmark is
steady when every spread stays under a third of its bound.  With ``--out`` it
also makes one traced run per workload and writes everything to that file.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return result


def quartiles(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(statistics.median(values))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the summary and one traced run here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"run_seconds": SPEC["run_seconds"], "seeds": SEEDS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run(workload, seed, 0) for seed in SEEDS]
        entry = {"end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            stats = entry["end_to_end"][metric] = quartiles(values, bound)
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"{workload:<13} {metric:<12} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.4f} bound {bound} {'ok' if ok else 'WIDE'}", flush=True)
        if args.out:
            report = json.loads((HERE / "results" / f"{workload}-seed{SEEDS[0]}-trace0.json").read_text())
            entry["environment"] = report["environment"]
            traced = run(workload, SEEDS[0], 1)
            entry["per_layer"] = {"seed": SEEDS[0], **{k: v["value"] for k, v in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "not steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
