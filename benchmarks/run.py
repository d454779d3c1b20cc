"""sparsemag benchmark: closed-loop workloads driven through the public API.

    python3 benchmarks/run.py --workload all            # every workload, untraced
    python3 benchmarks/run.py --workload tune --seed 3 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload sweep --trace 1  # per-layer numbers

One process and one thread, with BLAS pinned to one thread: the next call
starts when the previous one ends.  The seed makes the inputs; the library
sees only the inputs.  Every call's outputs are checked, and a run ends with
fixed-request checks against ``reference.json``.  Untraced runs report the
end-to-end metrics; a traced run (``--trace 1``) spends half its time
untraced and half with spans around every public function, and reports the
per-layer metrics.  Lines before the last name each metric with its unit; the
call timings are scaled to a reference host speed, and the raw wall-clock
values follow them.  The last line is one JSON object.  Results and spans go
to ``benchmarks/results``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import benchenv  # first: pins BLAS threads before numpy loads

benchenv.locate_library()

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import reference
import workloads as wl
from tracing import Tracer

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SPEC = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 8
clock = time.perf_counter

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "failed_ratio": "ratio", "auc_mean": "ratio", "l1_error_hz": "Hz",
    "recovery.iterations_p50": "count", "recovery.iterations_p90": "count",
    "recovery.flops_computed": "flop/op", "recovery.bytes_computed": "B/op",
    "cli.bytes_written": "B/op", "cli.bytes_read": "B/op",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_ratio", "self_share")):
        return "ratio"
    return "count/op"


class Runner:
    """Runs calls on a workload's pool, checking each call's outputs and
    that a repeated input gives the same outputs as its first run."""

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.digests: dict[int, str] = {}
        self.records: dict[int, dict] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, item: wl.Item) -> tuple[float, bool]:
        error = None
        start = clock()
        try:
            result = self.workload.call(item)
        except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        if error is None:
            try:
                output, record = self.workload.check(item, result)
                if self.digests.setdefault(item.index, output) != output:
                    raise wl.CheckFailed("outputs differ from this input's first run")
                self.records.setdefault(item.index, record)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        self.attempted += item.ops
        if error is not None:
            self.failed += item.ops
            self.failures.append(f"{self.workload.name} input {item.index}: {error}")
        return elapsed, error is None

    def loop(self, seconds: float, full_pass: bool, tracer: Tracer | None = None) -> dict:
        """Closed loop over the pool for ``seconds`` (and, with ``full_pass``,
        until every input has run once), with a speed probe between calls."""
        items = self.workload.items
        samples, probes = [], [speed_probe()]
        start = clock()
        i = 0
        while clock() - start < seconds or (full_pass and i < len(items)):
            item = items[i % len(items)]
            if tracer is not None:
                tracer.op = i
            elapsed, ok = self.run(item)
            probes.append(speed_probe())
            samples.append((item.ops, elapsed, ok))
            i += 1
        return summarise(samples, probes)

    def grade(self) -> dict:
        self.attempted += 1
        try:
            return self.workload.grade([self.records[i] for i in sorted(self.records)])
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{self.workload.name} grading: {type(exc).__name__}: {exc}")
            return {}


# The host is shared: its speed swings by up to 2x in phases of seconds, so
# raw call times of one code version spread by 30-60 % between runs.  A fixed
# kernel, timed before and after every call, tracks that speed; it never
# changes, so code changes leave it alone.  Call timings are scaled to the
# speed at which the kernel takes PROBE_REFERENCE_S; raw values stay in the
# report.
PROBE_REFERENCE_S = 5e-4
_PROBE_U = np.fft.fft(np.eye(3)) / np.sqrt(3.0)
_PROBE_K = np.arange(1, 100)


def speed_probe() -> float:
    start = clock()
    psi = np.array([0.0, 0.0, 1.0], dtype=complex)
    for _ in range(300):
        psi = _PROBE_U @ psi
    np.sin(np.pi * np.outer(_PROBE_K, _PROBE_K) / 100.0)
    return clock() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a time at
    the reference speed."""
    return PROBE_REFERENCE_S / ((before + after) / 2.0)


def summarise(samples, probes) -> dict:
    ops = np.array([s[0] for s in samples], dtype=float)
    wall = np.array([s[1] for s in samples])
    good = np.array([s[2] for s in samples])
    scale = np.array([speed_scale(a, b) for a, b in zip(probes[:-1], probes[1:])])
    done = ops[good].sum()

    def timings(times):
        per_op_ms = 1e3 * times[good] / ops[good] if done else np.array([np.nan])
        p90 = float(np.percentile(per_op_ms, 90))
        return {
            "ops_per_s": done / times.sum(),
            "op_ms_p50": float(np.percentile(per_op_ms, 50)),
            "op_ms_p90": p90,
            "p90_tail_samples": int((per_op_ms > p90).sum()),
        }

    return {
        "calls": len(samples),
        "ops": int(done),
        "wall_s": float(wall.sum()),
        **timings(wall * scale),
        "wall": timings(wall),
        "speed_p50": float(np.median(scale)),
        "samples": [(int(o), float(w), bool(g), float(f)) for o, w, g, f in zip(ops, wall, good, scale)],
    }


# Set-up time is mostly interpreter start and imports, whose speed on a
# shared host can drift by 40 % over minutes, and speed_probe does not track
# that.  A fresh interpreter that imports numpy, whose code never changes, is
# timed before and after every set-up probe; it tracks the host's speed for
# start-up work, and set-up times are scaled to the speed at which it takes
# STARTUP_REFERENCE_S.
STARTUP_REFERENCE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
STARTUP_REFERENCE_S = 0.1


def setup_probes(name: str, seed: int, tiny: bool, count: int) -> list[tuple[float, float]]:
    """``count`` times, the seconds from starting a fresh interpreter until
    it has imported sparsemag, generated the inputs and run one untimed
    warm-up call: raw, and scaled by the start-up references on either side."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    if tiny:
        cmd.append("--tiny")
    references = [time_until_ready(STARTUP_REFERENCE)]
    probes = []
    for _ in range(count):
        raw = time_until_ready(cmd)
        references.append(time_until_ready(STARTUP_REFERENCE))
        probes.append((raw, raw * STARTUP_REFERENCE_S / ((references[-2] + references[-1]) / 2)))
    return probes


def time_until_ready(cmd: list[str]) -> float:
    """Seconds from starting ``cmd`` until it prints ``ready``."""
    start = clock()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=benchenv.ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = clock() - start
        try:
            _, err = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1]} failed ({proc.returncode}): {err.strip()[-500:]}")
    return elapsed


def run_workload(name, seed, seconds, trace, tiny, reference_path) -> dict:
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS))
    workload = None
    try:
        # half the set-up probes run before the timed loop and half after
        setup_runs = 1 if tiny else SETUP_PROBES // 2
        setup = [] if trace else setup_probes(name, seed, tiny, setup_runs)
        workload = wl.WORKLOADS[name](seed, tiny, workdir)
        runner = Runner(workload)
        runner.run(workload.items[0])  # warm-up, untimed
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": benchenv.describe(seed)}
        if trace:
            untraced = runner.loop(seconds / 2, full_pass=False)
            tracer = Tracer()
            with tracer:
                traced = runner.loop(seconds / 2, full_pass=False, tracer=tracer)
            metrics = tracer.layer_metrics(traced["ops"], traced["wall_s"])
            metrics["trace.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
            tracer.write(RESULTS / f"{name}-seed{seed}-spans.json")
            report.update(untraced=untraced, traced=traced)
        else:
            timed = runner.loop(seconds, full_pass=True)
            setup += setup_probes(name, seed, tiny, setup_runs)
            quality = runner.grade()
            metrics = {
                "setup_s": float(np.median([scaled for _, scaled in setup])),
                **{k: timed[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_p90")},
                # 0 only when grading failed, and then the run has failed
                "auc_mean": quality.get("auc_mean", 0.0),
                "l1_error_hz": quality.get("l1_error_hz", 0.0),
            }
            report.update(timed=timed, setup=setup, grading=quality)
        checks = reference.check(name, workdir, reference_path)
        runner.attempted += len(checks)
        for _, failure in checks:
            if failure is not None:
                runner.failed += 1
                runner.failures.append(f"{name} reference {failure}")
        report.update(
            reference_checks=[n for n, _ in checks],
            attempted=runner.attempted, failed=runner.failed, failures=runner.failures,
            metrics=metrics,
        )
        if not trace:
            report["failed_ratio"] = runner.failed / runner.attempted
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return report


SCALED = ("ops_per_s", "op_ms_p50", "op_ms_p90")


def print_report(report: dict):
    name = report["workload"]
    lines = dict(report["metrics"])
    if "failed_ratio" in report:
        lines["failed_ratio"] = report["failed_ratio"]
    timed = report.get("timed")
    for metric, value in lines.items():
        note = "  (scaled to the reference speed)" if timed and metric in SCALED + ("setup_s",) else ""
        print(f"{name:<13} {metric:<32} {value:<14.6g} {unit_of(metric)}{note}")
    if timed:
        for metric in SCALED:
            print(f"{name:<13} {metric + ' wall':<32} {timed['wall'][metric]:<14.6g} {unit_of(metric)}  (raw)")
        print(f"{name:<13} {'speed scale p50':<32} {timed['speed_p50']:<14.6g} reference/host")
        raw_setup = float(np.median([raw for raw, _ in report["setup"]]))
        print(f"{name:<13} {'setup_s wall':<32} {raw_setup:<14.6g} s  (raw)")
        if timed["p90_tail_samples"] < 10:
            print(f"{name:<13} warning: op_ms_p90 has only {timed['p90_tail_samples']} samples beyond it")
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not report["environment"]["blas_pinned"]:
        print(f"warning: BLAS reports {report['environment']['blas_threads']} threads, not 1", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="4-input pools and one setup probe (smoke test)")
    parser.add_argument("--reference", type=Path, default=reference.REFERENCE, help="reference values file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        RESULTS.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=RESULTS))
        workload = wl.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        try:
            Runner(workload).run(workload.items[0])
            print("ready", flush=True)
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.tiny, args.reference) for n in names]
    for report in reports:
        print_report(report)
    prefix = len(reports) > 1
    result = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": unit_of(k)}
            for r in reports for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
