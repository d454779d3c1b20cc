"""Spans around the library's public functions, recorded from outside ``src``.

Each traced function is wrapped once and the wrapper is installed under every
name a caller looks it up by: ``experiments`` binds ``fista_solve``,
``roc_curve`` and ``random_subsample`` by name, while ``cli`` calls
``recovery.fista_solve`` through the module, so both bindings are patched.
Spans stay in memory as ``(name, start, end, parent, op)`` tuples and are
written out once, when the run ends.  File I/O is counted the same way: each
module reads and writes its files through the builtin ``open``, so a counting
``open`` is installed in every module's namespace while tracing.
"""

from __future__ import annotations

import builtins
import json
import statistics
import time
from collections import defaultdict

import numpy as np

from sparsemag import cli, detection, experiments, grids, recovery, sensor, transform

LAYERS = {
    "grids": grids,
    "transform": transform,
    "sensor": sensor,
    "recovery": recovery,
    "detection": detection,
    "experiments": experiments,
    "cli": cli,
}

# Public functions that get a span, by defining module.  Per-iteration helpers
# (objective, soft_threshold) are left out: a span per FISTA iteration would
# cost more than the work it measures.
TRACED = {
    "grids": ("synth_waveform", "waveform_from_csv", "waveform_to_csv"),
    "transform": (
        "dst_matrix", "apply_dst", "apply_inverse_dst", "random_subsample",
        "subsample_rows", "sine_interpolant", "measurements_to_csv",
        "measurements_from_csv",
    ),
    "sensor": ("measure_sine_coefficient", "ramsey_sample", "magnus_state"),
    "recovery": ("fista_solve", "result_to_csv", "result_metadata_to_json"),
    "detection": (
        "default_template", "ground_truth_classification", "roc_curve", "auc",
        "roc_to_csv", "auc_to_json",
    ),
    "experiments": (
        "simulate_measurements", "run_scenario", "tune_lambda",
        "sweep_sample_count", "write_manifest",
    ),
    "cli": ("main", "cmd_synth", "cmd_measure", "cmd_recover", "cmd_roc"),
}


def _observe_solve(args, kwargs, result):
    rows, cols = args[0].operator.shape
    return (result.iterations_used, bool(result.converged), rows, cols)


def _observe_simulate(args, kwargs, result):
    return result.values.size


OBSERVERS = {
    "recovery.fista_solve": _observe_solve,
    "experiments.simulate_measurements": _observe_simulate,
}


class CountingFile:
    """A text file that adds the UTF-8 size of everything read from or
    written to it to ``counts`` ("read", "written")."""

    def __init__(self, fh, counts):
        self._fh = fh
        self._counts = counts

    def _add(self, key, text):
        self._counts[key] += len(text.encode())
        return text

    def read(self, *args):
        return self._add("read", self._fh.read(*args))

    def readline(self, *args):
        return self._add("read", self._fh.readline(*args))

    def __iter__(self):
        return self

    def __next__(self):
        return self._add("read", next(self._fh))

    def write(self, text):
        return self._fh.write(self._add("written", text))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """Installs span-recording wrappers while active (use as a context
    manager) and turns the recorded spans into per-layer metrics."""

    def __init__(self):
        self.spans: list = []
        self.observed: dict[int, object] = {}
        self.io_bytes = {"read": 0, "written": 0}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, observed = self.spans, self._stack, self.observed
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observed[index] = observe(args, kwargs, result)
            return result

        return traced

    def _open(self, *args, **kwargs):
        return CountingFile(builtins.open(*args, **kwargs), self.io_bytes)

    def __enter__(self):
        for namespace in LAYERS.values():
            if "open" in vars(namespace):
                raise RuntimeError(f"{namespace.__name__} defines its own open; count its I/O another way")
            self._patches.append((namespace, "open", None))
            namespace.open = self._open
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(LAYERS[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for namespace in LAYERS.values():
                    if getattr(namespace, fname, None) is original:
                        self._patches.append((namespace, fname, original))
                        setattr(namespace, fname, wrapper)
        return self

    def __exit__(self, *exc):
        for namespace, fname, original in reversed(self._patches):
            if original is None:
                delattr(namespace, fname)
            else:
                setattr(namespace, fname, original)
        self._patches.clear()
        return False

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "names": names,
                    "spans": [
                        [code[n], round(a, 9), round(b, 9), p, o]
                        for n, a, b, p, o in self.spans
                    ],
                },
                fh,
            )

    def layer_metrics(self, ops: int, wall_s: float) -> dict:
        """Per-layer metrics over the traced phase: ``ops`` completed ops in
        ``wall_s`` seconds of op time.  Timings are p50 over calls, counts
        are per op, and a function the workload never calls reports 0."""
        durations = defaultdict(list)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            durations[name].append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name.split(".")[0]] += end - start - child_time[index]

        def p50(name, scale):
            values = durations.get(name)
            return scale * statistics.median(values) if values else 0.0

        def per_op(count):
            return count / ops if ops else 0.0

        solves = [
            (self.spans[i][2] - self.spans[i][1], obs)
            for i, obs in self.observed.items()
            if self.spans[i][0] == "recovery.fista_solve"
        ]
        iterations = np.array([obs[0] for _, obs in solves], dtype=float)
        matvec = np.array([obs[2] * obs[3] for _, obs in solves], dtype=float)
        simulate = [
            (self.spans[i][2] - self.spans[i][1], shots)
            for i, shots in self.observed.items()
            if self.spans[i][0] == "experiments.simulate_measurements"
        ]

        metrics = {
            "sensor.magnus_shot_us": (
                1e6 * statistics.median(d / s for d, s in simulate) if simulate else 0.0
            ),
            "sensor.shots": per_op(sum(s for _, s in simulate)),
            "sensor.unitary_shot_ms": p50("sensor.measure_sine_coefficient", 1e3),
            "sensor.ramsey_sample_us": p50("sensor.ramsey_sample", 1e6),
            "recovery.solves": per_op(len(solves)),
            "recovery.solve_us": p50("recovery.fista_solve", 1e6),
            "recovery.iter_us": (
                1e6 * statistics.median(d / obs[0] for d, obs in solves) if solves else 0.0
            ),
            "recovery.iterations_p50": (
                float(np.percentile(iterations, 50)) if solves else 0.0
            ),
            "recovery.iterations_p90": (
                float(np.percentile(iterations, 90)) if solves else 0.0
            ),
            "recovery.converged_ratio": (
                sum(obs[1] for _, obs in solves) / len(solves) if solves else 0.0
            ),
            # Computed, not counted: each FISTA iteration makes three
            # operator products (A y, A^T r, A x for the objective), each
            # 2*m*n flops reading the m*n float64 operator once.
            "recovery.flops_computed": per_op(float(6.0 * (iterations * matvec).sum())),
            "recovery.bytes_computed": per_op(float(24.0 * (iterations * matvec).sum())),
            "detection.roc_us": p50("detection.roc_curve", 1e6),
            "detection.auc_us": p50("detection.auc", 1e6),
            "transform.random_subsample_us": p50("transform.random_subsample", 1e6),
            "transform.dst_matrix_calls": per_op(len(durations["transform.dst_matrix"])),
            "transform.dst_matrix_us": p50("transform.dst_matrix", 1e6),
            "transform.subsample_rows_us": p50("transform.subsample_rows", 1e6),
            "grids.synth_waveform_us": p50("grids.synth_waveform", 1e6),
            "grids.waveform_from_csv_us": p50("grids.waveform_from_csv", 1e6),
        }
        for command in ("synth", "measure", "recover", "roc"):
            metrics[f"cli.{command}_ms"] = p50(f"cli.cmd_{command}", 1e3)
        metrics["cli.bytes_written"] = per_op(self.io_bytes["written"])
        metrics["cli.bytes_read"] = per_op(self.io_bytes["read"])
        for layer, seconds in self_time.items():
            metrics[f"{layer}.self_share"] = seconds / wall_s if wall_s else 0.0
        return metrics
