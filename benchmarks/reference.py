"""Fixed requests whose outputs are checked against ``reference.json``.

The reference values were recorded from the library as it stood when the
benchmark was defined.  Sampler outputs (the ``measure`` CSV bytes and the
``simulate_measurements`` vectors) must match exactly; solver outputs, AUC and
l1 errors must match within the tolerances in ``RULES``.

Record the file again (only when outputs are meant to change) with::

    python3 benchmarks/reference.py
"""

from __future__ import annotations

import benchenv  # first: pins BLAS threads before numpy loads

benchenv.locate_library()

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import sparsemag as sm
import workloads as wl
from sparsemag import cli, experiments, sensor, transform

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# name -> (rule, tolerance).  "exact": equal values (hashes, booleans);
# "abs": largest absolute deviation over all elements; "rel": largest
# deviation relative to max(|reference|, 1), so values under 1 compare
# absolutely.
RULES = {
    "cli.synth_csv_sha256": ("exact", None),
    "cli.measure_csv_sha256": ("exact", None),
    "cli.recovered_hz": ("abs", 0.5),
    "cli.auc": ("abs", 1e-3),
    "cli.l1_error_hz": ("rel", 1e-3),
    "sensor.simulate_subset_sha256": ("exact", None),
    "sensor.simulate_full_sha256": ("exact", None),
    "sensor.unitary_shot_hz": ("rel", 1e-9),
    "sensor.ramsey_sample_hz": ("rel", 1e-9),
    "acquire.scenario_auc": ("abs", 1e-3),
    "acquire.compressive_l1_error_hz": ("rel", 1e-3),
    "acquire.criterion_9_compressive_beats_ramsey": ("exact", None),
    "tune.mean_l1_error_hz": ("rel", 1e-3),
    "tune.best_lambda_hz": ("rel", 0.05),
    "sweep.mean_auc": ("abs", 1e-3),
    "sweep.criterion_7_clauses": ("exact", None),
}


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


ONE_PULSE = wl.truth_waveform(wl.Sweep.pulses["one"])  # criteria 7 and 9
TWO_PULSE = wl.truth_waveform(wl.Sweep.pulses["two"])


def cli_values(workdir: Path) -> dict:
    d = Path(tempfile.mkdtemp(prefix="ref-", dir=workdir))
    try:
        for argv in (
            ["synth", "--pulses", "1.025e-3,1000,200e-6", "--out", str(d / "wf.csv")],
            ["measure", "--in", str(d / "wf.csv"), "--m", "60", "--seed", "7", "--out", str(d / "m.csv")],
            ["recover", "--measurements", str(d / "m.csv"), "--out", str(d / "rec.csv")],
            ["roc", "--recovered", str(d / "rec.csv"), "--truth", str(d / "wf.csv"), "--out", str(d / "roc.csv")],
        ):
            code = cli.main(argv)
            if code != 0:
                raise wl.CheckFailed(f"reference sparsemag {argv[0]} exited {code}")
        recovered = [float(r.split(",")[1]) for r in (d / "rec.csv").read_text().splitlines()[1:]]
        return {
            "cli.synth_csv_sha256": hashlib.sha256((d / "wf.csv").read_bytes()).hexdigest(),
            "cli.measure_csv_sha256": hashlib.sha256((d / "m.csv").read_bytes()).hexdigest(),
            "cli.recovered_hz": recovered,
            "cli.auc": json.loads((d / "roc.csv.auc.json").read_text())["auc"],
            "cli.l1_error_hz": wl.l1_error(recovered, ONE_PULSE.samples),
        }
    finally:
        shutil.rmtree(d, ignore_errors=True)


def sensor_values() -> dict:
    wf = TWO_PULSE
    noise = sm.NoiseModel(200.0, 1000.0, seed=5)
    subset = transform.random_subsample(wf.grid.n_grid, 60, 7)
    return {
        "sensor.simulate_subset_sha256": _sha(experiments.simulate_measurements(wf, subset, noise, 3).values),
        "sensor.simulate_full_sha256": _sha(experiments.simulate_measurements(wf, None, noise, 3).values),
        "sensor.unitary_shot_hz": sensor.measure_sine_coefficient(wf, 17, noise, shot_seed=4),
        "sensor.ramsey_sample_hz": sensor.ramsey_sample(wf, 1.125e-3, 60e-6, noise, shot_seed=4),
    }


def acquire_values() -> dict:
    wf = ONE_PULSE
    noise = sm.NoiseModel(200.0, 1000.0, seed=19)
    results = [experiments.run_scenario(name, wf, noise, master_seed=19) for name in experiments.SCENARIOS]
    aucs = [r.auc_value for r in results]
    return {
        "acquire.scenario_auc": aucs,
        "acquire.compressive_l1_error_hz": wl.l1_error(results[-1].recovered.samples, wf.samples),
        "acquire.criterion_9_compressive_beats_ramsey": aucs[2] > aucs[0],
    }


def tune_values() -> dict:
    result = experiments.tune_lambda(
        experiments.TrainingSetSpec(count=3, master_seed=11), experiments.LambdaGrid()
    )
    return {
        "tune.mean_l1_error_hz": result.mean_l1_error.tolist(),
        "tune.best_lambda_hz": result.best_lambda,
    }


def sweep_values() -> dict:
    means = {}
    for kind, wf in (("one", ONE_PULSE), ("two", TWO_PULSE)):
        base = experiments.simulate_measurements(wf, None, sm.NoiseModel(200.0, 1000.0, seed=0), 0)
        spec = experiments.SweepSpec(m_values=(10, 60), base_measurements=base.values, subsets_per_m=8, master_seed=7)
        template = sm.default_template(wf.grid)
        means[kind] = [mean for _, mean, _ in experiments.sweep_sample_count(spec, template, wf.samples)]
    return {
        "sweep.mean_auc": means["one"] + means["two"],
        "sweep.criterion_7_clauses": all(m10 < 0.9 and m60 >= 0.99 for m10, m60 in means.values()),
    }


def values_for(workload: str, workdir: Path) -> dict:
    """Reference outputs a workload checks: the fixed requests of every layer
    that workload exercises."""
    return {
        "cli_pipeline": lambda: {**cli_values(workdir), **sensor_values()},
        "acquire": lambda: {**sensor_values(), **acquire_values()},
        "tune": lambda: {**sensor_values(), **tune_values()},
        "sweep": lambda: {**sensor_values(), **sweep_values()},
    }[workload]()


def compare(name, observed, expected) -> str | None:
    """None when ``observed`` matches ``expected`` under ``RULES[name]``,
    else a one-line reason."""
    rule, tol = RULES[name]
    if rule == "exact":
        return None if observed == expected else f"{name}: {observed!r} != reference {expected!r}"
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.shape != exp.shape or not np.all(np.isfinite(obs)):
        return f"{name}: shape {obs.shape} or non-finite values vs reference {exp.shape}"
    deviation = np.abs(obs - exp)
    if rule == "rel":
        deviation = deviation / np.maximum(np.abs(exp), 1.0)
    worst = float(deviation.max())
    return None if worst <= tol else f"{name}: {rule} deviation {worst:.3g} > {tol:g}"


def check(workload: str, workdir: Path, reference_path: Path = REFERENCE) -> list[tuple[str, str | None]]:
    """(name, failure or None) for every reference value the workload checks."""
    expected = json.loads(Path(reference_path).read_text())
    observed = values_for(workload, workdir)
    return [
        (name, compare(name, value, expected[name]) if name in expected else f"{name}: no reference value")
        for name, value in observed.items()
    ]


if __name__ == "__main__":
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=REFERENCE.parent))
    try:
        values = {}
        for workload in wl.WORKLOADS:
            values.update(values_for(workload, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} reference values to {REFERENCE}")
