"""Study drivers: regularisation tuning, sample-count sweeps against
compressive-sensing bounds, and end-to-end recovery scenarios.

Every driver is a pure function of (spec, master_seed): subsets, training
sequences, per-shot seeds and noise streams all come from counter-based keys
under the master seed (``seeds.derive_seed``, ``seeds.streams``, which take a
whole batch of keys at once), so results never depend on execution order.
The key layouts and their tags are listed in ``seeds``.

Shot batches here use the sensor's first-order Magnus closed form, the
package's one Magnus sampler: the exact quadratures of the sine-interpolated
waveform for every selected index at once (``sensor.magnus_quadratures``),
then the coherent-state readout of <Fx> (``sensor.count_readout``), with
no spin state built.  The test suite checks it against the stepped unitary
shot (``sensor.measure_sine_coefficient``) and a per-shot 3x3 matrix oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import sensor
from .detection import (
    Template,
    auc,
    auc_from_scores,
    default_template,
    ground_truth_classification,
    matched_filter,
    positive_labels,
    roc_curve,
)
from .grids import PulseSpec, TimeGrid, Waveform, synth_waveform, write_csv_rows, write_text
from .recovery import (
    DEFAULT_LAMBDA,
    LassoProblem,
    RecoveryResult,
    fista_solve,
    fista_solve_block,
)
from .seeds import COUNTS, DRIFT, RAMSEY, SEQUENCE, SHOT, SUBSET, derive_seed, streams
from .sensor import NoiseModel
from .transform import (
    MeasurementVector,
    SubsampleSet,
    apply_dst,
    apply_inverse_dst,
    dst_matrix,
    random_subsample,
    random_subsample_masks,
    subsample_rows,
)

# sweep subsets solved per block: each working array of the engine holds at
# most this many rows of N - 1 values, whatever the m grid and subset count
_SWEEP_BLOCK_COLUMNS = 256


def simulate_measurements(
    waveform: Waveform,
    subsample: SubsampleSet | None,
    noise: NoiseModel | None,
    master_seed: int = 0,
) -> MeasurementVector:
    """One simulated shot per selected frequency index (all of 1..N-1 when
    ``subsample`` is None), using the Magnus closed form.  Shot k draws its
    drift and its atom counts on the seed derive_seed(master_seed, SHOT, k)."""
    n_grid = waveform.grid.n_grid
    duration = waveform.grid.duration
    if subsample is None:
        subsample = SubsampleSet(n_grid, tuple(range(1, n_grid)))
    if subsample.n_grid != n_grid:
        raise ValueError(
            f"subset is for N={subsample.n_grid}, the waveform has N={n_grid}"
        )
    k = np.asarray(subsample.indices)
    drift = np.zeros(n_grid - 1)
    rngs = None  # the noiseless limit draws nothing
    if noise is not None:
        # every shot's DRIFT stream, then every shot's COUNTS stream
        rngs = streams(noise.seed, derive_seed(master_seed, SHOT, k), [[DRIFT], [COUNTS]])
        drift[k - 1] = [rng.normal(0.0, noise.bias_drift_std_hz)
                        for rng in itertools.islice(rngs, k.size)]
    coefs = apply_dst(dst_matrix(n_grid), waveform)
    a, b = sensor.magnus_quadratures(coefs, duration, drift)
    fx = sensor.magnus_prediction(a[k - 1], b[k - 1])
    return MeasurementVector(sensor.count_readout(fx, duration, noise, rngs), subsample)


@dataclass(frozen=True)
class TrainingSetSpec:
    """Simulated training distribution for regularisation tuning: sequences
    of 0, 1 or 2 randomly placed single-cycle pulses under the shot noise
    model, measured at a random subset of frequencies."""

    count: int = 1000
    pulse_count_choices: tuple[int, ...] = (0, 1, 2)
    amplitude: float = 1000.0
    pulse_duration: float = 200e-6
    n_grid: int = 100
    dt: float = 50e-6
    m: int = 60
    noise: NoiseModel = field(default_factory=NoiseModel)
    master_seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class LambdaGrid:
    low: float = 0.1
    high: float = 10.0
    count: int = 200

    def __post_init__(self):
        if not 0 < self.low < self.high < np.inf:
            raise ValueError("lambda grid needs 0 < low < high < inf")
        if self.count < 2:
            raise ValueError("lambda count must be >= 2")

    @property
    def values(self) -> np.ndarray:
        return np.geomspace(self.low, self.high, self.count)


@dataclass
class TuneResult:
    best_lambda: float
    lambdas: np.ndarray
    mean_l1_error: np.ndarray
    failed_solves: int


def _training_sequence(spec: TrainingSetSpec, index: int) -> Waveform:
    tgrid = TimeGrid(spec.n_grid, spec.dt)
    rng = next(streams(spec.master_seed, SEQUENCE, index))
    n_pulses = int(rng.choice(spec.pulse_count_choices))
    pulses = [
        PulseSpec(
            amplitude=spec.amplitude,
            pulse_duration=spec.pulse_duration,
            start_time=float(
                rng.uniform(0.0, tgrid.duration - spec.pulse_duration)
            ),
        )
        for _ in range(n_pulses)
    ]
    return synth_waveform(tgrid, pulses)


def tune_lambda(spec: TrainingSetSpec, grid: LambdaGrid) -> TuneResult:
    """Mean l1 recovery error over the training set for each lambda; the
    minimiser is the tuned regularisation weight.  Solves that hit max_iters
    are counted in ``failed_solves``."""
    matrix = dst_matrix(spec.n_grid)
    lambdas = grid.values
    errors = np.zeros(lambdas.size)
    failures = 0
    for index in range(spec.count):
        waveform = _training_sequence(spec, index)
        subset = random_subsample(
            spec.n_grid, spec.m, derive_seed(spec.master_seed, SUBSET, index)
        )
        measured = simulate_measurements(
            waveform, subset, spec.noise, master_seed=derive_seed(spec.master_seed, index)
        )
        operator = subsample_rows(matrix, subset)
        solved = fista_solve_block(operator, measured.values, lambdas)
        failures += int(np.count_nonzero(~solved.converged))
        errors += np.abs(solved.waveform - waveform.samples).sum(axis=1)
    errors /= spec.count
    best = lambdas[int(np.argmin(errors))]
    return TuneResult(float(best), lambdas, errors, failures)


def compute_bound(sparsity: int, n_grid: int) -> int:
    """Minimum measurement count ceil(2 s ln(e N / s)) guaranteeing sparse
    recovery at sparsity s on a grid of size N >= 2.  It may exceed the N - 1
    coefficients there are: the bound is sufficient, not necessary."""
    if n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {n_grid}")
    if not 1 <= sparsity <= n_grid:
        raise ValueError(f"sparsity must lie in 1..{n_grid}, got {sparsity}")
    return math.ceil(2.0 * sparsity * math.log(math.e * n_grid / sparsity))


@dataclass
class SweepSpec:
    """Measurement-count sweep over random subsets of one complete dataset."""

    m_values: tuple[int, ...]
    base_measurements: np.ndarray
    subsets_per_m: int = 200
    lam: float = DEFAULT_LAMBDA
    master_seed: int = 0

    def __post_init__(self):
        self.base_measurements = np.asarray(self.base_measurements, dtype=float)
        n_grid = self.base_measurements.size + 1
        if any(m > n_grid - 1 or m < 1 for m in self.m_values):
            raise ValueError(f"every m must lie in 1..{n_grid - 1}")
        if self.subsets_per_m < 1:
            raise ValueError(f"subsets_per_m must be >= 1, got {self.subsets_per_m}")
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must lie in (0, inf), got {self.lam}")

    @property
    def n_grid(self) -> int:
        return self.base_measurements.size + 1


def sweep_sample_count(
    spec: SweepSpec,
    template: Template,
    truth: np.ndarray,
) -> list[tuple[int, float, float]]:
    """(m, mean AUC, std AUC) over seeded random subsets for each m.

    Every (m, rep) subset is one column of a masked block on the full DST
    matrix, drawn, solved and graded ``_SWEEP_BLOCK_COLUMNS`` columns at a
    time.  Failed recoveries keep their (possibly poor) AUC; nothing is dropped.
    """
    truth_labels = ground_truth_classification(truth, template)
    positive_labels(truth_labels)  # a degenerate truth fails before any solve
    matrix = dst_matrix(spec.n_grid)
    m_of = np.repeat(np.asarray(spec.m_values, dtype=int), spec.subsets_per_m)
    rep_of = np.tile(np.arange(spec.subsets_per_m), len(spec.m_values))
    seeds = derive_seed(spec.master_seed, SUBSET, m_of, rep_of)
    scores = np.empty(m_of.size)
    for start in range(0, m_of.size, _SWEEP_BLOCK_COLUMNS):
        block = slice(start, start + _SWEEP_BLOCK_COLUMNS)
        masks = random_subsample_masks(spec.n_grid, m_of[block], seeds[block])
        lams = np.full(len(masks), spec.lam)
        solved = fista_solve_block(matrix, spec.base_measurements, lams, row_masks=masks)
        filtered = [matched_filter(row, template) for row in solved.waveform]
        scores[block] = auc_from_scores(filtered, truth_labels)
    scores = scores.reshape(len(spec.m_values), spec.subsets_per_m)
    means, stds = scores.mean(axis=1), scores.std(axis=1)
    return [(int(m), float(mu), float(sd)) for m, mu, sd in zip(spec.m_values, means, stds)]


SCENARIOS = ("ramsey", "full_dst", "compressive")


@dataclass
class ScenarioResult:
    name: str
    recovered: Waveform
    auc_value: float
    measurements: dict
    recovery: RecoveryResult | None = None


def run_scenario(
    name: str,
    waveform: Waveform,
    noise: NoiseModel | None,
    master_seed: int = 0,
    m: int = 60,
    lam: float = DEFAULT_LAMBDA,
    template: Template | None = None,
) -> ScenarioResult:
    """Measure a waveform with one of the three protocols and grade the
    recovery: Ramsey time sampling in 60 us windows, complete inverse DST, or
    compressive FISTA recovery from m random sine coefficients."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    tgrid = waveform.grid
    matrix = dst_matrix(tgrid.n_grid)
    if template is None:
        template = default_template(tgrid)
    truth_labels = ground_truth_classification(waveform.samples, template)
    positive_labels(truth_labels)  # a degenerate truth fails before any shot

    recovery = None
    if name == "ramsey":
        times = tgrid.times
        seeds = derive_seed(master_seed, RAMSEY, np.arange(times.size))
        samples = sensor.ramsey_sample(waveform, times, 60e-6, noise, seeds)
        recovered = Waveform(samples, tgrid)
        record = {"protocol": "ramsey", "samples": samples.tolist()}
    elif name == "full_dst":
        measured = simulate_measurements(waveform, None, noise, master_seed)
        recovered = apply_inverse_dst(matrix, measured.values, tgrid)
        record = {"protocol": "full_dst", "coef_hz": measured.values.tolist()}
    else:
        subset = random_subsample(
            tgrid.n_grid, m, derive_seed(master_seed, SUBSET)
        )
        measured = simulate_measurements(waveform, subset, noise, master_seed)
        operator = subsample_rows(matrix, subset)
        recovery = fista_solve(LassoProblem(operator, measured.values, lam))
        recovered = Waveform(recovery.waveform, tgrid)
        record = {
            "protocol": "compressive",
            "indices": list(subset.indices),
            "coef_hz": measured.values.tolist(),
        }

    curve = roc_curve(recovered.samples, template, truth_labels)
    return ScenarioResult(name, recovered, auc(curve), record, recovery)


def scenario_to_csv(result: ScenarioResult, truth: Waveform, path):
    """Write ``time_s,truth_hz,recovered_hz`` rows."""
    rows = zip(truth.grid.times, truth.samples, result.recovered.samples)
    write_csv_rows(path, ["time_s", "truth_hz", "recovered_hz"], rows)


def sweep_to_csv(rows, path):
    """Write ``m,mean_auc,std_auc`` rows."""
    write_csv_rows(path, ["m", "mean_auc", "std_auc"], rows)


def tune_to_csv(result: TuneResult, path):
    """Write ``lambda_hz,mean_l1_error`` rows."""
    rows = zip(result.lambdas, result.mean_l1_error)
    write_csv_rows(path, ["lambda_hz", "mean_l1_error"], rows)


def write_manifest(path, command: str, parameters: dict, master_seed: int, outputs):
    manifest = {
        "command": command,
        "parameters": parameters,
        "master_seed": master_seed,
        "output_paths": [str(p) for p in outputs],
    }
    write_text(path, json.dumps(manifest, indent=2))
