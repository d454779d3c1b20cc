"""Study drivers: regularisation tuning, sample-count sweeps against
compressive-sensing bounds, and end-to-end recovery scenarios.

Every driver is a pure function of (spec, master_seed): per-shot seeds derive
from the master seed through a counter-based ``SeedSequence`` split, so
results never depend on execution order.

Shot batches here use the first-order Magnus closed form of the sensor
(``method="magnus"``), for which both quadratures have exact expressions on
the sine-interpolated waveform; the test suite checks this fast path against
the stepped unitary simulator.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import sensor
from .detection import (
    Classification,
    Template,
    auc,
    default_template,
    ground_truth_classification,
    roc_curve,
)
from .grids import PulseSpec, TimeGrid, Waveform, make_grids, synth_waveform
from .recovery import (
    FistaConfig,
    LassoProblem,
    RecoveryResult,
    default_lambda,
    fista_solve,
    fista_solve_block,
)
from .sensor import MagnusCoefficients, NoiseModel
from .transform import (
    DstMatrix,
    MeasurementVector,
    SubsampleSet,
    apply_dst,
    apply_inverse_dst,
    dst_matrix,
    random_subsample,
    subsample_rows,
)

# numeric tags for the counter-based seed split (strings are not valid
# SeedSequence entropy)
_TAG_SHOT = 0
_TAG_SUBSET = 1
_TAG_RAMSEY = 2
_TAG_SEQUENCE = 3

# sweep subsets solved per block: each working array of the engine holds at
# most this many rows of N - 1 values, whatever the m grid and subset count
_SWEEP_BLOCK_COLUMNS = 256


def derive_seed(master_seed: int, *indices: int) -> int:
    """Deterministic child seed for a (master, counter...) key."""
    return int(np.random.SeedSequence((master_seed, *indices)).generate_state(1)[0])


def cosine_coupling_matrix(n_grid: int) -> np.ndarray:
    """Matrix C with c = C m giving the cosine coefficients c_k of the
    sine-series interpolant whose sine coefficients are m.

    C[k, l] = (4/pi) * l / (l^2 - k^2) for l + k odd, else 0.
    """
    k = np.arange(1, n_grid)[:, None].astype(float)
    l = np.arange(1, n_grid)[None, :].astype(float)
    odd = (k + l) % 2 == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(odd, (4.0 / np.pi) * l / (l**2 - k**2), 0.0)
    return c


def magnus_quadratures(
    coefs: np.ndarray,
    duration: float,
    drift_hz: np.ndarray | float = 0.0,
    coupling: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact first-order Magnus quadratures (a_k, b_k) for every frequency
    index, given the full DST coefficient vector and a per-shot drift.

    a_k = 2 pi T m_k + drift * 2T(1 - (-1)^k)/k,  b_k = 2 pi T c_k.
    """
    n_minus_1 = coefs.size
    k = np.arange(1, n_minus_1 + 1)
    if coupling is None:
        coupling = cosine_coupling_matrix(n_minus_1 + 1)
    a = 2.0 * np.pi * duration * coefs + np.asarray(drift_hz) * (
        2.0 * duration * (1.0 - (-1.0) ** k) / k
    )
    b = 2.0 * np.pi * duration * (coupling @ coefs)
    return a, b


def simulate_measurements(
    waveform: Waveform,
    subsample: SubsampleSet | None,
    noise: NoiseModel | None,
    master_seed: int = 0,
    readout_sign: int = 1,
) -> MeasurementVector:
    """One simulated shot per selected frequency index (all of 1..N-1 when
    ``subsample`` is None), using the Magnus closed form."""
    n_grid = waveform.grid.n_grid
    duration = waveform.grid.duration
    if subsample is None:
        subsample = SubsampleSet(n_grid, tuple(range(1, n_grid)))
    coefs = apply_dst(dst_matrix(n_grid), waveform)
    a_base, b_all = magnus_quadratures(coefs, duration)

    values = np.empty(subsample.m)
    for i, k in enumerate(subsample.indices):
        shot_seed = derive_seed(master_seed, _TAG_SHOT, k)
        drift = 0.0 if noise is None else sensor._shot_drift(noise, shot_seed)
        a_k = a_base[k - 1] + drift * 2.0 * duration * (1.0 - (-1.0) ** k) / k
        state = sensor.magnus_state(MagnusCoefficients(a_k, b_all[k - 1]))
        probs = sensor._readout_probabilities(state, readout_sign)
        if noise is None:
            values[i] = (probs[2] - probs[0]) / (2.0 * np.pi * duration)
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence((noise.seed, shot_seed, 1))
            )
            total = max(1, int(rng.poisson(noise.mean_atoms)))
            counts = rng.multinomial(total, probs)
            values[i] = (counts[2] - counts[0]) / (2.0 * np.pi * duration * total)
    return MeasurementVector(values, subsample)


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
        if not self.low < self.high:
            raise ValueError("low must be below high")
        if self.count < 2:
            raise ValueError("count must be >= 2")

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
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.master_seed, _TAG_SEQUENCE, index))
    )
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


def tune_lambda(
    spec: TrainingSetSpec, grid: LambdaGrid, config: FistaConfig | None = None
) -> TuneResult:
    """Mean l1 recovery error over the training set for each lambda; the
    minimiser is the tuned regularisation weight."""
    matrix = dst_matrix(spec.n_grid)
    lambdas = grid.values
    errors = np.zeros(lambdas.size)
    failures = 0
    for index in range(spec.count):
        waveform = _training_sequence(spec, index)
        subset = random_subsample(
            spec.n_grid, spec.m, derive_seed(spec.master_seed, _TAG_SUBSET, index)
        )
        measured = simulate_measurements(
            waveform, subset, spec.noise, master_seed=derive_seed(spec.master_seed, index)
        )
        results = fista_solve_block(
            subsample_rows(matrix, subset), measured.values, lambdas, config=config
        )
        failures += sum(not result.converged for result in results)
        recovered = np.array([result.waveform for result in results])
        errors += np.abs(recovered - waveform.samples).sum(axis=1)
    errors /= spec.count
    if failures:
        warnings.warn(f"{failures} FISTA solves hit max_iters during tuning")
    best = lambdas[int(np.argmin(errors))]
    return TuneResult(float(best), lambdas, errors, failures)


def compute_bound(sparsity: int, n_grid: int) -> int:
    """Minimum measurement count ceil(2 s ln(e N / s)) guaranteeing sparse
    recovery at sparsity s on a grid of size N."""
    if not 1 <= sparsity <= n_grid:
        raise ValueError(f"sparsity must lie in 1..{n_grid}, got {sparsity}")
    bound = math.ceil(2.0 * sparsity * math.log(math.e * n_grid / sparsity))
    if bound > n_grid - 1:
        warnings.warn(
            f"bound {bound} exceeds the {n_grid - 1} available coefficients"
        )
    return bound


@dataclass
class SweepSpec:
    """Measurement-count sweep over random subsets of one complete dataset."""

    m_values: tuple[int, ...]
    base_measurements: np.ndarray
    subsets_per_m: int = 200
    lam: float = field(default_factory=default_lambda)
    master_seed: int = 0

    def __post_init__(self):
        self.base_measurements = np.asarray(self.base_measurements, dtype=float)
        n_grid = self.base_measurements.size + 1
        if any(m > n_grid - 1 or m < 1 for m in self.m_values):
            raise ValueError(f"every m must lie in 1..{n_grid - 1}")

    @property
    def n_grid(self) -> int:
        return self.base_measurements.size + 1


def sweep_sample_count(
    spec: SweepSpec,
    template: Template,
    truth: np.ndarray,
    config: FistaConfig | None = None,
) -> list[tuple[int, float, float]]:
    """(m, mean AUC, std AUC) over seeded random subsets for each m.

    Every (m, rep) subset is one column of a masked block on the full DST
    matrix, solved ``_SWEEP_BLOCK_COLUMNS`` columns at a time.  Failed
    recoveries keep their (possibly poor) AUC; nothing is dropped.
    """
    matrix = dst_matrix(spec.n_grid)
    truth_labels = ground_truth_classification(truth, template)
    pairs = [(m, rep) for m in spec.m_values for rep in range(spec.subsets_per_m)]
    scores = np.empty(len(pairs))
    for start in range(0, len(pairs), _SWEEP_BLOCK_COLUMNS):
        chunk = pairs[start : start + _SWEEP_BLOCK_COLUMNS]
        masks = np.zeros((len(chunk), spec.n_grid - 1), dtype=bool)
        for j, (m, rep) in enumerate(chunk):
            subset = random_subsample(
                spec.n_grid, m, derive_seed(spec.master_seed, _TAG_SUBSET, m, rep)
            )
            masks[j, np.asarray(subset.indices) - 1] = True
        results = fista_solve_block(
            matrix.entries,
            spec.base_measurements,
            np.full(len(chunk), spec.lam),
            row_masks=masks,
            config=config,
        )
        for j, result in enumerate(results):
            curve = roc_curve(result.waveform, template, truth_labels)
            scores[start + j] = auc(curve).value
    scores = scores.reshape(len(spec.m_values), spec.subsets_per_m)
    return [
        (int(m), float(row.mean()), float(row.std()))
        for m, row in zip(spec.m_values, scores)
    ]


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
    lam: float | None = None,
    ramsey_window: float = 60e-6,
    template: Template | None = None,
    config: FistaConfig | None = None,
) -> ScenarioResult:
    """Measure a waveform with one of the three protocols and grade the
    recovery: Ramsey time sampling, complete inverse DST, or compressive
    FISTA recovery from m random sine coefficients."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    tgrid = waveform.grid
    matrix = dst_matrix(tgrid.n_grid)
    if template is None:
        template = default_template(tgrid)
    if lam is None:
        lam = default_lambda()

    recovery = None
    if name == "ramsey":
        times = tgrid.times
        seeds = [derive_seed(master_seed, _TAG_RAMSEY, j) for j in range(times.size)]
        samples = sensor.ramsey_sample(waveform, times, ramsey_window, noise, seeds)
        recovered = Waveform(samples, tgrid)
        record = {"protocol": "ramsey", "samples": samples.tolist()}
    elif name == "full_dst":
        measured = simulate_measurements(waveform, None, noise, master_seed)
        recovered = apply_inverse_dst(matrix, measured.values, tgrid)
        record = {"protocol": "full_dst", "coef_hz": measured.values.tolist()}
    else:
        subset = random_subsample(
            tgrid.n_grid, m, derive_seed(master_seed, _TAG_SUBSET)
        )
        measured = simulate_measurements(waveform, subset, noise, master_seed)
        recovery = fista_solve(
            LassoProblem(subsample_rows(matrix, subset), measured.values, lam), config
        )
        recovered = Waveform(recovery.waveform, tgrid)
        record = {
            "protocol": "compressive",
            "indices": list(subset.indices),
            "coef_hz": measured.values.tolist(),
        }

    truth_labels = ground_truth_classification(waveform.samples, template)
    curve = roc_curve(recovered.samples, template, truth_labels)
    return ScenarioResult(name, recovered, auc(curve).value, record, recovery)


def scenario_to_csv(result: ScenarioResult, truth: Waveform, path):
    """Write ``time_s,truth_hz,recovered_hz`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "truth_hz", "recovered_hz"])
        for t, x, y in zip(truth.grid.times, truth.samples, result.recovered.samples):
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(y))])


def sweep_to_csv(rows, path):
    """Write ``m,mean_auc,std_auc`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "mean_auc", "std_auc"])
        for m, mean_auc, std_auc in rows:
            writer.writerow([m, repr(mean_auc), repr(std_auc)])


def tune_to_csv(result: TuneResult, path):
    """Write ``lambda_hz,mean_l1_error`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_hz", "mean_l1_error"])
        for lam, err in zip(result.lambdas, result.mean_l1_error):
            writer.writerow([repr(float(lam)), repr(float(err))])


def write_manifest(path, command: str, parameters: dict, master_seed: int, outputs):
    with open(path, "w") as fh:
        json.dump(
            {
                "command": command,
                "parameters": parameters,
                "master_seed": master_seed,
                "output_paths": [str(p) for p in outputs],
            },
            fh,
            indent=2,
        )
