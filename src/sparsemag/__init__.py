"""Compressive waveform estimation with a simulated RF-dressed spin-1
magnetometer: DST-basis quantum sampling, FISTA sparse recovery and
matched-filter grading."""

from .grids import (
    FrequencyGrid,
    PulseSpec,
    TimeGrid,
    Waveform,
    make_grids,
    synth_waveform,
)
from .transform import (
    MeasurementVector,
    SubsampleSet,
    apply_dst,
    apply_inverse_dst,
    dst_matrix,
    operator_norm_bound,
    random_subsample,
    sine_interpolant,
    subsample_rows,
)
from .sensor import (
    NoiseModel,
    SensorParams,
    evolve_lab_frame,
    evolve_rotating_frame,
    magnus_prediction,
    magnus_quadratures,
    measure_sine_coefficient,
    ramsey_sample,
    readout_coefficient,
)
from .recovery import (
    FistaConfig,
    LassoProblem,
    RecoveryResult,
    default_lambda,
    fista_solve,
)
from .detection import (
    Template,
    auc,
    default_template,
    ground_truth_classification,
    matched_filter,
    roc_curve,
)
from .experiments import (
    LambdaGrid,
    SweepSpec,
    TrainingSetSpec,
    compute_bound,
    run_scenario,
    simulate_measurements,
    sweep_sample_count,
    tune_lambda,
)

__version__ = "0.1.0"
