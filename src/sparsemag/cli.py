"""Command-line interface.

All physical quantities on the CLI are SI-with-hertz (seconds, hertz); no
implicit unit scaling.  Outputs are data files only (CSV/JSON) plus one JSON
manifest per run; nothing time-stamped, so reruns with identical flags and
seeds are byte-identical.

Exit codes: 0 success, 2 usage, 3 I/O, 4 numeric/dimension error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys

import numpy as np

from . import detection, experiments, recovery, transform
from .grids import (
    PulseSpec,
    TimeGrid,
    make_grids,
    read_csv_rows,
    synth_waveform,
    waveform_from_csv,
    waveform_to_csv,
)
from .sensor import NoiseModel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _parse_pulses(text: str) -> list[tuple[float, float, float]]:
    """Parse ``t0,amp,dur;t0,amp,dur;...`` into (t0, amp, dur) triples.
    ``cmd_synth`` makes the pulse specs, so a bad value exits 4, not 2."""
    pulses = []
    for token in filter(None, (part.strip() for part in text.split(";"))):
        fields = token.split(",")
        if len(fields) != 3:
            raise argparse.ArgumentTypeError(
                f"malformed pulse spec {token!r}: expected t0,amplitude,duration"
            )
        try:
            t0, amp, dur = (float(v) for v in fields)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"malformed pulse spec {token!r}: non-numeric field"
            )
        pulses.append((t0, amp, dur))
    return pulses


def _noise_from_args(args) -> NoiseModel | None:
    if args.no_noise:
        return None
    return NoiseModel(
        bias_drift_std_hz=args.drift_std, mean_atoms=args.atoms, seed=args.noise_seed
    )


def _add_noise_flags(parser):
    parser.add_argument(
        "--no-noise", action="store_true", help="noiseless limit (exact expectations)"
    )
    parser.add_argument(
        "--drift-std", type=float, default=200.0,
        help="shot-to-shot bias drift std (Hz)",
    )
    parser.add_argument(
        "--atoms", type=float, default=1000.0, help="mean atom number per shot"
    )
    parser.add_argument(
        "--noise-seed", type=int, default=0, help="noise stream seed"
    )


def _jsonable(value):
    if isinstance(value, PulseSpec):
        return {
            "start_time_s": value.start_time,
            "amplitude_hz": value.amplitude,
            "duration_s": value.pulse_duration,
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _manifest(args, out_paths):
    parameters = {
        key: _jsonable(value)
        for key, value in sorted(vars(args).items())
        if key != "command"
    }
    experiments.write_manifest(
        str(out_paths[0]) + ".manifest.json",
        args.command,
        parameters,
        getattr(args, "seed", 0),
        out_paths,
    )


def cmd_synth(args) -> int:
    grid = TimeGrid(args.n, args.dt)
    args.pulses = [
        PulseSpec(amplitude=amp, pulse_duration=dur, start_time=t0)
        for t0, amp, dur in args.pulses
    ]
    waveform = synth_waveform(grid, args.pulses)
    waveform_to_csv(waveform, args.out)
    _manifest(args, [args.out])
    return EXIT_OK


def cmd_measure(args) -> int:
    waveform = waveform_from_csv(args.infile)
    n_grid = waveform.grid.n_grid
    subset = None  # --full, or no subset given: every index
    if args.subset is not None:
        subset = transform.subsample_from_json(args.subset)
    elif args.m is not None:
        subset = transform.random_subsample(n_grid, args.m, args.seed)
    noise = _noise_from_args(args)
    measured = experiments.simulate_measurements(
        waveform, subset, noise, master_seed=args.seed
    )
    _, fgrid = make_grids(n_grid, waveform.grid.dt)
    transform.measurements_to_csv(measured, fgrid, args.out)
    _manifest(args, [args.out])
    return EXIT_OK


def cmd_recover(args) -> int:
    grid = TimeGrid(args.n, args.dt)
    measured = transform.measurements_from_csv(args.measurements, args.n, grid.dt)
    matrix = transform.dst_matrix(args.n)
    operator = transform.subsample_rows(matrix, measured.subsample)
    problem = recovery.LassoProblem(operator, measured.values, args.lam)
    result = recovery.fista_solve(problem)
    recovery.result_to_csv(result, grid.times, args.out)
    meta_path = args.out + ".meta.json"
    recovery.result_metadata_to_json(result, args.lam, meta_path)
    _manifest(args, [args.out, meta_path])
    return EXIT_OK


def cmd_roc(args) -> int:
    truth = waveform_from_csv(args.truth)
    headers = (["time_s", "recovered_hz"], ["time_s", "gamma_b_hz"])
    recovered = np.array([float(x) for _, x in read_csv_rows(args.recovered, *headers)])
    if recovered.size != truth.samples.size:
        raise ValueError(
            f"recovered length {recovered.size} does not match truth "
            f"{truth.samples.size}"
        )
    template = detection.default_template(truth.grid)
    labels = detection.ground_truth_classification(truth.samples, template)
    curve = detection.roc_curve(recovered, template, labels)
    score = detection.auc(curve)
    detection.roc_to_csv(curve, args.out)
    auc_path = args.out + ".auc.json"
    detection.auc_to_json(score, auc_path)
    _manifest(args, [args.out, auc_path])
    return EXIT_OK


def cmd_tune(args) -> int:
    spec = experiments.TrainingSetSpec(
        count=args.count,
        n_grid=args.n,
        dt=args.dt,
        m=args.m,
        noise=_noise_from_args(args),
        master_seed=args.seed,
    )
    grid = experiments.LambdaGrid(args.lambda_low, args.lambda_high, args.lambda_count)
    result = experiments.tune_lambda(spec, grid)
    experiments.tune_to_csv(result, args.out)
    _manifest(args, [args.out])
    print(f"best_lambda_hz {result.best_lambda!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    measured = transform.measurements_from_csv(args.base, args.n)
    if measured.subsample.m != args.n - 1:
        raise ValueError(
            f"sweep needs the full {args.n - 1}-coefficient base dataset, "
            f"got {measured.subsample.m} rows"
        )
    try:
        m_values = tuple(int(v) for v in args.m_list.split(","))
    except ValueError:
        raise ValueError(f"--m-list must be comma-separated integers, got {args.m_list!r}")
    spec = experiments.SweepSpec(
        m_values=m_values,
        base_measurements=measured.values,
        subsets_per_m=args.subsets,
        lam=args.lam,
        master_seed=args.seed,
    )
    truth = waveform_from_csv(args.truth)
    if truth.grid.n_grid != args.n:
        raise ValueError(f"--truth {args.truth} holds N = {truth.grid.n_grid}, not --n {args.n}")
    template = detection.default_template(truth.grid)
    rows = experiments.sweep_sample_count(spec, template, truth.samples)
    experiments.sweep_to_csv(rows, args.out)
    _manifest(args, [args.out])
    return EXIT_OK


def cmd_bound(args) -> int:
    bound = experiments.compute_bound(args.sparsity, args.n)
    print(bound)
    if bound > args.n - 1:
        print(f"note: bound {bound} exceeds the {args.n - 1} coefficients", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsemag",
        description="Compressive waveform estimation with a simulated "
        "spin-1 magnetometer (units: seconds and hertz throughout)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesise a sparse pulse waveform")
    p.add_argument("--n", type=int, default=100, help="grid size N")
    p.add_argument("--dt", type=float, default=50e-6, help="time step (s)")
    p.add_argument(
        "--pulses", type=_parse_pulses, default=[],
        help='pulse list "t0,amplitude_hz,duration_s;..."',
    )
    p.add_argument("--out", default="waveform.csv", help="output CSV path")

    p = sub.add_parser("measure", help="simulate sine-coefficient shots")
    p.add_argument("--in", dest="infile", required=True, help="waveform CSV")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--full", action="store_true", help="measure all N-1 indices")
    group.add_argument("--subset", help="subset JSON file")
    group.add_argument("--m", type=int, help="random subset size")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    _add_noise_flags(p)
    p.add_argument("--out", default="measurements.csv", help="output CSV path")

    p = sub.add_parser("recover", help="FISTA sparse recovery")
    p.add_argument("--measurements", required=True, help="measurement CSV")
    p.add_argument("--n", type=int, default=100, help="grid size N")
    p.add_argument("--dt", type=float, default=50e-6, help="time step (s)")
    p.add_argument(
        "--lambda", dest="lam", type=float, default=recovery.DEFAULT_LAMBDA,
        help="regularisation weight (Hz)",
    )
    p.add_argument("--out", default="recovered.csv", help="output CSV path")

    p = sub.add_parser("roc", help="matched-filter ROC/AUC of a recovery")
    p.add_argument("--recovered", required=True, help="recovered CSV")
    p.add_argument("--truth", required=True, help="ground-truth waveform CSV")
    p.add_argument("--out", default="roc.csv", help="output CSV path")

    p = sub.add_parser("tune", help="tune lambda on simulated training data")
    p.add_argument("--count", type=int, default=1000, help="training sequences")
    p.add_argument("--n", type=int, default=100, help="grid size N")
    p.add_argument("--dt", type=float, default=50e-6, help="time step (s)")
    p.add_argument("--m", type=int, default=60, help="measurements per sequence")
    p.add_argument("--lambda-low", type=float, default=0.1, help="grid low (Hz)")
    p.add_argument("--lambda-high", type=float, default=10.0, help="grid high (Hz)")
    p.add_argument("--lambda-count", type=int, default=200, help="grid points")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    _add_noise_flags(p)
    p.add_argument("--out", default="tune.csv", help="output CSV path")

    p = sub.add_parser("sweep", help="measurement-count AUC sweep")
    p.add_argument("--base", required=True, help="full-coefficient CSV")
    p.add_argument("--truth", required=True, help="ground-truth waveform CSV")
    p.add_argument("--n", type=int, default=100, help="grid size N")
    p.add_argument(
        "--m-list", required=True, help="comma-separated measurement counts"
    )
    p.add_argument("--subsets", type=int, default=200, help="subsets per m")
    p.add_argument(
        "--lambda", dest="lam", type=float, default=recovery.DEFAULT_LAMBDA,
        help="regularisation weight (Hz)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default="sweep.csv", help="output CSV path")

    p = sub.add_parser("bound", help="compressive sample-count bound")
    p.add_argument("--sparsity", type=int, required=True, help="signal sparsity s")
    p.add_argument("--n", type=int, default=100, help="grid size N")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The command is looked up by name on every call, not bound into the
    # cached parser, so a replaced module-level cmd_* is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError, MemoryError, csv.Error) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
