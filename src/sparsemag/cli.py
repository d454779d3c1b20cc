"""Command-line interface.

All physical quantities on the CLI are SI-with-hertz (seconds, hertz); no
implicit unit scaling.  Outputs are data files only (CSV/JSON) plus one JSON
manifest per run; nothing time-stamped, so reruns with identical flags and
seeds are byte-identical.

Exit codes: 0 success, 2 usage, 3 I/O, 4 numeric/dimension error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from . import detection, experiments, recovery, transform
from .grids import (
    PulseSpec,
    TimeGrid,
    read_csv_columns,
    synth_waveform,
    waveform_from_csv,
    waveform_to_csv,
)
from .sensor import NoiseModel, NoiseParameterError

EXIT_OK = 0
EXIT_IO = 3
EXIT_NUMERIC = 4


def _parse_pulses(text: str) -> list[dict]:
    """Parse ``t0,amp,dur;t0,amp,dur;...`` into the pulse dicts a manifest
    holds.  ``cmd_synth`` makes the pulse specs, so a bad value exits 4, not 2."""
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
        pulses.append({"start_time_s": t0, "amplitude_hz": amp, "duration_s": dur})
    return pulses


# the flag that sets each NoiseModel field
_NOISE_FLAGS = {"bias_drift_std_hz": "--drift-std", "mean_atoms": "--atoms", "seed": "--noise-seed"}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _noise_from_args(args) -> NoiseModel | None:
    # built, and so range-checked, under --no-noise too: the manifest holds every flag
    noise = NoiseModel(**{field: getattr(args, _dest(flag))
                          for field, flag in _NOISE_FLAGS.items()})
    return None if args.no_noise else noise


# every flag once: its range rule, which needs no file (an int floor, or
# _POSITIVE), and its argparse keywords.  Ruled flags come first, in the
# order _check_flags tries them; the library checks the same ranges, but
# its messages name its own parameters, not the flags
_POSITIVE = "positive and finite"
_FLAGS = {
    "--n": (2, dict(type=int, default=100, help="grid size N")),
    "--count": (1, dict(type=int, default=1000, help="training sequences")),
    "--lambda-count": (2, dict(type=int, default=200, help="grid points")),
    "--subsets": (1, dict(type=int, default=200, help="subsets per m")),
    "--seed": (0, dict(type=int, default=0, help="master seed")),
    "--noise-seed": (0, dict(type=int, default=0, help="noise stream seed")),
    "--dt": (_POSITIVE, dict(type=float, default=50e-6, help="time step (s)")),
    "--lambda": (_POSITIVE, dict(dest="lam", type=float, default=recovery.DEFAULT_LAMBDA,
                                 help="regularisation weight (Hz)")),
    "--m": (None, dict(type=int, help="random subset size m")),
    "--lambda-low": (None, dict(type=float, default=0.1, help="grid low (Hz)")),
    "--lambda-high": (None, dict(type=float, default=10.0, help="grid high (Hz)")),
    "--sparsity": (None, dict(type=int, required=True, help="signal sparsity s")),
    "--m-list": (None, dict(required=True, help="comma-separated measurement counts")),
    "--pulses": (None, dict(type=_parse_pulses, default=[],
                            help='pulse list "t0,amplitude_hz,duration_s;..."')),
    "--no-noise": (None, dict(action="store_true", help="noiseless limit (exact expectations)")),
    "--drift-std": (None, dict(type=float, default=200.0, help="shot-to-shot bias drift std (Hz)")),
    "--atoms": (None, dict(type=float, default=1000.0, help="mean atom number per shot")),
    "--full": (None, dict(action="store_true", help="measure all N-1 indices")),
    "--subset": (None, dict(help="subset JSON file")),
    "--in": (None, dict(dest="infile", required=True, help="waveform CSV")),
    "--measurements": (None, dict(required=True, help="measurement CSV")),
    "--recovered": (None, dict(required=True, help="recovered CSV")),
    "--truth": (None, dict(required=True, help="ground-truth waveform CSV")),
    "--base": (None, dict(required=True, help="full-coefficient CSV")),
    "--out": (None, dict(help="output CSV path")),
}

# each subcommand's help and its flags in --help order: "|" joins mutually
# exclusive flags, and "=" gives a default for this command alone
_NOISE = "--no-noise --drift-std --atoms --noise-seed"
_COMMANDS = {
    "synth": ("synthesise a sparse pulse waveform", "--n --dt --pulses --out=waveform.csv"),
    "measure": ("simulate sine-coefficient shots",
                f"--in --full|--subset|--m --seed {_NOISE} --out=measurements.csv"),
    "recover": ("FISTA sparse recovery", "--measurements --n --dt --lambda --out=recovered.csv"),
    "roc": ("matched-filter ROC/AUC of a recovery", "--recovered --truth --out=roc.csv"),
    "tune": ("tune lambda on simulated training data", "--count --n --dt --m=60 --lambda-low "
             f"--lambda-high --lambda-count --seed {_NOISE} --out=tune.csv"),
    "sweep": ("measurement-count AUC sweep",
              "--base --truth --n --m-list --subsets --lambda --seed --out=sweep.csv"),
    "bound": ("compressive sample-count bound", "--sparsity --n"),
}

# per command, (flag, dest, rule) of each ruled flag it takes, found once
# here so that _check_flags does no string work per call
_RULES = {command: tuple((flag, kwargs.get("dest", _dest(flag)), rule)
                         for flag, (rule, kwargs) in _FLAGS.items()
                         if rule is not None and flag in re.findall(r"--[\w-]+", spec))
          for command, (_, spec) in _COMMANDS.items()}


def _check_flags(args):
    """Range checks that need no file, each naming its flag."""
    for flag, dest, rule in _RULES[args.command]:
        value = getattr(args, dest)
        if rule is _POSITIVE:
            if not 0 < value < np.inf:
                raise ValueError(f"{flag} must be {rule}, got {value!r}")
        elif value < rule:
            raise ValueError(f"{flag} must be >= {rule}, got {value}")
    if hasattr(args, "dt"):  # every command with --dt takes --n
        try:
            TimeGrid(args.n, args.dt)
        except ValueError as exc:
            raise ValueError(f"--n {args.n} --dt {args.dt!r}: {exc}") from None


def _check_m(m: int, n_grid: int, where: str):
    if not 1 <= m <= n_grid - 1:
        raise ValueError(f"--m must lie in 1..{n_grid - 1} for N = {n_grid} ({where}), got {m}")


def cmd_synth(args) -> list[str]:
    pulses = [PulseSpec(amplitude=p["amplitude_hz"], pulse_duration=p["duration_s"],
                        start_time=p["start_time_s"]) for p in args.pulses]
    grid = TimeGrid(args.n, args.dt)
    waveform = synth_waveform(grid, pulses)
    waveform_to_csv(waveform, args.out)
    return [args.out]


def cmd_measure(args) -> list[str]:
    waveform = waveform_from_csv(args.infile)
    subset = None  # --full, or no subset given: every index
    if args.subset is not None:
        subset = transform.subsample_from_json(args.subset)
        if subset.n_grid != waveform.grid.n_grid:
            raise ValueError(f"subset JSON {args.subset} is for N={subset.n_grid}, "
                             f"--in {args.infile} has N={waveform.grid.n_grid}")
    elif args.m is not None:
        _check_m(args.m, waveform.grid.n_grid, f"--in {args.infile}")
        subset = transform.random_subsample(waveform.grid.n_grid, args.m, args.seed)
    noise = _noise_from_args(args)
    measured = experiments.simulate_measurements(waveform, subset, noise, master_seed=args.seed)
    transform.measurements_to_csv(measured, waveform.grid, args.out)
    return [args.out]


def cmd_recover(args) -> list[str]:
    grid = TimeGrid(args.n, args.dt)
    measured = transform.measurements_from_csv(args.measurements, grid)
    matrix = transform.dst_matrix(args.n)
    operator = transform.subsample_rows(matrix, measured.subsample)
    problem = recovery.LassoProblem(operator, measured.values, args.lam)
    result = recovery.fista_solve(problem)
    recovery.result_to_csv(result, grid.times, args.out)
    meta_path = args.out + ".meta.json"
    recovery.result_metadata_to_json(result, args.lam, meta_path)
    return [args.out, meta_path]


def cmd_roc(args) -> list[str]:
    truth = waveform_from_csv(args.truth)
    headers = (["time_s", "recovered_hz"], ["time_s", "gamma_b_hz"])
    times, recovered = read_csv_columns(args.recovered, (float, float), *headers)
    if len(times) != truth.samples.size or not truth.grid.holds(times):
        raise ValueError(f"{args.recovered}: time_s is not j*dt, j = 1..{truth.grid.n_grid - 1}, "
                         f"of --truth {args.truth}, dt={truth.grid.dt!r}")
    template = detection.default_template(truth.grid)
    labels = detection.ground_truth_classification(truth.samples, template)
    curve = detection.roc_curve(recovered, template, labels)
    score = detection.auc(curve)
    detection.roc_to_csv(curve, args.out)
    auc_path = args.out + ".auc.json"
    detection.auc_to_json(score, auc_path)
    return [args.out, auc_path]


def cmd_tune(args) -> list[str]:
    _check_m(args.m, args.n, "--n")
    low, high = args.lambda_low, args.lambda_high
    if not 0 < low < high < np.inf:
        raise ValueError(f"--lambda-low {low!r} and --lambda-high {high!r}: "
                         "lambda grid needs 0 < low < high < inf")
    spec = experiments.TrainingSetSpec(count=args.count, n_grid=args.n, dt=args.dt, m=args.m,
                                       noise=_noise_from_args(args), master_seed=args.seed)
    grid = experiments.LambdaGrid(args.lambda_low, args.lambda_high, args.lambda_count)
    result = experiments.tune_lambda(spec, grid)
    experiments.tune_to_csv(result, args.out)
    print(f"best_lambda_hz {result.best_lambda!r}")
    return [args.out]


def cmd_sweep(args) -> list[str]:
    truth = waveform_from_csv(args.truth)
    if truth.grid.n_grid != args.n:
        raise ValueError(f"--truth {args.truth} holds N = {truth.grid.n_grid}, not --n {args.n}")
    template = detection.default_template(truth.grid)
    measured = transform.measurements_from_csv(
        args.base, truth.grid, dt_flag=f"--truth {args.truth} dt"
    )
    if measured.subsample.m != args.n - 1:
        raise ValueError(
            f"sweep needs the full {args.n - 1}-coefficient base dataset, "
            f"got {measured.subsample.m} rows"
        )
    try:
        m_values = tuple(int(v) for v in args.m_list.split(","))
    except ValueError:
        raise ValueError(f"--m-list must be comma-separated integers, got {args.m_list!r}")
    if not all(1 <= m <= args.n - 1 for m in m_values):
        raise ValueError(f"--m-list values must lie in 1..{args.n - 1} (--n), got {args.m_list!r}")
    spec = experiments.SweepSpec(m_values=m_values, base_measurements=measured.values,
                                 subsets_per_m=args.subsets, lam=args.lam, master_seed=args.seed)
    rows = experiments.sweep_sample_count(spec, template, truth.samples)
    experiments.sweep_to_csv(rows, args.out)
    return [args.out]


def cmd_bound(args) -> list[str]:
    if not 1 <= args.sparsity <= args.n:
        raise ValueError(f"--sparsity must lie in 1..{args.n} (--n), got {args.sparsity}")
    bound = experiments.compute_bound(args.sparsity, args.n)
    print(bound)
    if bound > args.n - 1:
        print(f"note: bound {bound} exceeds the {args.n - 1} coefficients", file=sys.stderr)
    return []


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with ``-`` and then a digit, ``.``,
    ``inf`` or ``nan`` as a value, so ``--dt -5e-05`` reaches the checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.|inf|nan).*", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsemag",
        description="Compressive waveform estimation with a simulated "
        "spin-1 magnetometer (units: seconds and hertz throughout)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, by name
    for command, (help_text, spec) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=help_text)
        for token in spec.split():
            target = subparser.add_mutually_exclusive_group() if "|" in token else subparser
            for flag, _, default in (entry.partition("=") for entry in token.split("|")):
                kwargs = _FLAGS[flag][1]
                if default:  # read as the command line would read it
                    kwargs = {**kwargs, "default": kwargs.get("type", str)(default)}
                target.add_argument(flag, **kwargs)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, without argparse's top-level
    pass when ``argv[0]`` names a command: that command's own parser reads
    the rest.  Any other argv (none, ``-h``, an unknown command) and any
    argument the command's parser leaves unrecognised go to the full
    parser, so help, usage and error text and exit codes stay its own."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in parser.commands:
        args, extras = parser.commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The command is looked up by name on every call, not bound into the
    # cached parser, so a replaced module-level cmd_* is the one that runs.
    # It returns the paths it wrote, its artefact first, and the manifest
    # goes beside that artefact once the command has returned.
    command = globals()[f"cmd_{args.command}"]
    try:
        _check_flags(args)
        outputs = command(args)
        if outputs:  # bound writes nothing
            parameters = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
            experiments.write_manifest(f"{outputs[0]}.manifest.json", args.command, parameters,
                                       getattr(args, "seed", 0), outputs)
        return EXIT_OK
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError, MemoryError) as exc:
        if isinstance(exc, NoiseParameterError):
            flag = _NOISE_FLAGS[exc.field]
            exc = f"{flag} {getattr(args, _dest(flag))!r}: {exc}"
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
