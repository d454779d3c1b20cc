"""The four benchmark workloads.

A workload turns the workload seed into a pool of inputs (``items``), runs one
call per item (``call``), checks each call's outputs (``check``) and
grades the run once every item has been run (``grade``).  Library functions
are always looked up through their module at call time, so a traced run sees
every call.

An *op* is the unit ``ops_per_s`` counts: one CLI request (cli_pipeline), one
waveform acquired by every protocol (acquire), one LASSO solve (tune) or one
subset solved and graded (sweep).  A call makes ``ops`` of them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sparsemag as sm
from sparsemag import cli, detection, experiments, recovery, sensor, transform

N_GRID = 100
DT = 50e-6
AMPLITUDE_HZ = 1000.0
PULSE_S = 200e-6
M = 60
M_GRID = (10,) + tuple(range(20, 81, 2)) + (99,)  # criterion 7
# l1_error_hz is graded on inputs made from this seed, whatever the workload
# seed: the metric then moves only when the program's outputs move, so its
# regression bound can be tight.
GRADING_SEED = 20231024
GRADING_SIZE = 32


class CheckFailed(Exception):
    """An output failed a correctness check."""


@dataclass
class Item:
    index: int
    ops: int
    payload: dict


def digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def require_auc(values, what):
    """AUC values must be finite and in [0, 1], up to trapezoid round-off."""
    values = require_finite(values, what)
    require(np.all((values >= 0.0) & (values <= 1.0 + 1e-12)), f"{what} {values} out of [0, 1]")
    return values


def require_finite(values, what):
    values = np.asarray(values, dtype=float)
    require(values.size > 0 and np.all(np.isfinite(values)), f"{what} is not finite")
    return values


def pulse_starts(rng, count) -> list[float]:
    """Seeded pulse start times in [dt, T - duration], each two pulse widths
    clear of the others.  ROC is undefined (``roc_curve`` raises) when no
    location reaches the detection threshold, which happens for overlapping
    pulses that cancel and for a pulse starting before the first sample at
    t = dt: the matched filter pads only past the end of the signal."""
    starts: list[float] = []
    while len(starts) < count:
        t0 = float(rng.uniform(DT, N_GRID * DT - PULSE_S))
        if all(abs(t0 - t) >= 2 * PULSE_S for t in starts):
            starts.append(t0)
    return starts


def truth_waveform(starts) -> sm.Waveform:
    tgrid = sm.TimeGrid(N_GRID, DT)
    return sm.synth_waveform(tgrid, [sm.PulseSpec(AMPLITUDE_HZ, PULSE_S, t0) for t0 in starts])


def l1_error(recovered, truth) -> float:
    return float(np.abs(np.asarray(recovered) - np.asarray(truth)).sum())


class Workload:
    name = ""
    pool_size = 0

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.tiny = tiny
        rng = self.rng_for(seed)
        self.items = [self.make_item(rng, i) for i in range(4 if tiny else self.pool_size)]

    def rng_for(self, seed: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((seed, _TAGS[self.name])))

    def grading_items(self) -> list[Item]:
        """Items made from ``GRADING_SEED``, the same for every workload seed."""
        rng = self.rng_for(GRADING_SEED)
        return [self.make_item(rng, i) for i in range(4 if self.tiny else GRADING_SIZE)]

    def make_item(self, rng: np.random.Generator, index: int) -> Item:
        raise NotImplementedError

    def call(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> tuple[str, dict]:
        """Raise ``CheckFailed`` or return (output digest, grading record)."""
        raise NotImplementedError

    def grade(self, records: list[dict]) -> dict:
        """auc_mean over the records of every pool item, in pool order, and
        l1_error_hz over the grading items; may raise ``CheckFailed``."""
        return {
            "auc_mean": float(np.mean([r["auc"] for r in records])),
            "l1_error_hz": float(np.mean([self.l1(item) for item in self.grading_items()])),
        }

    def l1(self, item: Item) -> float:
        """l1 recovery error of one item."""
        raise NotImplementedError

    def close(self):
        pass


class CliPipeline(Workload):
    """One user request: synth -> measure --m 60 -> recover -> roc, through
    ``cli.main`` in-process, with files in a temporary directory."""

    name = "cli_pipeline"
    pool_size = 128

    def __init__(self, seed, tiny, workdir):
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        super().__init__(seed, tiny, workdir)

    def make_item(self, rng, index):
        starts = pulse_starts(rng, 1 + index % 2)
        d = self.dir
        pulses = ";".join(f"{t0!r},{AMPLITUDE_HZ!r},{PULSE_S!r}" for t0 in starts)
        seed, noise_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
        argvs = [
            ["synth", "--n", str(N_GRID), "--dt", repr(DT), "--pulses", pulses,
             "--out", str(d / "wf.csv")],
            ["measure", "--in", str(d / "wf.csv"), "--m", str(M), "--seed", str(seed),
             "--noise-seed", str(noise_seed), "--out", str(d / "m.csv")],
            ["recover", "--measurements", str(d / "m.csv"), "--n", str(N_GRID),
             "--dt", repr(DT), "--out", str(d / "rec.csv")],
            ["roc", "--recovered", str(d / "rec.csv"), "--truth", str(d / "wf.csv"),
             "--out", str(d / "roc.csv")],
        ]
        return Item(index, 1, {"argvs": argvs, "truth": truth_waveform(starts).samples})

    def call(self, item):
        for argv in item.payload["argvs"]:
            code = cli.main(argv)
            if code != 0:
                raise CheckFailed(f"sparsemag {argv[0]} exited {code}")

    def check(self, item, result):
        d = self.dir
        blobs = [(d / n).read_bytes() for n in ("wf.csv", "m.csv", "rec.csv", "roc.csv", "roc.csv.auc.json")]
        rows = blobs[2].decode().splitlines()
        require(rows[0] == "time_s,recovered_hz" and len(rows) == N_GRID, "recovered CSV shape")
        recovered = require_finite([float(r.split(",")[1]) for r in rows[1:]], "recovered waveform")
        require(len(blobs[1].decode().splitlines()) == M + 1, "measurement CSV rows")
        auc = float(require_auc([json.loads(blobs[4])["auc"]], "AUC")[0])
        for n in ("wf.csv", "m.csv", "rec.csv", "roc.csv"):
            require((d / f"{n}.manifest.json").is_file(), f"missing manifest for {n}")
        return digest(*blobs), {"auc": auc, "l1": l1_error(recovered, item.payload["truth"])}

    def l1(self, item):
        return self.check(item, self.call(item))[1]["l1"]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Acquire(Workload):
    """One 1-2 pulse waveform through the ramsey, full_dst and compressive
    scenarios plus two stepped-unitary shots at seeded k."""

    name = "acquire"
    pool_size = 64

    def make_item(self, rng, index):
        starts = pulse_starts(rng, 1 + index % 2)
        seed = int(rng.integers(0, 2**31))
        ks = [int(k) for k in rng.integers(1, N_GRID, size=2)]
        shot_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
        return Item(index, 1, {
            "waveform": truth_waveform(starts),
            "noise": sm.NoiseModel(200.0, 1000.0, seed=seed),
            "seed": seed, "ks": ks, "shot_seeds": shot_seeds,
        })

    def call(self, item):
        p = item.payload
        scenarios = [
            experiments.run_scenario(name, p["waveform"], p["noise"], master_seed=p["seed"], m=M)
            for name in experiments.SCENARIOS
        ]
        shots = [
            sensor.measure_sine_coefficient(p["waveform"], k, p["noise"], shot_seed=s)
            for k, s in zip(p["ks"], p["shot_seeds"])
        ]
        return scenarios, shots

    def check(self, item, result):
        scenarios, shots = result
        aucs = require_auc([s.auc_value for s in scenarios], "scenario AUC")
        for s in scenarios:
            require_finite(s.recovered.samples, f"{s.name} recovery")
        require_finite(shots, "unitary shot")
        return digest(*(s.recovered.samples for s in scenarios), np.array(shots)), {"auc": float(aucs.mean())}

    def l1(self, item):
        """l1 error of the compressive scenario."""
        p = item.payload
        result = experiments.run_scenario("compressive", p["waveform"], p["noise"], master_seed=p["seed"], m=M)
        return l1_error(result.recovered.samples, p["waveform"].samples)


class Tune(Workload):
    """``tune_lambda`` on one training sequence per call over the default
    200-point lambda grid; the pool is stratified over 0, 1 and 2 pulses."""

    name = "tune"
    pool_size = 128

    def __init__(self, seed, tiny, workdir):
        self.grid = experiments.LambdaGrid()
        super().__init__(seed, tiny, workdir)

    def make_item(self, rng, index):
        master, noise_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
        spec = experiments.TrainingSetSpec(
            count=1, pulse_count_choices=(index % 3,), m=M,
            noise=sm.NoiseModel(200.0, 1000.0, seed=noise_seed), master_seed=master,
        )
        return Item(index, self.grid.count, {"spec": spec})

    def call(self, item):
        return experiments.tune_lambda(item.payload["spec"], self.grid)

    def check(self, item, result):
        curve = require_finite(result.mean_l1_error, "tuning error curve")
        require(curve.shape == (self.grid.count,), "tuning curve length")
        require(np.array_equal(result.lambdas, self.grid.values), "lambda grid")
        return digest(curve), {"curve": curve}

    def grade(self, records):
        """AUC and l1 error of compressive recovery, at the lambda tuned on
        the whole pool, on 1-2 pulse waveforms made from ``GRADING_SEED``."""
        curve = np.mean([r["curve"] for r in records], axis=0)
        lam = float(self.grid.values[int(np.argmin(curve))])
        rng = self.rng_for(GRADING_SEED)
        aucs, errors = [], []
        for i in range(4 if self.tiny else GRADING_SIZE):
            wf = truth_waveform(pulse_starts(rng, 1 + i % 2))
            noise = sm.NoiseModel(200.0, 1000.0, seed=int(rng.integers(0, 2**31)))
            result = experiments.run_scenario("compressive", wf, noise, master_seed=noise.seed, m=M, lam=lam)
            aucs.append(result.auc_value)
            errors.append(l1_error(result.recovered.samples, wf.samples))
        return {"auc_mean": float(np.mean(aucs)), "l1_error_hz": float(np.mean(errors)), "tuned_lambda_hz": lam}


class Sweep(Workload):
    """``sweep_sample_count`` on the criterion-7 grid for the one- and
    two-pulse criterion-7 waveforms, a few subsets per m, seeded noise."""

    name = "sweep"
    pool_size = 32
    subsets = 2
    l1_subsets = 8
    pulses = {"one": (1.025e-3,), "two": (1.025e-3, 3.21e-3)}

    def __init__(self, seed, tiny, workdir):
        self.template = detection.default_template(sm.TimeGrid(N_GRID, DT))
        super().__init__(seed, tiny, workdir)

    def make_item(self, rng, index):
        kind = ("one", "two")[index % 2]
        truth = truth_waveform(self.pulses[kind])
        noise_seed, base_seed, master = (int(v) for v in rng.integers(0, 2**31, size=3))
        base = experiments.simulate_measurements(
            truth, None, sm.NoiseModel(200.0, 1000.0, seed=noise_seed), master_seed=base_seed
        )
        spec = experiments.SweepSpec(
            m_values=M_GRID, base_measurements=base.values,
            subsets_per_m=self.subsets, master_seed=master,
        )
        return Item(index, len(M_GRID) * self.subsets, {"kind": kind, "truth": truth.samples, "spec": spec})

    def call(self, item):
        return experiments.sweep_sample_count(item.payload["spec"], self.template, item.payload["truth"])

    def check(self, item, result):
        rows = np.asarray(result, dtype=float)
        require(rows.shape == (len(M_GRID), 3), "sweep row count")
        require(np.array_equal(rows[:, 0], M_GRID), "sweep m values")
        require_finite(rows[:, 2], "sweep AUC spread")
        require_auc(rows[:, 1], "sweep AUC")
        return digest(rows), {"kind": item.payload["kind"], "rows": rows}

    def l1(self, item):
        """Mean l1 error of m = 60 solves on ``l1_subsets`` seeded subsets."""
        spec = item.payload["spec"]
        matrix = transform.dst_matrix(N_GRID)
        errors = []
        for rep in range(self.l1_subsets):
            subset = transform.random_subsample(N_GRID, M, spec.master_seed + rep)
            values = spec.base_measurements[np.asarray(subset.indices) - 1]
            problem = recovery.LassoProblem(transform.subsample_rows(matrix, subset), values, spec.lam)
            errors.append(l1_error(recovery.fista_solve(problem).waveform, item.payload["truth"]))
        return float(np.mean(errors))

    def grade(self, records):
        """Mean AUC over every subset, mean l1 error of the m = 60 solves in
        ``l1`` over the grading items, and the criterion-7 clauses that hold
        at the reference tree."""
        at = {m: i for i, m in enumerate(M_GRID)}
        for kind in self.pulses:
            means = np.mean([r["rows"][:, 1] for r in records if r["kind"] == kind], axis=0)
            require(means[at[60]] >= 0.99, f"criterion 7: {kind}-pulse AUC {means[at[60]]:.4f} < 0.99 at m=60")
            require(means[at[10]] < 0.9, f"criterion 7: {kind}-pulse AUC {means[at[10]]:.4f} >= 0.9 at m=10")
        return {
            "auc_mean": float(np.mean([r["rows"][:, 1].mean() for r in records])),
            "l1_error_hz": float(np.mean([self.l1(item) for item in self.grading_items()])),
        }


WORKLOADS = {w.name: w for w in (CliPipeline, Acquire, Tune, Sweep)}
_TAGS = {name: i for i, name in enumerate(WORKLOADS)}
