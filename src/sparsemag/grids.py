"""Time/frequency grids, unit conventions and sparse pulse waveform synthesis.

All field quantities are stored as Rabi-equivalent ordinary frequencies
(gamma * B, in hertz).  Factors of 2*pi appear only inside evolution and
quadrature formulas, never in stored data.  The fixed conversion
1 kHz <-> 143 nT handles display in tesla.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

# 1 kHz of Rabi-equivalent frequency corresponds to 143 nT of field,
# i.e. gamma ~ 6.993 Hz/nT for this sensor.
GAMMA_HZ_PER_NT = 1000.0 / 143.0


def hz_to_nanotesla(value_hz):
    """Convert a Rabi-equivalent frequency (Hz) to field amplitude (nT)."""
    return np.asarray(value_hz) / GAMMA_HZ_PER_NT


def nanotesla_to_hz(value_nt):
    """Convert a field amplitude (nT) to Rabi-equivalent frequency (Hz)."""
    return np.asarray(value_nt) * GAMMA_HZ_PER_NT


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid of ``n_grid`` steps; the signal lives on the
    ``n_grid - 1`` interior points ``j*dt`` for j = 1..n_grid-1."""

    n_grid: int
    dt: float

    def __post_init__(self):
        if self.n_grid < 2:
            raise ValueError(f"n_grid must be >= 2, got {self.n_grid}")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    @property
    def duration(self) -> float:
        """Total sensing duration T = n_grid * dt (s)."""
        return self.n_grid * self.dt

    @property
    def times(self) -> np.ndarray:
        """Interior sample times j*dt, j = 1..n_grid-1 (s)."""
        return np.arange(1, self.n_grid) * self.dt


@dataclass(frozen=True)
class FrequencyGrid:
    """Frequency grid paired with a :class:`TimeGrid`: df = 1/(2T),
    bandwidth W = n_grid * df = 1/(2 dt)."""

    n_grid: int
    df: float

    @property
    def bandwidth(self) -> float:
        """Bandwidth W = n_grid * df (Hz)."""
        return self.n_grid * self.df

    @property
    def frequencies(self) -> np.ndarray:
        """Measurable frequencies k*df, k = 1..n_grid-1 (Hz)."""
        return np.arange(1, self.n_grid) * self.df


def make_grids(n_grid: int, dt: float) -> tuple[TimeGrid, FrequencyGrid]:
    """Build the paired time and frequency grids for ``n_grid`` steps of
    ``dt`` seconds, satisfying df = 1/(2T) and W = 1/(2 dt)."""
    tgrid = TimeGrid(n_grid, dt)
    fgrid = FrequencyGrid(n_grid, 1.0 / (2.0 * tgrid.duration))
    return tgrid, fgrid


@dataclass(frozen=True)
class PulseSpec:
    """A single-cycle sine pulse: amplitude (Hz), duration (s) and a
    continuous (never grid-snapped) start time (s)."""

    amplitude: float
    pulse_duration: float
    start_time: float

    def __post_init__(self):
        fields = (self.amplitude, self.pulse_duration, self.start_time)
        if not np.all(np.isfinite(fields)):
            raise ValueError(f"pulse fields must be finite, got {self}")
        if self.pulse_duration <= 0:
            raise ValueError(f"pulse duration must be positive, got {self.pulse_duration}")

    def __call__(self, t):
        """Evaluate the pulse at times ``t`` (s); zero outside its support."""
        t = np.asarray(t, dtype=float)
        inside = (t >= self.start_time) & (t <= self.start_time + self.pulse_duration)
        phase = 2.0 * np.pi * (t - self.start_time) / self.pulse_duration
        return np.where(inside, self.amplitude * np.sin(phase), 0.0)


@dataclass
class Waveform:
    """A real time series of gamma*B values (Hz) on the interior points of a
    :class:`TimeGrid`."""

    samples: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.grid.n_grid - 1,):
            raise ValueError(
                f"expected {self.grid.n_grid - 1} samples, got {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform holds non-finite samples")


def synth_waveform(grid: TimeGrid, pulses: list[PulseSpec]) -> Waveform:
    """Superpose single-cycle sine pulses and sample them on the grid.

    Raises ``ValueError`` for any pulse extending outside [0, T].
    """
    duration = grid.duration
    for pulse in pulses:
        if pulse.start_time < 0 or pulse.start_time + pulse.pulse_duration > duration:
            raise ValueError(
                f"pulse at t0={pulse.start_time} s with duration "
                f"{pulse.pulse_duration} s falls outside [0, {duration}] s"
            )
    samples = np.zeros(grid.n_grid - 1)
    for pulse in pulses:
        samples += pulse(grid.times)
    return Waveform(samples, grid)


def waveform_to_csv(waveform: Waveform, path):
    """Write ``time_s,gamma_b_hz`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "gamma_b_hz"])
        for t, x in zip(waveform.grid.times, waveform.samples):
            writer.writerow([repr(float(t)), repr(float(x))])


def waveform_from_csv(path, dt: float | None = None) -> Waveform:
    """Read a waveform written by :func:`waveform_to_csv`.

    The time step is inferred from the first time unless given explicitly;
    either way the time column must read j*dt, j = 1..N-1, to a relative
    1e-9, or a ``ValueError`` is raised.
    """
    times, samples = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["time_s", "gamma_b_hz"]:
            raise ValueError(f"unexpected waveform CSV header: {header}")
        for row in reader:
            times.append(float(row[0]))
            samples.append(float(row[1]))
    if not samples:
        raise ValueError(f"waveform CSV {path} holds no samples")
    if dt is None:
        dt = times[0]
    grid = TimeGrid(len(samples) + 1, dt)
    if not np.allclose(times, grid.times, rtol=1e-9, atol=0.0):
        raise ValueError(f"waveform CSV {path}: time column is not j*dt, dt={dt!r}")
    return Waveform(np.array(samples), grid)
