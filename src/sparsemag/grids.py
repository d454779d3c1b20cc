"""Time/frequency grids, unit conventions and sparse pulse waveform synthesis.

All field quantities are stored as Rabi-equivalent ordinary frequencies
(gamma * B, in hertz).  Factors of 2*pi appear only inside evolution and
quadrature formulas, never in stored data.  For this sensor 1 kHz of
Rabi-equivalent frequency corresponds to 143 nT of field.
"""

from __future__ import annotations

import csv
import operator
import os
import stat
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid of ``n_grid`` steps and its paired frequency grid,
    df = 1/(2T) and W = 1/(2 dt); the signal lives on the ``n_grid - 1``
    interior points ``j*dt`` for j = 1..n_grid-1."""

    n_grid: int
    dt: float

    def __post_init__(self):
        try:
            operator.index(self.n_grid)
        except TypeError:
            raise ValueError(f"n_grid must be an integer, got {self.n_grid!r}") from None
        if self.n_grid < 2:
            raise ValueError(f"n_grid must be >= 2, got {self.n_grid}")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 2.0 * np.pi * self.n_grid * self.dt < np.inf:
            raise ValueError(
                f"phase span 2*pi*n_grid*dt must be finite, got {self.n_grid}*{self.dt}"
            )

    @property
    def duration(self) -> float:
        """Total sensing duration T = n_grid * dt (s)."""
        return self.n_grid * self.dt

    @property
    def times(self) -> np.ndarray:
        """Interior sample times j*dt, j = 1..n_grid-1 (s)."""
        return np.arange(1, self.n_grid) * self.dt

    @property
    def df(self) -> float:
        """Frequency step df = 1/(2T) of the paired sine grid (Hz)."""
        return 1.0 / (2.0 * self.duration)

    @property
    def bandwidth(self) -> float:
        """Bandwidth W = n_grid * df = 1/(2 dt) (Hz)."""
        return self.n_grid * self.df

    @property
    def frequencies(self) -> np.ndarray:
        """Measurable frequencies k*df, k = 1..n_grid-1 (Hz)."""
        return np.arange(1, self.n_grid) * self.df

    def holds(self, times) -> bool:
        """Whether ``times`` read j*dt, j = 1..n_grid-1, each to a relative 1e-9."""
        expected = self.times
        with np.errstate(over="ignore"):  # a difference that overflows reads as a mismatch
            return bool(np.all(abs(np.asarray(times) - expected) <= 1e-9 * expected))


# the paper's test pulse: one 200 us cycle of 1 kHz (143 nT) amplitude
PULSE_AMPLITUDE, PULSE_DURATION = 1000.0, 200e-6


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


def write_text(path, text: str):
    """Write ``text`` to ``path`` as ``open(path, "w")`` would, but in place:
    the file is opened without truncation, written, then cut to the written
    length.  Truncating a non-empty file to zero makes ext4 flush it on
    close, which costs milliseconds per rewrite.  Symlinks are followed and
    hardlinks and permissions kept; a FIFO or terminal is not cut."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def write_csv_columns(path, header: list[str], *columns):
    """Write a header and equal-length columns, an integer column as its ints
    and any other as the repr of each value's float: equal data give equal
    bytes, those of ``csv.writer``, which quotes none of these fields."""
    cells = [
        map(str, col.tolist()) if (col := np.asarray(column)).dtype.kind in "iu"
        else map(repr, col.astype(float).tolist())
        for column in columns
    ]
    lines = map(",".join, [header, *zip(*cells, strict=True)])
    write_text(path, "\r\n".join(lines) + "\r\n")


def read_csv_columns(path, converters, *headers: list[str]) -> list[list]:
    """The columns under a CSV file's header, each cell passed through its
    column's converter.  The header must be one of ``headers``, every row as
    wide as it and every cell convertible, or ``ValueError`` is raised."""
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field too large
            raise ValueError(f"CSV {path}: {exc}") from exc
    if not rows or rows[0] not in headers:
        raise ValueError(f"CSV {path}: unexpected header {rows[0] if rows else None}")
    if set(map(len, rows)) != {len(rows[0])}:
        row = next(row for row in rows if len(row) != len(rows[0]))
        raise ValueError(f"CSV {path}: row {row} does not have {len(rows[0])} fields")
    cells = list(zip(*rows[1:])) or [()] * len(rows[0])
    columns = []
    for name, convert, column in zip(rows[0], converters, cells):
        try:
            columns.append(list(map(convert, column)))
        except ValueError as exc:
            raise ValueError(f"CSV {path}: column {name}: {exc}") from exc
    return columns


def waveform_to_csv(waveform: Waveform, path):
    """Write ``time_s,gamma_b_hz`` rows."""
    write_csv_columns(path, ["time_s", "gamma_b_hz"], waveform.grid.times, waveform.samples)


def waveform_from_csv(path) -> Waveform:
    """Read a waveform written by :func:`waveform_to_csv`.  The time step is
    the first time, and the time column must read j*dt, j = 1..N-1, to a
    relative 1e-9, or a ``ValueError`` is raised."""
    times, samples = read_csv_columns(path, (float, float), ["time_s", "gamma_b_hz"])
    if not samples:
        raise ValueError(f"waveform CSV {path} holds no samples")
    grid = TimeGrid(len(samples) + 1, times[0])
    if not grid.holds(times):
        raise ValueError(f"waveform CSV {path}: time column is not j*dt, dt={times[0]!r}")
    return Waveform(np.array(samples), grid)
