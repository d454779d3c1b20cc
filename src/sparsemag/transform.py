"""DST-I measurement matrix, subsampling and operator-norm facts.

The sampler is the (N-1)x(N-1) matrix A[k, j] = sin(pi k j / N) / N, which is
the Riemann-sum discretisation of the Fourier sine coefficient
m(f) = (1/T) integral sin(2 pi f t) x(t) dt on the paired grids
(df * dt = 1/(2N)).  A is a scaled orthogonal matrix: A^T A = I/(2N), so every
singular value is 1/sqrt(2N) and the inverse transform is x = 2N A^T m.

The matrix is dense on purpose (N is at most a few hundred, and rows subsample
trivially); it is built once per N and shared, so its entries are read-only.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid, Waveform, read_csv_columns, write_csv_columns
from .seeds import streams


@functools.lru_cache(maxsize=4)
def dst_matrix(n_grid: int) -> np.ndarray:
    """The shared, read-only (N-1)x(N-1) DST-I sampler with entries
    sin(pi k j / N) / N.  Functions taking it read N as ``len(matrix) + 1``."""
    if n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {n_grid}")
    idx = np.arange(1, n_grid)
    entries = np.sin(np.pi * np.outer(idx, idx) / n_grid) / n_grid
    entries.flags.writeable = False
    return entries


def apply_dst(matrix: np.ndarray, waveform: Waveform) -> np.ndarray:
    """Full measurement vector m_k = sum_j sin(pi k j / N) x_j / N."""
    if waveform.grid.n_grid != len(matrix) + 1:
        raise ValueError(
            f"waveform grid N={waveform.grid.n_grid} does not match "
            f"matrix N={len(matrix) + 1}"
        )
    return matrix @ waveform.samples


def apply_inverse_dst(
    matrix: np.ndarray, full_measurements, grid: TimeGrid
) -> Waveform:
    """Exact inverse of :func:`apply_dst`: x = 2N A^T m."""
    m = np.asarray(full_measurements, dtype=float)
    if m.shape != (len(matrix),):
        raise ValueError(f"expected full-length vector of {len(matrix)}, got {m.shape}")
    if grid.n_grid != len(matrix) + 1:
        raise ValueError("grid does not match matrix")
    samples = 2.0 * (len(matrix) + 1) * (matrix.T @ m)
    return Waveform(samples, grid)


@dataclass(frozen=True)
class SubsampleSet:
    """Strictly increasing frequency indices, each in 1..N-1."""

    n_grid: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        if idx.size < 1 or idx.size > self.n_grid - 1:
            raise ValueError(f"need between 1 and {self.n_grid - 1} indices")
        if (bad := np.flatnonzero((idx < 1) | (idx > self.n_grid - 1))).size:
            raise ValueError(f"indices must lie in 1..N-1 for N = {self.n_grid}, got {idx[bad[0]]}")
        if (bad := np.flatnonzero(np.diff(idx) <= 0)).size:
            i = bad[0]
            raise ValueError(f"indices must increase strictly, got {idx[i + 1]} after {idx[i]}")

    @property
    def m(self) -> int:
        return len(self.indices)


def random_subsample_masks(n_grid: int, ms, seeds) -> np.ndarray:
    """(len(seeds), N-1) bool masks, row r a uniformly random ms[r]-subset of
    1..N-1 (column k - 1 for index k): the first ms[r] swaps of a partial
    Fisher-Yates shuffle on the stream of key (seeds[r],), swap i with a
    draw j from [i, N-1).

    The draws are those of ``rng.integers(np.arange(m), N - 1)``, bit for
    bit, made for the whole block at once.  numpy serves each draw from one
    32-bit word, the low half of a PCG64 output first (``next_uint32`` on a
    fresh stream), by Lemire's map j = i + (u s >> 32), s = N - 1 - i, and
    draws again when the low word of u s is below (2^32 - s) mod s (Lemire,
    ACM TOMACS 29, 2019).  A row with such a draw (at most 5.1e-7 of the
    rows at N = 100) is drawn again with ``rng.integers`` on a fresh stream
    of its key.  A last draw with s = 1 takes no word in numpy; here it
    reads one, which cannot move it."""
    ms = [operator.index(m) for m in ms]
    if len(ms) != len(seeds):
        raise ValueError(f"{len(ms)} subset sizes for {len(seeds)} seeds")
    masks = np.zeros((len(ms), n_grid - 1), dtype=bool)
    for m in ms:
        if not 1 <= m <= n_grid - 1:
            raise ValueError(f"m must lie in 1..{n_grid - 1}, got {m}")
    if not ms:
        return masks
    width = max(ms)
    words = np.array([rng.bit_generator.random_raw((width + 1) // 2) for rng in streams(seeds)])
    u = np.empty((len(ms), 2 * words.shape[1]), dtype=np.uint64)
    u[:, 0::2], u[:, 1::2] = words & 0xFFFFFFFF, words >> 32
    step = np.arange(width, dtype=np.uint64)
    span = np.uint64(n_grid - 1) - step
    product = u[:, :width] * span
    rejected = (product & 0xFFFFFFFF) < (2**32 - span) % span
    rejected &= step < np.array(ms, dtype=np.uint64)[:, None]
    picks = (step + (product >> 32)).tolist()
    redo = rejected.any(axis=1).nonzero()[0].tolist()
    for r, rng in zip(redo, streams([seeds[r] for r in redo])):
        picks[r] = rng.integers(np.arange(ms[r]), n_grid - 1).tolist()
    base, chosen = list(range(n_grid - 1)), []
    for m, row in zip(ms, picks):
        pool = base.copy()
        for i in range(m):
            j = row[i]
            pool[i], pool[j] = pool[j], pool[i]
        chosen += pool[:m]
    masks[np.repeat(np.arange(len(ms)), ms), chosen] = True
    return masks


def random_subsample(n_grid: int, m: int, seed: int) -> SubsampleSet:
    """Uniformly random m-subset of 1..N-1: :func:`random_subsample_masks`."""
    row = random_subsample_masks(n_grid, [m], [seed])[0]
    return SubsampleSet(n_grid, tuple((np.flatnonzero(row) + 1).tolist()))


def subsample_rows(matrix: np.ndarray, subsample: SubsampleSet) -> np.ndarray:
    """Rows of A at the chosen frequency indices, in index order (M x (N-1))."""
    if subsample.n_grid != len(matrix) + 1:
        raise ValueError("subsample set does not match matrix size")
    rows = np.asarray(subsample.indices, dtype=int) - 1
    return matrix[rows, :]


@dataclass
class MeasurementVector:
    """Measured sine coefficients (Hz) at a subsampled set of frequencies."""

    values: np.ndarray
    subsample: SubsampleSet

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.subsample.m,):
            raise ValueError(
                f"expected {self.subsample.m} values, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("measurement vector holds non-finite values")


@functools.lru_cache(maxsize=4)
def _half_sample_twiddle(n: int) -> np.ndarray:
    """exp(i pi j / (2n)) for j = 0..n//2, built once per n and read-only."""
    twiddle = np.exp(0.5j * np.pi * np.arange(n // 2 + 1) / n)
    twiddle.flags.writeable = False
    return twiddle


def dst_iii(x) -> np.ndarray:
    """Unnormalised DST-III, y_i = (-1)^i x_{n-1} + 2 sum_{j<n-1} x_j sin(pi
    (j + 1)(2i + 1) / (2n)), as ``scipy.fft.dst(x, type=3)``, from one real
    inverse FFT of length n (Makhoul, IEEE TASSP 1980): it is the DCT-III of
    the reversed input, interleaved, with the odd outputs negated."""
    x = np.asarray(x, dtype=float)[::-1]
    n, half = x.size, x.size // 2 + 1
    z = x[:half] - 1j * np.concatenate(([0.0], x[n - 1 : n - half : -1]))
    v = np.fft.irfft(z * _half_sample_twiddle(n), n, norm="forward")
    y = np.empty(n)
    y[0::2], y[1::2] = v[: (n + 1) // 2], -v[::-1][: n // 2]
    return y


@dataclass(frozen=True)
class SineInterpolant:
    """Continuous sine-series interpolation B(t) = 2 sum_k m_k sin(w_k t) of a
    waveform, m = apply_dst(waveform), w_k = pi k / T.  B passes through every
    grid sample, and its continuous Fourier sine coefficient at k*df is
    exactly m_k, so a sensor evolving it measures the DST of the samples with
    no discretisation error."""

    coefs: np.ndarray
    duration: float

    @property
    def omega(self) -> np.ndarray:
        return np.pi * np.arange(1, self.coefs.size + 1) / self.duration

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 * np.sin(np.multiply.outer(t, self.omega)) @ self.coefs

    def at_midpoints(self, n: int) -> np.ndarray:
        """B at the n uniform midpoints (i + 1/2) T / n, from one DST-III:
        sin(pi k (i + 1/2) / n) flips sign when k grows by 2n and is even
        about k = n, so every k folds onto 1..n."""
        turns, j = np.divmod(np.arange(1, self.coefs.size + 1), 2 * n)
        folded = np.zeros(n + 1)
        signs = np.where(turns % 2, -1.0, 1.0)
        np.add.at(folded, np.minimum(j, 2 * n - j), signs * self.coefs)
        folded[n] *= 2.0  # DST-III weighs its last input once, the others twice
        return dst_iii(folded[1:])

    def window_mean(self, lo, hi) -> np.ndarray:
        """Exact mean of B over each [lo, hi]: 2 sum_k m_k (cos w_k lo -
        cos w_k hi) / (w_k (hi - lo)) = 2 sum_k m_k sin(w_k c) sinc(w_k h),
        with centre c and half width h: W @ m, the window operator W built
        once per coefficient count, duration and edges (their bytes)."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        edges = (lo.shape, hi.shape, lo.tobytes(), hi.tobytes())
        return _window_operator(self.coefs.size, self.duration, *edges) @ self.coefs


@functools.lru_cache(maxsize=2)
def _window_operator(n_coefs, duration, lo_shape, hi_shape, lo_bytes, hi_bytes):
    """The shared, read-only W of ``SineInterpolant.window_mean``, the sinc
    once per distinct width (one entry is 8 MB at N = 1000)."""
    lo = np.frombuffer(lo_bytes).reshape(lo_shape)
    hi = np.frombuffer(hi_bytes).reshape(hi_shape)
    omega = np.pi * np.arange(1, n_coefs + 1) / duration
    widths, which = np.unique(hi - lo, return_inverse=True)
    damping = np.sinc(omega * widths[:, None] / 2.0 / np.pi)[which]
    centre = omega * (lo + hi)[..., None] / 2.0
    window = 2.0 * (np.sin(centre) * damping)
    window.flags.writeable = False
    return window


def sine_interpolant(waveform: Waveform) -> SineInterpolant:
    """The :class:`SineInterpolant` of a waveform."""
    coefs = apply_dst(dst_matrix(waveform.grid.n_grid), waveform)
    return SineInterpolant(coefs, waveform.grid.duration)


def subsample_from_json(path) -> SubsampleSet:
    try:
        with open(path) as fh:
            data = json.load(fh)
        n_grid, indices = data["n_grid"], tuple(data["indices"])
        if any(type(v) is not int for v in (n_grid, *indices)):  # no bool, float or str
            raise TypeError
        return SubsampleSet(n_grid, indices)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"subset JSON {path} needs integer n_grid and indices") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or not a subset
        raise ValueError(f"subset JSON {path}: {exc}") from exc


def measurements_to_csv(measurement: MeasurementVector, grid: TimeGrid, path):
    """Write ``k,freq_hz,coef_hz`` rows, freq_hz = k * df of ``grid``."""
    k = np.array(measurement.subsample.indices)
    write_csv_columns(path, ["k", "freq_hz", "coef_hz"], k, k * grid.df, measurement.values)


def measurements_from_csv(path, grid: TimeGrid, dt_flag: str = "--dt") -> MeasurementVector:
    """Read ``k,freq_hz,coef_hz`` rows for ``grid``: every k must lie in
    1..N-1 and every freq_hz read k/(2 N dt) to a relative 1e-9, or a
    ``ValueError`` naming ``--n`` or ``dt_flag`` is raised."""
    n_grid, dt = grid.n_grid, grid.dt
    header = ["k", "freq_hz", "coef_hz"]
    indices, freqs, values = read_csv_columns(path, (int, float, float), header)
    if indices and max(indices) > n_grid - 1:
        raise ValueError(f"{path} holds index {max(indices)} > N - 1 for N = {n_grid} (--n)")
    if indices and min(indices) < 1:
        raise ValueError(f"{path} holds index {min(indices)}: indices must lie in 1..N-1")
    k = np.array(indices)
    # compared as k: k/(2 N dt) overflows for a subnormal dt, and a product
    # that overflows reads as a mismatch
    with np.errstate(over="ignore"):
        matches = abs(np.array(freqs) * (2.0 * n_grid * dt) - k) <= 1e-9 * k
    if not np.all(matches):
        raise ValueError(f"{path}: freq_hz is not k/(2 N dt) for --n {n_grid}, {dt_flag} {dt}")
    order = np.argsort(k)
    try:
        subsample = SubsampleSet(n_grid, tuple(int(indices[i]) for i in order))
    except ValueError as exc:
        raise ValueError(f"measurement CSV {path}: {exc}") from exc
    return MeasurementVector(np.array(values)[order], subsample)
