"""Build a sparse pulse waveform and look at its sine spectrum.

The estimation problem lives on a pair of grids: N = 100 time steps of
50 us (T = 5 ms) and the matching frequency grid of 100 Hz steps up to
W = 10 kHz.  A signal that is sparse in time spreads over many sine
coefficients, but the transform is orthogonal, so nothing is lost: the
scaled transpose undoes it exactly.

Run:  python3 demos/01_waveform_and_transform.py
Outputs land in demos/output/.
"""

import pathlib

import numpy as np

import sparsemag as sm
from sparsemag import transform

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

# the paired grids: df = 1/(2T), W = 1/(2 dt)
tgrid = sm.TimeGrid(100, 50e-6)
print(f"T = {tgrid.duration * 1e3:.1f} ms, df = {tgrid.df:.0f} Hz, "
      f"W = {tgrid.bandwidth / 1e3:.0f} kHz")

# two single-cycle sine pulses, 1 kHz amplitude (143 nT), 200 us long;
# start times are continuous and deliberately not grid-aligned
pulses = [
    sm.PulseSpec(amplitude=1000.0, pulse_duration=200e-6, start_time=1.025e-3),
    sm.PulseSpec(amplitude=1000.0, pulse_duration=200e-6, start_time=3.21e-3),
]
waveform = sm.synth_waveform(tgrid, pulses)
nonzero = np.count_nonzero(np.abs(waveform.samples) > 1e-9)
print(f"waveform: {nonzero} nonzero samples out of {waveform.samples.size}")

# forward transform: all 99 sine coefficients
matrix = transform.dst_matrix(100)
coefs = sm.apply_dst(matrix, waveform)
print(f"largest |coefficient| = {np.max(np.abs(coefs)):.2f} Hz "
      f"at k = {np.argmax(np.abs(coefs)) + 1}")

# the inverse is the scaled transpose; the roundtrip is exact
back = sm.apply_inverse_dst(matrix, coefs, tgrid)
print(f"roundtrip error = {np.max(np.abs(back.samples - waveform.samples)):.2e} Hz")

sm.grids.waveform_to_csv(waveform, out_dir / "waveform.csv")
transform.measurements_to_csv(
    transform.MeasurementVector(coefs, transform.SubsampleSet(100, tuple(range(1, 100)))),
    tgrid,
    out_dir / "spectrum.csv",
)
print(f"wrote {out_dir / 'waveform.csv'} and {out_dir / 'spectrum.csv'}")
