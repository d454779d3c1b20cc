"""How many coefficients does reliable detection need?

Compressed sensing says a 4-sparse signal on a 99-point grid needs about
ceil(2 s ln(e N / s)) = 34 random samples; an 8-sparse one needs 57.
This sweep subsamples one complete simulated dataset at a range of
measurement counts, recovers each subset with FISTA at the tuned
lambda = 1.04 Hz, and averages the detection AUC over random subsets.

Run:  python3 demos/05_sample_count_sweep.py
Outputs land in demos/output/.
"""

import pathlib

import sparsemag as sm
from sparsemag import detection, experiments

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

for sparsity in (4, 8):
    print(f"bound(s={sparsity}, N=100) = {experiments.compute_bound(sparsity, 100)}")

tgrid = sm.TimeGrid(100, 50e-6)
noise = sm.NoiseModel(200.0, 1000.0, seed=0)
template = detection.default_template(tgrid)

for label, pulses in (
    ("one-pulse", [sm.PulseSpec(1000.0, 200e-6, 1.025e-3)]),
    ("two-pulse", [sm.PulseSpec(1000.0, 200e-6, 1.025e-3),
                   sm.PulseSpec(1000.0, 200e-6, 3.21e-3)]),
):
    waveform = sm.synth_waveform(tgrid, pulses)
    base = experiments.simulate_measurements(waveform, None, noise, master_seed=0)
    spec = experiments.SweepSpec(
        m_values=(10, 20, 30, 34, 40, 50, 57, 60, 80, 99),
        base_measurements=base.values,
        subsets_per_m=100,
        master_seed=7,
    )
    rows = experiments.sweep_sample_count(spec, template, waveform.samples)
    print(f"\n{label}:")
    print("   m   mean AUC   std")
    for m, mean_auc, std_auc in rows:
        print(f"  {m:3d}   {mean_auc:.4f}   {std_auc:.4f}")
    experiments.sweep_to_csv(rows, out_dir / f"sweep_{label}.csv")

print(f"\nwrote sweep_*.csv to {out_dir}")
