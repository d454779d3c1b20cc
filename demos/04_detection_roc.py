"""Grade a recovery with a matched filter, ROC curve and AUC.

Detection quality is scored by cross-correlating the recovered waveform
with the expected pulse shape, sweeping a threshold over the matched
output and comparing against the half-energy ground-truth classification.
The area under the resulting ROC curve is 1.0 for a perfect detector and
0.5 for chance.

Run:  python3 demos/04_detection_roc.py
Outputs land in demos/output/.
"""

import pathlib

import numpy as np

import sparsemag as sm
from sparsemag import detection, experiments

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

tgrid = sm.TimeGrid(100, 50e-6)
waveform = sm.synth_waveform(
    tgrid,
    [sm.PulseSpec(1000.0, 200e-6, 1.025e-3), sm.PulseSpec(1000.0, 200e-6, 3.21e-3)],
)
template = detection.default_template(tgrid)
truth = detection.ground_truth_classification(waveform.samples, template)
print(f"ground truth: {truth.sum()} positive locations of {truth.size}")

# a deliberately under-sampled recovery so the ROC is interesting
noise = sm.NoiseModel(200.0, 1000.0, seed=3)
result = experiments.run_scenario(
    "compressive", waveform, noise, master_seed=3, m=24
)
scores = detection.matched_filter(result.recovered.samples, template)
print(f"matched-filter peak {scores.max():.2e} vs template energy "
      f"{template.energy:.2e}")

curve = detection.roc_curve(result.recovered.samples, template, truth)
score = detection.auc(curve)
print(f"m = 24 recovery: AUC = {score:.4f} over {len(curve)} ROC points")

predicted = scores >= template.energy / 2.0
actual = truth == 1
tp, fp = int(np.sum(predicted & actual)), int(np.sum(predicted & ~actual))
fn, tn = int(np.sum(~predicted & actual)), int(np.sum(~predicted & ~actual))
print(f"at the half-energy threshold: tp={tp} fp={fp} fn={fn} tn={tn}")

detection.roc_to_csv(curve, out_dir / "roc.csv")
detection.auc_to_json(score, out_dir / "auc.json")
print(f"wrote {out_dir / 'roc.csv'} and {out_dir / 'auc.json'}")
