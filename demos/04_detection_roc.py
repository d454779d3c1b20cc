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

tgrid, _ = sm.make_grids(100, 50e-6)
waveform = sm.synth_waveform(
    tgrid,
    [sm.PulseSpec(1000.0, 200e-6, 1.025e-3), sm.PulseSpec(1000.0, 200e-6, 3.21e-3)],
)
template = detection.default_template(tgrid)
truth = detection.ground_truth_classification(waveform.samples, template)
print(f"ground truth: {truth.labels.sum()} positive locations of {truth.labels.size}")

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
print(f"m = 24 recovery: AUC = {score.value:.4f} over {len(curve.points)} ROC points")

predicted = detection.Classification(
    (scores >= template.energy / 2.0).astype(int)
)
counts = detection.confusion_counts(predicted, truth)
print(f"at the half-energy threshold: tp={counts.tp} fp={counts.fp} "
      f"fn={counts.fn} tn={counts.tn}")

detection.roc_to_csv(curve, out_dir / "roc.csv")
detection.auc_to_json(score, out_dir / "auc.json")
print(f"wrote {out_dir / 'roc.csv'} and {out_dir / 'auc.json'}")
