"""From raw 35-second trials to a cross-validated report.

Fabricates a handful of trial recordings in the converter format (EEG
[30 x 7000] at 200 Hz, NIRS [36 x 350] at 10 Hz, onset at sample 2000),
slides the 3 s / 1 s-step window over them, builds trial-disjoint folds and
runs a short cross validation.
"""

import numpy as np

from trifuse import data, train

rng = np.random.default_rng(3)

# trials whose oxy channel carries a weak class-dependent offset
trials = []
for i in range(20):
    label = i % 2
    oxy = rng.normal(size=(36, 350)) + 0.4 * (2 * label - 1)
    trials.append(data.TrialRecording(
        trial_id=i, subject=f"s{i % 2:02d}", task="MA", label=label,
        eeg=rng.normal(size=(30, 7000)), oxy=oxy,
        deoxy=rng.normal(size=(36, 350)), onset_sample=2000,
    ))

ds = data.segment_trials(trials)
print(f"{len(trials)} trials -> {len(ds)} segments "
      f"(33 windows each, offsets {ds.offsets.min()}..{ds.offsets.max()})")

plan = data.make_folds(ds, k=5, seed=0)
fold_sizes = np.bincount(plan[ds.trial_of], minlength=5)
print("segments per fold:", fold_sizes.tolist(), "(all 33 windows of a trial stay together)")
print()

report = train.cross_validate(
    {"type": "single", "modality": "oxy", "profile": "desk"},
    ds, k=5, config=train.TrainConfig(epochs=2, batch_size=16, seed=0),
)
print(f"5-fold accuracy: {report.mean_accuracy:.3f} +/- {report.std_accuracy:.3f}")
print("per-subject means:", {k: round(v, 3) for k, v in report.per_subject.items()})

curve = sorted(report.per_offset.items())
print("\naccuracy by window offset (left edge, seconds from task onset):")
for off, acc in curve[::4]:
    bar = "#" * int(acc * 40)
    print(f"  {off:+3d}s  {acc:.2f}  {bar}")
