"""Reports, fusion specs and run fingerprints serialize from their dataclass
fields. Each serializer is compared byte for byte with a verbatim copy of the
hand-written one it replaced, on reports whose offsets run -10..22, with
several subjects and the trial vote on."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from trifuse import __version__, config, data, models, train
from trifuse.fusion import FusionSpec
from trifuse.train import CvReport, TrainReport


# ---------------------------------------------------------------------------
# the serializers as they were written out by hand, verbatim

def old_train_report_to_dict(self) -> dict:
    return {
        "losses": self.losses, "n_train": self.n_train, "n_test": self.n_test,
        "test_accuracy": self.test_accuracy,
        "per_offset": {str(k): v for k, v in sorted(self.per_offset.items())},
        "per_subject": dict(sorted(self.per_subject.items())),
        "trial_accuracy": self.trial_accuracy,
        "fingerprint": self.fingerprint, "fold": self.fold,
    }


def old_cv_report_to_dict(self) -> dict:
    return {
        "k": self.k, "fold_accuracies": self.fold_accuracies,
        "mean_accuracy": self.mean_accuracy, "std_accuracy": self.std_accuracy,
        "per_offset": {str(k): v for k, v in sorted(self.per_offset.items())},
        "per_subject": dict(sorted(self.per_subject.items())),
        "subject_average": self.subject_average,
        "trial_accuracies": self.trial_accuracies,
        "loss_history": self.loss_history,
        "fold_per_offset": [
            {str(k): v for k, v in sorted(d.items())} for d in self.fold_per_offset
        ],
        "fingerprint": self.fingerprint,
    }


def old_fusion_spec_to_dict(self) -> dict:
    return {
        "kind": self.kind,
        "input_dims": list(self.input_dims),
        "output_dim": self.output_dim,
        "rank": self.rank,
        "order": self.order,
        "symmetric": self.symmetric,
        "path": self.path,
        "augment_one": self.augment_one,
    }


def old_fingerprint(self) -> dict:
    """Everything needed to reproduce the run, embedded in every report."""
    return {
        "task": self.task, "profile": self.profile, "seed": self.seed,
        "k": self.k,
        "data": self.data, "model": self.model, "train": asdict(self.train),
        "version": __version__,
    }


def dumped(doc) -> bytes:
    """The bytes ``train.write_report`` writes for a report's dict."""
    return json.dumps(doc, indent=1, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# reports from a real run

def trial_set(n_trials=8, n_subjects=3) -> data.SegmentDataset:
    """Segmented recordings: 33 windows per trial at offsets -10..22."""
    rng = np.random.default_rng(4)
    recordings = []
    for i in range(n_trials):
        label = i % 2
        recordings.append(data.TrialRecording(
            trial_id=i, subject=f"s{i % n_subjects:02d}", task="MA", label=label,
            eeg=rng.normal(size=(30, 7000)) + 0.3 * label, oxy=rng.normal(size=(36, 350)) + 0.3 * label,
            deoxy=rng.normal(size=(36, 350)) - 0.3 * label, onset_sample=2000))
    return data.segment_trials(recordings)


@pytest.fixture(scope="module")
def run_config():
    return config.resolve(overrides={"profile": "desk", "task": "reports", "seed": 3, "k": 4, "epochs": 1,
                                     "trial_vote": True, "manifest": "ds/manifest.json",
                                     "model": {"type": "single", "modality": "oxy"}})


@pytest.fixture(scope="module")
def cv_report(run_config):
    ds = trial_set()
    return train.cross_validate(run_config.model, ds, k=run_config.k, config=run_config.train,
                                fingerprint=run_config.fingerprint())


@pytest.fixture(scope="module")
def train_report(run_config):
    ds = trial_set()
    split = data.fold_indices(ds, data.make_folds(ds, k=run_config.k, seed=run_config.seed), 0)
    model = models.build_from_spec(run_config.model, seed=run_config.seed)
    return train.train(model, ds, split, run_config.train, fingerprint=run_config.fingerprint(), fold=0)


def test_run_reports_cover_offsets_subjects_and_votes(cv_report, train_report):
    # the cases the serializers must keep: int offsets -10..22, string subjects, trial votes
    assert sorted(cv_report.per_offset) == list(range(-10, 23)) == sorted(train_report.per_offset)
    assert len(cv_report.per_subject) == 3 and cv_report.subject_average is not None
    assert all(sorted(d) == list(range(-10, 23)) for d in cv_report.fold_per_offset)
    assert cv_report.trial_accuracies is not None and train_report.trial_accuracy is not None


def test_cv_report_bytes_match_the_hand_written_dict(cv_report):
    assert dumped(cv_report.to_dict()) == dumped(old_cv_report_to_dict(cv_report))


def test_train_report_bytes_match_the_hand_written_dict(train_report):
    assert dumped(train_report.to_dict()) == dumped(old_train_report_to_dict(train_report))


def test_written_report_file_matches_the_hand_written_dict(cv_report, tmp_path):
    train.write_report(cv_report, tmp_path / "cv_report.json")
    assert (tmp_path / "cv_report.json").read_bytes() == dumped(old_cv_report_to_dict(cv_report))


# ---------------------------------------------------------------------------
# reports built by hand: offsets inserted out of order, subjects unsorted, no test side

OFFSETS = [5, -10, 22, -1, 0, 10, -2, 2, -9, 9, 1, 21, 20, -3, 3, 11, 12, -4, 4, 13, 14, 15, 16, 17, 18, 19, -5,
           -6, -7, -8, 6, 7, 8]
FINGERPRINT = {"task": "t", "train": {"epochs": 3, "lr": 0.001}, "model": {"fusion": {"input_dims": [2, 3, 4]}}}


@pytest.mark.parametrize("trial_vote", [False, True])
def test_built_train_reports_match(trial_vote):
    per_offset = {off: (i % 7) / 7 for i, off in enumerate(OFFSETS)}
    report = TrainReport([0.7, 0.6931471805599453], 100, 33, 0.5151515151515151, per_offset,
                         {"s10": 0.25, "s02": 1.0, "s01": 0.5}, 0.75 if trial_vote else None, FINGERPRINT, fold=2)
    assert dumped(report.to_dict()) == dumped(old_train_report_to_dict(report))
    empty = TrainReport([0.5], 10, 0, None, {}, {}, None, {})
    assert dumped(empty.to_dict()) == dumped(old_train_report_to_dict(empty))


@pytest.mark.parametrize("trial_vote", [False, True])
def test_built_cv_reports_match(trial_vote):
    folds = [{off: ((i + f) % 5) / 5 for i, off in enumerate(OFFSETS)} for f in range(3)]
    report = CvReport(3, [0.5, 0.25, 1.0], 0.5833333333333334, 0.3118047822311618, folds[1],
                      {"s2": 0.5, "s10": 0.75, "s1": 0.5}, 0.5833333333333334,
                      [0.5, 1.0, 0.0] if trial_vote else None, [[0.7, 0.6], [0.69], [0.5, 0.4]], folds, FINGERPRINT)
    assert dumped(report.to_dict()) == dumped(old_cv_report_to_dict(report))


# ---------------------------------------------------------------------------
# fusion specs and fingerprints

FUSION_SPECS = [
    FusionSpec("LF", (120, 144, 144), 128),
    FusionSpec("TF", (20, 24, 24), 16, rank=16),
    FusionSpec("TF", (2, 3, 4), 5, path="full"),
    FusionSpec("PF", (120, 144, 144), 128, rank=16, order=3, symmetric=True),
    FusionSpec("PF", (20, 24, 24), 16, order=2, path="full"),
    FusionSpec("PF", [2, 3, 4], 5, rank=3, order=4, augment_one=True),
]


@pytest.mark.parametrize("spec", FUSION_SPECS, ids=lambda s: f"{s.kind}-{s.path}-{s.order}")
def test_fusion_spec_dict_is_the_hand_written_one(spec):
    new, old = spec.to_dict(), old_fusion_spec_to_dict(spec)
    assert list(new.items()) == list(old.items())
    assert dumped(new) == dumped(old)


def test_fingerprint_is_the_hand_written_one(run_config, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out": "x", "jobs": 2, "data": {"synth": {"generator": "interaction", "n_trials": 8},
                                                                "seed": 4, "shuffle_labels": True},
                                "model": {"type": "fused", "fusion": {"kind": "PF", "order": 2, "rank": 4}},
                                "train": {"batch_size": 8, "shuffle": False}, "cv": {"k": 3}}))
    for cfg in (run_config, config.resolve(str(path), {"profile": "desk"}), config.RunConfig()):
        new, old = cfg.fingerprint(), old_fingerprint(cfg)
        assert list(new.items()) == list(old.items())
        assert dumped(new) == dumped(old)
