"""Adam behavior, training loop guarantees, cross-validation reports."""

import json

import numpy as np
import pytest

from trifuse import data, models, train
from trifuse.train import AdamState, TrainConfig, adam_step


def small_dataset(generator="additive", n_trials=16, segments_per_trial=1, seed=0, noise=0.1):
    return data.synth_dataset(
        data.SynthSpec(generator, n_trials=n_trials, segments_per_trial=segments_per_trial,
                       noise=noise), seed=seed)


OXY_SPEC = {"type": "single", "modality": "oxy", "profile": "desk"}


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        w = {"w": np.array([1.0, -2.0])}
        st = AdamState()
        for _ in range(10):
            adam_step(w, {"w": np.zeros(2)}, st)
        assert np.array_equal(w["w"], [1.0, -2.0])
        assert st.step == 10

    def test_constant_gradient_steady_state(self):
        # after enough steps the update magnitude approaches lr * sign(g)
        w = {"w": np.zeros(2)}
        st = AdamState(lr=0.001)
        g = {"w": np.array([0.37, -4.2])}
        for _ in range(499):
            adam_step(w, g, st)
        before = w["w"].copy()
        adam_step(w, g, st)
        assert np.allclose(w["w"] - before, -0.001 * np.sign(g["w"]), rtol=1e-6)

    def test_quadratic_bowl_converges(self):
        target = np.array([0.3, -0.2, 0.5])
        w = {"w": np.zeros(3)}
        st = AdamState(lr=0.001)
        for _ in range(2000):
            adam_step(w, {"w": 2.0 * (w["w"] - target)}, st)
        assert np.max(np.abs(w["w"] - target)) < 1e-3

    def test_lr_zero_freezes_parameters(self):
        rng = np.random.default_rng(0)
        w = {"w": rng.normal(size=4)}
        snapshot = w["w"].copy()
        st = AdamState(lr=0.0)
        for _ in range(25):
            adam_step(w, {"w": rng.normal(size=4)}, st)
        assert np.array_equal(w["w"], snapshot)

    def test_non_finite_gradient_names_parameter(self):
        w = {"conv.w": np.zeros(2)}
        with pytest.raises(FloatingPointError, match="conv.w"):
            adam_step(w, {"conv.w": np.array([np.nan, 0.0])}, AdamState())


class TestTrainLoop:
    def test_overlapping_split_rejected(self):
        ds = small_dataset()
        model = models.build_from_spec(OXY_SPEC, seed=0)
        idx = np.arange(len(ds))
        with pytest.raises(ValueError, match="share trials"):
            train.train(model, ds, (idx, idx[:4]), TrainConfig(epochs=1))

    def test_divergence_reports_epoch(self):
        ds = small_dataset()
        model = models.build_from_spec(OXY_SPEC, seed=0)
        model.params["head2.b"][0] = np.nan
        idx = np.arange(len(ds))
        with pytest.raises(train.TrainingDiverged, match="epoch 0"):
            train.train(model, ds, (idx[:12], idx[12:]), TrainConfig(epochs=1, batch_size=4))

    def test_non_finite_parameters_after_training_rejected(self):
        # one step at a NaN learning rate turns every parameter NaN while the
        # loss stays finite; only the end-of-training check can see it
        ds = small_dataset()
        model = models.build_from_spec(OXY_SPEC, seed=0)
        idx = np.arange(len(ds))
        with pytest.raises(train.TrainingDiverged, match="parameter"):
            train.train(model, ds, (idx[:12], idx[12:]), TrainConfig(epochs=1, batch_size=16, lr=float("nan")))

    def test_singleton_batch_merged(self):
        # 9 train samples at batch 4 would leave a trailing batch of 1
        ds = small_dataset(n_trials=12)
        model = models.build_from_spec(OXY_SPEC, seed=0)
        idx = np.arange(len(ds))
        report = train.train(model, ds, (idx[:9], idx[9:]), TrainConfig(epochs=1, batch_size=4))
        assert len(report.losses) == 1

    def test_deterministic_reports(self):
        ds = small_dataset(n_trials=14)
        idx = np.arange(len(ds))
        split = (idx[:10], idx[10:])
        cfg = TrainConfig(epochs=2, batch_size=4, seed=3)
        r1 = train.train(models.build_from_spec(OXY_SPEC, seed=5), ds, split, cfg)
        r2 = train.train(models.build_from_spec(OXY_SPEC, seed=5), ds, split, cfg)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)

    def test_loss_decreases_on_separable_data(self):
        ds = small_dataset(n_trials=30, noise=0.05)
        model = models.build_from_spec(OXY_SPEC, seed=1)
        idx = np.arange(len(ds))
        report = train.train(model, ds, (idx[:24], idx[24:]), TrainConfig(epochs=5, batch_size=8))
        assert report.losses[-1] < report.losses[0]

    def test_report_carries_fingerprint(self):
        ds = small_dataset()
        model = models.build_from_spec(OXY_SPEC, seed=0)
        idx = np.arange(len(ds))
        fp = {"note": "unit", "seed": 0}
        report = train.train(model, ds, (idx[:12], idx[12:]), TrainConfig(epochs=1), fingerprint=fp)
        assert report.to_dict()["fingerprint"] == fp


class TestCrossValidation:
    def test_report_structure_and_bounds(self):
        ds = small_dataset(n_trials=20, segments_per_trial=3)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=2)
        report = train.cross_validate(OXY_SPEC, ds, k=4, config=cfg)
        assert len(report.fold_accuracies) == 4
        assert np.isclose(report.mean_accuracy, np.mean(report.fold_accuracies), atol=1e-12)
        assert sorted(report.per_offset) == [0, 1, 2]
        assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)

    def test_offset_curve_matches_synthetic_offsets(self):
        ds = small_dataset(n_trials=12, segments_per_trial=5)
        report = train.cross_validate(OXY_SPEC, ds, k=3,
                                      config=TrainConfig(epochs=1, batch_size=8, seed=0))
        assert sorted(report.per_offset) == [0, 1, 2, 3, 4]

    def test_bitwise_reproducible(self):
        ds = small_dataset(n_trials=16)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=11)
        a = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg)
        b = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_parallel_folds_match_serial(self):
        ds = small_dataset(n_trials=12)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=4)
        serial = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg, jobs=1)
        parallel = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg, jobs=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
            json.dumps(parallel.to_dict(), sort_keys=True)

    def test_trial_vote_metric_optional(self):
        ds = small_dataset(n_trials=12, segments_per_trial=3)
        cfg = TrainConfig(epochs=1, batch_size=8, trial_vote=True)
        report = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg)
        assert report.trial_accuracies is not None
        assert len(report.trial_accuracies) == 3

    def test_subject_average_for_multisubject(self):
        ds = data.synth_dataset(
            data.SynthSpec("additive", n_trials=24, n_subjects=3), seed=1)
        report = train.cross_validate(OXY_SPEC, ds, k=3,
                                      config=TrainConfig(epochs=1, batch_size=8))
        assert sorted(report.per_subject) == ["s00", "s01", "s02"]
        assert np.isclose(report.subject_average,
                          np.mean(list(report.per_subject.values())), atol=1e-12)

    def test_csv_rows(self, tmp_path):
        ds = small_dataset(n_trials=12, segments_per_trial=2)
        report = train.cross_validate(OXY_SPEC, ds, k=3,
                                      config=TrainConfig(epochs=1, batch_size=8))
        path = tmp_path / "folds.csv"
        train.write_fold_offset_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fold,offset,accuracy"
        assert len(lines) == 1 + 3 * 2  # 3 folds x 2 offsets
