"""Adam behavior, training loop guarantees, cross-validation reports."""

import dataclasses
import gc
import json
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import data, models, ops, train
from trifuse.train import AdamState, TrainConfig, adam_step


def small_dataset(generator="additive", n_trials=16, segments_per_trial=1, seed=0, noise=0.1):
    return data.synth_dataset(
        data.SynthSpec(generator, n_trials=n_trials, segments_per_trial=segments_per_trial,
                       noise=noise), seed=seed)


ROOT = Path(__file__).resolve().parents[1]

OXY_SPEC = {"type": "single", "modality": "oxy", "profile": "desk"}
PF3_DESK = {"type": "fused", "profile": "desk",
            "fusion": {"kind": "PF", "order": 3, "rank": 16, "symmetric": True, "output_dim": 16}}


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        w = np.array([1.0, -2.0])
        st = AdamState.for_config(TrainConfig(), 2)
        for _ in range(10):
            adam_step(w, np.zeros(2), st, {"w": w})
        assert np.array_equal(w, [1.0, -2.0])
        assert st.step == 10

    def test_constant_gradient_steady_state(self):
        # after enough steps the update magnitude approaches lr * sign(g)
        w = np.zeros(2)
        st = AdamState.for_config(TrainConfig(lr=0.001), 2)
        g = np.array([0.37, -4.2])
        for _ in range(499):
            adam_step(w, g, st, {"w": w})
        before = w.copy()
        adam_step(w, g, st, {"w": w})
        assert np.allclose(w - before, -0.001 * np.sign(g), rtol=1e-6)

    def test_quadratic_bowl_converges(self):
        target = np.array([0.3, -0.2, 0.5])
        w = np.zeros(3)
        st = AdamState.for_config(TrainConfig(lr=0.001), 3)
        for _ in range(2000):
            adam_step(w, 2.0 * (w - target), st, {"w": w})
        assert np.max(np.abs(w - target)) < 1e-3

    def test_lr_zero_freezes_parameters(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        snapshot = w.copy()
        st = AdamState.for_config(TrainConfig(lr=0.0), 4)
        for _ in range(25):
            adam_step(w, rng.normal(size=4), st, {"w": w})
        assert np.array_equal(w, snapshot)

    def test_non_finite_gradient_names_parameter(self):
        w = np.zeros(3)
        with pytest.raises(FloatingPointError, match="conv.w"):
            adam_step(w, np.array([0.0, np.nan, 0.0]), AdamState.for_config(TrainConfig(), 3), {"head.b": w[:1], "conv.w": w[1:]})


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

    def test_end_check_names_the_first_non_finite_parameter(self, monkeypatch):
        # Adam's last step leaves two parameters non-finite; the report names the first
        ds = small_dataset()
        model = models.build_from_spec(OXY_SPEC, seed=0)
        names = list(model.params)
        real_step = train.adam_step

        def step_then_overflow(params, grads, state, named):
            real_step(params, grads, state, named)
            model.params[names[3]].flat[-1] = -np.inf
            model.params[names[5]].flat[0] = np.nan

        monkeypatch.setattr(train, "adam_step", step_then_overflow)
        idx = np.arange(len(ds))
        with pytest.raises(train.TrainingDiverged, match=rf"parameter {names[3]!r} became non-finite \(inf\)"):
            train.train(model, ds, (idx[:12], idx[12:]), TrainConfig(epochs=1, batch_size=16))

    @pytest.mark.parametrize("n, epochs, batch", [(12, 1, 16), (11, 3, 5), (16, 2, 4)])
    def test_adam_step_is_called_once_per_step(self, monkeypatch, n, epochs, batch):
        # benchmark op boundaries are the returns of train.adam_step, looked up by name
        calls = []
        real_step = train.adam_step
        monkeypatch.setattr(train, "adam_step", lambda *args: calls.append(1) or real_step(*args))
        ds = small_dataset(n_trials=n + 4)
        idx = np.arange(len(ds))
        train.train(models.build_from_spec(OXY_SPEC, seed=0), ds, (idx[:n], idx[n:]),
                    TrainConfig(epochs=epochs, batch_size=batch))
        assert len(calls) == epochs * len(train._batch_plan(n, batch))

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


class TestTapeRelease:
    def test_step_tapes_freed_without_gc(self, monkeypatch):
        # every Variable points at its tape and the tape lists its nodes; train
        # must break that cycle so a step's activations go by refcount alone
        tapes = []

        class RecordedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", RecordedTape)
        ds = small_dataset(n_trials=12)
        model = models.build_from_spec(PF3_DESK, seed=0)
        idx = np.arange(len(ds))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            train.train(model, ds, (idx[:9], idx[9:]), TrainConfig(epochs=2, batch_size=4))
            alive = sum(ref() is not None for ref in tapes)
        finally:
            if was_enabled:
                gc.enable()
        assert len(tapes) == 4  # 2 epochs x 2 batches (9 samples at batch 4, trailing singleton merged)
        assert alive == 0

    def test_nodes_readable_after_backward_on_own_tape(self):
        # backward leaves the tape intact: a caller that owns it can still walk it
        ds = small_dataset()
        model = models.build_from_spec(PF3_DESK, seed=0)
        tape = ad.Tape()
        pvars = {k: tape.variable(v) for k, v in model.params.items()}
        logits = model.forward((ds.eeg[:4], ds.oxy[:4], ds.deoxy[:4]), pvars)
        ad.backward(tape, ops.softmax_crossentropy(logits, ds.labels[:4]))
        assert len(tape.nodes) == 30
        assert all(ad.grad_of(v).shape == v.shape for v in pvars.values())


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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mapped_dataset_gives_the_in_memory_report(self, tmp_path, jobs):
        # a loaded segments set's columns map its files, unaligned and read-only;
        # every batch gathered from them is a copy, so the report cannot change
        data.save_segments_manifest(small_dataset(n_trials=12, segments_per_trial=2), tmp_path / "data")
        mapped = data.load_manifest(tmp_path / "data")
        assert not mapped.eeg.flags["WRITEABLE"] and not mapped.eeg.flags["ALIGNED"]
        copied = dataclasses.replace(mapped, **{m: np.array(getattr(mapped, m)) for m in ("eeg", "oxy", "deoxy")})
        assert copied.eeg.flags["WRITEABLE"] and copied.eeg.flags["ALIGNED"]
        cfg = TrainConfig(epochs=1, batch_size=8, seed=4)
        for name, ds in (("mapped", mapped), ("copied", copied)):
            report = train.cross_validate(PF3_DESK, ds, k=3, config=cfg, jobs=jobs)
            train.write_report(report, tmp_path / f"{name}.json")
        assert (tmp_path / "mapped.json").read_bytes() == (tmp_path / "copied.json").read_bytes()

    def test_pool_tasks_carry_no_dataset(self, monkeypatch):
        # the workers get the dataset once, through the pool's initializer; a
        # task holds only the spec, the index arrays, the config and the fold
        sizes = []

        class RecordingPool(train.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                tasks = list(iterables[0])
                sizes.extend(len(pickle.dumps(task)) for task in tasks)
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(train, "ProcessPoolExecutor", RecordingPool)
        ds = small_dataset(n_trials=40)
        assert sum(a.nbytes for a in (ds.eeg, ds.oxy, ds.deoxy)) > 5 * 2**20
        cfg = TrainConfig(epochs=1, batch_size=8, seed=4)
        parallel = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg, jobs=2)
        assert len(sizes) == 3 and max(sizes) < 64 * 2**10
        assert train._worker_dataset is None
        assert len(parallel.fold_accuracies) == 3

    @staticmethod
    def _in_process_pool(monkeypatch) -> list[int]:
        """Run cross_validate's pool in-process, recording each pool's max_workers:
        a pool starts all of them at once, so none is started for jobs=10**6."""
        started = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(train, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(train, "_worker_dataset", None)  # the initializer sets it here
        return started

    def test_pool_starts_no_more_workers_than_folds(self, monkeypatch):
        started = self._in_process_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        ds = small_dataset(n_trials=12)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=4)
        bounded = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg, jobs=10**6)
        assert started == [3]
        serial = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg, jobs=1)
        assert json.dumps(bounded.to_dict(), sort_keys=True) == json.dumps(serial.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("cores, jobs, workers", [(2, 4, 2), (2, 2, 2), (3, 10**6, 3), (1, 2, 1)])
    def test_pool_starts_no_more_workers_than_usable_cores(self, monkeypatch, cores, jobs, workers):
        # on 2 cores, desk TF cv (k 5) ran 3-6% slower at --jobs 4 than at --jobs 2
        started = self._in_process_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        ds = small_dataset(n_trials=20)
        train.cross_validate(OXY_SPEC, ds, k=5, config=TrainConfig(epochs=1, batch_size=8, seed=4), jobs=jobs)
        assert started == [workers]

    def test_parallel_folds_under_spawn(self):
        # a spawned worker starts from a fresh import: the initializer and its
        # dataset must survive pickling (the default start method from Python 3.14 is forkserver)
        ds = small_dataset(n_trials=12)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=4)
        serial = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg, jobs=1)
        script = (
            "import json, multiprocessing, sys\n"
            "from trifuse import data, train\n"
            "multiprocessing.set_start_method('spawn')\n"
            "ds = data.synth_dataset(data.SynthSpec('additive', n_trials=12, noise=0.1), seed=0)\n"
            "cfg = train.TrainConfig(epochs=1, batch_size=8, seed=4)\n"
            f"report = train.cross_validate({OXY_SPEC!r}, ds, k=3, config=cfg, jobs=2)\n"
            "sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == json.dumps(serial.to_dict(), sort_keys=True)

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


def predict_labels_in_256_chunks(model, dataset, idx, eval_batch=256):
    """``train.predict_labels`` as it was when evaluation ran in chunks of 256, verbatim."""
    preds = np.empty(len(idx), dtype=np.int64)
    for s in range(0, len(idx), eval_batch):
        chunk = idx[s:s + eval_batch]
        preds[s:s + len(chunk)] = model.predict(train._model_inputs(model, dataset, chunk))
    return preds


DESK_EVAL_SPECS = {
    "LF": {"type": "fused", "profile": "desk", "fusion": {"kind": "LF", "output_dim": 16}},
    "TF": {"type": "fused", "profile": "desk", "fusion": {"kind": "TF", "rank": 16, "output_dim": 16}},
    "PF2-full": {"type": "fused", "profile": "desk",
                 "fusion": {"kind": "PF", "order": 2, "rank": 4, "path": "full", "output_dim": 16}},
    "PF3-sym": PF3_DESK,
    "eeg": {"type": "single", "modality": "eeg", "profile": "desk"},
}


def reference_trial_accuracy(dataset, idx, preds) -> float:
    """The per-trial vote loop that evaluate's one count replaced, kept verbatim."""
    labels = dataset.labels[idx]
    trial_ids, trial_ok = dataset.trial_ids[idx], []
    for tid in np.unique(trial_ids):
        rows = trial_ids == tid
        votes = np.bincount(preds[rows], minlength=2)
        trial_ok.append(int(np.argmax(votes)) == int(labels[rows][0]))
    return float(np.mean(trial_ok))


class TestTrialVote:
    @staticmethod
    def two_segment_trials(seed: int = 0, shuffled: bool = False) -> data.SegmentDataset:
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=30, segments_per_trial=2, n_subjects=3), seed=seed)
        rows = np.random.default_rng(seed).permutation(len(ds)) if shuffled else np.arange(len(ds))
        return dataclasses.replace(ds, **{f.name: getattr(ds, f.name)[rows] for f in dataclasses.fields(ds)})

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_vote_matches_the_per_trial_loop(self, monkeypatch, seed, shuffled):
        ds = self.two_segment_trials(seed, shuffled)
        rng = np.random.default_rng(seed)
        for idx in (rng.permutation(len(ds)), np.sort(rng.choice(len(ds), 37, replace=False))):
            preds = rng.integers(0, 2, len(idx))
            monkeypatch.setattr(train, "predict_labels", lambda *args: preds)
            got = train.evaluate(None, ds, idx, trial_vote=True)["trial_accuracy"]
            assert got == reference_trial_accuracy(ds, idx, preds)
        ties = np.bincount(ds.trial_of[idx], weights=2 * preds - 1, minlength=30) == 0
        assert ties.any()  # the last idx holds tied trials, and some single-segment ones

    def test_a_tied_trial_votes_class_0(self, monkeypatch):
        ds = self.two_segment_trials()
        monkeypatch.setattr(train, "predict_labels", lambda model, dataset, idx, eval_batch: np.arange(len(idx)) % 2)
        idx = np.arange(22)  # the first 11 trials, each voting once for either class
        stats = train.evaluate(None, ds, idx, trial_vote=True)
        assert stats["trial_accuracy"] == np.mean(ds.labels[idx[::2]] == 0) != np.mean(ds.labels[idx[::2]] == 1)

    def test_cv_trial_accuracies_match_the_per_trial_loop(self, monkeypatch):
        ds, seen = self.two_segment_trials(shuffled=True), []
        predict = train.predict_labels

        def recording(*args):
            seen.append((args[2], predict(*args)))
            return seen[-1][1]

        monkeypatch.setattr(train, "predict_labels", recording)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=2, trial_vote=True)
        report = train.cross_validate(OXY_SPEC, ds, k=3, config=cfg)
        assert report.trial_accuracies == [reference_trial_accuracy(ds, idx, preds) for idx, preds in seen]


class TestEvalChunks:
    """Held-out segments are evaluated in chunks of the run's batch size, never more."""

    def test_no_predict_call_sees_more_than_a_batch(self, monkeypatch):
        sizes = []
        predict = models.ModelGraph.predict

        def recording(self, inputs):
            sizes.append(len(inputs[0] if isinstance(inputs, tuple) else inputs))
            return predict(self, inputs)

        monkeypatch.setattr(models.ModelGraph, "predict", recording)
        ds = small_dataset(n_trials=60)
        for batch in (4, 16):
            sizes.clear()
            model = models.build_from_spec(PF3_DESK, seed=0)
            report = train.train(model, ds, (np.arange(10), np.arange(10, 60)), TrainConfig(epochs=1, batch_size=batch))
            assert report.n_test == 50 and sum(sizes) == 50
            assert max(sizes) == batch

    def test_evaluating_256_segments_holds_one_batch(self):
        # a chunk of 256 desk segments gathers an 82 MB EEG window matrix; one of 16, 5 MB
        import tracemalloc

        ds = small_dataset(n_trials=288)
        model = models.build_from_spec(DESK_EVAL_SPECS["TF"], seed=0)
        tracemalloc.start()
        try:
            report = train.train(model, ds, (np.arange(32), np.arange(32, 288)), TrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_test == 256
        assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("name", list(DESK_EVAL_SPECS))
    def test_predictions_match_256_chunks(self, name):
        ds = small_dataset(generator="interaction", n_trials=340)
        model = models.build_from_spec(DESK_EVAL_SPECS[name], seed=3)
        train.train(model, ds, (np.arange(40), np.arange(0)), TrainConfig(epochs=2, batch_size=8))
        idx = np.arange(40, 340)
        assert np.array_equal(train.predict_labels(model, ds, idx), predict_labels_in_256_chunks(model, ds, idx))
        # logits move by a few ulp at most: BLAS blocks a product by its shape
        small, large = (np.concatenate([model.forward(train._model_inputs(model, ds, idx[s:s + n]))
                                        for s in range(0, len(idx), n)]) for n in (16, 256))
        assert np.max(np.abs(small - large)) <= 1e-12 * np.max(np.abs(large))


@pytest.mark.skipif(train.blas_threads() is None, reason="no OpenBLAS thread setter in this process")
class TestFoldBlasThreads:
    """Every cv fold runs on one BLAS thread; serial cv gives the caller's count back."""

    @staticmethod
    def recording_train(monkeypatch, tmp_path, fail=False):
        # each fold writes the count it reads to a file: a pool worker's lists die with it
        inner = train._train

        def recording(model, dataset, split, config, fingerprint, fold):
            (tmp_path / f"fold-{fold}-{os.getpid()}").write_text(str(train.blas_threads()))
            if fail:
                raise RuntimeError("fold failed")
            return inner(model, dataset, split, config, fingerprint, fold)

        monkeypatch.setattr(train, "_train", recording)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_fold_reads_one_thread(self, monkeypatch, tmp_path, jobs):
        self.recording_train(monkeypatch, tmp_path)
        caller = train.blas_threads(2)
        train.cross_validate(OXY_SPEC, small_dataset(n_trials=12), k=3,
                             config=TrainConfig(epochs=1, batch_size=8), jobs=jobs)
        reads = sorted(p.name.split("-")[1] + ":" + p.read_text() for p in tmp_path.iterdir())
        assert reads == ["0:1", "1:1", "2:1"]
        pids = {p.name.split("-")[2] for p in tmp_path.iterdir()}
        assert (str(os.getpid()) in pids) == (jobs == 1)
        assert train.blas_threads() == caller

    def test_serial_cv_restores_the_count_when_a_fold_raises(self, monkeypatch, tmp_path):
        self.recording_train(monkeypatch, tmp_path, fail=True)
        caller = train.blas_threads(2)
        with pytest.raises(RuntimeError, match="fold failed"):
            train.cross_validate(OXY_SPEC, small_dataset(n_trials=12), k=3,
                                 config=TrainConfig(epochs=1, batch_size=8), jobs=1)
        assert [p.read_text() for p in tmp_path.iterdir()] == ["1"]
        assert train.blas_threads() == caller

    def test_train_keeps_the_callers_count(self, monkeypatch, tmp_path):
        self.recording_train(monkeypatch, tmp_path)
        caller = train.blas_threads(2)
        model = models.build_from_spec(OXY_SPEC, seed=0)
        train.train(model, small_dataset(n_trials=12), (np.arange(8), np.arange(8, 12)),
                    TrainConfig(epochs=1, batch_size=4))
        assert [p.read_text() for p in tmp_path.iterdir()] == [str(caller)]
        assert train.blas_threads() == caller
