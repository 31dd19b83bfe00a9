"""Windowing, synthetic generators, fold plans and manifest validation."""

import copy
import gc
import json
import os
import re
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifuse import data
from trifuse.data import (EEG_CHANNELS, EEG_SR, EEG_WINDOW, NIRS_CHANNELS, NIRS_SR, NIRS_WINDOW, OFFSETS,
                          REST_BEFORE, SPAN_AFTER)
from trifuse.tensor import save_tensor


def make_trial(trial_id=0, label=0, subject="s00", onset=2000, seed=0,
               eeg_len=7000, nirs_len=350):
    rng = np.random.default_rng(seed)
    return data.TrialRecording(
        trial_id=trial_id, subject=subject, task="MI", label=label,
        eeg=rng.normal(size=(30, eeg_len)), oxy=rng.normal(size=(36, nirs_len)),
        deoxy=rng.normal(size=(36, nirs_len)), onset_sample=onset,
    )


def tiny_dataset(n_trials=20, segments_per_trial=1, n_subjects=1, seed=0):
    """Small-array stand-in dataset for fold logic (not model input)."""
    rng = np.random.default_rng(seed)
    n = n_trials * segments_per_trial
    labels = np.repeat(np.arange(n_trials) % 2, segments_per_trial)
    return data.SegmentDataset(
        eeg=rng.normal(size=(n, 2, 4)), oxy=rng.normal(size=(n, 2, 3)),
        deoxy=rng.normal(size=(n, 2, 3)), labels=labels.astype(np.int64),
        trial_ids=np.repeat(np.arange(n_trials), segments_per_trial),
        offsets=np.tile(np.arange(segments_per_trial), n_trials),
        subjects=np.repeat(np.array([f"s{t % n_subjects:02d}" for t in range(n_trials)]),
                           segments_per_trial),
    )


class TestSegmentTrial:
    def test_thirty_three_segments(self):
        ds = data.segment_trials([make_trial()])
        assert len(ds) == 33
        assert ds.offsets.tolist() == list(range(-10, 23))

    def test_window_sample_ranges(self):
        rec = make_trial()
        ds = data.segment_trials([rec])
        # first window covers -10s..-7s, last covers 22s..25s
        assert np.array_equal(ds.eeg[0], rec.eeg[:, 0:600])
        assert np.array_equal(ds.eeg[-1], rec.eeg[:, 6400:7000])
        assert np.array_equal(ds.oxy[0], rec.oxy[:, 0:30])
        assert np.array_equal(ds.deoxy[-1], rec.deoxy[:, 320:350])

    def test_segment_shapes(self):
        ds = data.segment_trials([make_trial()])
        assert ds.eeg.shape == (33, 30, 600)
        assert ds.oxy.shape == (33, 36, 30)
        assert ds.deoxy.shape == (33, 36, 30)

    def test_constant_recording_gives_identical_segments(self):
        rec = make_trial()
        rec.eeg[:] = 1.5
        rec.oxy[:] = -0.5
        rec.deoxy[:] = 2.0
        ds = data.segment_trials([rec])
        for i in range(1, 33):
            assert np.array_equal(ds.eeg[i], ds.eeg[0])
            assert np.array_equal(ds.oxy[i], ds.oxy[0])

    def test_short_recording_reports_missing_span(self):
        rec = make_trial(eeg_len=6000)  # 5s short at the tail
        with pytest.raises(data.DataError, match="missing 0.00s before, 5.00s after"):
            data.segment_trials([rec])

    def test_onset_too_early(self):
        rec = make_trial(onset=1000)
        with pytest.raises(data.DataError, match="before"):
            data.segment_trials([rec])

    def test_channel_count_checked(self):
        rec = make_trial()
        rec = data.TrialRecording(rec.trial_id, rec.subject, rec.task, rec.label,
                                  rec.eeg[:29], rec.oxy, rec.deoxy, rec.onset_sample)
        with pytest.raises(data.DataError, match="EEG"):
            data.segment_trials([rec])

    def test_onset_alignment_checked(self):
        rec = make_trial(onset=2001)
        with pytest.raises(data.DataError, match="divisible"):
            data.segment_trials([rec])


# ---------------------------------------------------------------------------
# segment_trials against the per-window path it replaced (copied verbatim,
# renamed old_*)

@dataclass
class OldModalSegment:
    x1: np.ndarray  # EEG   [30, 600]
    x2: np.ndarray  # oxy   [36, 30]
    x3: np.ndarray  # deoxy [36, 30]
    label: int
    offset: int  # window left edge in seconds relative to onset
    trial_id: int
    subject: str


def old_segments_to_dataset(segments: list[OldModalSegment], planted: np.ndarray | None = None) -> data.SegmentDataset:
    return data.SegmentDataset(
        eeg=np.stack([s.x1 for s in segments]),
        oxy=np.stack([s.x2 for s in segments]),
        deoxy=np.stack([s.x3 for s in segments]),
        labels=np.array([s.label for s in segments], dtype=np.int64),
        trial_ids=np.array([s.trial_id for s in segments], dtype=np.int64),
        offsets=np.array([s.offset for s in segments], dtype=np.int64),
        subjects=np.array([s.subject for s in segments]),
        planted=planted,
    )


def old_segment_trial(rec: data.TrialRecording) -> list[OldModalSegment]:
    """Cut one 35 s recording into 33 overlapping 3 s segments."""
    problems = []
    if rec.eeg.ndim != 2 or rec.eeg.shape[0] != EEG_CHANNELS:
        problems.append(f"trial {rec.trial_id}: EEG must be [{EEG_CHANNELS}, time], got {rec.eeg.shape}")
    for name, arr in (("oxy", rec.oxy), ("deoxy", rec.deoxy)):
        if arr.ndim != 2 or arr.shape[0] != NIRS_CHANNELS:
            problems.append(f"trial {rec.trial_id}: {name} must be [{NIRS_CHANNELS}, time], got {arr.shape}")
    if rec.label not in (0, 1):
        problems.append(f"trial {rec.trial_id}: label must be 0 or 1, got {rec.label}")
    if rec.onset_sample % (EEG_SR // NIRS_SR) != 0:
        problems.append(
            f"trial {rec.trial_id}: onset_sample {rec.onset_sample} not divisible by {EEG_SR // NIRS_SR}; "
            f"EEG and NIRS clocks cannot align"
        )
    if problems:
        raise data.DataError("; ".join(problems))

    t0 = rec.onset_sample
    eeg_start, eeg_end = t0 - REST_BEFORE * EEG_SR, t0 + SPAN_AFTER * EEG_SR
    if eeg_start < 0 or eeg_end > rec.eeg.shape[1]:
        missing_before = max(0, -eeg_start) / EEG_SR
        missing_after = max(0, eeg_end - rec.eeg.shape[1]) / EEG_SR
        raise data.DataError(
            f"trial {rec.trial_id}: EEG does not cover -{REST_BEFORE}s..+{SPAN_AFTER}s around onset "
            f"(missing {missing_before:.2f}s before, {missing_after:.2f}s after)"
        )
    t0_n = t0 * NIRS_SR // EEG_SR
    nirs_start, nirs_end = t0_n - REST_BEFORE * NIRS_SR, t0_n + SPAN_AFTER * NIRS_SR
    for name, arr in (("oxy", rec.oxy), ("deoxy", rec.deoxy)):
        if nirs_start < 0 or nirs_end > arr.shape[1]:
            missing_before = max(0, -nirs_start) / NIRS_SR
            missing_after = max(0, nirs_end - arr.shape[1]) / NIRS_SR
            raise data.DataError(
                f"trial {rec.trial_id}: {name} does not cover the 35s span "
                f"(missing {missing_before:.2f}s before, {missing_after:.2f}s after)"
            )

    segments = []
    for off in OFFSETS:
        e0 = t0 + off * EEG_SR
        n0 = t0_n + off * NIRS_SR
        segments.append(OldModalSegment(
            x1=np.array(rec.eeg[:, e0:e0 + EEG_WINDOW]),
            x2=np.array(rec.oxy[:, n0:n0 + NIRS_WINDOW]),
            x3=np.array(rec.deoxy[:, n0:n0 + NIRS_WINDOW]),
            label=int(rec.label), offset=off, trial_id=int(rec.trial_id), subject=str(rec.subject),
        ))
    return segments


COLUMNS = ("eeg", "oxy", "deoxy", "labels", "trial_ids", "offsets", "subjects")


class TestSegmentTrialsMatchesPerWindowPath:
    def test_columns_and_metadata_equal(self):
        # mixed onsets (one NIRS sample apart), ids out of order, three subjects, both labels
        recs = [make_trial(trial_id=tid, label=lab, subject=subj, onset=onset, seed=tid,
                           eeg_len=7200, nirs_len=360)
                for tid, lab, subj, onset in [(7, 1, "s02", 2000), (3, 0, "s00", 2020), (11, 1, "s01", 2180),
                                              (0, 0, "s02", 2100), (5, 0, "s00", 2200)]]
        new = data.segment_trials(recs)
        old = old_segments_to_dataset([s for rec in recs for s in old_segment_trial(rec)])
        for name in COLUMNS:
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert new.planted is None

    def test_every_bad_trial_named_in_one_error(self):
        good = make_trial(trial_id=0)
        short = make_trial(trial_id=1, eeg_len=6000)
        misaligned = make_trial(trial_id=2, onset=2001)
        narrow = make_trial(trial_id=3, nirs_len=340)
        with pytest.raises(data.DataError) as err:
            data.segment_trials([good, short, misaligned, narrow])
        want = []
        for rec in (short, misaligned, narrow):
            with pytest.raises(data.DataError) as old_err:
                old_segment_trial(rec)
            want.append(str(old_err.value))
        assert str(err.value) == "; ".join(want)
        assert "oxy does not cover the 35s span (missing 0.00s before, 1.00s after)" in str(err.value)


class TestSynth:
    def test_deterministic_bytes(self):
        spec = data.SynthSpec("interaction", n_trials=12, noise=0.2)
        a = data.synth_dataset(spec, seed=9)
        b = data.synth_dataset(spec, seed=9)
        assert a.eeg.tobytes() == b.eeg.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        spec = data.SynthSpec("interaction", n_trials=12)
        a = data.synth_dataset(spec, seed=1)
        b = data.synth_dataset(spec, seed=2)
        assert a.eeg.tobytes() != b.eeg.tobytes()

    def test_interaction_label_is_sign_of_product(self):
        spec = data.SynthSpec("interaction", n_trials=40, noise=0.0)
        ds = data.synth_dataset(spec, seed=3)
        prod = np.prod(ds.planted, axis=1)
        assert np.array_equal(ds.labels, (prod > 0).astype(np.int64))

    def test_balanced_classes(self):
        for n in (10, 11):
            ds = data.synth_dataset(data.SynthSpec("additive", n_trials=n), seed=0)
            counts = np.bincount(ds.labels, minlength=2)
            assert abs(counts[0] - counts[1]) <= 1

    def test_contract_shapes(self):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=4, segments_per_trial=2), seed=0)
        assert ds.eeg.shape == (8, 30, 600)
        assert ds.oxy.shape == (8, 36, 30)
        assert ds.deoxy.shape == (8, 36, 30)

    def test_additive_noiseless_linear_probe_is_perfect(self):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=60, noise=0.0), seed=4)
        half = 40
        for modality in ("eeg", "oxy", "deoxy"):
            pooled = getattr(ds, modality).mean(axis=2)  # [n, channels]
            x_train, y_train = pooled[:half], 2.0 * ds.labels[:half] - 1.0
            coef, *_ = np.linalg.lstsq(x_train, y_train, rcond=None)
            preds = (pooled[half:] @ coef > 0).astype(np.int64)
            assert np.array_equal(preds, ds.labels[half:])

    def test_interaction_pairwise_marginals_uninformative(self):
        # over 10,000 draws each single amplitude is uncorrelated with the label
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=10_000)
        amps = data.plant_amplitudes("interaction", labels, rng)
        for m in range(3):
            assert abs(np.corrcoef(labels, amps[:, m])[0, 1]) < 0.05

    def test_invalid_spec_fields(self):
        with pytest.raises(data.DataError):
            data.SynthSpec("fancy", n_trials=10).validate()
        with pytest.raises(data.DataError):
            data.SynthSpec("additive", n_trials=10, noise=-1.0).validate()
        with pytest.raises(data.DataError):
            data.SynthSpec("additive", n_trials=10, segments_per_trial=40).validate()


class TestFolds:
    def test_sixty_trials_split_evenly(self):
        ds = tiny_dataset(n_trials=60, segments_per_trial=33)
        plan = data.make_folds(ds, k=5, seed=0)
        sizes = np.bincount(plan, minlength=5)
        assert np.array_equal(sizes, [12] * 5)
        for fold in range(5):
            _, test_idx = data.fold_indices(ds, plan, fold)
            assert len(test_idx) == 12 * 33

    def test_partition_covers_each_segment_once(self):
        ds = tiny_dataset(n_trials=23, segments_per_trial=3)
        plan = data.make_folds(ds, k=5, seed=1)
        seen = np.zeros(len(ds), dtype=int)
        for fold in range(5):
            _, test_idx = data.fold_indices(ds, plan, fold)
            seen[test_idx] += 1
        assert np.array_equal(seen, np.ones(len(ds), dtype=int))

    def test_no_trial_straddles_folds(self):
        ds = tiny_dataset(n_trials=20, segments_per_trial=4)
        plan = data.make_folds(ds, k=4, seed=2)
        for fold in range(4):
            train_idx, test_idx = data.fold_indices(ds, plan, fold)
            assert not set(ds.trial_ids[train_idx]) & set(ds.trial_ids[test_idx])

    def test_same_seed_identical_different_seeds_differ(self):
        ds = tiny_dataset(n_trials=40)
        base = data.make_folds(ds, k=5, seed=7).tolist()
        assert data.make_folds(ds, k=5, seed=7).tolist() == base
        distinct = {json.dumps(data.make_folds(ds, k=5, seed=s).tolist()) for s in range(100)}
        assert len(distinct) >= 95

    def test_too_few_trials_per_class(self):
        ds = tiny_dataset(n_trials=8)
        with pytest.raises(data.DataError, match="class"):
            data.make_folds(ds, k=5, seed=0)

    def test_stratified_within_subject(self):
        ds = tiny_dataset(n_trials=40, n_subjects=4)
        plan = data.make_folds(ds, k=5, seed=3)
        trial_labels = ds.labels[ds.trial_first]
        for fold in range(5):
            counts = np.bincount(trial_labels[plan == fold], minlength=2)
            assert abs(counts[0] - counts[1]) <= 2


# The dict-based fold plan that make_folds and fold_indices replaced, kept
# verbatim as the reference they must match trial for trial.

@dataclass
class FoldPlan:
    k: int
    assignment: dict[int, int]  # trial_id -> fold

    def fold_of(self, trial_id: int) -> int:
        return self.assignment[int(trial_id)]


def reference_trials(self) -> list[tuple[int, str, int]]:
    """(trial_id, subject, label) per distinct trial, in id order."""
    seen: dict[int, tuple[int, str, int]] = {}
    for tid, subj, lab in zip(self.trial_ids, self.subjects, self.labels):
        tid = int(tid)
        if tid not in seen:
            seen[tid] = (tid, str(subj), int(lab))
    return [seen[t] for t in sorted(seen)]


def reference_make_folds(dataset, k: int = 5, seed: int = 0) -> FoldPlan:
    """Trial-level stratified partition; all segments of a trial share a fold."""
    trials = reference_trials(dataset)
    per_class: dict[int, int] = {}
    for _, _, lab in trials:
        per_class[lab] = per_class.get(lab, 0) + 1
    for lab, count in sorted(per_class.items()):
        if count < k:
            raise data.DataError(f"class {lab} has only {count} trials, need at least {k} for {k} folds")

    rng = np.random.default_rng(seed)
    groups: dict[tuple[str, int], list[int]] = {}
    for tid, subj, lab in trials:
        groups.setdefault((subj, lab), []).append(tid)

    assignment: dict[int, int] = {}
    loads = np.zeros(k, dtype=np.int64)
    for key in sorted(groups):
        tids = sorted(groups[key])
        rng.shuffle(tids)
        start = int(np.argmin(loads))
        for j, tid in enumerate(tids):
            fold = (start + j) % k
            assignment[tid] = fold
            loads[fold] += 1
    return FoldPlan(k=k, assignment=assignment)


def reference_fold_indices(dataset, plan: FoldPlan, fold: int) -> tuple[np.ndarray, np.ndarray]:
    """(train segment indices, test segment indices) for one held-out fold."""
    fold_of = np.array([plan.fold_of(t) for t in dataset.trial_ids])
    test = np.nonzero(fold_of == fold)[0]
    train = np.nonzero(fold_of != fold)[0]
    return train, test


def grid_dataset(n_trials, segments_per_trial, n_subjects, ids, shuffled, seed):
    """A fold-logic dataset with random labels; ``ids`` names the trial ids'
    scheme and ``shuffled`` interleaves the trials' rows."""
    rng = np.random.default_rng(seed)
    tids = {"range": np.arange(n_trials), "times7": np.arange(n_trials) * 7 % 1000,
            "descending": 10**12 - np.arange(n_trials) * 7 % 1000}[ids]
    ds = tiny_dataset(n_trials, segments_per_trial, n_subjects, seed)
    cols = {f.name: getattr(ds, f.name) for f in fields(ds)}
    cols["labels"] = np.repeat(rng.integers(0, 2, n_trials), segments_per_trial)
    cols["trial_ids"] = np.repeat(tids, segments_per_trial)
    rows = rng.permutation(len(ds)) if shuffled else np.arange(len(ds))
    return data.SegmentDataset(**{k: None if v is None else v[rows] for k, v in cols.items()})


class TestFoldsMatchTheDictPlan:
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("segments_per_trial", [1, 4])
    @pytest.mark.parametrize("n_subjects", [1, 3, 5])
    @pytest.mark.parametrize("ids", ["range", "times7", "descending"])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_same_folds_and_indices(self, k, segments_per_trial, n_subjects, ids, shuffled):
        ds = grid_dataset(150, segments_per_trial, n_subjects, ids, shuffled, seed=k + n_subjects)
        reference = reference_make_folds(ds, k=k, seed=11)
        plan = data.make_folds(ds, k=k, seed=11)
        assert plan.dtype == np.int64
        assert plan.tolist() == [reference.fold_of(t) for t, _, _ in reference_trials(ds)]
        for fold in range(k):
            for got, want in zip(data.fold_indices(ds, plan, fold), reference_fold_indices(ds, reference, fold)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("labels", [[0] * 6 + [1] * 4, [1] * 10, [0] * 2 + [1] * 8])
    def test_the_class_check_counts_the_classes_present(self, labels):
        ds = tiny_dataset(n_trials=10)
        ds = data.SegmentDataset(ds.eeg, ds.oxy, ds.deoxy, np.array(labels), ds.trial_ids, ds.offsets, ds.subjects)
        try:
            reference_make_folds(ds, k=5, seed=0)
        except data.DataError as exc:
            with pytest.raises(data.DataError, match=f"^{re.escape(str(exc))}$"):
                data.make_folds(ds, k=5, seed=0)
        else:
            reference = reference_make_folds(ds, k=5, seed=0)
            assert data.make_folds(ds, k=5, seed=0).tolist() == [reference.fold_of(t) for t in range(10)]


class TestManifests:
    def test_segments_roundtrip(self, tmp_path):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=6), seed=6)
        data.save_segments_manifest(ds, tmp_path)
        back = data.load_manifest(tmp_path)
        assert back.eeg.tobytes() == ds.eeg.tobytes()
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.trial_ids, ds.trial_ids)

    def test_trials_roundtrip_segments_each_trial(self, tmp_path):
        trials = [make_trial(trial_id=i, label=i % 2, seed=i) for i in range(2)]
        data.save_trials_manifest(trials, tmp_path)
        ds = data.load_manifest(tmp_path)
        assert len(ds) == 66
        assert sorted(set(ds.offsets.tolist())) == list(range(-10, 23))

    def test_all_violations_enumerated(self, tmp_path):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=7)
        data.save_segments_manifest(ds, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["segments"][0]["label"] = 7  # unknown label
        doc["arrays"]["oxy"] = "missing.ten"  # missing file
        save_tensor(tmp_path / "eeg.ten", np.zeros((4, 30, 599)))  # shape mismatch
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(data.ManifestError) as err:
            data.load_manifest(tmp_path)
        problems = "\n".join(err.value.problems)
        assert "unknown label 7" in problems
        assert "missing.ten does not exist" in problems
        assert "eeg has shape (4, 30, 599)" in problems
        assert len(err.value.problems) >= 3

    def test_duplicate_trial_ids_reported(self, tmp_path):
        trials = [make_trial(trial_id=1, seed=0), make_trial(trial_id=1, seed=1)]
        data.save_trials_manifest(trials, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        # the writer picked distinct file names but both entries claim id 1
        assert all(e["trial_id"] == 1 for e in doc["trials"])
        with pytest.raises(data.ManifestError, match="duplicate trial_id"):
            data.load_manifest(tmp_path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_segments_payload_rejected(self, tmp_path, bad):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=7)
        ds.oxy[3, 5, 7] = bad
        data.save_segments_manifest(ds, tmp_path)
        with pytest.raises(data.ManifestError) as err:
            data.load_manifest(tmp_path)
        assert err.value.problems == ["arrays: file oxy.ten holds non-finite values"]

    def test_non_finite_trials_payload_rejected(self, tmp_path):
        trials = [make_trial(trial_id=i, label=i % 2, seed=i) for i in range(2)]
        trials[1].eeg[0, 0] = np.nan
        data.save_trials_manifest(trials, tmp_path)
        with pytest.raises(data.ManifestError, match="trial0001_eeg.ten holds non-finite values"):
            data.load_manifest(tmp_path)

    def test_finite_payload_whose_sum_overflows_loads(self, tmp_path):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=7)
        ds.eeg[:] = np.finfo(np.float64).max
        data.save_segments_manifest(ds, tmp_path)
        assert np.array_equal(data.load_manifest(tmp_path).eeg, ds.eeg)

    def test_unknown_kind(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(data.ManifestError, match="unknown manifest kind"):
            data.load_manifest(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(data.ManifestError, match="does not exist"):
            data.load_manifest(tmp_path / "nope")


class TestOneLabelPerTrial:
    @staticmethod
    def columns(ds: data.SegmentDataset) -> dict:
        return {f.name: getattr(ds, f.name) for f in fields(ds)}

    @pytest.mark.parametrize("column, value", [("labels", 0), ("subjects", "s09")])
    def test_a_trial_of_two_is_refused(self, column, value):
        cols = self.columns(tiny_dataset(n_trials=6, segments_per_trial=3, n_subjects=2))
        cols[column] = cols[column].copy()
        cols[column][4] = value  # trial 1 holds rows 3..5 and label 1, subject s01
        with pytest.raises(data.DataError, match="^trial 1 has segments of more than one label or subject$"):
            data.SegmentDataset(**cols)

    def test_interleaved_rows_of_consistent_trials_are_accepted(self):
        cols = self.columns(tiny_dataset(n_trials=6, segments_per_trial=3, n_subjects=2))
        rows = np.random.default_rng(0).permutation(len(cols["labels"]))
        ds = data.SegmentDataset(**{k: None if v is None else v[rows] for k, v in cols.items()})
        assert len(ds.trial_first) == 6
        assert np.array_equal(ds.trial_ids[ds.trial_first], np.arange(6))
        first_rows = [np.flatnonzero(ds.trial_ids == t)[0] for t in ds.trial_ids]
        assert np.array_equal(ds.trial_first[ds.trial_of], first_rows)

    def test_segments_manifest_is_refused_naming_the_trial(self, tmp_path):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=4, segments_per_trial=2, n_subjects=2), seed=3)
        data.save_segments_manifest(ds, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["segments"][1]["label"] = 1 - doc["segments"][1]["label"]
        doc["segments"][3]["subject"] = "s07"
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(data.ManifestError) as err:
            data.load_manifest(tmp_path)
        assert err.value.problems == ["trial 0 has segments of more than one label or subject"]


class TestManifestPayloads:
    def test_segments_and_trials_payloads(self, tmp_path):
        data.save_segments_manifest(data.synth_dataset(data.SynthSpec("additive", n_trials=2), seed=3), tmp_path / "s")
        data.save_trials_manifest([make_trial(trial_id=i, seed=i) for i in range(2)], tmp_path / "t")
        assert data.manifest_payloads(tmp_path / "s") == [str(tmp_path / "s" / f"{m}.ten") for m in data.MODALITIES]
        assert data.manifest_payloads(tmp_path / "t" / "manifest.json") == [
            str(tmp_path / "t" / f"trial{i:04d}_{m}.ten") for i in range(2) for m in data.MODALITIES]

    @pytest.mark.parametrize("text", ["[1]", "{", '{"kind": "trials", "trials": 5}',
                                      '{"kind": "segments", "arrays": [1]}', '{"kind": "trials", "trials": [1, {}]}'])
    def test_an_unreadable_manifest_names_none(self, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text)
        assert data.manifest_payloads(tmp_path) == []
        assert data.manifest_payloads(tmp_path / "missing") == []


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestMappedSegments:
    """A segments manifest's payloads are mapped: read-only columns, each one
    descriptor held until the dataset is freed."""

    def test_columns_are_read_only_and_gathers_fresh_copies(self, tmp_path):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=6), seed=6)
        data.save_segments_manifest(ds, tmp_path)
        back = data.load_manifest(tmp_path)
        for name in ("eeg", "oxy", "deoxy"):
            col = getattr(back, name)
            assert not col.flags["WRITEABLE"]
            with pytest.raises(ValueError):
                col[0, 0, 0] = 1.0
            batch = col[np.array([4, 1, 2])]
            assert batch.flags["WRITEABLE"] and batch.flags["ALIGNED"] and batch.flags["C_CONTIGUOUS"]
            assert batch.tobytes() == getattr(ds, name)[[4, 1, 2]].tobytes()

    def test_resaving_a_loaded_set_over_itself_changes_no_byte(self, tmp_path):
        data.save_segments_manifest(data.synth_dataset(data.SynthSpec("additive", n_trials=6), seed=6), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        data.save_segments_manifest(data.load_manifest(tmp_path), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert not [p for p in os.listdir(tmp_path) if ".tmp-" in p]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd (Linux)")
    def test_a_loaded_set_holds_three_descriptors_until_freed(self, tmp_path):
        data.save_segments_manifest(data.synth_dataset(data.SynthSpec("additive", n_trials=6), seed=6), tmp_path)
        gc.collect()
        before = _fd_count()
        ds = data.load_manifest(tmp_path)
        assert _fd_count() == before + 3
        del ds
        gc.collect()
        assert _fd_count() == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd (Linux)")
    def test_a_loaded_trials_set_holds_no_descriptor(self, tmp_path, monkeypatch):
        # trial payloads are read: when segment_trials runs, every trial is loaded at
        # once, and a mapping per file would hold a descriptor per file
        data.save_trials_manifest([make_trial(trial_id=i, label=i % 2, seed=i) for i in range(2)], tmp_path)
        held = []
        segment_trials = data.segment_trials
        monkeypatch.setattr(data, "segment_trials", lambda recs: held.append(_fd_count()) or segment_trials(recs))
        gc.collect()
        before = _fd_count()
        ds = data.load_manifest(tmp_path)
        assert held == [before] and _fd_count() == before and ds.eeg.flags["WRITEABLE"]


def _fifo_in_place_of(path) -> None:
    os.remove(path)
    os.mkfifo(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
class TestNonRegularFiles:
    """A FIFO would block the open until some writer appears: it is refused
    as one problem before anything opens it."""

    @pytest.mark.parametrize("name", ["manifest.json", "oxy.ten"])
    def test_fifo_in_a_segments_manifest(self, tmp_path, fails_before_hanging, name):
        data.save_segments_manifest(data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=7), tmp_path)
        _fifo_in_place_of(tmp_path / name)
        with pytest.raises(data.ManifestError) as err:
            data.load_manifest(tmp_path)
        want = {"manifest.json": f"manifest {tmp_path / name} is not a regular file",
                "oxy.ten": "arrays: file oxy.ten is not a regular file"}[name]
        assert err.value.problems == [want]

    def test_fifo_in_a_trials_manifest(self, tmp_path, fails_before_hanging):
        data.save_trials_manifest([make_trial(trial_id=i, label=i % 2, seed=i) for i in range(2)], tmp_path)
        _fifo_in_place_of(tmp_path / "trial0001_deoxy.ten")
        with pytest.raises(data.ManifestError) as err:
            data.load_manifest(tmp_path)
        assert err.value.problems == ["trial entry 1: file trial0001_deoxy.ten is not a regular file"]

    def test_directory_in_place_of_a_payload(self, tmp_path):
        data.save_segments_manifest(data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=7), tmp_path)
        os.remove(tmp_path / "eeg.ten")
        os.mkdir(tmp_path / "eeg.ten")
        with pytest.raises(data.ManifestError) as err:
            data.load_manifest(tmp_path)
        assert err.value.problems == ["arrays: file eeg.ten is not a regular file"]


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every location in a JSON document, as a key/index path from the root."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value, delete: bool):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def manifest_docs(tmp_path_factory):
    """A valid segments manifest and a valid trials manifest on disk."""
    segs = tmp_path_factory.mktemp("segments")
    data.save_segments_manifest(data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=3), segs)
    trials = tmp_path_factory.mktemp("trials")
    data.save_trials_manifest([make_trial(trial_id=i, label=i % 2, seed=i) for i in range(2)], trials)
    return {d: json.loads((d / "manifest.json").read_text()) for d in (segs, trials)}


class TestManifestEntryTypes:
    @pytest.mark.parametrize("mutate, words", [
        (lambda doc: doc["segments"][1].update(trial_id="abc"), "segment 1: trial_id must be an integer"),
        (lambda doc: doc["segments"].__setitem__(2, None), "segment 2: entry must be an object"),
        (lambda doc: doc.update(arrays=[]), "arrays must be a JSON object"),
        (lambda doc: doc["segments"][0].update(offset=1.5), "segment 0: offset must be an integer"),
        (lambda doc: doc["segments"][3].update(subject=7), "segment 3: subject must be a string"),
        (lambda doc: doc["segments"][0].update(trial_id=2**63), "trial_id must be an integer"),
        (lambda doc: doc.update(segments={}), "segments must be a JSON array"),
        (lambda doc: doc["segments"][1].pop("trial_id"), "segment 1: missing trial_id"),
        (lambda doc: doc["segments"][2].pop("offset"), "segment 2: missing offset"),
        (lambda doc: doc["segments"][0].pop("subject"), "segment 0: missing subject"),
        (lambda doc: doc["segments"][3].pop("label"), "segment 3: missing label"),
    ], ids=["trial-id-string", "null-entry", "arrays-list", "offset-float", "subject-int",
            "trial-id-over-int64", "segments-object", "trial-id-missing", "offset-missing",
            "subject-missing", "label-missing"])
    def test_segments_entry_types(self, tmp_path, mutate, words):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=7)
        data.save_segments_manifest(ds, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        mutate(doc)
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(data.ManifestError, match=words) as err:
            data.load_manifest(tmp_path)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("mutate, words", [
        (lambda doc: doc["trials"].__setitem__(0, None), "trial entry 0: entry must be an object"),
        (lambda doc: doc["trials"][1].update(trial_id="abc"), "trial entry 1: trial_id must be an integer"),
        (lambda doc: doc["trials"][0].update(onset_sample="2000"), "onset_sample must be an integer"),
        (lambda doc: doc["trials"][1].update(subject=None), "subject must be a string"),
        (lambda doc: doc.update(trials="all"), "trials must be a JSON array"),
        (lambda doc: doc["trials"][1].pop("subject"), "trial entry 1: missing subject"),
        (lambda doc: doc["trials"][0].pop("onset_sample"), "trial entry 0: missing onset_sample"),
    ], ids=["null-entry", "trial-id-string", "onset-string", "subject-null", "trials-string",
            "subject-missing", "onset-missing"])
    def test_trials_entry_types(self, tmp_path, mutate, words):
        data.save_trials_manifest([make_trial(trial_id=i, label=i % 2, seed=i) for i in range(2)], tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        mutate(doc)
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(data.ManifestError, match=words):
            data.load_manifest(tmp_path)

    def test_every_violation_collected_on_one_line(self, tmp_path):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=7)
        data.save_segments_manifest(ds, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["segments"][0] = None
        doc["segments"][1]["trial_id"] = "abc"
        doc["segments"][2]["label"] = 9
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(data.ManifestError) as err:
            data.load_manifest(tmp_path)
        assert len(err.value.problems) == 3
        assert str(err.value) == "manifest validation failed: " + "; ".join(err.value.problems)

    def test_each_missing_field_is_one_problem(self, tmp_path):
        ds = data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=7)
        data.save_segments_manifest(ds, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["segments"][2] = {}
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(data.ManifestError) as err:
            data.load_manifest(tmp_path)
        assert err.value.problems == [f"segment 2: missing {k}" for k in ("trial_id", "offset", "subject", "label")]

    def test_not_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(data.ManifestError, match="JSON object"):
            data.load_manifest(tmp_path)

    @settings(max_examples=300, deadline=None)
    @given(choice=st.data())
    def test_mutated_manifests_raise_only_manifest_error(self, manifest_docs, choice):
        base = choice.draw(st.sampled_from(sorted(manifest_docs)))
        doc = manifest_docs[base]
        path = choice.draw(st.sampled_from(list(_paths(doc))))
        delete = bool(path) and choice.draw(st.booleans())
        mutated = _mutated(doc, path, None if delete else choice.draw(JSON), delete)
        target = base / "mutated.json"
        target.write_text(json.dumps(mutated))
        try:
            ds = data.load_manifest(target)
        except data.ManifestError:
            return
        assert len(ds) == len(ds.labels)
