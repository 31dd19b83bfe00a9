"""Segment-level dataset handling: sliding-window segmentation of tri-modal
trial recordings, synthetic dataset generators, trial-disjoint folds, and
the manifest + binary tensor file format.

Converter contract for real recordings: EEG arrives re-referenced, filtered
and downsampled to 200 Hz as ``[30, time]``; oxy/deoxy NIRS arrive converted
to concentration changes and resampled to 10 Hz as ``[36, time]``. The task
onset is given as an EEG sample index divisible by 20 so both rates align.
Each trial must cover -10 s .. +25 s around onset; a 3 s window sliding in
1 s steps then yields 33 segments per trial with offsets -10 .. 22.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import file_problem, load_tensor, save_tensor

EEG_SR = 200
NIRS_SR = 10
EEG_CHANNELS = 30
NIRS_CHANNELS = 36
WINDOW_SECONDS = 3
STEP_SECONDS = 1
REST_BEFORE = 10  # seconds before onset
SPAN_AFTER = 25  # seconds after onset
TRIAL_SECONDS = REST_BEFORE + SPAN_AFTER  # 35
OFFSETS = tuple(range(-REST_BEFORE, SPAN_AFTER - WINDOW_SECONDS + 1))  # -10 .. 22
SEGMENTS_PER_TRIAL = len(OFFSETS)  # 33
EEG_WINDOW = WINDOW_SECONDS * EEG_SR  # 600
NIRS_WINDOW = WINDOW_SECONDS * NIRS_SR  # 30
TASKS = ("MI", "MA")
MODALITY_SHAPES = {
    "eeg": (EEG_CHANNELS, EEG_WINDOW),
    "oxy": (NIRS_CHANNELS, NIRS_WINDOW),
    "deoxy": (NIRS_CHANNELS, NIRS_WINDOW),
}
MODALITIES = tuple(MODALITY_SHAPES)


class DataError(ValueError):
    pass


class ManifestError(DataError):
    """Raised with every manifest violation listed, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("manifest validation failed: " + "; ".join(self.problems))

    def __reduce__(self):  # unpickling calls cls(*args): rebuild from the list, not the message
        return type(self), (self.problems,)


@dataclass
class TrialRecording:
    trial_id: int
    subject: str
    task: str
    label: int
    eeg: np.ndarray  # [30, time] at 200 Hz
    oxy: np.ndarray  # [36, time] at 10 Hz
    deoxy: np.ndarray  # [36, time] at 10 Hz
    onset_sample: int  # EEG sample index of task onset


@dataclass
class SegmentDataset:
    """Column-wise store of segments; immutable after construction. Loaded
    from a segments manifest, its modality columns are read-only maps of the
    manifest's files, and a gather such as ``eeg[idx]`` is a fresh copy.
    Building it sets ``trial_first`` and ``trial_of``, the one segment-to-trial
    map that folds, trial votes and label shuffles read."""

    eeg: np.ndarray  # [n, 30, 600]
    oxy: np.ndarray  # [n, 36, 30]
    deoxy: np.ndarray  # [n, 36, 30]
    labels: np.ndarray  # [n] in {0, 1}
    trial_ids: np.ndarray  # [n]
    offsets: np.ndarray  # [n]
    subjects: np.ndarray  # [n] str
    planted: np.ndarray | None = None  # [n, 3] synthetic per-modality amplitudes

    def __post_init__(self):
        n = len(self.labels)
        for name in (*MODALITIES, "trial_ids", "offsets", "subjects"):
            if len(getattr(self, name)) != n:
                raise DataError(f"dataset column {name} has length {len(getattr(self, name))}, expected {n}")
        if self.planted is not None and len(self.planted) != n:
            raise DataError("planted amplitudes length mismatch")
        # each trial's first row, in trial-id order, and each row's trial number
        ids, self.trial_first, self.trial_of = np.unique(self.trial_ids, return_index=True, return_inverse=True)
        first = self.trial_first[self.trial_of]
        bad = (self.labels != self.labels[first]) | (self.subjects != self.subjects[first])
        if bad.any():
            raise DataError(f"trial {ids[self.trial_of[bad].min()]} has segments of more than one label or subject")

    def __len__(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# sliding-window segmentation

# (name in messages, channel count, sample rate); the name lower-cased is the field
_MODALITIES = (("EEG", EEG_CHANNELS, EEG_SR), ("oxy", NIRS_CHANNELS, NIRS_SR), ("deoxy", NIRS_CHANNELS, NIRS_SR))


def _span_start(onset_sample: int, sr: int) -> int:
    """Index, at ``sr`` Hz, of the first sample of the span that opens 10 s before onset."""
    return onset_sample * sr // EEG_SR - REST_BEFORE * sr


def _trial_problem(rec: TrialRecording) -> str | None:
    """Why ``rec`` cannot be cut into 33 windows, or None when it can."""
    problems = []
    for name, channels, _ in _MODALITIES:
        arr = getattr(rec, name.lower())
        if arr.ndim != 2 or arr.shape[0] != channels:
            problems.append(f"trial {rec.trial_id}: {name} must be [{channels}, time], got {arr.shape}")
    if rec.label not in (0, 1):
        problems.append(f"trial {rec.trial_id}: label must be 0 or 1, got {rec.label}")
    if rec.onset_sample % (EEG_SR // NIRS_SR) != 0:
        problems.append(f"trial {rec.trial_id}: onset_sample {rec.onset_sample} not divisible by "
                        f"{EEG_SR // NIRS_SR}; EEG and NIRS clocks cannot align")
    if problems:
        return "; ".join(problems)
    for name, _, sr in _MODALITIES:
        length = getattr(rec, name.lower()).shape[1]
        start = _span_start(rec.onset_sample, sr)
        end = start + TRIAL_SECONDS * sr
        if start < 0 or end > length:
            span = f"-{REST_BEFORE}s..+{SPAN_AFTER}s around onset" if name == "EEG" else f"the {TRIAL_SECONDS}s span"
            return (f"trial {rec.trial_id}: {name} does not cover {span} "
                    f"(missing {max(0, -start) / sr:.2f}s before, {max(0, end - length) / sr:.2f}s after)")
    return None


def segment_trials(recordings: list[TrialRecording]) -> SegmentDataset:
    """Cut every 35 s recording into 33 overlapping 3 s windows, in order:
    recording i fills rows 33*i .. 33*i + 32. Each window is copied once,
    straight into its column; bad recordings raise one error naming each."""
    bad = [problem for rec in recordings if (problem := _trial_problem(rec)) is not None]
    if bad:
        raise DataError("; ".join(bad))
    n = len(recordings)
    cols = {}
    for name, _, sr in _MODALITIES:
        col = cols[name.lower()] = np.empty((n * SEGMENTS_PER_TRIAL,) + MODALITY_SHAPES[name.lower()])
        for i, rec in enumerate(recordings):
            start = _span_start(rec.onset_sample, sr)
            span = getattr(rec, name.lower())[:, start:start + TRIAL_SECONDS * sr]
            windows = sliding_window_view(span, WINDOW_SECONDS * sr, axis=1)[:, ::STEP_SECONDS * sr]
            col[i * SEGMENTS_PER_TRIAL:(i + 1) * SEGMENTS_PER_TRIAL] = windows.transpose(1, 0, 2)
    labels, trial_ids = (np.repeat(np.array([getattr(rec, k) for rec in recordings], dtype=np.int64),
                                   SEGMENTS_PER_TRIAL) for k in ("label", "trial_id"))
    return SegmentDataset(**cols, labels=labels, trial_ids=trial_ids,
                          offsets=np.tile(np.array(OFFSETS, dtype=np.int64), n),
                          subjects=np.repeat(np.array([str(rec.subject) for rec in recordings]), SEGMENTS_PER_TRIAL))


# ---------------------------------------------------------------------------
# synthetic datasets

GENERATORS = ("additive", "interaction")


@dataclass
class SynthSpec:
    """Description of a synthetic tri-modal segment dataset.

    ``additive`` plants the class sign independently in every modality, so a
    single-modality linear probe suffices. ``interaction`` makes the label the
    sign of the product of three per-modality amplitudes: every single
    modality and every pair is uninformative, only the three-way product
    carries the class.
    """

    generator: str
    n_trials: int
    segments_per_trial: int = 1
    noise: float = 0.1
    n_subjects: int = 1

    def validate(self):
        counts = (self.n_trials, self.segments_per_trial, self.n_subjects)
        if any(isinstance(v, bool) or not isinstance(v, int) for v in counts):
            raise DataError(f"n_trials, segments_per_trial and n_subjects must be integers, got {counts}")
        if isinstance(self.noise, bool) or not isinstance(self.noise, (int, float)) or not 0 <= self.noise < np.inf:
            raise DataError(f"noise must be a finite number >= 0, got {self.noise!r}")
        if self.generator not in GENERATORS:
            raise DataError(f"generator must be one of {GENERATORS}, got {self.generator!r}")
        if self.n_trials < 2:
            raise DataError("n_trials must be >= 2")
        if not 1 <= self.segments_per_trial <= SEGMENTS_PER_TRIAL:
            raise DataError(f"segments_per_trial must be in 1..{SEGMENTS_PER_TRIAL}")
        if self.n_subjects < 1 or self.n_subjects > self.n_trials:
            raise DataError("n_subjects must be in 1..n_trials")


def _patterns(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Per-modality channel patterns, constant over time, mixed signs."""
    out = {}
    for name, (ch, t) in MODALITY_SHAPES.items():
        coef = rng.uniform(0.5, 1.5, size=ch) * rng.choice([-1.0, 1.0], size=ch)
        out[name] = np.repeat(coef[:, None], t, axis=1)
    return out


def plant_amplitudes(generator: str, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-trial modality amplitudes [n, 3] realizing the generator's labels."""
    t_sign = 2.0 * labels - 1.0
    if generator == "additive":
        return np.repeat(t_sign[:, None], 3, axis=1)
    # parity construction: s3 forced so that sign(a1*a2*a3) matches the
    # class sign while each single amplitude stays uncorrelated with it
    n = len(labels)
    s1 = rng.choice([-1.0, 1.0], size=n)
    s2 = rng.choice([-1.0, 1.0], size=n)
    s3 = t_sign * s1 * s2
    mags = rng.uniform(0.8, 1.2, size=(n, 3))
    return np.stack([s1, s2, s3], axis=1) * mags


def synth_dataset(spec: SynthSpec, seed: int) -> SegmentDataset:
    """Deterministic synthetic dataset; classes balanced to within one trial."""
    spec.validate()
    ss = np.random.SeedSequence(seed)
    pattern_rng, trial_rng, noise_rng = (np.random.default_rng(c) for c in ss.spawn(3))
    patterns = _patterns(pattern_rng)

    n = spec.n_trials
    labels_trial = np.zeros(n, dtype=np.int64)
    labels_trial[: n // 2] = 1
    trial_rng.shuffle(labels_trial)
    amps = plant_amplitudes(spec.generator, labels_trial, trial_rng)

    n_segments = n * spec.segments_per_trial
    cols = {name: np.empty((n_segments,) + shape) for name, shape in MODALITY_SHAPES.items()}
    row = 0
    for trial in range(n):
        for _ in range(spec.segments_per_trial):
            for m, name in enumerate(MODALITIES):
                noise = noise_rng.standard_normal(MODALITY_SHAPES[name])
                cols[name][row] = amps[trial, m] * patterns[name] + spec.noise * noise
            row += 1

    per_trial = spec.segments_per_trial
    return SegmentDataset(
        **cols, labels=np.repeat(labels_trial, per_trial),
        trial_ids=np.repeat(np.arange(n, dtype=np.int64), per_trial),
        offsets=np.tile(np.arange(per_trial, dtype=np.int64), n),
        subjects=np.repeat(np.array([f"s{t % spec.n_subjects:02d}" for t in range(n)]), per_trial),
        planted=np.repeat(amps, per_trial, axis=0),
    )


# ---------------------------------------------------------------------------
# folds

def make_folds(dataset: SegmentDataset, k: int = 5, seed: int = 0) -> np.ndarray:
    """Each trial's fold, in trial-id order: ``folds[dataset.trial_of]`` is each
    segment's. Stratified by subject and label; all segments of a trial share a fold."""
    labels, subjects = dataset.labels[dataset.trial_first], dataset.subjects[dataset.trial_first]
    for lab, count in zip(*np.unique(labels, return_counts=True)):
        if count < k:
            raise DataError(f"class {lab} has only {count} trials, need at least {k} for {k} folds")

    rng = np.random.default_rng(seed)
    order = np.lexsort((labels, subjects))  # by (subject, label), then trial id
    labels, subjects = labels[order], subjects[order]
    starts = np.flatnonzero((labels[1:] != labels[:-1]) | (subjects[1:] != subjects[:-1])) + 1
    folds = np.empty(len(order), dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    for group in np.split(order, starts):
        rng.shuffle(group)
        folds[group] = (np.argmin(loads) + np.arange(len(group))) % k
        loads += np.bincount(folds[group], minlength=k)
    return folds


def fold_indices(dataset: SegmentDataset, folds: np.ndarray, fold: int) -> tuple[np.ndarray, np.ndarray]:
    """(train segment indices, test segment indices) for one held-out fold."""
    held = folds[dataset.trial_of] == fold
    return np.flatnonzero(~held), np.flatnonzero(held)


# ---------------------------------------------------------------------------
# manifests

MANIFEST_NAME = "manifest.json"
SEGMENT_ARRAYS = {m: f"{m}.ten" for m in MODALITIES}


def save_segments_manifest(dataset: SegmentDataset, outdir) -> str:
    """Write a segment dataset as stacked per-modality tensors plus metadata."""
    os.makedirs(outdir, exist_ok=True)
    for name, fname in SEGMENT_ARRAYS.items():
        save_tensor(os.path.join(outdir, fname), getattr(dataset, name))
    doc = {
        "kind": "segments",
        "version": 1,
        "arrays": SEGMENT_ARRAYS,
        "segments": [
            {"trial_id": int(t), "subject": str(s), "label": int(l), "offset": int(o)}
            for t, s, l, o in zip(dataset.trial_ids, dataset.subjects, dataset.labels, dataset.offsets)
        ],
    }
    path = os.path.join(outdir, MANIFEST_NAME)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def save_trials_manifest(trials: list[TrialRecording], outdir) -> str:
    """Write raw trial recordings plus a trials manifest."""
    os.makedirs(outdir, exist_ok=True)
    entries = []
    for rec in trials:
        base = f"trial{rec.trial_id:04d}"
        files = {m: f"{base}_{m}.ten" for m in MODALITIES}
        for m, fname in files.items():
            save_tensor(os.path.join(outdir, fname), getattr(rec, m))
        entries.append({
            "trial_id": int(rec.trial_id), "subject": str(rec.subject), "task": rec.task,
            "label": int(rec.label), "onset_sample": int(rec.onset_sample), **files,
        })
    doc = {"kind": "trials", "version": 1, "trials": entries}
    path = os.path.join(outdir, MANIFEST_NAME)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def _all_finite(arr: np.ndarray) -> bool:
    """One pass and no temporary: a NaN or inf makes the sum non-finite, and a
    finite array whose sum overflows gets the exact elementwise check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(arr.sum()) or np.isfinite(arr).all())


def _load_entry_tensor(base: str, entry: dict, key: str, problems: list[str], label: str, mapped: bool):
    rel = entry.get(key)
    if not isinstance(rel, str):
        problems.append(f"{label}: missing {key!r} file reference")
        return None
    path = os.path.join(base, rel)
    if (why := file_problem(path)) is not None:
        problems.append(f"{label}: file {rel} {why}")
        return None
    try:
        arr = load_tensor(path, mapped=mapped)
    except Exception as exc:
        problems.append(f"{label}: file {rel} unreadable ({exc})")
        return None
    if not _all_finite(arr):
        problems.append(f"{label}: file {rel} holds non-finite values")
        return None
    return arr


def _read_manifest(path) -> tuple[str, dict]:
    """The directory that a manifest's file references are relative to, and its document."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    if (why := file_problem(path)) is not None:
        raise ManifestError([f"manifest {path} {why}"])
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError([f"manifest is not valid JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ManifestError(["manifest must hold a JSON object"])
    return os.path.dirname(os.path.abspath(path)), doc


def load_manifest(path) -> SegmentDataset:
    """Load a trials or segments manifest; raises with every violation listed."""
    base, doc = _read_manifest(path)
    kind = doc.get("kind")
    if kind == "segments":
        dataset = _load_segments(base, doc)
        if not len(dataset):  # nothing to train or fold; refused here, before a run starts
            raise ManifestError([f"manifest {path} holds no segments"])
        return dataset
    if kind == "trials":
        return _load_trials(base, doc)
    raise ManifestError([f"unknown manifest kind {kind!r}"])


def manifest_payloads(path) -> list[str]:
    """The payload files that a trials or segments manifest names, as paths. A
    manifest that cannot be read names none: ``load_manifest`` says why."""
    try:
        base, doc = _read_manifest(path)
    except ManifestError:
        return []
    entries = [doc.get("arrays")] if doc.get("kind") == "segments" else doc.get("trials")
    if not isinstance(entries, list):
        return []
    return [os.path.join(base, entry[m]) for entry in entries if isinstance(entry, dict)
            for m in MODALITIES if isinstance(entry.get(m), str)]


def _entry_ok(entry, label: str, ints: tuple[str, ...], problems: list[str]) -> bool:
    """Whether a manifest entry is an object holding its ``ints`` fields as 64-bit
    integers, ``subject`` as a string and ``label`` as 0 or 1; problems are appended."""
    if not isinstance(entry, dict):
        problems.append(f"{label}: entry must be an object, got {entry!r}")
        return False
    wrong = [f"missing {k}" for k in (*ints, "subject", "label") if k not in entry]
    wrong += [f"{k} must be an integer, got {v!r}" for k in ints
              if k in entry and (type(v := entry[k]) is not int or not -2**63 <= v < 2**63)]
    if "subject" in entry and not isinstance(entry["subject"], str):
        wrong.append(f"subject must be a string, got {entry['subject']!r}")
    if "label" in entry and entry["label"] not in (0, 1):
        wrong.append(f"unknown label {entry['label']!r}")
    problems.extend(f"{label}: {what}" for what in wrong)
    return not wrong


def _field(doc: dict, key: str, kind: type, problems: list[str]):
    """``doc[key]``, or an empty ``kind`` when it is absent or (a problem) not a ``kind``."""
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        problems.append(f"{key} must be a JSON {'object' if kind is dict else 'array'}, got {value!r}")
        return kind()
    return value


def _load_segments(base: str, doc: dict) -> SegmentDataset:
    problems: list[str] = []
    refs = _field(doc, "arrays", dict, problems)
    # mapped, not read: _all_finite is then the one pass over each payload, and the
    # columns are read-only views of the files
    arrays = {name: _load_entry_tensor(base, refs, name, problems, "arrays", mapped=True)
              for name in MODALITIES}
    metas = _field(doc, "segments", list, problems)
    n = len(metas)
    for name, arr in arrays.items():
        if arr is None:
            continue
        want = (n,) + MODALITY_SHAPES[name]
        if arr.shape != want:
            problems.append(f"arrays: {name} has shape {arr.shape}, expected {want}")
    for i, meta in enumerate(metas):
        _entry_ok(meta, f"segment {i}", ("trial_id", "offset"), problems)
    if problems:
        raise ManifestError(problems)
    labels, trial_ids, offsets = (np.array([meta[k] for meta in metas], dtype=np.int64)
                                  for k in ("label", "trial_id", "offset"))
    try:
        return SegmentDataset(**arrays, labels=labels, trial_ids=trial_ids, offsets=offsets,
                              subjects=np.array([meta["subject"] for meta in metas]))
    except DataError as exc:  # a trial whose segments disagree on its label or subject
        raise ManifestError([str(exc)]) from None


def _load_trials(base: str, doc: dict) -> SegmentDataset:
    problems: list[str] = []
    recordings: list[TrialRecording] = []
    seen_ids: set[int] = set()
    for i, entry in enumerate(_field(doc, "trials", list, problems)):
        label_tag = f"trial entry {i}"
        if not _entry_ok(entry, label_tag, ("trial_id", "onset_sample"), problems):
            continue
        tid = entry["trial_id"]
        if tid in seen_ids:
            problems.append(f"{label_tag}: duplicate trial_id {tid}")
        seen_ids.add(tid)
        task = entry.get("task")
        if task not in TASKS:
            problems.append(f"{label_tag}: task must be one of {TASKS}, got {task!r}")
        # read, not mapped: a mapping holds a descriptor, and every trial's three
        # stay loaded until segment_trials copies their windows out
        arrays = {m: _load_entry_tensor(base, entry, m, problems, label_tag, mapped=False) for m in MODALITIES}
        if any(arr is None for arr in arrays.values()):
            continue
        rec = TrialRecording(trial_id=tid, subject=entry["subject"], task=task, label=entry["label"],
                             onset_sample=entry["onset_sample"], **arrays)
        if (problem := _trial_problem(rec)) is not None:
            problems.append(f"{label_tag}: {problem}")
        else:
            recordings.append(rec)
    if problems:
        raise ManifestError(problems)
    if not recordings:
        raise ManifestError(["manifest contains no trials"])
    return segment_trials(recordings)
