"""Segment-level dataset handling: sliding-window segmentation of tri-modal
trial recordings, synthetic dataset generators, leakage-safe fold plans, and
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

from .tensor import load_tensor, save_tensor

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


class DataError(ValueError):
    pass


class ManifestError(DataError):
    """Raised with every manifest violation listed, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("manifest validation failed:\n" + "\n".join(f"- {p}" for p in self.problems))


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
class ModalSegment:
    x1: np.ndarray  # EEG   [30, 600]
    x2: np.ndarray  # oxy   [36, 30]
    x3: np.ndarray  # deoxy [36, 30]
    label: int
    offset: int  # window left edge in seconds relative to onset
    trial_id: int
    subject: str


@dataclass
class SegmentDataset:
    """Column-wise store of segments; immutable after construction."""

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
        for name in ("eeg", "oxy", "deoxy", "trial_ids", "offsets", "subjects"):
            if len(getattr(self, name)) != n:
                raise DataError(f"dataset column {name} has length {len(getattr(self, name))}, expected {n}")
        if self.planted is not None and len(self.planted) != n:
            raise DataError("planted amplitudes length mismatch")

    def __len__(self) -> int:
        return len(self.labels)

    def trials(self) -> list[tuple[int, str, int]]:
        """(trial_id, subject, label) per distinct trial, in id order."""
        seen: dict[int, tuple[int, str, int]] = {}
        for tid, subj, lab in zip(self.trial_ids, self.subjects, self.labels):
            tid = int(tid)
            if tid not in seen:
                seen[tid] = (tid, str(subj), int(lab))
        return [seen[t] for t in sorted(seen)]

    def modality(self, name: str) -> np.ndarray:
        try:
            return {"eeg": self.eeg, "oxy": self.oxy, "deoxy": self.deoxy}[name]
        except KeyError:
            raise DataError(f"unknown modality {name!r}") from None


def segments_to_dataset(segments: list[ModalSegment], planted: np.ndarray | None = None) -> SegmentDataset:
    return SegmentDataset(
        eeg=np.stack([s.x1 for s in segments]),
        oxy=np.stack([s.x2 for s in segments]),
        deoxy=np.stack([s.x3 for s in segments]),
        labels=np.array([s.label for s in segments], dtype=np.int64),
        trial_ids=np.array([s.trial_id for s in segments], dtype=np.int64),
        offsets=np.array([s.offset for s in segments], dtype=np.int64),
        subjects=np.array([s.subject for s in segments]),
        planted=planted,
    )


# ---------------------------------------------------------------------------
# sliding-window segmentation

def segment_trial(rec: TrialRecording) -> list[ModalSegment]:
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
        raise DataError("; ".join(problems))

    t0 = rec.onset_sample
    eeg_start, eeg_end = t0 - REST_BEFORE * EEG_SR, t0 + SPAN_AFTER * EEG_SR
    if eeg_start < 0 or eeg_end > rec.eeg.shape[1]:
        missing_before = max(0, -eeg_start) / EEG_SR
        missing_after = max(0, eeg_end - rec.eeg.shape[1]) / EEG_SR
        raise DataError(
            f"trial {rec.trial_id}: EEG does not cover -{REST_BEFORE}s..+{SPAN_AFTER}s around onset "
            f"(missing {missing_before:.2f}s before, {missing_after:.2f}s after)"
        )
    t0_n = t0 * NIRS_SR // EEG_SR
    nirs_start, nirs_end = t0_n - REST_BEFORE * NIRS_SR, t0_n + SPAN_AFTER * NIRS_SR
    for name, arr in (("oxy", rec.oxy), ("deoxy", rec.deoxy)):
        if nirs_start < 0 or nirs_end > arr.shape[1]:
            missing_before = max(0, -nirs_start) / NIRS_SR
            missing_after = max(0, nirs_end - arr.shape[1]) / NIRS_SR
            raise DataError(
                f"trial {rec.trial_id}: {name} does not cover the 35s span "
                f"(missing {missing_before:.2f}s before, {missing_after:.2f}s after)"
            )

    segments = []
    for off in OFFSETS:
        e0 = t0 + off * EEG_SR
        n0 = t0_n + off * NIRS_SR
        segments.append(ModalSegment(
            x1=np.array(rec.eeg[:, e0:e0 + EEG_WINDOW]),
            x2=np.array(rec.oxy[:, n0:n0 + NIRS_WINDOW]),
            x3=np.array(rec.deoxy[:, n0:n0 + NIRS_WINDOW]),
            label=int(rec.label), offset=off, trial_id=int(rec.trial_id), subject=str(rec.subject),
        ))
    return segments


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
        if self.generator not in GENERATORS:
            raise DataError(f"generator must be one of {GENERATORS}, got {self.generator!r}")
        if self.n_trials < 2:
            raise DataError("n_trials must be >= 2")
        if not 1 <= self.segments_per_trial <= SEGMENTS_PER_TRIAL:
            raise DataError(f"segments_per_trial must be in 1..{SEGMENTS_PER_TRIAL}")
        if self.noise < 0:
            raise DataError("noise must be >= 0")
        if self.n_subjects < 1 or self.n_subjects > self.n_trials:
            raise DataError("n_subjects must be in 1..n_trials")

    def to_dict(self) -> dict:
        return {
            "generator": self.generator, "n_trials": self.n_trials,
            "segments_per_trial": self.segments_per_trial, "noise": self.noise,
            "n_subjects": self.n_subjects,
        }


MODALITY_SHAPES = {
    "eeg": (EEG_CHANNELS, EEG_WINDOW),
    "oxy": (NIRS_CHANNELS, NIRS_WINDOW),
    "deoxy": (NIRS_CHANNELS, NIRS_WINDOW),
}


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
            for m, name in enumerate(("eeg", "oxy", "deoxy")):
                noise = noise_rng.standard_normal(MODALITY_SHAPES[name])
                cols[name][row] = amps[trial, m] * patterns[name] + spec.noise * noise
            row += 1

    per_trial = spec.segments_per_trial
    return SegmentDataset(
        eeg=cols["eeg"], oxy=cols["oxy"], deoxy=cols["deoxy"],
        labels=np.repeat(labels_trial, per_trial),
        trial_ids=np.repeat(np.arange(n, dtype=np.int64), per_trial),
        offsets=np.tile(np.arange(per_trial, dtype=np.int64), n),
        subjects=np.repeat(np.array([f"s{t % spec.n_subjects:02d}" for t in range(n)]), per_trial),
        planted=np.repeat(amps, per_trial, axis=0),
    )


# ---------------------------------------------------------------------------
# fold plans

@dataclass
class FoldPlan:
    k: int
    assignment: dict[int, int]  # trial_id -> fold

    def fold_of(self, trial_id: int) -> int:
        return self.assignment[int(trial_id)]


def make_folds(dataset: SegmentDataset, k: int = 5, seed: int = 0) -> FoldPlan:
    """Trial-level stratified partition; all segments of a trial share a fold."""
    trials = dataset.trials()
    per_class: dict[int, int] = {}
    for _, _, lab in trials:
        per_class[lab] = per_class.get(lab, 0) + 1
    for lab, count in sorted(per_class.items()):
        if count < k:
            raise DataError(f"class {lab} has only {count} trials, need at least {k} for {k} folds")

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


def fold_indices(dataset: SegmentDataset, plan: FoldPlan, fold: int) -> tuple[np.ndarray, np.ndarray]:
    """(train segment indices, test segment indices) for one held-out fold."""
    fold_of = np.array([plan.fold_of(t) for t in dataset.trial_ids])
    test = np.nonzero(fold_of == fold)[0]
    train = np.nonzero(fold_of != fold)[0]
    return train, test


# ---------------------------------------------------------------------------
# manifests

MANIFEST_NAME = "manifest.json"


def save_segments_manifest(dataset: SegmentDataset, outdir) -> str:
    """Write a segment dataset as stacked per-modality tensors plus metadata."""
    os.makedirs(outdir, exist_ok=True)
    arrays = {"eeg": "eeg.ten", "oxy": "oxy.ten", "deoxy": "deoxy.ten"}
    for name, fname in arrays.items():
        save_tensor(os.path.join(outdir, fname), dataset.modality(name))
    doc = {
        "kind": "segments",
        "version": 1,
        "arrays": arrays,
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
        files = {"eeg": f"{base}_eeg.ten", "oxy": f"{base}_oxy.ten", "deoxy": f"{base}_deoxy.ten"}
        save_tensor(os.path.join(outdir, files["eeg"]), rec.eeg)
        save_tensor(os.path.join(outdir, files["oxy"]), rec.oxy)
        save_tensor(os.path.join(outdir, files["deoxy"]), rec.deoxy)
        entries.append({
            "trial_id": int(rec.trial_id), "subject": str(rec.subject), "task": rec.task,
            "label": int(rec.label), "onset_sample": int(rec.onset_sample), **files,
        })
    doc = {"kind": "trials", "version": 1, "trials": entries}
    path = os.path.join(outdir, MANIFEST_NAME)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def _load_entry_tensor(base: str, entry: dict, key: str, problems: list[str], label: str):
    rel = entry.get(key)
    if not isinstance(rel, str):
        problems.append(f"{label}: missing {key!r} file reference")
        return None
    path = os.path.join(base, rel)
    if not os.path.exists(path):
        problems.append(f"{label}: file {rel} does not exist")
        return None
    try:
        return load_tensor(path)
    except Exception as exc:
        problems.append(f"{label}: file {rel} unreadable ({exc})")
        return None


def load_manifest(path) -> SegmentDataset:
    """Load a trials or segments manifest; raises with every violation listed."""
    if not os.path.exists(path):
        raise ManifestError([f"manifest {path} does not exist"])
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(path):
            raise ManifestError([f"manifest {path} does not exist"])
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError([f"manifest is not valid JSON: {exc}"]) from None
    base = os.path.dirname(os.path.abspath(path))
    kind = doc.get("kind")
    if kind == "segments":
        return _load_segments(base, doc)
    if kind == "trials":
        return _load_trials(base, doc)
    raise ManifestError([f"unknown manifest kind {kind!r}"])


def _load_segments(base: str, doc: dict) -> SegmentDataset:
    problems: list[str] = []
    arrays = {}
    for name in ("eeg", "oxy", "deoxy"):
        arrays[name] = _load_entry_tensor(base, doc.get("arrays", {}), name, problems, "arrays")
    metas = doc.get("segments", [])
    n = len(metas)
    for name, arr in arrays.items():
        if arr is None:
            continue
        want = (n,) + MODALITY_SHAPES[name]
        if arr.shape != want:
            problems.append(f"arrays: {name} has shape {arr.shape}, expected {want}")
    labels, tids, offs, subjects = [], [], [], []
    for i, meta in enumerate(metas):
        lab = meta.get("label")
        if lab not in (0, 1):
            problems.append(f"segment {i}: unknown label {lab!r}")
            lab = 0
        labels.append(lab)
        tids.append(int(meta.get("trial_id", -1)))
        offs.append(int(meta.get("offset", 0)))
        subjects.append(str(meta.get("subject", "s00")))
    if problems:
        raise ManifestError(problems)
    return SegmentDataset(
        arrays["eeg"], arrays["oxy"], arrays["deoxy"],
        np.array(labels, dtype=np.int64), np.array(tids, dtype=np.int64),
        np.array(offs, dtype=np.int64), np.array(subjects),
    )


def _load_trials(base: str, doc: dict) -> SegmentDataset:
    problems: list[str] = []
    segments: list[ModalSegment] = []
    seen_ids: set[int] = set()
    for i, entry in enumerate(doc.get("trials", [])):
        label_tag = f"trial entry {i}"
        tid = entry.get("trial_id")
        if tid is None:
            problems.append(f"{label_tag}: missing trial_id")
            tid = -1 - i
        elif tid in seen_ids:
            problems.append(f"{label_tag}: duplicate trial_id {tid}")
        seen_ids.add(tid)
        if entry.get("task") not in TASKS:
            problems.append(f"{label_tag}: task must be one of {TASKS}, got {entry.get('task')!r}")
        lab = entry.get("label")
        if lab not in (0, 1):
            problems.append(f"{label_tag}: unknown label {lab!r}")
            lab = 0
        eeg = _load_entry_tensor(base, entry, "eeg", problems, label_tag)
        oxy = _load_entry_tensor(base, entry, "oxy", problems, label_tag)
        deoxy = _load_entry_tensor(base, entry, "deoxy", problems, label_tag)
        if eeg is None or oxy is None or deoxy is None:
            continue
        rec = TrialRecording(
            trial_id=int(tid), subject=str(entry.get("subject", "s00")), task=entry.get("task", "MI"),
            label=int(lab), eeg=eeg, oxy=oxy, deoxy=deoxy, onset_sample=int(entry.get("onset_sample", 0)),
        )
        try:
            segments.extend(segment_trial(rec))
        except DataError as exc:
            problems.append(f"{label_tag}: {exc}")
    if problems:
        raise ManifestError(problems)
    if not segments:
        raise ManifestError(["manifest contains no trials"])
    return segments_to_dataset(segments)
