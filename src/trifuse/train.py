"""Optimization and evaluation: Adam, the epoch loop, cross-validation
orchestration, and per-window-offset accuracy reporting.

Training defaults follow the experimental protocol: cross-entropy loss, Adam
with learning rate 0.001 and default moment parameters, 300 epochs with
mini-batches of 16, 5-fold cross validation. The ``desk`` profile in the CLI
shrinks epochs and model widths for laptop-scale runs.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import ops
from .data import SegmentDataset, fold_indices, make_folds
from .models import ModelGraph, build_from_spec


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, value: float, what: str = "loss"):
        self.epoch = epoch
        super().__init__(f"{what} became non-finite ({value}) at epoch {epoch}")


@dataclass
class TrainConfig:
    epochs: int = 300
    batch_size: int = 16
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True
    eval_batch: int = 256
    trial_vote: bool = False  # also report majority vote over each trial's segments


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # two work rows as long as the largest parameter, reused by every update
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)), init=False, repr=False, compare=False)

    @classmethod
    def for_config(cls, config: TrainConfig) -> "AdamState":
        return cls(lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter arrays."""
    state.step += 1
    t = state.step
    need = max((p.size for p in params.values()), default=0)
    if state.scratch.shape[1] < need:
        state.scratch = np.empty((2, need))
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r} at step {t}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        a = state.scratch[0, :p.size].reshape(p.shape)
        b = state.scratch[1, :p.size].reshape(p.shape)
        # p -= lr * m_hat / (sqrt(v_hat) + eps), one ufunc at a time through the scratch rows
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1.0 - state.beta1**t, out=a)
        a *= state.lr
        np.divide(v, 1.0 - state.beta2**t, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        p -= np.divide(a, b, out=a)
    return state


# ---------------------------------------------------------------------------
# reports

@dataclass
class TrainReport:
    losses: list[float]
    n_train: int
    n_test: int
    test_accuracy: float | None
    per_offset: dict[int, float]
    per_subject: dict[str, float]
    trial_accuracy: float | None
    fingerprint: dict
    fold: int | None = None

    def to_dict(self) -> dict:
        return {
            "losses": self.losses, "n_train": self.n_train, "n_test": self.n_test,
            "test_accuracy": self.test_accuracy,
            "per_offset": {str(k): v for k, v in sorted(self.per_offset.items())},
            "per_subject": dict(sorted(self.per_subject.items())),
            "trial_accuracy": self.trial_accuracy,
            "fingerprint": self.fingerprint, "fold": self.fold,
        }


@dataclass
class CvReport:
    k: int
    fold_accuracies: list[float]
    mean_accuracy: float
    std_accuracy: float
    per_offset: dict[int, float]
    per_subject: dict[str, float]
    subject_average: float | None
    trial_accuracies: list[float] | None
    loss_history: list[list[float]]
    fold_per_offset: list[dict[int, float]]
    fingerprint: dict

    def to_dict(self) -> dict:
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


def write_report(report, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)


def write_fold_offset_csv(report: CvReport, path) -> None:
    """Flat (fold, offset, accuracy) table for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "offset", "accuracy"])
        for fold, offsets in enumerate(report.fold_per_offset):
            for off in sorted(offsets):
                writer.writerow([fold, off, f"{offsets[off]:.6f}"])


# ---------------------------------------------------------------------------
# training loop

def _model_inputs(model: ModelGraph, dataset: SegmentDataset, idx: np.ndarray):
    if model.topology["type"] == "single":
        return dataset.modality(model.topology["modality"])[idx]
    return (dataset.eeg[idx], dataset.oxy[idx], dataset.deoxy[idx])


def _batch_plan(n: int, batch_size: int) -> list[slice]:
    """Contiguous batch slices over n items; a trailing singleton is merged
    into the previous batch (batch norm needs at least 2 samples)."""
    if n < 2:
        raise ValueError("training needs at least 2 samples")
    edges = list(range(0, n, batch_size)) + [n]
    if edges[-1] - edges[-2] == 1 and len(edges) > 2:
        edges.pop(-2)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def predict_labels(model: ModelGraph, dataset: SegmentDataset, idx: np.ndarray,
                   eval_batch: int = 256) -> np.ndarray:
    """Eval-mode predictions for the given segment indices."""
    mode = model.mode
    model.set_mode("eval")
    preds = np.empty(len(idx), dtype=np.int64)
    for s in range(0, len(idx), eval_batch):
        chunk = idx[s:s + eval_batch]
        preds[s:s + len(chunk)] = model.predict(_model_inputs(model, dataset, chunk))
    model.set_mode(mode)
    return preds


def evaluate(model: ModelGraph, dataset: SegmentDataset, idx: np.ndarray,
             eval_batch: int = 256, trial_vote: bool = False) -> dict:
    """Segment-level accuracy, split by window offset and by subject."""
    idx = np.asarray(idx)
    preds = predict_labels(model, dataset, idx, eval_batch)
    labels = dataset.labels[idx]
    correct = preds == labels
    out = {
        "accuracy": float(correct.mean()),
        "per_offset": {
            int(off): float(correct[dataset.offsets[idx] == off].mean())
            for off in np.unique(dataset.offsets[idx])
        },
        "per_subject": {
            str(s): float(correct[dataset.subjects[idx] == s].mean())
            for s in np.unique(dataset.subjects[idx])
        },
        "correct": correct,
    }
    if trial_vote:
        trial_ok = []
        for tid in np.unique(dataset.trial_ids[idx]):
            rows = dataset.trial_ids[idx] == tid
            votes = np.bincount(preds[rows], minlength=2)
            trial_ok.append(int(np.argmax(votes)) == int(dataset.labels[idx][rows][0]))
        out["trial_accuracy"] = float(np.mean(trial_ok))
    return out


def train(model: ModelGraph, dataset: SegmentDataset, split, config: TrainConfig,
          fingerprint: dict | None = None, fold: int | None = None) -> TrainReport:
    """Train one model on the split's train side; evaluate on its test side.

    Deterministic for a fixed config: initialization comes from the model's
    seed, shuffling from ``config.seed``.
    """
    train_idx, test_idx = (np.asarray(s) for s in split)
    if len(np.intersect1d(dataset.trial_ids[train_idx], dataset.trial_ids[test_idx])) > 0:
        raise ValueError("train and test splits share trials")
    rng = np.random.default_rng(config.seed)
    adam = AdamState.for_config(config)
    model.set_mode("train")
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(train_idx) if config.shuffle else train_idx
        epoch_loss = 0.0
        for sl in _batch_plan(len(order), config.batch_size):
            batch = order[sl]
            tape = ad.Tape()
            pvars = {k: tape.variable(v, requires_grad=True) for k, v in model.params.items()}
            logits = model.forward(_model_inputs(model, dataset, batch), pvars)
            if not np.all(np.isfinite(logits.value)):
                raise TrainingDiverged(epoch, float(np.max(np.abs(logits.value))))
            loss = ops.softmax_crossentropy(logits, dataset.labels[batch])
            lval = float(loss.value)
            if not np.isfinite(lval):
                raise TrainingDiverged(epoch, lval)
            ad.backward(tape, loss)
            grads = {k: ad.grad_of(v) for k, v in pvars.items()}
            adam_step(model.params, grads, adam)
            epoch_loss += lval * len(batch)
        losses.append(epoch_loss / len(order))
    for name, p in model.params.items():
        if not np.all(np.isfinite(p)):
            raise TrainingDiverged(config.epochs - 1, float(np.max(np.abs(p))), f"parameter {name!r}")
    model.set_mode("eval")

    if len(test_idx):
        stats = evaluate(model, dataset, test_idx, config.eval_batch, config.trial_vote)
    else:
        stats = {"accuracy": None, "per_offset": {}, "per_subject": {}, "trial_accuracy": None}
    return TrainReport(
        losses=losses, n_train=len(train_idx), n_test=len(test_idx),
        test_accuracy=stats["accuracy"], per_offset=stats["per_offset"],
        per_subject=stats["per_subject"], trial_accuracy=stats.get("trial_accuracy"),
        fingerprint=fingerprint or {}, fold=fold,
    )


# ---------------------------------------------------------------------------
# cross validation

def _fold_seed(base_seed: int, fold: int) -> int:
    return int(np.random.SeedSequence(base_seed, spawn_key=(fold,)).generate_state(1)[0])


def _run_fold(args):
    model_spec, dataset, train_idx, test_idx, config, fold = args
    model = build_from_spec(model_spec, seed=_fold_seed(config.seed, fold))
    report = train(model, dataset, (train_idx, test_idx), config, fold=fold)
    preds = predict_labels(model, dataset, test_idx, config.eval_batch)
    return report, preds


def cross_validate(model_spec: dict, dataset: SegmentDataset, k: int = 5,
                   config: TrainConfig | None = None, fingerprint: dict | None = None,
                   jobs: int = 1) -> CvReport:
    """Train k fresh models on trial-disjoint folds and aggregate accuracy.

    Per-offset accuracy pools the held-out predictions of all folds, so every
    segment contributes exactly once. With several subjects the report also
    averages the per-subject means.
    """
    config = config or TrainConfig()
    plan = make_folds(dataset, k=k, seed=config.seed)
    tasks = []
    for fold in range(k):
        train_idx, test_idx = fold_indices(dataset, plan, fold)
        fold_set = set(plan.fold_of(t) for t in dataset.trial_ids[test_idx])
        assert fold_set == {fold} and len(np.intersect1d(train_idx, test_idx)) == 0
        tasks.append((model_spec, dataset, train_idx, test_idx, config, fold))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_fold, tasks))
    else:
        results = [_run_fold(t) for t in tasks]

    all_correct = np.zeros(len(dataset), dtype=bool)
    covered = np.zeros(len(dataset), dtype=bool)
    fold_reports = []
    for (report, preds), task in zip(results, tasks):
        test_idx = task[3]
        all_correct[test_idx] = preds == dataset.labels[test_idx]
        covered[test_idx] = True
        fold_reports.append(report)
    assert covered.all(), "cross validation must cover every segment exactly once"

    accs = [r.test_accuracy for r in fold_reports]
    per_offset = {
        int(off): float(all_correct[dataset.offsets == off].mean())
        for off in np.unique(dataset.offsets)
    }
    per_subject = {
        str(s): float(all_correct[dataset.subjects == s].mean())
        for s in np.unique(dataset.subjects)
    }
    subject_average = float(np.mean(list(per_subject.values()))) if len(per_subject) > 1 else None
    trial_accs = [r.trial_accuracy for r in fold_reports] if config.trial_vote else None
    return CvReport(
        k=k, fold_accuracies=accs,
        mean_accuracy=float(np.mean(accs)), std_accuracy=float(np.std(accs)),
        per_offset=per_offset, per_subject=per_subject, subject_average=subject_average,
        trial_accuracies=trial_accs,
        loss_history=[r.losses for r in fold_reports],
        fold_per_offset=[r.per_offset for r in fold_reports],
        fingerprint=fingerprint or {"train": asdict(config), "model": model_spec, "k": k},
    )
