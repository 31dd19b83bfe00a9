"""Optimization and evaluation: Adam, the epoch loop, cross-validation
orchestration, and per-window-offset accuracy reporting.

Training defaults follow the experimental protocol: cross-entropy loss, Adam
with learning rate 0.001 and default moment parameters, 300 epochs with
mini-batches of 16, 5-fold cross validation. The ``desk`` profile in the CLI
shrinks epochs and model widths for laptop-scale runs.
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import ops
from .data import MODALITIES, SegmentDataset, _all_finite, fold_indices, make_folds
from .models import DEFAULT_PROFILE, PROFILES, ModelGraph, build_from_spec


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, value: float, what: str = "loss"):
        self.epoch, self.value, self.what = epoch, value, what
        super().__init__(f"{what} became non-finite ({value}) at epoch {epoch}")

    def __reduce__(self):  # unpickling calls cls(*args): rebuild from these, not the message
        return type(self), (self.epoch, self.value, self.what)


@dataclass
class TrainConfig:
    epochs: int = PROFILES[DEFAULT_PROFILE]["epochs"]
    batch_size: int = 16
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True
    trial_vote: bool = False  # also report majority vote over each trial's segments


# ---------------------------------------------------------------------------
# Adam

# Adam runs its ufuncs over the flat arrays this many entries at a time, so
# that a chunk and the two scratch rows stay in cache between one ufunc and the next
ADAM_CHUNK = 1 << 14


@dataclass
class AdamState:
    m: np.ndarray  # the moments, flat as the parameters
    v: np.ndarray
    config: TrainConfig  # the run whose lr, beta1, beta2 and eps the updates use
    step: int = 0
    # two work rows of ADAM_CHUNK entries, reused by every update
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, ADAM_CHUNK)), init=False, repr=False,
                                compare=False)

    @classmethod
    def for_config(cls, config: TrainConfig, size: int) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size), config)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, named: dict[str, np.ndarray]) -> AdamState:
    """One bias-corrected Adam update, in place on the flat parameter array.

    ``named`` holds the parameters by name, in the order they lie in ``params`` and ``grads``.
    A non-finite gradient raises ``FloatingPointError`` naming its parameter before anything moves.
    """
    sizes = [p.size for p in named.values()]
    if not params.shape == grads.shape == state.m.shape == state.v.shape == (sum(sizes),):
        raise ValueError("adam_step needs flat parameters, gradients and moments as long as the named arrays together")
    t = state.step + 1
    if not _all_finite(grads):  # one pass over the whole gradient; the per-entry walk only to name the culprit
        bad = int(np.argmin(np.isfinite(grads)))
        name = list(named)[int(np.searchsorted(np.cumsum(sizes), bad, side="right"))]
        raise FloatingPointError(f"non-finite gradient for parameter {name!r} at step {t}")
    state.step = t
    lr, beta1, beta2, eps = (getattr(state.config, k) for k in ("lr", "beta1", "beta2", "eps"))
    # the bias corrections folded into the step size and eps (Kingma & Ba, 2015, sec. 2):
    # lr * m_hat / (sqrt(v_hat) + eps) = step * m / (sqrt(v) + eps_hat)
    c2 = np.sqrt(1.0 - beta2**t)
    step, eps_hat = lr * c2 / (1.0 - beta1**t), eps * c2
    for s in range(0, params.size, ADAM_CHUNK):
        p1, g1, m, v = (arr[s:s + ADAM_CHUNK] for arr in (params, grads, state.m, state.v))
        a, b = state.scratch[0, :p1.size], state.scratch[1, :p1.size]
        # one ufunc at a time through the scratch rows
        m *= beta1
        m += np.multiply(g1, 1.0 - beta1, out=a)
        v *= beta2
        np.multiply(g1, 1.0 - beta2, out=a)
        v += np.multiply(a, g1, out=a)
        np.sqrt(v, out=b)
        b += eps_hat
        np.divide(m, b, out=a)
        a *= step
        p1 -= a
    return state


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Arrays shaped as ``like``'s, laid end to end in the 1-d ``flat``: views of it."""
    ends = np.cumsum([p.size for p in like.values()])
    return {k: flat[e - p.size:e].reshape(p.shape) for (k, p), e in zip(like.items(), ends)}


# ---------------------------------------------------------------------------
# reports

def _str_keys(doc):
    """``doc`` with every dict key a string, as JSON writes it. Offsets are int
    keys: sorted before they became strings, -10..22 would sort as numbers."""
    if isinstance(doc, dict):
        return {str(k): _str_keys(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_str_keys(v) for v in doc]
    return doc


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
        return _str_keys(asdict(self))


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
        return _str_keys(asdict(self))


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
        return getattr(dataset, model.topology["modality"])[idx]
    return tuple(getattr(dataset, m)[idx] for m in MODALITIES)


def _batch_plan(n: int, batch_size: int) -> list[slice]:
    """Contiguous batch slices over n items; a trailing singleton is merged
    into the previous batch (batch norm needs at least 2 samples)."""
    if n < 2:
        raise ValueError("training needs at least 2 samples")
    edges = list(range(0, n, batch_size)) + [n]
    if edges[-1] - edges[-2] == 1 and len(edges) > 2:
        edges.pop(-2)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


# a diverging run overflows on its way to a non-finite value, which _train's finiteness
# checks report in one message; numpy's warnings would only add lines to stderr
@np.errstate(over="ignore", invalid="ignore")
def predict_labels(model: ModelGraph, dataset: SegmentDataset, idx: np.ndarray,
                   eval_batch: int = TrainConfig.batch_size) -> np.ndarray:
    """Eval predictions for the given segment indices."""
    preds = np.empty(len(idx), dtype=np.int64)
    for s in range(0, len(idx), eval_batch):
        chunk = idx[s:s + eval_batch]
        preds[s:s + len(chunk)] = model.predict(_model_inputs(model, dataset, chunk))
    return preds


def _breakdown(correct: np.ndarray, offsets: np.ndarray, subjects: np.ndarray) -> tuple[dict, dict]:
    """Accuracy of a per-segment correct mask by window offset and by subject."""
    return ({int(off): float(correct[offsets == off].mean()) for off in np.unique(offsets)},
            {str(s): float(correct[subjects == s].mean()) for s in np.unique(subjects)})


def evaluate(model: ModelGraph, dataset: SegmentDataset, idx: np.ndarray,
             eval_batch: int = TrainConfig.batch_size, trial_vote: bool = False) -> dict:
    """Segment-level accuracy, split by window offset and by subject. With
    ``trial_vote``, also the accuracy of each trial's majority vote over its
    segments in ``idx``; a tied vote is class 0, argmax's first index."""
    idx = np.asarray(idx)
    preds = predict_labels(model, dataset, idx, eval_batch)
    labels = dataset.labels[idx]
    correct = preds == labels
    per_offset, per_subject = _breakdown(correct, dataset.offsets[idx], dataset.subjects[idx])
    out = {"accuracy": float(correct.mean()), "per_offset": per_offset, "per_subject": per_subject,
           "correct": correct}
    if trial_vote:
        trials, trial_of = np.unique(dataset.trial_of[idx], return_inverse=True)
        votes = np.zeros((len(trials), 2), dtype=np.int64)
        np.add.at(votes, (trial_of, preds), 1)
        out["trial_accuracy"] = float(np.mean(votes.argmax(axis=1) == dataset.labels[dataset.trial_first[trials]]))
    return out


def train(model: ModelGraph, dataset: SegmentDataset, split, config: TrainConfig,
          fingerprint: dict | None = None, fold: int | None = None) -> TrainReport:
    """Train one model on the split's train side; evaluate on its test side.

    Deterministic for a fixed config: initialization comes from the model's
    seed, shuffling from ``config.seed``.
    """
    return _train(model, dataset, split, config, fingerprint, fold)[0]


@np.errstate(over="ignore", invalid="ignore")  # as predict_labels
def _train(model: ModelGraph, dataset: SegmentDataset, split, config: TrainConfig,
           fingerprint: dict | None, fold: int | None) -> tuple[TrainReport, np.ndarray]:
    """``train``, also returning the per-segment correct mask of the test side."""
    train_idx, test_idx = (np.asarray(s) for s in split)
    if len(np.intersect1d(dataset.trial_of[train_idx], dataset.trial_of[test_idx])) > 0:
        raise ValueError("train and test splits share trials")
    rng = np.random.default_rng(config.seed)
    # one arena per run: the parameters become views of one flat array, which Adam sweeps whole
    arena = np.concatenate([p.ravel() for p in model.params.values()], dtype=np.float64)
    model.params = _views(arena, model.params)
    adam = AdamState.for_config(config, arena.size)  # moments made before any step: see the gradient's note
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(train_idx) if config.shuffle else train_idx
        epoch_loss = 0.0
        for sl in _batch_plan(len(order), config.batch_size):
            batch = order[sl]
            tape = ad.Tape()
            pvars = {k: tape.variable(v) for k, v in model.params.items()}
            logits = model.forward(_model_inputs(model, dataset, batch), pvars)
            if not np.all(np.isfinite(logits.value)):
                raise TrainingDiverged(epoch, float(np.max(np.abs(logits.value))))
            loss = ops.softmax_crossentropy(logits, dataset.labels[batch])
            lval = float(loss.value)
            if not np.isfinite(lval):
                raise TrainingDiverged(epoch, lval)
            # one flat gradient, made after the forward and kept into the next step: it sits above the
            # activations on the heap, so malloc reuses their memory instead of trimming it (9k page
            # faults a full PF3 step otherwise; Adam's moments, made at a run's first step, did the same)
            grad = np.empty_like(arena)
            for v, buffer in zip(pvars.values(), _views(grad, model.params).values()):
                v.buffer = buffer
            ad.backward(tape, loss)
            for v in pvars.values():
                if v.grad is None:  # the loss never reached it (the conv biases)
                    v.buffer.fill(0.0)
            # nodes and their Variables point back at the tape: break that cycle so
            # the step's activations are freed by refcount, not by the cyclic GC
            tape.nodes.clear()
            adam_step(arena, grad, adam, model.params)
            epoch_loss += lval * len(batch)
        losses.append(epoch_loss / len(order))
    if not _all_finite(arena):
        name, p = next((k, p) for k, p in model.params.items() if not _all_finite(p))
        raise TrainingDiverged(config.epochs - 1, float(np.max(np.abs(p))), f"parameter {name!r}")

    if len(test_idx):  # in chunks no larger than a training batch, which bounds the im2col buffers too
        stats = evaluate(model, dataset, test_idx, config.batch_size, config.trial_vote)
    else:
        stats = {"accuracy": None, "per_offset": {}, "per_subject": {}, "trial_accuracy": None,
                 "correct": np.zeros(0, dtype=bool)}
    report = TrainReport(
        losses=losses, n_train=len(train_idx), n_test=len(test_idx),
        test_accuracy=stats["accuracy"], per_offset=stats["per_offset"],
        per_subject=stats["per_subject"], trial_accuracy=stats.get("trial_accuracy"),
        fingerprint=fingerprint or {}, fold=fold,
    )
    return report, stats["correct"]


# ---------------------------------------------------------------------------
# cross validation

def _fold_seed(base_seed: int, fold: int) -> int:
    return int(np.random.SeedSequence(base_seed, spawn_key=(fold,)).generate_state(1)[0])


def blas_threads(n: int | None = None) -> int | None:
    """The thread count of the OpenBLAS this process has loaded, set to ``n`` first
    when ``n`` is given. None, and nothing set, where no OpenBLAS setter is found:
    another BLAS, or a system without ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    # numpy's wheel renames OpenBLAS's symbols; a system OpenBLAS keeps its own
    for lib in libs:
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get, put = (getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
            if get is not None and put is not None:
                if n is not None and n != get():  # after a fork, any set restarts the thread pool
                    put(n)
                return get()
    return None


# a cv pool worker's dataset, set once by _init_fold_worker; its tasks carry None
# in the dataset slot. It stays None in the process that calls cross_validate.
_worker_dataset: SegmentDataset | None = None


def _init_fold_worker(dataset: SegmentDataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset
    blas_threads(1)  # a spawned worker's own; see cross_validate


def _run_fold(args):
    model_spec, dataset, train_idx, test_idx, config, fold = args
    if dataset is None:
        dataset = _worker_dataset
    model = build_from_spec(model_spec, seed=_fold_seed(config.seed, fold))
    return _train(model, dataset, (train_idx, test_idx), config, None, fold)


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
    # a pool worker gets the dataset once, through its initializer: inherited
    # under fork, pickled once per worker otherwise; never once per task
    task_dataset = None if jobs > 1 else dataset
    tasks = []
    for fold in range(k):
        train_idx, test_idx = fold_indices(dataset, plan, fold)
        assert (plan[dataset.trial_of[test_idx]] == fold).all() and len(np.intersect1d(train_idx, test_idx)) == 0
        tasks.append((model_spec, task_dataset, train_idx, test_idx, config, fold))

    # every fold runs on one BLAS thread, in a worker or here, so the parallelism is the
    # workers' alone and a report is the same bytes at any --jobs and host thread count.
    # A forked worker inherits the one thread and never starts a BLAS thread pool.
    previous = blas_threads()
    try:
        blas_threads(1)
        if jobs > 1:  # a pool starts all its workers at once: no more than there are folds or usable cores
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            with ProcessPoolExecutor(max_workers=min(jobs, k, cores), initializer=_init_fold_worker,
                                     initargs=(dataset,)) as pool:
                results = list(pool.map(_run_fold, tasks))
        else:
            results = [_run_fold(t) for t in tasks]
    finally:
        blas_threads(previous)  # None: nothing was found, nothing set

    all_correct = np.zeros(len(dataset), dtype=bool)
    covered = np.zeros(len(dataset), dtype=bool)
    fold_reports = []
    for (report, correct), task in zip(results, tasks):
        test_idx = task[3]
        all_correct[test_idx] = correct
        covered[test_idx] = True
        fold_reports.append(report)
    assert covered.all(), "cross validation must cover every segment exactly once"

    accs = [r.test_accuracy for r in fold_reports]
    per_offset, per_subject = _breakdown(all_correct, dataset.offsets, dataset.subjects)
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
