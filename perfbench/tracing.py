"""Outside-in timing of trifuse's public entry points.

The library carries no instrumentation. A :class:`Recorder` swaps module and
class attributes for timing wrappers while a workload runs and puts every
original back in :meth:`Recorder.restore`. Spans are kept in memory as
cumulative totals; nothing is written until the workload ends.

Two modes:

* untraced: only the per-operation hook is installed -- the return of
  ``train.adam_step`` ("step" ops) or each ``ModelGraph.predict`` call
  ("predict" ops) -- so end-to-end latency can be measured with the program
  otherwise untouched;
* traced: every layer entry point is wrapped as well, and each tape node's
  ``backward_fn`` is timed under the layer that recorded it.

Fold workers of ``cross_validate(jobs>1)`` are forked from the measuring
process, so they inherit the wrappers. Each worker writes what it recorded
for a fold to ``fold_dir`` when the fold ends, and the parent merges those
files with :meth:`Recorder.merge_fold_files`.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from collections import defaultdict

perf = time.perf_counter

# layer spans that own the tape nodes recorded inside them
CONV, BN, MISC, FUSION = "ops.conv1d", "ops.batchnorm", "ops.misc", "fusion"


def _shape(x):
    return getattr(x, "value", x).shape


def _conv_flop(w, out) -> float:
    """Floating-point operations of one conv1d product, from weight and output shapes."""
    co, ci, k = _shape(w)
    shape = _shape(out)
    batch = shape[0] if len(shape) == 3 else 1
    return 2.0 * batch * shape[-1] * co * ci * k


class Recorder:
    """Timing wrappers plus the totals they accumulate.

    ``acc`` holds cumulative values keyed ``ms:<span>`` (inclusive time),
    ``self:<span>`` (time not covered by child spans), ``n:<span>`` (calls)
    and ``n:<counter>``. ``window`` holds the same keys summed over op
    windows only: the interval between successive ``adam_step`` returns
    within one training run, or one ``predict`` call.
    """

    def __init__(self, traced: bool, op: str, fold_dir: str | None = None):
        if op not in ("step", "predict"):
            raise ValueError(f"op must be step or predict, got {op!r}")
        self.traced = traced
        self.op = op
        self.fold_dir = fold_dir
        self.pid = os.getpid()
        self.acc = defaultdict(float)
        self.window = defaultdict(float)
        self.op_ms: list[float] = []
        self._last = None  # (time, snapshot) at the previous step boundary
        self._stack: list[list] = []  # [child ms, layer] per open span
        self._patches: list[tuple] = []

    # -- op windows ---------------------------------------------------------

    def mark_unit(self) -> None:
        """Start a new training run: the next step interval starts at its first return."""
        self._last = None

    def _snapshot(self):
        return dict(self.acc) if self.traced else None

    def _close_window(self, t0, snap0, t1, snap1) -> None:
        self.op_ms.append((t1 - t0) * 1e3)
        if self.traced:
            for key, val in snap1.items():
                self.window[key] += val - snap0.get(key, 0.0)

    def _step_boundary(self) -> None:
        t, snap = perf(), self._snapshot()
        if self._last is not None:
            self._close_window(*self._last, t, snap)
        self._last = (t, snap)

    # -- spans ----------------------------------------------------------------

    def _exit(self, key: str, t0: float, frame: list) -> None:
        d = (perf() - t0) * 1e3
        self._stack.pop()
        acc = self.acc
        acc["ms:" + key] += d
        acc["self:" + key] += d - frame[0]
        acc["n:" + key] += 1
        if self._stack:
            self._stack[-1][0] += d

    def _span(self, key: str, fn, layer: str | None = None, after=None):
        rec = self

        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            rec._stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._exit(key, t0, frame)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _layer(self) -> str:
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return MISC

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        orig = vars(owner)[attr]
        new = functools.update_wrapper(make(orig), orig)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def _patch_same(self, owners, attr: str, make) -> None:
        """Wrap one function bound under the same name in several modules."""
        orig = vars(owners[0])[attr]
        new = functools.update_wrapper(make(orig), orig)
        for owner in owners:
            if vars(owner)[attr] is not orig:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {owners[0].__name__}.{attr}")
            setattr(owner, attr, new)
            self._patches.append((owner, attr, orig))

    def install(self, tf) -> "Recorder":
        """Wrap entry points of the ``trifuse`` package ``tf``."""
        rec = self
        if self.op == "step":
            def make_adam(fn):
                inner = rec._span("train.adam_step", fn) if rec.traced else fn

                def adam_step(*args, **kwargs):
                    out = inner(*args, **kwargs)
                    rec._step_boundary()
                    return out
                return adam_step
            self._patch(tf.train, "adam_step", make_adam)
        else:
            def make_predict(fn):
                inner = rec._span("models.predict", fn) if rec.traced else fn

                def predict(*args, **kwargs):
                    t0, snap0 = perf(), rec._snapshot()
                    out = inner(*args, **kwargs)
                    rec._close_window(t0, snap0, perf(), rec._snapshot())
                    return out
                return predict
            self._patch(tf.models.ModelGraph, "predict", make_predict)

        if self.fold_dir is not None:
            def make_fold(fn):
                def run_fold(args):
                    child = os.getpid() != rec.pid
                    if child:
                        rec._reset()
                    rec.mark_unit()
                    out = fn(args)
                    if child:
                        rec._write_fold(args[5])
                    return out
                return run_fold
            self._patch(tf.train, "_run_fold", make_fold)

        if self.traced:
            self._install_layers(tf)
        return self

    def _install_layers(self, tf) -> None:
        rec = self
        span = self._span

        def conv_flop(args, out):
            rec.acc["n:ops.conv1d.flop"] += _conv_flop(args[1], out)

        self._patch(tf.ops, "conv1d", lambda fn: span(CONV + ".fwd", fn, CONV, conv_flop))
        for attr in ("batchnorm_train", "batchnorm_eval"):
            self._patch(tf.ops, attr, lambda fn: span(BN + ".fwd", fn, BN))
        for attr in ("global_avgpool", "l2_normalize", "linear_forward", "softmax_crossentropy"):
            self._patch(tf.ops, attr, lambda fn: span(MISC + ".fwd", fn, MISC))
        self._patch(tf.autodiff, "relu", lambda fn: span(MISC + ".fwd", fn, MISC))
        # models binds fuse by name at import, so wrap the name models calls
        self._patch(tf.models, "fuse", lambda fn: span(FUSION + ".fwd", fn, FUSION))
        self._patch(tf.models.ModelGraph, "forward", lambda fn: span("models.forward", fn))

        def count_nodes(args, out):
            rec.acc["n:autodiff.nodes"] += len(args[0].nodes)

        self._patch(tf.autodiff, "backward", lambda fn: span("autodiff.backward", fn, after=count_nodes))
        self._patch(tf.autodiff.Tape, "record", self._make_record)

        self._patch_same([tf.data, tf.config], "load_manifest", lambda fn: span("data.load_manifest", fn))

        def count_bytes(args, out):
            rec.acc["n:tensor.read_bytes"] += os.path.getsize(args[0])

        self._patch_same([tf.tensor, tf.data, tf.models], "load_tensor",
                         lambda fn: span("tensor.load_tensor", fn, after=count_bytes))
        self._patch(tf.models, "load_model", lambda fn: span("models.load_model", fn))

        def pickle_size(args, out):
            fp = out.fingerprint
            rec.acc["n:train.cv.task_bytes"] = _fold_task_bytes(tf, fp["model"], args[1], fp["k"], fp["train"])

        self._patch(tf.train, "cross_validate", lambda fn: span("train.cross_validate", fn, after=pickle_size))

    def _make_record(self, record):
        """Time each node's backward_fn under the layer that recorded the node."""
        rec = self

        def wrapper(tape, name, value, parents, backward_fn):
            layer = rec._layer()
            after = None
            if layer == CONV:  # grad_w, plus grad_x unless x is a constant input
                flop = _conv_flop(parents[1], value) * (parents[0].requires_grad + parents[1].requires_grad)

                def after(args, out):
                    rec.acc["n:ops.conv1d.flop"] += flop
            return record(tape, name, value, parents, rec._span(layer + ".bwd", backward_fn, after=after))

        return wrapper

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- fold workers ---------------------------------------------------------

    def _reset(self) -> None:
        self.acc.clear()
        self.window.clear()
        self.op_ms = []
        self._last = None
        self._stack = []

    def _write_fold(self, fold: int) -> None:
        path = os.path.join(self.fold_dir, f"fold-{os.getpid()}-{fold}.json")
        with open(path, "w") as fh:
            json.dump({"acc": self.acc, "window": self.window, "op_ms": self.op_ms}, fh)
        self._reset()

    def merge_fold_files(self) -> int:
        """Fold what the workers recorded into this recorder; returns the file count."""
        paths = sorted(glob.glob(os.path.join(self.fold_dir, "fold-*.json")))
        for path in paths:
            with open(path) as fh:
                doc = json.load(fh)
            os.remove(path)
            for key, val in doc["acc"].items():
                self.acc[key] += val
            for key, val in doc["window"].items():
                self.window[key] += val
            self.op_ms.extend(doc["op_ms"])
        return len(paths)


def _fold_task_bytes(tf, model_spec, dataset, k, train_doc) -> int:
    """Pickled size of the first fold task, as cross_validate sends it to a worker."""
    from multiprocessing.reduction import ForkingPickler

    config = tf.train.TrainConfig(**train_doc)
    plan = tf.data.make_folds(dataset, k=k, seed=config.seed)
    train_idx, test_idx = tf.data.fold_indices(dataset, plan, 0)
    task = (model_spec, dataset, train_idx, test_idx, config, 0)
    return len(ForkingPickler.dumps(task))


LAYER_UNITS = {
    "ops.conv1d.fwd_ms": "ms", "ops.conv1d.bwd_ms": "ms",
    "ops.conv1d.gflop_per_step": "GFLOP", "ops.conv1d.gflops": "GFLOP/s",
    "ops.batchnorm.fwd_ms": "ms", "ops.batchnorm.bwd_ms": "ms",
    "ops.misc.fwd_ms": "ms", "ops.misc.bwd_ms": "ms",
    "fusion.fwd_ms": "ms", "fusion.bwd_ms": "ms", "fusion.param_count": "count",
    "models.param_count": "count",
    "autodiff.backward_ms": "ms", "autodiff.replay_self_ms": "ms", "autodiff.nodes_per_step": "count",
    "models.forward_ms": "ms", "models.forward_self_ms": "ms",
    "train.adam_step_ms": "ms", "train.step_self_ms": "ms",
    "data.load_manifest_s": "s", "tensor.load_tensor_s": "s", "tensor.read_mib": "MiB",
    "models.load_model_s": "s",
    "train.cv.task_pickle_mib": "MiB", "train.cv.children_peak_rss_mib": "MiB",
    "trace.op_ms_mean": "ms", "trace.op_ms_p50": "ms", "trace.overhead_ms": "ms",
}


def layer_metrics(rec: Recorder, units: int) -> dict[str, float]:
    """Per-op layer times and counts from a traced recorder that ran ``units`` units.

    Op windows give the per-op figures; loading happens outside them, so
    load times and bytes are per call or per unit.
    """
    a = rec.acc
    n = max(len(rec.op_ms), 1)
    per = {key: val / n for key, val in rec.window.items()}
    op_mean = sum(rec.op_ms) / n
    conv_ms = per.get("ms:ops.conv1d.fwd", 0.0) + per.get("ms:ops.conv1d.bwd", 0.0)
    flop = per.get("n:ops.conv1d.flop", 0.0)
    forward = per.get("ms:models.forward", 0.0)
    backward = per.get("ms:autodiff.backward", 0.0)
    adam = per.get("ms:train.adam_step", 0.0)
    out = {}
    for layer in (CONV, BN, MISC, FUSION):
        out[layer + ".fwd_ms"] = per.get(f"ms:{layer}.fwd", 0.0)
        out[layer + ".bwd_ms"] = per.get(f"ms:{layer}.bwd", 0.0)
    out.update({
        "ops.conv1d.gflop_per_step": flop / 1e9,
        "ops.conv1d.gflops": flop / 1e9 / (conv_ms / 1e3) if conv_ms else 0.0,
        "autodiff.backward_ms": backward,
        "autodiff.replay_self_ms": per.get("self:autodiff.backward", 0.0),
        "autodiff.nodes_per_step": per.get("n:autodiff.nodes", 0.0),
        "models.forward_ms": forward,
        "models.forward_self_ms": per.get("self:models.forward", 0.0),
        "train.adam_step_ms": adam,
        "train.step_self_ms": op_mean - forward - backward - adam,
        "trace.op_ms_mean": op_mean,
        "data.load_manifest_s": a["ms:data.load_manifest"] / 1e3 / max(a["n:data.load_manifest"], 1),
        "tensor.load_tensor_s": a["ms:tensor.load_tensor"] / 1e3 / max(units, 1),
        "tensor.read_mib": a["n:tensor.read_bytes"] / 2**20 / max(units, 1),
        "models.load_model_s": a["ms:models.load_model"] / 1e3 / max(a["n:models.load_model"], 1),
        "train.cv.task_pickle_mib": a["n:train.cv.task_bytes"] / 2**20,
    })
    return out
