"""The benchmark's three workloads, their seeded inputs and their output checks.

Every workload is a closed loop in one process: the benchmark calls the
library, waits for the call to return, and calls again until its time is up.
A *unit* is one timed call (a ``train.train`` run, a ``train.evaluate`` pass
or a ``trifuse cv`` command); an *op* is one step inside it (the interval
between ``adam_step`` returns, or one ``ModelGraph.predict`` call).

Inputs are written by the library's own generators and savers, once per
seed, into a cache directory; the timed code only receives those files.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import trifuse
from trifuse import cli, data, models, train

from tracing import LAYER_UNITS, Recorder, layer_metrics

PF3 = {"type": "fused", "profile": "full",
       "fusion": {"kind": "PF", "order": 3, "rank": 16, "symmetric": True, "output_dim": 128}}
TF_DESK = {"type": "fused", "profile": "desk", "fusion": {"kind": "TF", "rank": 16, "output_dim": 16}}

# Sizes are chosen so one unit takes a few seconds on a 2-core machine:
# enough units per run for a median, enough ops per unit for a tail.
SIZES = {
    "train-full-pf3": {"trials": 160, "epochs": 2, "batch": 16},
    "eval-full-pf3": {"trials": 512, "eval_batch": 16, "ckpt_trials": 64},
    "cv-disk-tf": {"trials": 400, "epochs": 1, "k": 5, "jobs": 2},
}
WORKERS = {"train-full-pf3": 1, "eval-full-pf3": 1, "cv-disk-tf": SIZES["cv-disk-tf"]["jobs"]}
OP_KIND = {"train-full-pf3": "step", "eval-full-pf3": "predict", "cv-disk-tf": "step"}

PROBE_SEED = 2004_12081  # fixed: reference outputs do not depend on --seed
PROBE_SIZES = {"fused_trials": 32, "fused_epochs": 2, "logit_rows": 8, "cv_trials": 40, "cv_epochs": 2}
MIN_UNITS = 2  # units per phase, however short the run: a median needs more than one
MIN_SETUPS = 9  # set-ups per untraced run, so that setup_s is a median of several

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "seg_per_s": "segments/s", "op_ms_p50": "ms",
    "op_ms_tail": "ms", "peak_rss_mib": "MiB",
}


def sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def interaction(trials: int, seed: int) -> data.SegmentDataset:
    return data.synth_dataset(data.SynthSpec("interaction", n_trials=trials, noise=0.1), seed=seed)


# ---------------------------------------------------------------------------
# inputs

def generate(workload: str, seed: int, outdir: str, size: dict) -> None:
    """Write one workload's inputs for one seed (manifests and checkpoints)."""
    if workload == "eval-full-pf3":
        ds = interaction(size["ckpt_trials"], sub_seed(seed, 1))
        model = models.build_from_spec(PF3, seed=seed)
        cfg = train.TrainConfig(epochs=1, batch_size=16, seed=seed)
        train.train(model, ds, (np.arange(len(ds)), np.arange(0)), cfg)
        models.save_model(model, os.path.join(outdir, "checkpoint"))
    data.save_segments_manifest(interaction(size["trials"], seed), os.path.join(outdir, "data"))


def generate_probes(outdir: str) -> None:
    size = PROBE_SIZES
    data.save_segments_manifest(interaction(size["fused_trials"], PROBE_SEED), os.path.join(outdir, "fused"))
    # additive data, so that the few probe epochs already separate some folds
    cv_set = data.synth_dataset(data.SynthSpec("additive", n_trials=size["cv_trials"], noise=0.1), PROBE_SEED + 1)
    data.save_segments_manifest(cv_set, os.path.join(outdir, "cv"))


def cached(cache_root: str, key: str, make) -> str:
    """Directory ``cache_root/key``, built by ``make(dir)`` on first use.

    Built into a temporary directory and renamed, so an interrupted run never
    leaves a half-written entry. Entries are never evicted: a comparison
    cycles through its seeds, and each must stay cached for the next set.
    """
    path = os.path.join(cache_root, key)
    if not os.path.isdir(path):
        os.makedirs(cache_root, exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        make(tmp)
        os.replace(tmp, path)
    return path


def size_key(size: dict) -> str:
    return hashlib.sha256(json.dumps(size, sort_keys=True).encode()).hexdigest()[:10]


def input_dir(cache: str, workload: str, seed: int, size: dict) -> str:
    return cached(os.path.join(cache, workload), f"seed{seed}-{size_key(size)}",
                  lambda d: generate(workload, seed, d, size))


def probe_dir(cache: str) -> str:
    # keyed by the sizes, so a cache left by an older benchmark is not reused
    return cached(os.path.join(cache, "probe"), size_key(PROBE_SIZES), generate_probes)


# ---------------------------------------------------------------------------
# reference probes: fixed inputs, compared against references.json

def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


def probe_fused(pdir: str, scratch: str) -> dict:
    """Train the reference PF3 model briefly, round-trip its checkpoint, and
    return its loss trajectory, probe logits and a prediction digest."""
    size = PROBE_SIZES
    ds = data.load_manifest(os.path.join(pdir, "fused"))
    model = models.build_from_spec(PF3, seed=0)
    cfg = train.TrainConfig(epochs=size["fused_epochs"], batch_size=16, seed=0)
    report = train.train(model, ds, (np.arange(len(ds)), np.arange(0)), cfg)
    ckpt = os.path.join(scratch, "probe-checkpoint")
    models.save_model(model, ckpt)
    loaded = models.load_model(ckpt)
    shutil.rmtree(ckpt)
    rows = slice(0, size["logit_rows"])
    logits = loaded.forward((ds.eeg[rows], ds.oxy[rows], ds.deoxy[rows]))
    preds = train.predict_labels(loaded, ds, np.arange(len(ds)))
    return {"losses": report.losses, "logits": np.asarray(logits).tolist(), "pred_digest": _digest(preds)}


def cv_argv(manifest: str, out: str, seed: int, size: dict) -> list[str]:
    return ["cv", "--data", manifest, "--model", "tf", "--rank", "16", "--profile", "desk",
            "--k", str(size["k"]), "--jobs", str(size["jobs"]), "--epochs", str(size["epochs"]),
            "--seed", str(seed), "--out", out]


def read_cv_report(out: str) -> tuple[bytes, dict]:
    with open(os.path.join(out, "cv_report.json"), "rb") as fh:
        raw = fh.read()
    return raw, json.loads(raw)


def probe_cv(pdir: str, scratch: str) -> dict:
    out = os.path.join(scratch, "probe-cv")
    cfg = {"k": 5, "jobs": 2, "epochs": PROBE_SIZES["cv_epochs"]}
    # the command's summary would precede the benchmark's own output lines
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(cv_argv(os.path.join(pdir, "cv"), out, 0, cfg))
    if code != 0:
        return {"exit_code": code}
    _, rep = read_cv_report(out)
    shutil.rmtree(out)
    keys = ("fold_accuracies", "mean_accuracy", "std_accuracy", "loss_history")
    return {"exit_code": code, **{k: rep[k] for k in keys}}


def _close(name, got, want, rtol, atol) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, reference {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite values"]
    bad = np.abs(got - want) > atol + rtol * np.abs(want)
    if bad.any():
        err = float(np.max(np.abs(got - want) / (atol + rtol * np.abs(want))))
        return [f"{name}: {int(bad.sum())} value(s) outside tolerance (worst {err:.3g}x the allowed error)"]
    return []


def compare_probe(kind: str, got: dict, refs: dict) -> list[str]:
    """Mismatches between a probe result and the stored reference."""
    want, tol = refs[kind], refs["tolerance"]
    if kind == "fused":
        return (_close("probe losses", got["losses"], want["losses"], tol["loss_rtol"], 0.0)
                + _close("probe logits", got["logits"], want["logits"], tol["logit_rtol"], tol["logit_atol"])
                + ([] if got["pred_digest"] == want["pred_digest"] else ["probe prediction digest differs"]))
    if got["exit_code"] != 0:
        return [f"probe cv exited with code {got['exit_code']}"]
    acc = tol["accuracy_atol"]
    return (_close("probe cv fold accuracies", got["fold_accuracies"], want["fold_accuracies"], 0.0, acc)
            + _close("probe cv mean accuracy", got["mean_accuracy"], want["mean_accuracy"], 0.0, acc)
            + _close("probe cv std accuracy", got["std_accuracy"], want["std_accuracy"], 0.0, acc)
            + _close("probe cv losses", got["loss_history"], want["loss_history"], tol["loss_rtol"], 0.0))


def check_references(workload: str, cache: str, scratch: str, refs: dict) -> list[str]:
    """Run the workload's reference probe and return its mismatches with ``refs``.

    The probe trains a model of its own, so it must not run in the process
    whose peak memory is measured.
    """
    kind = "cv" if workload == "cv-disk-tf" else "fused"
    try:
        got = (probe_cv if kind == "cv" else probe_fused)(probe_dir(cache), scratch)
        return compare_probe(kind, got, refs)
    except Exception as exc:
        return [f"probe {type(exc).__name__}: {exc}"]
    finally:
        gc.collect()


def add_check(result: dict, problems: list[str]) -> dict:
    """Count one more checked operation, failed if ``problems``, into a result of :func:`measure`."""
    result["attempted"] += 1
    result["failed"] += bool(problems)
    result["correct"] = result["failed"] == 0
    notes = result["notes"]
    notes["problems"] = (problems + notes["problems"])[:20]
    notes["failed_frac"] = result["failed"] / result["attempted"]
    return result


# ---------------------------------------------------------------------------
# units: setup (timed apart), then one timed call and its output checks

@dataclass
class Unit:
    """Result of one unit: wall time, segments processed, problems found."""

    wall_s: float
    segments: int
    problems: list[str]
    fingerprint: object = None  # must repeat exactly across the units of a run


def setup(workload: str, idir: str, seed: int):
    """Load the inputs and build the model the unit needs."""
    if workload == "train-full-pf3":
        return data.load_manifest(os.path.join(idir, "data")), models.build_from_spec(PF3, seed=seed)
    if workload == "eval-full-pf3":
        return data.load_manifest(os.path.join(idir, "data")), models.load_model(os.path.join(idir, "checkpoint"))
    # the cv command loads its own copy, so keep only the segment count
    n_segments = len(data.load_manifest(os.path.join(idir, "data")))
    return n_segments, models.build_from_spec(TF_DESK, seed=seed)


def run_unit(workload: str, state, rec: Recorder, idir: str, seed: int, size: dict, scratch: str) -> Unit:
    if workload == "train-full-pf3":
        ds, model = state
        cfg = train.TrainConfig(epochs=size["epochs"], batch_size=size["batch"], seed=seed)
        rec.mark_unit()
        t0 = time.perf_counter()
        report = train.train(model, ds, (np.arange(len(ds)), np.arange(0)), cfg)
        wall = time.perf_counter() - t0
        losses = report.losses
        problems = [] if np.all(np.isfinite(losses)) else ["non-finite training loss"]
        return Unit(wall, size["epochs"] * len(ds), problems, losses)

    if workload == "eval-full-pf3":
        ds, model = state
        t0 = time.perf_counter()
        stats = train.evaluate(model, ds, np.arange(len(ds)), eval_batch=size["eval_batch"])
        wall = time.perf_counter() - t0
        rows = slice(0, 4)
        logits = model.forward((ds.eeg[rows], ds.oxy[rows], ds.deoxy[rows]))
        problems = [] if np.all(np.isfinite(logits)) else ["non-finite logits"]
        return Unit(wall, len(ds), problems, (_digest(stats["correct"]), stats["accuracy"]))

    n_segments = state[0]
    out = os.path.join(scratch, "cv")
    t0 = time.perf_counter()
    code = cli.main(cv_argv(os.path.join(idir, "data"), out, seed, size))
    wall = time.perf_counter() - t0
    if code != 0:
        return Unit(wall, 0, [f"cv exited with code {code}"])
    raw, rep = read_cv_report(out)
    shutil.rmtree(out)
    problems = check_cv_report(rep, size["k"])
    if rec.merge_fold_files() != size["k"]:
        problems.append("fold workers did not report every fold")
    n_train = size["epochs"] * (size["k"] - 1) * n_segments
    return Unit(wall, n_train, problems, hashlib.sha256(raw).hexdigest())


def check_cv_report(rep: dict, k: int) -> list[str]:
    """Internal consistency of a cv report's accuracy fields."""
    accs = np.asarray(rep["fold_accuracies"], dtype=float)
    problems = []
    if len(accs) != k or rep["k"] != k:
        problems.append(f"cv report has {len(accs)} folds, expected {k}")
    if not np.all((accs >= 0) & (accs <= 1)):
        problems.append("fold accuracy outside [0, 1]")
    if abs(rep["mean_accuracy"] - float(np.mean(accs))) > 1e-12:
        problems.append("mean_accuracy is not the mean of fold_accuracies")
    if abs(rep["std_accuracy"] - float(np.std(accs))) > 1e-12:
        problems.append("std_accuracy is not the std of fold_accuracies")
    if not np.all(np.isfinite(np.asarray(rep["loss_history"], dtype=float))):
        problems.append("non-finite loss in cv loss_history")
    return problems


# ---------------------------------------------------------------------------
# measurement

def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (>= 50)."""
    return max(50, math.floor(100 * (1 - 10 / n))) if n else 50


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mib(children: bool) -> float:
    """Peak resident memory of this process, or of it and its waited-for children.

    Read from VmHWM, not ru_maxrss: Linux carries the peak of the process
    that ran ``exec`` over into the ru_maxrss of the program it started, so
    a measuring child would report the peak of the ``run.py`` that spawned it.
    """
    with open("/proc/self/status") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


@dataclass
class Phase:
    """Units run under one recorder until a time budget is spent."""

    rec: Recorder
    setup_s: list[float] = field(default_factory=list)
    units: list[Unit] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_one(phase: Phase, workload, seed, idir, size, scratch) -> bool:
    """Set up and run one unit under the phase's recorder; False once a unit raised."""
    phase.attempted += 1
    with phase.rec.install(trifuse):
        try:
            t0 = time.perf_counter()
            state = setup(workload, idir, seed)
            phase.setup_s.append(time.perf_counter() - t0)
            unit = run_unit(workload, state, phase.rec, idir, seed, size, scratch)
        except Exception as exc:  # a failed unit is counted and reported, and ends the run
            phase.failed += 1
            phase.problems.append(f"{type(exc).__name__}: {exc}")
            return False
    # tapes hold reference cycles; collect them so each unit starts from the
    # same heap and peak memory does not grow with run length
    del state
    gc.collect()
    if phase.units and unit.fingerprint != phase.units[0].fingerprint:
        unit.problems.append("output differs from the first unit of this run")
    phase.failed += bool(unit.problems)
    phase.problems += unit.problems
    phase.units.append(unit)
    return True


def run_phases(workload, seed, seconds, modes, idir, size, scratch, min_units=MIN_UNITS) -> list[Phase]:
    """One phase per tracing mode in ``modes``; their units alternate until ``seconds`` are spent,
    so a traced and an untraced phase see the same machine conditions."""
    fold_dir = os.path.join(scratch, "folds") if workload == "cv-disk-tf" else None
    if fold_dir:
        os.makedirs(fold_dir, exist_ok=True)
    phases = [Phase(Recorder(traced, OP_KIND[workload], fold_dir)) for traced in modes]
    start = time.perf_counter()
    ok = True
    while ok and (any(len(ph.units) < min_units for ph in phases) or time.perf_counter() - start < seconds):
        ok = all(run_one(ph, workload, seed, idir, size, scratch) for ph in phases)
    plain = phases[0]  # more set-up samples for a steady setup_s, which only untraced runs report
    while ok and len(plain.setup_s) < MIN_SETUPS:
        t0 = time.perf_counter()
        setup(workload, idir, seed)
        plain.setup_s.append(time.perf_counter() - t0)
        gc.collect()
    return phases


def end_to_end(phase: Phase, children: bool) -> tuple[dict, dict]:
    """End-to-end metrics and notes (sample counts, tail percentile)."""
    ops = phase.rec.op_ms
    q = tail_percentile(len(ops))
    metrics = {
        "setup_s": float(np.median(phase.setup_s)),
        "wall_s": float(np.median([u.wall_s for u in phase.units])),
        "seg_per_s": float(np.median([u.segments / u.wall_s for u in phase.units])),
        "op_ms_p50": percentile(ops, 50),
        "op_ms_tail": percentile(ops, q),
        "peak_rss_mib": peak_rss_mib(children),
    }
    notes = {"units": len(phase.units), "setups": len(phase.setup_s), "ops": len(ops), "tail_percentile": q}
    return metrics, notes


def traced_metrics(plain: Phase, traced: Phase, workload: str, idir: str, seed: int,
                   children: bool) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, and its overhead against the untraced one."""
    metrics = layer_metrics(traced.rec, len(traced.units))
    _, model = setup(workload, idir, seed)
    metrics["fusion.param_count"] = float(model.fusion_param_count())
    metrics["models.param_count"] = float(model.param_count())
    metrics["trace.op_ms_p50"] = percentile(traced.rec.op_ms, 50)
    metrics["trace.overhead_ms"] = metrics["trace.op_ms_p50"] - percentile(plain.rec.op_ms, 50)
    metrics["train.cv.children_peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 if children else 0.0)
    return metrics, {"untraced_ops": len(plain.rec.op_ms), "traced_ops": len(traced.rec.op_ms)}


def measure(workload: str, seed: int, seconds: float, trace: bool, cache: str, scratch: str,
            size: dict | None = None) -> dict:
    """One benchmark run of timed units, without the reference probe; returns the result object."""
    size = size or SIZES[workload]
    os.makedirs(scratch, exist_ok=True)
    idir = input_dir(cache, workload, seed, size)
    problems, failed, attempted = [], 0, 0

    children = workload == "cv-disk-tf"
    phases = run_phases(workload, seed, seconds, (False, True) if trace else (False,), idir, size, scratch)
    metrics, notes = {}, {}
    if not all(ph.units and ph.rec.op_ms for ph in phases):
        problems.append("a phase completed no unit or recorded no op")
        failed += 1
    elif trace:
        metrics, notes = traced_metrics(*phases, workload, idir, seed, children)
    else:
        metrics, notes = end_to_end(phases[0], children)
    for ph in phases:
        attempted += ph.attempted
        failed += ph.failed
        problems += ph.problems
    units = {**E2E_UNITS, **LAYER_UNITS}
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()},
        "notes": {**notes, "failed_frac": failed / attempted, "problems": problems[:20]},
    }
