"""Run configuration: one JSON document (or CLI flags) describing the data
source, model, trainer and outputs of an experiment.

Precedence: command-line flags > config file > profile defaults. Unknown keys
anywhere in the document are rejected. The resolved configuration is embedded
verbatim in every report as the reproducibility fingerprint.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, models
from .data import SegmentDataset, SynthSpec, load_manifest, synth_dataset
from .fusion import FusionSpecError, MaterializeError
from .train import TrainConfig


class ConfigError(ValueError):
    pass


TOP_KEYS = {"task", "data", "model", "train", "cv", "profile", "seed", "out", "jobs"}
DATA_KEYS = {"synth", "manifest", "seed", "shuffle_labels"}
SYNTH_KEYS = {"generator", "n_trials", "segments_per_trial", "noise", "n_subjects"}
MODEL_KEYS = {"type", "modality", "fusion", "l2_normalize"}
FUSION_KEYS = {"kind", "output_dim", "rank", "order", "symmetric", "path", "augment_one"}
TRAIN_KEYS = {"epochs", "batch_size", "lr", "beta1", "beta2", "eps", "shuffle", "eval_batch", "trial_vote"}
CV_KEYS = {"k"}

PROFILES = ("full", "desk")
# full is the reference protocol (300 epochs, 128-long fused vector); desk
# shrinks epochs and the fused vector for laptop-scale runs (conv widths
# shrink inside models.py)
PROFILE_DEFAULTS = {
    "full": {"epochs": 300, "output_dim": 128},
    "desk": {"epochs": 30, "output_dim": 16},
}


def _check_keys(doc: dict, allowed: set, where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _positive_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{where} must be an integer >= 1, got {value!r}")
    return value


@dataclass
class RunConfig:
    task: str = "run"
    profile: str = "full"
    seed: int = 0
    jobs: int = 1
    k: int = 5
    out: str | None = None
    data: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)

    def fingerprint(self) -> dict:
        """Everything needed to reproduce the run, embedded in every report."""
        return {
            "task": self.task, "profile": self.profile, "seed": self.seed,
            "jobs": self.jobs, "k": self.k,
            "data": self.data, "model": self.model, "train": asdict(self.train),
            "version": __version__,
        }


def _validate_model(model: dict, profile: str) -> dict:
    _check_keys(model, MODEL_KEYS, "model")
    kind = model.get("type")
    if kind == "single":
        if model.get("modality") not in ("eeg", "oxy", "deoxy"):
            raise ConfigError("single model needs modality eeg|oxy|deoxy")
        return {"type": "single", "modality": model["modality"], "profile": profile}
    if kind == "fused":
        fusion = dict(model.get("fusion") or {})
        _check_keys(fusion, FUSION_KEYS, "model.fusion")
        if fusion.get("kind") not in ("LF", "TF", "PF"):
            raise ConfigError("model.fusion.kind must be LF, TF or PF")
        fusion.setdefault("output_dim", PROFILE_DEFAULTS[profile]["output_dim"])
        try:
            fusion_spec = models.make_fusion_spec(fusion, models.extractor_plans(profile))
            if fusion_spec.path == "full":
                fusion_spec.check_materializable()
        except (FusionSpecError, MaterializeError) as exc:
            raise ConfigError(f"model.fusion: {exc}") from None
        spec = {"type": "fused", "profile": profile, "fusion": fusion}
        if "l2_normalize" in model:
            spec["l2_normalize"] = bool(model["l2_normalize"])
        return spec
    raise ConfigError(f"model.type must be 'single' or 'fused', got {kind!r}")


def resolve(doc: dict | None = None, path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge config file, flag overrides and profile defaults into a RunConfig."""
    doc = dict(doc or {})
    if path is not None:
        with open(path) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        doc = {**loaded, **doc}
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}

    merged = dict(doc)
    for key in ("profile", "seed", "jobs", "out", "task"):
        if key in overrides:
            merged[key] = overrides[key]
    _check_keys(merged, TOP_KEYS, "config")

    profile = merged.get("profile", "full")
    if profile not in PROFILES:
        raise ConfigError(f"profile must be one of {PROFILES}, got {profile!r}")

    data = dict(merged.get("data") or {})
    _check_keys(data, DATA_KEYS, "data")
    for key in ("manifest", "synth", "data_seed", "shuffle_labels"):
        if key in overrides:
            data[key.replace("data_", "")] = overrides[key]
    if "synth" in data:
        _check_keys(dict(data["synth"]), SYNTH_KEYS, "data.synth")

    model_doc = dict(merged.get("model") or {})
    if "model" in overrides:
        model_doc = overrides["model"]
    model_spec = _validate_model(model_doc, profile) if model_doc else {}

    train_doc = dict(merged.get("train") or {})
    _check_keys(train_doc, TRAIN_KEYS, "train")
    train_doc.setdefault("epochs", PROFILE_DEFAULTS[profile]["epochs"])
    for key in TRAIN_KEYS:
        if key in overrides:
            train_doc[key] = overrides[key]
    train_cfg = TrainConfig(seed=int(merged.get("seed", 0)), **train_doc)
    _positive_int(train_cfg.batch_size, "train.batch_size")
    _positive_int(train_cfg.eval_batch, "train.eval_batch")
    if not isinstance(train_cfg.lr, (int, float)) or not 0 < train_cfg.lr < math.inf:
        raise ConfigError(f"train.lr must be a finite number > 0, got {train_cfg.lr!r}")

    cv_doc = dict(merged.get("cv") or {})
    _check_keys(cv_doc, CV_KEYS, "cv")
    k = int(overrides["k"] if "k" in overrides else cv_doc.get("k", 5))
    if k < 2:
        raise ConfigError(f"k must be at least 2 folds, got {k}")

    out = merged.get("out") or os.environ.get("TRIFUSE_OUT")
    return RunConfig(
        task=str(merged.get("task", "run")), profile=profile,
        seed=int(merged.get("seed", 0)), jobs=_positive_int(merged.get("jobs", 1), "jobs"),
        k=k, out=out, data=data, model=model_spec, train=train_cfg,
    )


def load_dataset(cfg: RunConfig) -> SegmentDataset:
    """Materialize the configured data source (manifest file or generator)."""
    if "manifest" in cfg.data and "synth" in cfg.data:
        raise ConfigError("data: give either 'manifest' or 'synth', not both")
    if "manifest" in cfg.data:
        ds = load_manifest(cfg.data["manifest"])
    elif "synth" in cfg.data:
        spec = SynthSpec(**cfg.data["synth"])
        ds = synth_dataset(spec, seed=int(cfg.data.get("seed", cfg.seed)))
    else:
        raise ConfigError("data: needs a 'manifest' path or a 'synth' generator spec")
    if cfg.data.get("shuffle_labels"):
        rng = np.random.default_rng(int(cfg.data.get("seed", cfg.seed)) + 1)
        ds = SegmentDataset(ds.eeg, ds.oxy, ds.deoxy, rng.permutation(ds.labels),
                            ds.trial_ids, ds.offsets, ds.subjects, ds.planted)
    return ds
