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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__, models
from .data import DataError, SegmentDataset, SynthSpec, load_manifest, synth_dataset
from .fusion import FusionSpecError, MaterializeError
from .tensor import file_problem
from .train import TrainConfig


class ConfigError(ValueError):
    pass


TOP_KEYS = {"task", "data", "model", "train", "cv", "profile", "seed", "out", "jobs"}
DATA_KEYS = {"synth", "manifest", "seed", "shuffle_labels"}
SYNTH_KEYS = {f.name for f in fields(SynthSpec)}
MODEL_KEYS = set(models.SPEC_KEYS) - {"profile"}
FUSION_KEYS = set(models.FUSION_KEYS)
TRAIN_KEYS = {f.name for f in fields(TrainConfig)} - {"seed"}  # the run's seed is top-level
CV_KEYS = {"k"}

PROFILES = tuple(models.PROFILES)


def _check_keys(doc: dict, allowed: set, where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _int(value, low: int, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{where} must be an integer >= {low}, got {value!r}")
    return value


TYPE_NAMES = {str: "a string", bool: "true or false", dict: "a JSON object"}


def _typed(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise ConfigError(f"{where} must be {TYPE_NAMES[kind]}, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class RunConfig:
    task: str = "run"
    profile: str = models.DEFAULT_PROFILE
    seed: int = 0
    jobs: int = 1
    k: int = 5
    out: str | None = None
    data: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)

    def fingerprint(self) -> dict:
        """Everything needed to reproduce the run, embedded in every report: not where it
        writes, nor ``jobs``, which cannot change a result."""
        return {**{k: v for k, v in asdict(self).items() if k not in ("out", "jobs")}, "version": __version__}


def _validate_model(model: dict, profile: str) -> dict:
    """Unknown keys and the profile's default ``output_dim`` here, the rest in ``models.topology``."""
    _check_keys(model, MODEL_KEYS, "model")
    spec = {**model, "profile": profile}
    if isinstance(model.get("fusion"), dict):
        _check_keys(model["fusion"], FUSION_KEYS, "model.fusion")
        spec["fusion"] = {**model["fusion"]}
        spec["fusion"].setdefault("output_dim", models.PROFILES[profile]["output_dim"])
    try:
        models.topology(spec)
    except (models.ModelError, FusionSpecError, MaterializeError) as exc:
        raise ConfigError(f"model: {exc}") from None
    return spec


def resolve(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge config file, flag overrides and profile defaults into a RunConfig."""
    merged = {}
    if path is not None:
        if (why := file_problem(path)) is not None:
            raise ConfigError(f"config file {path} {why}")
        with open(path) as fh:
            try:
                merged = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(merged, dict):
            raise ConfigError("config file must hold a JSON object")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}

    for key in ("profile", "seed", "jobs", "out", "task"):
        if key in overrides:
            merged[key] = overrides[key]
    _check_keys(merged, TOP_KEYS, "config")

    profile = merged.get("profile", RunConfig.profile)
    if profile not in PROFILES:
        raise ConfigError(f"profile must be one of {PROFILES}, got {profile!r}")
    seed = _int(merged.get("seed", RunConfig.seed), 0, "seed")
    task = _typed(merged.get("task", RunConfig.task), str, "task")
    out = merged.get("out") or os.environ.get("TRIFUSE_OUT")
    if out is not None:
        _typed(out, str, "out")

    data = dict(_typed(merged.get("data") or {}, dict, "data"))
    for key in ("manifest", "synth", "shuffle_labels"):
        if key in overrides:
            data[key] = overrides[key]
    _check_keys(data, DATA_KEYS, "data")
    _int(data.get("seed", 0), 0, "data.seed")
    for key, kind in (("manifest", str), ("shuffle_labels", bool), ("synth", dict)):
        if key in data:
            _typed(data[key], kind, f"data.{key}")
    if "synth" in data:
        _check_keys(data["synth"], SYNTH_KEYS, "data.synth")
        try:
            SynthSpec(**{"generator": None, "n_trials": None, **data["synth"]}).validate()
        except DataError as exc:
            raise ConfigError(f"data.synth: {exc}") from None

    model_doc = dict(_typed(merged.get("model") or {}, dict, "model"))
    if "model" in overrides:
        model_doc = overrides["model"]
    model_spec = _validate_model(model_doc, profile) if model_doc else {}

    train_doc = dict(_typed(merged.get("train") or {}, dict, "train"))
    _check_keys(train_doc, TRAIN_KEYS, "train")
    train_doc.setdefault("epochs", models.PROFILES[profile]["epochs"])
    for key in TRAIN_KEYS:
        if key in overrides:
            train_doc[key] = overrides[key]
    train_cfg = TrainConfig(seed=seed, **train_doc)
    _int(train_cfg.epochs, 1, "train.epochs")
    _int(train_cfg.batch_size, 2, "train.batch_size")  # batch norm needs two samples
    for key in ("lr", "eps"):
        value = getattr(train_cfg, key)
        if not _is_number(value) or not 0 < value < math.inf:
            raise ConfigError(f"train.{key} must be a finite number > 0, got {value!r}")
    for key in ("beta1", "beta2"):
        value = getattr(train_cfg, key)
        if not _is_number(value) or not 0 <= value < 1:
            raise ConfigError(f"train.{key} must be a number in [0, 1), got {value!r}")
    for key in ("shuffle", "trial_vote"):
        _typed(getattr(train_cfg, key), bool, f"train.{key}")

    cv_doc = dict(_typed(merged.get("cv") or {}, dict, "cv"))
    _check_keys(cv_doc, CV_KEYS, "cv")
    k = overrides["k"] if "k" in overrides else cv_doc.get("k", RunConfig.k)
    if isinstance(k, bool) or not isinstance(k, int) or k < 2:
        raise ConfigError(f"k must be at least 2 folds, got {k!r}")

    return RunConfig(
        task=task, profile=profile, seed=seed, jobs=_int(merged.get("jobs", RunConfig.jobs), 1, "jobs"),
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
        # permute the trials' labels, then give each segment its trial's new label
        rng = np.random.default_rng(int(cfg.data.get("seed", cfg.seed)) + 1)
        ds = SegmentDataset(ds.eeg, ds.oxy, ds.deoxy, rng.permutation(ds.labels[ds.trial_first])[ds.trial_of],
                            ds.trial_ids, ds.offsets, ds.subjects, ds.planted)
    return ds
