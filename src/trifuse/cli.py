"""Command-line interface.

Commands: ``train``, ``cv``, ``synth``, ``verify``, ``params``, ``segment``.
Exit codes: 0 success, 1 verification/validation failure, 2 usage error,
3 runtime or data error. Artifacts are written atomically (temp + rename) and
every report embeds the resolved configuration, seeds and library version.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool

from . import __version__, config, data, models, train, verify
from .fusion import KINDS, PATHS, FusionSpec, FusionSpecError, param_count

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

MAX_COUNT_DIGITS = 4300  # the longest int Python converts to a string by default

# an empty --out, or what train, cv, and synth or segment leave in it: the only
# directory contents the final swap may replace
OUT_ENTRIES = (set(), {"checkpoint", "train_report.json"}, {"cv_report.json", "folds.csv"},
               {data.MANIFEST_NAME, *data.SEGMENT_ARRAYS.values()})


class _Atomic:
    """Stage artifacts in a temp dir, swap into place only on success.

    An existing artifact is renamed to a sibling ``.old-*`` dir before the
    swap and deleted after it; if the swap fails it is renamed back.
    """

    def __init__(self, final: str):
        self.final = final

    def __enter__(self):
        os.makedirs(os.path.dirname(os.path.abspath(self.final)), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=".tmp-", dir=os.path.dirname(os.path.abspath(self.final)))
        return self.tmp

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            return False
        old = None
        if os.path.exists(self.final):
            tmp_dir, tmp_name = os.path.split(self.tmp)
            old = os.path.join(tmp_dir, ".old-" + tmp_name[len(".tmp-"):])
            os.replace(self.final, old)
        try:
            os.replace(self.tmp, self.final)
        except OSError:
            if old is not None:
                os.replace(old, self.final)
            shutil.rmtree(self.tmp, ignore_errors=True)
            raise
        if old is not None:
            shutil.rmtree(old)
        return False


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory (default: $TRIFUSE_OUT)")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--profile", choices=config.PROFILES, help="desk: small widths and epochs; full: reference protocol")
    p.add_argument("--task", help="experiment label embedded in reports")


def _add_data(p: argparse.ArgumentParser):
    p.add_argument("--data", dest="manifest", help="dataset manifest (trials or segments kind)")
    p.add_argument("--synth", choices=data.GENERATORS, help="generate synthetic data instead of loading a manifest")
    p.add_argument("--trials", type=int, help="synthetic trial count")
    p.add_argument("--segments-per-trial", type=int, help="synthetic segments per trial")
    p.add_argument("--noise", type=float, help="synthetic noise level")
    p.add_argument("--subjects", type=int, help="synthetic subject count")
    p.add_argument("--shuffle-labels", action="store_true", default=None,
                   help="permute labels (chance-level control)")


def _add_model(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=[*data.MODALITIES, *(kind.lower() for kind in KINDS)],
                   help="single-modal classifier or fusion kind")
    p.add_argument("--order", type=int, help="polynomial order p (PF)")
    p.add_argument("--rank", type=int, help="CP rank R (TF/PF factorized)")
    p.add_argument("--symmetric", action="store_true", default=None, help="share one PF factor tensor")
    p.add_argument("--path", choices=PATHS, help="fusion weight representation")
    p.add_argument("--output-dim", type=int, help="fused vector length")
    p.add_argument("--l2-normalize", action="store_true", default=None,
                   help="L2-normalize the fused vector even for LF")


def _add_train(p: argparse.ArgumentParser):
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--trial-vote", action="store_true", default=None,
                   help="also report majority vote over each trial's segments; a tie votes class 0")


def _model_override(args) -> dict | None:
    if args.model is None:
        return None
    if args.model in data.MODALITIES:
        return {"type": "single", "modality": args.model}
    fusion = {"kind": args.model.upper()}
    for key in ("order", "rank", "symmetric", "path", "output_dim"):
        if getattr(args, key) is not None:
            fusion[key] = getattr(args, key)
    model = {"type": "fused", "fusion": fusion}
    if args.l2_normalize is not None:
        model["l2_normalize"] = args.l2_normalize
    return model


def _overrides(args) -> dict:
    # a setting with no flag on this command is None, as is a flag not given: resolve drops both
    keys = ("out", "seed", "profile", "task", "jobs", "k", *config.TRAIN_KEYS, "manifest", "shuffle_labels")
    out = {key: getattr(args, key, None) for key in keys}
    out["model"] = _model_override(args) if hasattr(args, "model") else None
    if getattr(args, "synth", None) is not None:
        synth = {"generator": args.synth}
        for key, val in (("n_trials", args.trials), ("segments_per_trial", args.segments_per_trial),
                         ("noise", args.noise), ("n_subjects", args.subjects)):
            if val is not None:
                synth[key] = val
        out["synth"] = synth
    return out


def _resolve(args) -> config.RunConfig:
    return config.resolve(path=args.config if getattr(args, "config", None) else None,
                          overrides=_overrides(args))


def _require_out(cfg: config.RunConfig) -> str:
    """The run's output directory. Refused, before any work, where the final swap
    would replace a file, a directory that holds the run's data manifest, a
    non-empty directory that no trifuse command wrote, or one that holds a payload
    the run's data manifest names."""
    out = cfg.out
    if not out:
        raise config.ConfigError("no output directory: pass --out, set 'out' in the config, or export TRIFUSE_OUT")
    if os.path.lexists(out) and not os.path.isdir(out):
        raise config.ConfigError(f"output path {out} exists and is not a directory")
    manifest, real_out = cfg.data.get("manifest"), os.path.realpath(out)
    if manifest and os.path.isdir(out) and os.path.commonpath([real_out, os.path.realpath(manifest)]) == real_out:
        raise config.ConfigError(f"output directory {out} holds the data manifest {manifest}; "
                                 "replacing it would delete the dataset")
    if os.path.isdir(out) and set(os.listdir(out)) not in OUT_ENTRIES:
        raise config.ConfigError(f"output directory {out} holds files no trifuse command wrote; "
                                 "pass a new or empty directory, or a previous run's output")
    held = data.manifest_payloads(manifest) if manifest and os.path.isdir(out) else []
    for payload in held:
        if os.path.commonpath([real_out, os.path.realpath(payload)]) == real_out:
            raise config.ConfigError(f"output directory {out} holds {payload}, a payload of the data manifest "
                                     f"{manifest}; replacing it would delete the dataset")
    return out


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    cfg = _resolve(args)
    if not cfg.model:
        raise config.ConfigError("train needs a model (--model or config 'model')")
    out = _require_out(cfg)
    ds = config.load_dataset(cfg)
    plan = data.make_folds(ds, k=cfg.k, seed=cfg.seed)
    split = data.fold_indices(ds, plan, fold=0)
    model = models.build_from_spec(cfg.model, seed=cfg.seed)
    report = train.train(model, ds, split, cfg.train, fingerprint=cfg.fingerprint(), fold=0)
    with _Atomic(out) as tmp:
        models.save_model(model, os.path.join(tmp, "checkpoint"))
        train.write_report(report, os.path.join(tmp, "train_report.json"))
    acc = "n/a" if report.test_accuracy is None else f"{report.test_accuracy:.4f}"
    print(f"trained {cfg.model.get('type')} model: held-out accuracy {acc} "
          f"({report.n_train} train / {report.n_test} test segments)")
    print(f"artifacts: {out}/checkpoint, {out}/train_report.json")
    return EXIT_OK


def cmd_cv(args) -> int:
    cfg = _resolve(args)
    if not cfg.model:
        raise config.ConfigError("cv needs a model (--model or config 'model')")
    out = _require_out(cfg)
    ds = config.load_dataset(cfg)
    report = train.cross_validate(cfg.model, ds, k=cfg.k, config=cfg.train,
                                  fingerprint=cfg.fingerprint(), jobs=cfg.jobs)
    with _Atomic(out) as tmp:
        train.write_report(report, os.path.join(tmp, "cv_report.json"))
        train.write_fold_offset_csv(report, os.path.join(tmp, "folds.csv"))
    print(f"{cfg.k}-fold accuracy: {report.mean_accuracy:.4f} +/- {report.std_accuracy:.4f} "
          f"(folds: {', '.join(f'{a:.4f}' for a in report.fold_accuracies)})")
    print(f"artifacts: {out}/cv_report.json, {out}/folds.csv")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _resolve(args)
    out = _require_out(cfg)
    if "synth" not in cfg.data:
        raise config.ConfigError("synth needs a generator (--synth or config data.synth)")
    ds = config.load_dataset(cfg)
    with _Atomic(out) as tmp:
        data.save_segments_manifest(ds, tmp)
    print(f"wrote {len(ds)} segments ({ds.labels.mean():.2%} positive) to {out}")
    return EXIT_OK


def cmd_segment(args) -> int:
    cfg = _resolve(args)
    out = _require_out(cfg)
    if "manifest" not in cfg.data:
        raise config.ConfigError("segment needs --data pointing at a trials manifest")
    ds = data.load_manifest(cfg.data["manifest"])
    with _Atomic(out) as tmp:
        data.save_segments_manifest(ds, tmp)
    print(f"segmented {len(ds.trial_first)} trials into {len(ds)} windows -> {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_checks(name_filter=args.filter, checkpoint=args.checkpoint)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name:{width}}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_params(args) -> int:
    dims, o, r, p = tuple(args.dims), args.output_dim, args.rank, args.order
    try:
        rows = [
            ("LF", FusionSpec("LF", dims, o)),
            ("TF full", FusionSpec("TF", dims, o, path="full")),
            ("TF factorized", FusionSpec("TF", dims, o, rank=r)),
            (f"PF p={p} full", FusionSpec("PF", dims, o, order=p, path="full")),
            (f"PF p={p} factorized", FusionSpec("PF", dims, o, rank=r, order=p)),
            (f"PF p={p} symmetric", FusionSpec("PF", dims, o, rank=r, order=p, symmetric=True)),
        ]
    except FusionSpecError as exc:
        raise config.ConfigError(str(exc)) from None
    # every count must print: bound the PF full count concat_dim**p * o by its log
    # before param_shapes builds a p-long shape (concat_dim >= 3 gives over p/3
    # digits); the other counts are products of a few inputs, cheap to compute
    if p > 3 * MAX_COUNT_DIGITS or p * math.log10(sum(dims)) + math.log10(o) >= MAX_COUNT_DIGITS:
        too_long = f"PF p={p} full"
    else:
        counts = [(label, param_count(spec)) for label, spec in rows]
        too_long = next((label for label, n in counts if n >= 10**MAX_COUNT_DIGITS), None)
    if too_long:
        raise config.ConfigError(f"the {too_long} count would have more than {MAX_COUNT_DIGITS} "
                                 "digits, too long to print")
    print(f"fusion parameter counts for feature lengths {dims}, fused length {o}:")
    for label, n in counts:
        print(f"  {label:24} {n:>18,}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifuse",
        description="Tri-modal EEG/NIRS fusion classifiers: train, cross-validate and verify.",
    )
    parser.add_argument("--version", action="version", version=f"trifuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model on fold 0 and checkpoint it")
    for add in (_add_common, _add_data, _add_model, _add_train):
        add(p)
    p.add_argument("--k", type=int, help="fold count used to carve the held-out split")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("cv", help="k-fold cross validation")
    for add in (_add_common, _add_data, _add_model, _add_train):
        add(p)
    p.add_argument("--k", type=int, help="fold count")
    p.add_argument("--jobs", type=int, help="folds trained in parallel (default 1, deterministic)")
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("synth", help="generate a synthetic dataset manifest")
    for add in (_add_common, _add_data):
        add(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("segment", help="slice a trials manifest into 3s windows")
    for add in (_add_common, _add_data):
        add(p)
    p.set_defaults(fn=cmd_segment)

    p = sub.add_parser("verify", help="run the oracle suite (identities, reconstruction, gradients)")
    p.add_argument("--filter", help="run only checks whose name contains this substring")
    p.add_argument("--checkpoint", help="also digest-check and reconstruct a saved model")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("params", help="parameter-count table for the fusion layers")
    p.add_argument("--dims", type=int, nargs=3, default=[120, 144, 144],
                   help="feature lengths A B C (default: 120 144 144)")
    p.add_argument("--output-dim", type=int, default=128, help="fused vector length (default 128)")
    p.add_argument("--rank", type=int, default=16, help="CP rank (default 16)")
    p.add_argument("--order", type=int, default=5, help="polynomial order (default 5)")
    p.set_defaults(fn=cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except config.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (data.DataError, models.ModelError, train.TrainingDiverged, FloatingPointError, OSError,
            BrokenProcessPool) as exc:  # BrokenProcessPool: a cv fold worker died
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
