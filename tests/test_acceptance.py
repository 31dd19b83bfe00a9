"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The behavioral criteria
(6-8) train desk-profile models on synthetic data; expect a few minutes total
on one laptop core.
"""

import json
import time

import numpy as np
import pytest

from trifuse import data, models, train, verify
from trifuse.cli import main as cli_main
from trifuse.train import TrainConfig


def _report(criterion: int, name: str, ok: bool, detail: str):
    print(f"\n[criterion {criterion:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def _fused_spec(kind: str, **kw) -> dict:
    fusion = {"kind": kind, "output_dim": 16, **kw}
    return {"type": "fused", "profile": "desk", "fusion": fusion}


def _train_once(model_spec, ds, split, epochs, seed=7):
    model = models.build_from_spec(model_spec, seed=seed)
    cfg = TrainConfig(epochs=epochs, batch_size=32, seed=seed)
    return train.train(model, ds, split, cfg).test_accuracy


def test_criterion_1_reconstruction_equivalence():
    t0 = time.time()
    ok_pf, detail_pf = verify.check_reconstruction_pf()
    ok_tf, detail_tf = verify.check_reconstruction_tf()
    elapsed = time.time() - t0
    ok = ok_pf and ok_tf and elapsed < 30
    _report(1, "factorized vs full equivalence",
            ok, f"PF {detail_pf}; TF {detail_tf}; {elapsed:.1f}s < 30s")


def test_criterion_2_block_identities():
    t0 = time.time()
    ok_lf, detail_lf = verify.check_lf_block_identity(n_cases=100)
    ok_pf2, detail_pf2 = verify.check_pf2_block_expansion(n_cases=100)
    elapsed = time.time() - t0
    ok = ok_lf and ok_pf2 and elapsed < 10
    _report(2, "linear block sum exact, order-2 nine-block within 1e-10",
            ok, f"LF {detail_lf}; blocks {detail_pf2}; {elapsed:.1f}s < 10s")


def test_criterion_3_gradient_correctness():
    t0 = time.time()
    ok_p, detail_p = verify.check_grad_primitives()
    ok_m, detail_m = verify.check_grad_models()
    elapsed = time.time() - t0
    ok = ok_p and ok_m and elapsed < 300
    _report(3, "finite-difference checks under 1e-4",
            ok, f"primitives {detail_p}; models {detail_m}; {elapsed:.0f}s < 300s")


def test_criterion_4_parameter_counts():
    ok, detail = verify.check_param_counts(n_random=200)
    _report(4, "param_count matches allocations and reference totals", ok, detail)


def test_criterion_5_shape_conformance():
    ok, detail = verify.check_shape_chains()
    _report(5, "extractor time chains and feature lengths", ok, detail)


def test_criterion_6_interaction_separability():
    t0 = time.time()
    ds = data.synth_dataset(data.SynthSpec("interaction", n_trials=4000, noise=0.1), seed=42)
    assert len(ds) >= 4000
    plan = data.make_folds(ds, k=5, seed=1)
    split = data.fold_indices(ds, plan, 0)
    acc_pf = _train_once(_fused_spec("PF", rank=16, order=3, symmetric=True), ds, split, epochs=10)
    acc_tf = _train_once(_fused_spec("TF", rank=16), ds, split, epochs=10)
    acc_lf = _train_once(_fused_spec("LF"), ds, split, epochs=10)
    elapsed = time.time() - t0
    ok = acc_pf >= 0.90 and acc_tf >= 0.85 and acc_lf <= 0.60 and elapsed < 600
    _report(6, "three-way interaction: PF>=0.90, TF>=0.85, LF<=0.60",
            ok, f"PF {acc_pf:.3f}, TF {acc_tf:.3f}, LF {acc_lf:.3f}; {elapsed:.0f}s < 600s")


def test_criterion_7_additive_separability():
    t0 = time.time()
    ds = data.synth_dataset(data.SynthSpec("additive", n_trials=2000, noise=0.1), seed=43)
    plan = data.make_folds(ds, k=5, seed=1)
    split = data.fold_indices(ds, plan, 0)
    accs = {}
    for modality in ("eeg", "oxy", "deoxy"):
        accs[modality] = _train_once(
            {"type": "single", "modality": modality, "profile": "desk"}, ds, split, epochs=6)
    accs["LF"] = _train_once(_fused_spec("LF"), ds, split, epochs=6)
    accs["TF"] = _train_once(_fused_spec("TF", rank=16), ds, split, epochs=6)
    accs["PF"] = _train_once(_fused_spec("PF", rank=16, order=3, symmetric=True), ds, split, epochs=6)
    elapsed = time.time() - t0
    ok = all(a >= 0.95 for a in accs.values()) and elapsed < 600
    detail = ", ".join(f"{k} {v:.3f}" for k, v in accs.items())
    _report(7, "additive signal: all six models >= 0.95", ok, f"{detail}; {elapsed:.0f}s < 600s")


def test_criterion_8_chance_level_control():
    t0 = time.time()
    ds = data.synth_dataset(data.SynthSpec("additive", n_trials=2500, noise=0.1), seed=44)
    rng = np.random.default_rng(9)
    ds = data.SegmentDataset(ds.eeg, ds.oxy, ds.deoxy, rng.permutation(ds.labels),
                             ds.trial_ids, ds.offsets, ds.subjects)
    plan = data.make_folds(ds, k=2, seed=1)
    split = data.fold_indices(ds, plan, 0)
    assert len(split[1]) >= 1000
    accs = {}
    for modality in ("eeg", "oxy", "deoxy"):
        accs[modality] = _train_once(
            {"type": "single", "modality": modality, "profile": "desk"}, ds, split, epochs=3)
    accs["LF"] = _train_once(_fused_spec("LF"), ds, split, epochs=3)
    accs["TF"] = _train_once(_fused_spec("TF", rank=16), ds, split, epochs=3)
    accs["PF"] = _train_once(_fused_spec("PF", rank=16, order=3, symmetric=True), ds, split, epochs=3)
    elapsed = time.time() - t0
    ok = all(0.45 <= a <= 0.55 for a in accs.values()) and elapsed < 600
    detail = ", ".join(f"{k} {v:.3f}" for k, v in accs.items())
    _report(8, "label shuffle: every model within 50% +/- 5%",
            ok, f"{detail}; n_test={len(split[1])}; {elapsed:.0f}s < 600s")


def test_criterion_9_pipeline_conformance():
    rng = np.random.default_rng(0)
    rec = data.TrialRecording(0, "s00", "MI", 1, rng.normal(size=(30, 7000)),
                              rng.normal(size=(36, 350)), rng.normal(size=(36, 350)), 2000)
    one = data.segment_trials([rec])
    ok_windows = len(one) == 33 and one.offsets.tolist() == list(range(-10, 23))

    recs = [data.TrialRecording(i, "s00", "MI", i % 2, rng.normal(size=(30, 7000)),
                                rng.normal(size=(36, 350)), rng.normal(size=(36, 350)), 2000)
            for i in range(10)]
    ds = data.segment_trials(recs)
    plan = data.make_folds(ds, k=5, seed=3)
    seen = np.zeros(len(ds), dtype=int)
    disjoint = True
    for fold in range(5):
        train_idx, test_idx = data.fold_indices(ds, plan, fold)
        seen[test_idx] += 1
        disjoint &= not (set(ds.trial_ids[train_idx]) & set(ds.trial_ids[test_idx]))
    ok_folds = bool(disjoint and np.array_equal(seen, np.ones(len(ds), dtype=int)))

    report = train.cross_validate({"type": "single", "modality": "oxy", "profile": "desk"},
                                  ds, k=5, config=TrainConfig(epochs=1, batch_size=16, seed=0))
    ok_curve = sorted(report.per_offset) == list(range(-10, 23))
    ok = ok_windows and ok_folds and ok_curve
    _report(9, "33 windows at offsets -10..22; trial-disjoint 5-fold partition",
            ok, f"windows={ok_windows}, folds={ok_folds}, offset curve={ok_curve}")


def test_criterion_10_cv_determinism(tmp_path):
    manifest_dir = tmp_path / "ds"
    code = cli_main(["synth", "--synth", "additive", "--trials", "20", "--noise", "0.1",
                     "--seed", "6", "--out", str(manifest_dir)])
    assert code == 0
    args = ["cv", "--data", str(manifest_dir / "manifest.json"), "--model", "oxy",
            "--profile", "desk", "--epochs", "2", "--k", "5", "--seed", "13"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    report_a = (tmp_path / "a" / "cv_report.json").read_bytes()
    report_b = (tmp_path / "b" / "cv_report.json").read_bytes()
    csv_a = (tmp_path / "a" / "folds.csv").read_bytes()
    csv_b = (tmp_path / "b" / "folds.csv").read_bytes()
    ok = report_a == report_b and csv_a == csv_b
    json.loads(report_a)  # well-formed
    _report(10, "identical config gives byte-identical cv reports", ok,
            f"report {len(report_a)} bytes, csv {len(csv_a)} bytes")
