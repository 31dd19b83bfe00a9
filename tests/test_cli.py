"""End-to-end CLI behavior: commands, artifacts, exit codes, idempotence."""

import json
import os

import numpy as np
import pytest

from trifuse import data, models
from trifuse.cli import main

DESK_PF = ["--model", "pf", "--order", "2", "--rank", "4", "--profile", "desk"]

# (flags, config document) pairs that must end in a usage error
FAIL_CLOSED_PROBES = {
    "rank-0": (["--model", "tf", "--rank", "0"], {}),
    "order-0": (["--model", "pf", "--order", "0"], {}),
    "output-dim-0": (["--model", "lf", "--output-dim", "0"], {}),
    "symmetric-tf": (["--model", "tf", "--symmetric"], {}),
    "tf-full-over-guard": (["--model", "tf", "--path", "full", "--profile", "full"], {}),
    "batch-size-0": (["--model", "oxy", "--batch-size", "0"], {}),
    "eval-batch-0": (["--model", "oxy"], {"train": {"eval_batch": 0}}),
    "jobs-0": (["--model", "oxy", "--jobs", "0"], {}),
    "lr-nan": (["--model", "oxy", "--lr", "nan"], {}),
    "lr-inf": (["--model", "oxy", "--lr", "inf"], {}),
    "lr-0": (["--model", "oxy", "--lr", "0"], {}),
    "output-dim-float": ([], {"model": {"type": "fused", "fusion": {"kind": "LF", "output_dim": 1.5}}}),
    "rank-string": ([], {"model": {"type": "fused", "fusion": {"kind": "TF", "rank": "16"}}}),
    "order-float": ([], {"model": {"type": "fused", "fusion": {"kind": "PF", "order": 2.0}}}),
    "symmetric-int": ([], {"model": {"type": "fused", "fusion": {"kind": "PF", "symmetric": 1}}}),
    "augment-one-string": ([], {"model": {"type": "fused", "fusion": {"kind": "PF", "augment_one": "yes"}}}),
}


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def synth_manifest(tmp_path):
    out = tmp_path / "ds"
    code = run("synth", "--synth", "additive", "--trials", "16", "--noise", "0.1",
               "--seed", "5", "--out", str(out))
    assert code == 0
    return out / "manifest.json"


class TestSynthCommand:
    def test_writes_loadable_manifest(self, synth_manifest):
        ds = data.load_manifest(synth_manifest)
        assert len(ds) == 16
        assert abs(float(ds.labels.mean()) - 0.5) < 1e-12

    def test_idempotent_artifacts(self, tmp_path):
        args = ["synth", "--synth", "interaction", "--trials", "8", "--seed", "3"]
        run(*args, "--out", str(tmp_path / "a"))
        run(*args, "--out", str(tmp_path / "b"))
        for name in ("eeg.ten", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_generator_is_usage_error(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "x")) == 2


class TestSegmentCommand:
    def test_segments_trials_manifest(self, tmp_path):
        rng = np.random.default_rng(0)
        trials = [
            data.TrialRecording(i, "s00", "MA", i % 2, rng.normal(size=(30, 7000)),
                                rng.normal(size=(36, 350)), rng.normal(size=(36, 350)), 2000)
            for i in range(4)
        ]
        raw = tmp_path / "raw"
        data.save_trials_manifest(trials, raw)
        out = tmp_path / "segmented"
        assert run("segment", "--data", str(raw / "manifest.json"), "--out", str(out)) == 0
        ds = data.load_manifest(out)
        assert len(ds) == 4 * 33
        assert sorted(set(ds.offsets.tolist())) == list(range(-10, 23))

    def test_broken_manifest_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "trials", "trials": [{"trial_id": 0}]}))
        assert run("segment", "--data", str(bad), "--out", str(tmp_path / "o")) == 3


class TestTrainCommand:
    def test_artifacts_and_checkpoint(self, synth_manifest, tmp_path):
        out = tmp_path / "run"
        code = run("train", "--data", str(synth_manifest), *DESK_PF,
                   "--epochs", "2", "--k", "4", "--seed", "1", "--out", str(out))
        assert code == 0
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["losses"]) == 2
        assert report["fingerprint"]["version"]
        assert (out / "checkpoint" / "topology.json").exists()

    def test_checkpoint_passes_verify(self, synth_manifest, tmp_path):
        out = tmp_path / "run"
        run("train", "--data", str(synth_manifest), *DESK_PF,
            "--epochs", "1", "--k", "4", "--out", str(out))
        assert run("verify", "--filter", "checkpoint",
                   "--checkpoint", str(out / "checkpoint")) == 0

    def test_corrupted_factor_file_fails_verify(self, synth_manifest, tmp_path):
        out = tmp_path / "run"
        run("train", "--data", str(synth_manifest), *DESK_PF,
            "--epochs", "1", "--k", "4", "--out", str(out))
        victim = out / "checkpoint" / "params" / "fusion.factor1.ten"
        raw = bytearray(victim.read_bytes())
        raw[60] ^= 0x55
        victim.write_bytes(bytes(raw))
        assert run("verify", "--filter", "checkpoint",
                   "--checkpoint", str(out / "checkpoint")) == 1


class TestCvCommand:
    def test_artifacts(self, synth_manifest, tmp_path):
        out = tmp_path / "cv"
        code = run("cv", "--data", str(synth_manifest), "--model", "eeg", "--profile", "desk",
                   "--epochs", "1", "--k", "4", "--out", str(out))
        assert code == 0
        report = json.loads((out / "cv_report.json").read_text())
        assert len(report["fold_accuracies"]) == 4
        assert (out / "folds.csv").read_text().startswith("fold,offset,accuracy")

    def test_runs_are_idempotent(self, synth_manifest, tmp_path):
        args = ["cv", "--data", str(synth_manifest), "--model", "lf", "--profile", "desk",
                "--epochs", "1", "--k", "4", "--seed", "9"]
        run(*args, "--out", str(tmp_path / "a"))
        run(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "cv_report.json").read_bytes() == \
            (tmp_path / "b" / "cv_report.json").read_bytes()
        assert (tmp_path / "a" / "folds.csv").read_bytes() == (tmp_path / "b" / "folds.csv").read_bytes()

    def test_config_file_with_flag_override(self, synth_manifest, tmp_path):
        cfg = {
            "task": "demo", "profile": "desk", "seed": 4,
            "data": {"manifest": str(synth_manifest)},
            "model": {"type": "single", "modality": "oxy"},
            "train": {"epochs": 3, "batch_size": 8},
            "cv": {"k": 4},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "cv"
        assert run("cv", "--config", str(cfg_path), "--epochs", "1", "--out", str(out)) == 0
        report = json.loads((out / "cv_report.json").read_text())
        assert report["fingerprint"]["train"]["epochs"] == 1  # flag beats file
        assert report["fingerprint"]["task"] == "demo"

    def test_unknown_config_key_rejected(self, synth_manifest, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"manifest": str(synth_manifest)},
                                        "model": {"type": "single", "modality": "oxy"},
                                        "mystery": 1}))
        assert run("cv", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2

    def test_out_from_environment(self, synth_manifest, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIFUSE_OUT", str(tmp_path / "envout"))
        code = run("cv", "--data", str(synth_manifest), "--model", "oxy", "--profile", "desk",
                   "--epochs", "1", "--k", "4")
        assert code == 0
        assert (tmp_path / "envout" / "cv_report.json").exists()


class TestVerifyCommand:
    def test_filter_selects_subset(self, capsys):
        assert run("verify", "--filter", "param-counts") == 0
        out = capsys.readouterr().out
        assert "param-counts" in out and "1/1 checks passed" in out

    def test_unmatched_filter_is_usage_error(self):
        assert run("verify", "--filter", "zzz-no-such-check") == 2

    @pytest.mark.parametrize("victim", ["fusion.factor1", "eeg.bn0.running_var"])
    def test_non_finite_checkpoint_fails(self, tmp_path, capsys, victim):
        model = models.build_from_spec({"type": "fused", "profile": "desk",
                                        "fusion": {"kind": "PF", "order": 2, "rank": 4, "output_dim": 8}})
        if victim in model.params:
            model.params[victim].flat[0] = np.nan
        else:
            model.state["eeg.bn0"].running_var[0] = np.nan
        models.save_model(model, tmp_path / "ckpt")
        assert run("verify", "--filter", "checkpoint", "--checkpoint", str(tmp_path / "ckpt")) == 1
        assert victim in capsys.readouterr().out


class TestParamsCommand:
    def test_prints_reference_counts(self, capsys):
        assert run("params", "--dims", "120", "144", "144") == 0
        out = capsys.readouterr().out
        assert "52,224" in out
        assert "318,504,960" in out
        assert "835,600" in out


class TestUsageErrors:
    def test_missing_model(self, synth_manifest, tmp_path):
        assert run("cv", "--data", str(synth_manifest), "--out", str(tmp_path / "x")) == 2

    def test_missing_out(self, synth_manifest, monkeypatch):
        monkeypatch.delenv("TRIFUSE_OUT", raising=False)
        assert run("cv", "--data", str(synth_manifest), "--model", "oxy") == 2

    def test_missing_data(self, tmp_path):
        assert run("cv", "--model", "oxy", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_fold_count_below_two(self, synth_manifest, tmp_path, capsys, k):
        out = tmp_path / "x"
        assert run("cv", "--data", str(synth_manifest), "--model", "oxy", "--profile", "desk",
                   "--epochs", "1", "--k", k, "--out", str(out)) == 2
        assert "k must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, doc", FAIL_CLOSED_PROBES.values(), ids=list(FAIL_CLOSED_PROBES))
    def test_bad_settings_fail_closed(self, synth_manifest, tmp_path, capsys, flags, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"manifest": str(synth_manifest)}, **doc}))
        out = tmp_path / "x"
        assert run("cv", "--config", str(cfg_path), "--profile", "desk", "--epochs", "1", "--k", "4",
                   *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
