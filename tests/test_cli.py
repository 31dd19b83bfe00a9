"""End-to-end CLI behavior: commands, artifacts, exit codes, idempotence."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from trifuse import cli, config, data, models, train
from trifuse.cli import main
from trifuse.tensor import load_tensor, save_tensor

DESK_PF = ["--model", "pf", "--order", "2", "--rank", "4", "--profile", "desk"]

# (flags, config document) pairs that must end in a usage error
FAIL_CLOSED_PROBES = {
    "rank-0": (["--model", "tf", "--rank", "0"], {}),
    "order-0": (["--model", "pf", "--order", "0"], {}),
    "output-dim-0": (["--model", "lf", "--output-dim", "0"], {}),
    "symmetric-tf": (["--model", "tf", "--symmetric"], {}),
    "tf-full-over-guard": (["--model", "tf", "--path", "full", "--profile", "full"], {}),
    "pf-order-over-guard": (["--model", "pf", "--order", "1000000000"], {}),
    "batch-size-0": (["--model", "oxy", "--batch-size", "0"], {}),
    "batch-size-1": (["--model", "oxy", "--batch-size", "1"], {}),
    "eval-batch-0": (["--model", "oxy"], {"train": {"eval_batch": 0}}),  # no such key: chunks are batch_size
    "jobs-0": (["--model", "oxy", "--jobs", "0"], {}),
    "lr-nan": (["--model", "oxy", "--lr", "nan"], {}),
    "lr-inf": (["--model", "oxy", "--lr", "inf"], {}),
    "lr-0": (["--model", "oxy", "--lr", "0"], {}),
    "epochs-negative": (["--model", "oxy", "--epochs", "-1"], {}),
    "epochs-0": (["--model", "oxy", "--epochs", "0"], {}),
    "epochs-float": (["--model", "oxy"], {"train": {"epochs": 1.5}}),
    "beta1-1": (["--model", "oxy"], {"train": {"beta1": 1.0}}),
    "beta2-negative": (["--model", "oxy"], {"train": {"beta2": -0.1}}),
    "beta2-string": (["--model", "oxy"], {"train": {"beta2": "0.999"}}),
    "eps-negative": (["--model", "oxy"], {"train": {"eps": -1}}),
    "eps-0": (["--model", "oxy"], {"train": {"eps": 0}}),
    "output-dim-float": ([], {"model": {"type": "fused", "fusion": {"kind": "LF", "output_dim": 1.5}}}),
    "rank-string": ([], {"model": {"type": "fused", "fusion": {"kind": "TF", "rank": "16"}}}),
    "order-float": ([], {"model": {"type": "fused", "fusion": {"kind": "PF", "order": 2.0}}}),
    "symmetric-int": ([], {"model": {"type": "fused", "fusion": {"kind": "PF", "symmetric": 1}}}),
    "augment-one-string": ([], {"model": {"type": "fused", "fusion": {"kind": "PF", "augment_one": "yes"}}}),
    "fusion-not-object": ([], {"model": {"type": "fused", "fusion": 5}}),
    "model-string": ([], {"model": "x"}),
    "l2-normalize-string": ([], {"model": {"type": "fused", "fusion": {"kind": "LF"}, "l2_normalize": "no"}}),
    "synth-not-object": (["--model", "oxy"], {"data": {"synth": 5}}),
    "synth-n-trials-string": (["--model", "oxy"], {"data": {"synth": {"generator": "additive", "n_trials": "5"}}}),
    "seed-string": (["--model", "oxy"], {"seed": "x"}),
    "seed-negative": (["--model", "oxy", "--seed", "-1"], {}),
    "cv-k-string": (["--model", "oxy"], {"cv": {"k": "x"}}),
    "shuffle-string": (["--model", "oxy"], {"train": {"shuffle": "no"}}),
}


ROOT = Path(__file__).resolve().parents[1]


def run(*argv):
    return main(list(argv))


def run_subprocess(argv, prelude=""):
    """``trifuse`` in a fresh interpreter, after ``prelude``; stderr as numpy and
    the process pool would leave it, which pytest's capture would filter."""
    script = f"import sys\nfrom trifuse import cli\n{prelude}\nsys.exit(cli.main(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, timeout=300)


def run_flags(command, manifest):
    """Flags for a quick synth, train or cv run, all but --out."""
    return {"synth": ["--synth", "additive", "--trials", "4"],
            "train": ["--data", str(manifest), *DESK_PF, "--epochs", "1", "--k", "4"],
            "cv": ["--data", str(manifest), "--model", "oxy", "--profile", "desk", "--epochs", "1", "--k", "4"],
            }[command]


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

    def test_non_finite_input_is_data_error(self, synth_manifest, tmp_path, capsys):
        # a NaN in a held-out segment used to be scored as a prediction
        oxy_path = synth_manifest.parent / "oxy.ten"
        oxy = load_tensor(oxy_path)
        oxy[-1, 0, 0] = np.nan
        save_tensor(oxy_path, oxy)
        out = tmp_path / "run"
        assert run("train", "--data", str(synth_manifest), *DESK_PF,
                   "--epochs", "1", "--k", "4", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "oxy.ten holds non-finite values" in err
        assert not out.exists()

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["segments"][3].update(trial_id="abc"),
        lambda doc: doc["segments"].__setitem__(5, None),
        lambda doc: doc.update(arrays=[]),
    ], ids=["trial-id-string", "null-segment", "arrays-list"])
    def test_mistyped_manifest_is_one_line_data_error(self, synth_manifest, tmp_path, capsys, mutate):
        doc = json.loads(synth_manifest.read_text())
        mutate(doc)
        synth_manifest.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run("train", "--data", str(synth_manifest), *DESK_PF,
                   "--epochs", "1", "--k", "4", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: manifest validation failed: ") and err.count("\n") == 1
        assert not out.exists()

    def test_manifest_with_several_problems_is_one_line(self, synth_manifest, tmp_path, capsys):
        doc = json.loads(synth_manifest.read_text())
        doc["segments"][0]["label"] = 7
        doc["arrays"]["oxy"] = "missing.ten"
        synth_manifest.write_text(json.dumps(doc))
        assert run("train", "--data", str(synth_manifest), *DESK_PF,
                   "--epochs", "1", "--k", "4", "--out", str(tmp_path / "run")) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown label 7" in err and "missing.ten does not exist" in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_payload_is_one_line_and_exit_3(self, synth_manifest, tmp_path, capsys, fails_before_hanging):
        fifo = synth_manifest.parent / "oxy.ten"
        os.remove(fifo)
        os.mkfifo(fifo)
        assert run("train", "--data", str(synth_manifest), *DESK_PF,
                   "--epochs", "1", "--k", "4", "--out", str(tmp_path / "run")) == 3
        err = capsys.readouterr().err
        assert err == "error: manifest validation failed: arrays: file oxy.ten is not a regular file\n"

    def test_failed_swap_keeps_previous_artifacts(self, synth_manifest, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        args = ["train", "--data", str(synth_manifest), *DESK_PF, "--epochs", "1", "--k", "4",
                "--out", str(out)]
        assert run(*args, "--seed", "1") == 0
        before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        real_replace = cli.os.replace

        def failing_replace(src, dst):
            if os.path.basename(src).startswith(".tmp-") and os.path.abspath(dst) == str(out):
                raise OSError("swap refused")
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        assert run(*args, "--seed", "2") == 3
        assert "swap refused" in capsys.readouterr().err
        after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "run"]


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

    def test_report_is_the_same_at_any_jobs_and_blas_thread_count(self, tmp_path):
        # at full widths two DGEMMs of a PF3 step round differently on 1 and 2 BLAS
        # threads; a desk run shows no difference, so this guard needs the full profile
        argv = ["cv", "--synth", "interaction", "--trials", "160", "--profile", "full", "--model", "pf",
                "--order", "3", "--rank", "16", "--symmetric", "--epochs", "1", "--k", "4"]
        unset = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        reports = []
        for name, jobs, env in (("serial", "1", unset), ("pool", "2", unset),
                                ("pool-one-thread", "2", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
            proc = subprocess.run([sys.executable, "-m", "trifuse.cli", *argv, "--jobs", jobs,
                                   "--out", str(tmp_path / name)], env={**env, "PYTHONPATH": str(ROOT / "src")},
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            reports.append((tmp_path / name / "cv_report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]


class TestCvFailsClosed:
    # every error class cli.main maps to an exit code, as a fold worker may raise it
    @pytest.mark.parametrize("exc", [
        config.ConfigError("bad key"), data.DataError("bad data"), data.ManifestError(["a bad", "b bad"]),
        models.ModelError("bad model"), train.TrainingDiverged(3, float("nan")),
        train.TrainingDiverged(0, float("inf"), "parameter 'head.w'"), FloatingPointError("bad step"),
        FileNotFoundError(2, "No such file or directory", "x.ten"), BrokenProcessPool("worker died"),
    ], ids=lambda exc: type(exc).__name__)
    def test_mapped_errors_survive_pickle(self, exc):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverging_run_is_one_line_runtime_error(self, tmp_path, jobs):
        out = tmp_path / "cv"
        proc = run_subprocess(["cv", "--synth", "additive", "--trials", "20", "--model", "tf",
                               "--profile", "desk", "--epochs", "1", "--batch-size", "4", "--lr", "1e300",
                               "--jobs", jobs, "--out", str(out)])
        assert proc.returncode == 3, proc.stderr[-2000:]
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "non-finite" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_huge_finite_parameters_fail_at_eval(self, tmp_path, jobs):
        # at the default batch size one Adam step per fold leaves every parameter near
        # 1e300 but finite; the logits are not, and argmax would read them as class 0
        out = tmp_path / "cv"
        proc = run_subprocess(["cv", "--synth", "additive", "--trials", "20", "--model", "tf",
                               "--profile", "desk", "--epochs", "1", "--lr", "1e300",
                               "--jobs", jobs, "--out", str(out)])
        assert proc.returncode == 3, proc.stderr[-2000:]
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "non-finite logits" in proc.stderr
        assert not out.exists()

    def test_trial_of_two_labels_or_subjects_is_one_line_data_error(self, tmp_path, capsys):
        # segment 1 (trial 0) gets another label, segment 3 (trial 1) another subject
        ds = tmp_path / "ds"
        assert run("synth", "--synth", "additive", "--trials", "16", "--segments-per-trial", "2",
                   "--subjects", "2", "--out", str(ds)) == 0
        doc = json.loads((ds / "manifest.json").read_text())
        doc["segments"][1]["label"] = 1 - doc["segments"][1]["label"]
        doc["segments"][3]["subject"] = "s07"
        (ds / "manifest.json").write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "cv"
        assert run("cv", "--data", str(ds), "--model", "oxy", "--profile", "desk", "--epochs", "1",
                   "--k", "4", "--trial-vote", "--out", str(out)) == 3
        assert capsys.readouterr().err == ("error: manifest validation failed: "
                                           "trial 0 has segments of more than one label or subject\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_manifest_of_no_segments_is_one_line_data_error(self, tmp_path, capsys, command):
        full = data.synth_dataset(data.SynthSpec("additive", n_trials=4), seed=0)
        empty = data.SegmentDataset(*(getattr(full, f.name)[:0] for f in dataclasses.fields(full)))
        manifest = data.save_segments_manifest(empty, tmp_path / "empty")
        capsys.readouterr()
        out = tmp_path / command
        assert run(command, "--data", manifest, "--model", "oxy", "--profile", "desk", "--epochs", "1",
                   "--k", "4", "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: manifest validation failed: manifest {manifest} holds no segments\n"
        assert not out.exists()

    def test_dead_fold_worker_is_one_line_runtime_error(self, tmp_path):
        out = tmp_path / "cv"
        kill = ("import os, signal\nfrom trifuse import train\n"
                "def die(args):\n    os.kill(os.getpid(), signal.SIGKILL)\n"
                "train._run_fold = die\n")
        proc = run_subprocess(["cv", "--synth", "additive", "--trials", "12", "--model", "oxy",
                               "--profile", "desk", "--epochs", "1", "--k", "3", "--jobs", "2",
                               "--out", str(out)], prelude=kill)
        assert proc.returncode == 3, proc.stderr[-2000:]
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()


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

    def test_negative_running_variance_fails(self, tmp_path, capsys):
        # state files carry no digest: only the health check can catch this one
        model = models.build_from_spec({"type": "single", "modality": "oxy", "profile": "desk"})
        models.save_model(model, tmp_path / "ckpt")
        victim = tmp_path / "ckpt" / "state" / "oxy.bn3.var.ten"
        var = load_tensor(victim)
        var[1] = -0.5
        save_tensor(victim, var)
        assert run("verify", "--filter", "checkpoint", "--checkpoint", str(tmp_path / "ckpt")) == 1
        assert "negative running variance in 1 array(s), first oxy.bn3.running_var" in capsys.readouterr().out

    def test_wrong_shaped_factor_is_data_error(self, tmp_path, capsys):
        # a size-1 factor axis would load and broadcast to finite logits
        model = models.build_from_spec({"type": "fused", "profile": "desk",
                                        "fusion": {"kind": "TF", "rank": 16, "output_dim": 16}})
        models.save_model(model, tmp_path / "ckpt")
        victim = tmp_path / "ckpt" / "params" / "fusion.factor2.ten"
        factor = load_tensor(victim)
        assert factor.shape == (24, 16, 16)
        save_tensor(victim, factor[:, :, :1])
        assert run("verify", "--filter", "checkpoint", "--checkpoint", str(tmp_path / "ckpt")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "fusion.factor2.ten has shape (24, 16, 1), expected (24, 16, 16)" in captured.err

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["topology"].pop("head"),
        lambda doc: doc["topology"].update(extractors=[]),
        lambda doc: doc["topology"]["extractors"]["oxy"]["blocks"][0].update(stride="1"),
        lambda doc: doc["topology"].update(fusion={"kind": "PF"}),
        lambda doc: doc.pop("topology"),
        lambda doc: doc.pop("params"),
        lambda doc: doc["batchnorm"]["oxy.bn0"].pop("eps"),
        lambda doc: doc.update(digests="none"),
    ], ids=["no-head", "extractors-list", "stride-string", "fusion-on-single", "no-topology",
            "no-params", "batchnorm-no-eps", "digests-string"])
    def test_malformed_topology_json_is_data_error(self, tmp_path, capsys, mutate):
        models.save_model(models.build_from_spec({"type": "single", "modality": "oxy", "profile": "desk"}),
                          tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "topology.json"
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        assert run("verify", "--filter", "checkpoint", "--checkpoint", str(tmp_path / "ckpt")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestParamsCommand:
    def test_prints_reference_counts(self, capsys):
        assert run("params", "--dims", "120", "144", "144") == 0
        out = capsys.readouterr().out
        assert "52,224" in out
        assert "318,504,960" in out
        assert "835,600" in out

    @pytest.mark.parametrize("flags", [["--rank", "0"], ["--order", "0"], ["--output-dim", "0"],
                                       ["--dims", "0", "1", "1"], ["--rank", "-3"], ["--order", "30000"],
                                       ["--order", "1", "--dims", *[str(10**1500)] * 3]],
                             ids=["rank-0", "order-0", "output-dim-0", "dims-0", "rank-negative",
                                  "order-unprintable", "tf-full-unprintable"])
    def test_bad_values_fail_closed(self, capsys, flags):
        assert run("params", *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_order_bound_is_the_print_limit(self, capsys):
        # 408**1646 * 128 has 4300 digits, 408**1647 * 128 has 4303
        assert run("params", "--order", "1646") == 0
        assert run("params", "--order", "1647") == 2
        assert "more than 4300 digits" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_model(self, synth_manifest, tmp_path):
        assert run("cv", "--data", str(synth_manifest), "--out", str(tmp_path / "x")) == 2

    def test_missing_out(self, synth_manifest, monkeypatch):
        monkeypatch.delenv("TRIFUSE_OUT", raising=False)
        assert run("cv", "--data", str(synth_manifest), "--model", "oxy") == 2

    def test_missing_data(self, tmp_path):
        assert run("cv", "--model", "oxy", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("kind, why", [
        ("missing", "does not exist"),
        ("directory", "is not a regular file"),
        pytest.param("fifo", "is not a regular file",
                     marks=pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")),
    ])
    def test_config_must_be_a_regular_file(self, tmp_path, capsys, fails_before_hanging, kind, why):
        # opening a FIFO for reading would block until a writer came
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "fifo":
            os.mkfifo(cfg)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"error: config file {cfg} {why}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_fold_count_below_two(self, synth_manifest, tmp_path, capsys, k):
        out = tmp_path / "x"
        assert run("cv", "--data", str(synth_manifest), "--model", "oxy", "--profile", "desk",
                   "--epochs", "1", "--k", k, "--out", str(out)) == 2
        assert "k must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "segment"])
    @pytest.mark.parametrize("target, words", [
        ("manifest-file", "exists and is not a directory"),
        ("dataset-dir", "holds the data manifest"),
        ("parent-dir", "holds the data manifest"),
    ])
    def test_out_over_the_data_is_refused(self, synth_manifest, tmp_path, capsys, command, target, words):
        # the final swap would replace the manifest, or a directory holding it
        out = {"manifest-file": synth_manifest, "dataset-dir": synth_manifest.parent,
               "parent-dir": tmp_path}[target]
        flags = [*DESK_PF, "--epochs", "1", "--k", "4"] if command == "train" else []
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run(command, "--data", str(synth_manifest), *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and words in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not [p for p in tmp_path.rglob("*") if p.name.startswith((".tmp-", ".old-"))]

    @pytest.mark.parametrize("command", ["synth", "train", "cv"])
    @pytest.mark.parametrize("previous", [None, "cv"], ids=["foreign-only", "foreign-beside-cv-artifacts"])
    def test_out_holding_foreign_files_is_refused(self, synth_manifest, tmp_path, capsys, command, previous):
        # the final swap would delete a file no trifuse command wrote
        home = tmp_path / "home"
        if previous:
            assert run(previous, *run_flags(previous, synth_manifest), "--out", str(home)) == 0
        home.mkdir(exist_ok=True)
        (home / "notes.txt").write_text("mine\n")
        flags = run_flags(command, synth_manifest)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run(command, *flags, "--out", str(home)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "no trifuse command wrote" in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not [p for p in tmp_path.rglob("*") if p.name.startswith((".tmp-", ".old-"))]

    def test_out_holding_only_the_data_tensors_is_refused(self, synth_manifest, tmp_path, capsys):
        # the manifest lives elsewhere and points into --out: the swap would delete its arrays
        doc = json.loads(synth_manifest.read_text())
        doc["arrays"] = {k: f"../ds/{v}" for k, v in doc["arrays"].items()}
        synth_manifest.unlink()
        (tmp_path / "meta").mkdir()
        (tmp_path / "meta" / "manifest.json").write_text(json.dumps(doc))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run("train", *run_flags("train", tmp_path / "meta" / "manifest.json"),
                   "--out", str(synth_manifest.parent)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no trifuse command wrote" in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not [p for p in tmp_path.rglob("*") if p.name.startswith((".tmp-", ".old-"))]

    @pytest.mark.parametrize("command", ["train", "cv", "segment"])
    def test_out_holding_the_data_payloads_is_refused(self, tmp_path, capsys, command):
        # payloads/ is a whole segments set, and meta/manifest.json reads its arrays through
        # ../payloads/: the swap would replace payloads/ and leave meta unloadable
        payloads, meta = tmp_path / "payloads", tmp_path / "meta"
        assert run("synth", "--synth", "additive", "--trials", "16", "--seed", "5", "--out", str(payloads)) == 0
        doc = json.loads((payloads / "manifest.json").read_text())
        doc["arrays"] = {k: f"../payloads/{v}" for k, v in doc["arrays"].items()}
        meta.mkdir()
        (meta / "manifest.json").write_text(json.dumps(doc))
        flags = ["--data", str(meta)] if command == "segment" else run_flags(command, meta)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run(command, *flags, "--out", str(payloads)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "a payload of the data manifest" in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not [p for p in tmp_path.rglob("*") if p.name.startswith((".tmp-", ".old-"))]
        assert len(data.load_manifest(meta)) == 16

    @pytest.mark.parametrize("command", ["synth", "train", "cv"])
    def test_rerun_replaces_a_previous_output(self, synth_manifest, tmp_path, command):
        out = tmp_path / "run"
        flags = run_flags(command, synth_manifest)
        out.mkdir()  # an empty directory is taken as it is
        assert run(command, *flags, "--seed", "1", "--out", str(out)) == 0
        first = sorted(p.name for p in out.iterdir())
        assert run(command, *flags, "--seed", "2", "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "run"]

    @pytest.mark.parametrize("flags, doc", FAIL_CLOSED_PROBES.values(), ids=list(FAIL_CLOSED_PROBES))
    def test_bad_settings_fail_closed(self, synth_manifest, tmp_path, capsys, flags, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"manifest": str(synth_manifest)}, **doc}))
        out = tmp_path / "x"
        # the --epochs and --k flags would override a probe's own train.epochs and cv.k
        epochs = [] if "epochs" in doc.get("train", {}) else ["--epochs", "1"]
        k = [] if "k" in doc.get("cv", {}) else ["--k", "4"]
        assert run("cv", "--config", str(cfg_path), "--profile", "desk", *epochs, *k,
                   *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
