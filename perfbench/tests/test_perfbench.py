"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import trifuse  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder, layer_metrics  # noqa: E402

TINY = {
    "train-full-pf3": {"trials": 8, "epochs": 1, "batch": 4},
    "eval-full-pf3": {"trials": 8, "eval_batch": 4, "ckpt_trials": 8},
    "cv-disk-tf": {"trials": 40, "epochs": 1, "k": 2, "jobs": 2},  # two steps per fold
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(BENCH, "references.json")) as fh:
    REFS = json.load(fh)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


def attribute_snapshot():
    owners = [trifuse.tensor, trifuse.autodiff, trifuse.ops, trifuse.fusion, trifuse.models,
              trifuse.data, trifuse.train, trifuse.config, trifuse.cli,
              trifuse.autodiff.Tape, trifuse.models.ModelGraph]
    return {(owner.__name__, attr): val for owner in owners for attr, val in vars(owner).items()}


def assert_restored(before):
    after = attribute_snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed, f"attributes left wrapped: {changed}"


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(workload, trace, cache, tmp_path):
    before = attribute_snapshot()
    res = workloads.measure(workload, seed=3, seconds=0.01, trace=trace, cache=cache,
                            scratch=str(tmp_path), size=TINY[workload])
    assert_restored(before)
    assert res["correct"], res["notes"]["problems"]
    assert res["failed"] == 0 and res["attempted"] >= 2
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if trace and workload != "eval-full-pf3":
        # self times are spans minus their children: negative means a span was
        # counted twice or spans overlap
        layers = {name: m["value"] for name, m in res["metrics"].items()}
        for name in ("train.step_self_ms", "autodiff.replay_self_ms", "models.forward_self_ms"):
            assert layers[name] >= 0, name
        assert layers["autodiff.nodes_per_step"] > 0


@pytest.mark.parametrize("workload", ["train-full-pf3", "cv-disk-tf"])
def test_reference_probe_matches(workload, cache, tmp_path):
    assert workloads.check_references(workload, cache, str(tmp_path), REFS) == []


def test_reference_probe_reports_mismatch(cache, tmp_path):
    refs = json.loads(json.dumps(REFS))
    refs["cv"]["mean_accuracy"] += 0.1
    problems = workloads.check_references("cv-disk-tf", cache, str(tmp_path), refs)
    assert len(problems) == 1 and problems[0].startswith("probe cv mean accuracy")
    result = {"correct": True, "attempted": 2, "failed": 0, "metrics": {}, "notes": {"problems": []}}
    result = workloads.add_check(result, problems)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    assert result["notes"] == {"problems": problems, "failed_frac": 1 / 3}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_outputs_match_untraced(workload, cache, tmp_path):
    """Losses, prediction digests and cv reports are bit-identical with tracing on."""
    size = TINY[workload]
    idir = workloads.input_dir(cache, workload, 5, size)
    before = attribute_snapshot()
    phases = workloads.run_phases(workload, 5, 0, (False, True), idir, size, str(tmp_path), min_units=1)
    assert_restored(before)
    plain, traced = (ph.units[0] for ph in phases)
    assert not plain.problems and not traced.problems
    assert plain.fingerprint == traced.fingerprint


def test_peak_rss_excludes_the_spawning_process():
    """A measuring child must not report the peak memory of the process that started it."""
    ballast = bytearray(256 * 2**20)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # touch every page
    code = "import workloads; print(workloads.peak_rss_mib(children=True))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join([BENCH, os.path.join(ROOT, "src")])})
    del ballast
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 200


def test_recorder_restores_on_error(cache, tmp_path):
    before = attribute_snapshot()
    with pytest.raises(RuntimeError):
        with Recorder(True, "step", str(tmp_path)).install(trifuse):
            raise RuntimeError("unit failed")
    assert_restored(before)


def test_layer_metrics_of_empty_recorder_are_zero():
    metrics = layer_metrics(Recorder(True, "predict"), units=0)
    assert all(v == 0 for v in metrics.values())


def test_workload_lists_agree():
    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]] == list(workloads.SIZES)


@pytest.mark.parametrize("n, q", [(0, 50), (11, 50), (20, 50), (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert workloads.tail_percentile(n) == q


def test_refuses_more_threads_than_cores(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code = run.main(["--workload", "cv-disk-tf", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert "exceeds 1 usable core" in capsys.readouterr().err


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, it exits nonzero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-full-pf3", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
