"""trifuse benchmark: three workloads timed end to end, or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload train-full-pf3 --seed 1 --seconds 20 --trace 0

Workloads: train-full-pf3, eval-full-pf3, cv-disk-tf (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every metric with its unit, and sample counts. The
exit code is 0 only when every output check passed.

Inputs are generated from ``--seed`` into ``.perfbench_cache/`` on first use.
The measurement itself runs in a child process, so its peak memory includes
neither input generation nor the reference probe, which run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("train-full-pf3", "eval-full-pf3", "cv-disk-tf")
BLAS_THREADS = 1  # BLAS threads x worker processes must not exceed the cores we may use
# Whether the kernel can back numpy's huge-page advice depends on host memory
# fragmentation, which drifts over minutes; with it on, set-up times on a
# 2-core sandbox alternated between levels 2.7x apart. Pin it off.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": str(BLAS_THREADS), "OMP_NUM_THREADS": str(BLAS_THREADS),
              "MKL_NUM_THREADS": str(BLAS_THREADS), "NUMPY_MADVISE_HUGEPAGE": "0"}
DEADLINE_S = 170


def pin_environment() -> None:
    """Set PINNED_ENV and put src/ first on the path; call before numpy is imported."""
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--role", default="run", choices=("run", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return args


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "blas": blas, "blas_threads": BLAS_THREADS,
        "workers": workers, "pinned_env": PINNED_ENV, "numpy": np.__version__, "python": platform.python_version(),
        "commit": git_commit(), "machine": platform.machine(),
    }


def measure(args) -> int:
    """Child role: time the units and print the result, notes included, as one JSON line."""
    import workloads

    scratch = os.path.join(OUT, str(os.getpid()))
    try:
        result = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace), CACHE, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def check_references(workload: str) -> list[str]:
    import workloads

    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    scratch = os.path.join(OUT, f"probe-{os.getpid()}")
    try:
        return workloads.check_references(workload, CACHE, scratch, refs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args) -> int:
    """Generate inputs, run the reference probe, then measure in a child and print the result."""
    start = time.monotonic()
    import workloads

    workloads.input_dir(CACHE, args.workload, args.seed, workloads.SIZES[args.workload])
    probe_problems = check_references(args.workload)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", "measure"]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(DEADLINE_S - (time.monotonic() - start), 1))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"error: measurement exceeded {DEADLINE_S} s and was stopped", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: measurement exited with code {child.returncode} and no result", file=sys.stderr)
        return child.returncode or 1
    result = workloads.add_check(json.loads(lines[-1]), probe_problems)
    notes = result.pop("notes")
    print("env " + json.dumps(environment(args, workloads.WORKERS[args.workload]), sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:34} {m['value']:14.6g} {m['unit']}")
    print("notes " + json.dumps(notes, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trifuse", "__init__.py")):
        print(f"error: no trifuse sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    pin_environment()
    import multiprocessing

    import trifuse
    import workloads

    # fold workers must inherit the timing wrappers; fork is the default on
    # Linux up to Python 3.13, pin it so later defaults do not silently drop them
    multiprocessing.set_start_method("fork", force=True)

    if os.path.dirname(os.path.abspath(trifuse.__file__)) != os.path.join(SRC, "trifuse"):
        print(f"error: imported trifuse from {trifuse.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    nproc, workers = len(os.sched_getaffinity(0)), workloads.WORKERS[args.workload]
    if BLAS_THREADS * workers > nproc:
        print(f"error: {BLAS_THREADS} BLAS thread(s) x {workers} worker(s) exceeds {nproc} usable core(s)",
              file=sys.stderr)
        return 2
    return measure(args) if args.role == "measure" else run(args)


if __name__ == "__main__":
    sys.exit(main())
