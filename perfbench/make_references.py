"""Recompute references.json, the outputs every benchmark run is checked against.

    python3 perfbench/make_references.py

The references come from fixed inputs that do not depend on ``--seed``.
Regenerate them only for a change that is meant to alter trifuse's numerics,
and say so in that change.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys

from run import CACHE, HERE, OUT, pin_environment

TOLERANCE = {
    "loss_rtol": 1e-6,  # a few Adam steps; summation-order changes stay far below
    "logit_rtol": 1e-7,
    "logit_atol": 1e-10,
    "accuracy_atol": 1e-12,  # accuracies are ratios of counts: exact
}


def main() -> int:
    pin_environment()
    import workloads

    multiprocessing.set_start_method("fork", force=True)
    scratch = os.path.join(OUT, f"refs-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        pdir = workloads.probe_dir(CACHE)
        refs = {"tolerance": TOLERANCE,
                "fused": workloads.probe_fused(pdir, scratch),
                "cv": workloads.probe_cv(pdir, scratch)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if refs["cv"]["exit_code"] != 0:
        print("error: reference cv run failed", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
