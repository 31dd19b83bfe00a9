"""End-to-end oracle suite: algebraic identities of the fusion layers,
factorized-vs-full equivalence through dense reconstruction, gradient checks,
and parameter-count conformance.

Each check returns (passed, detail); ``run_checks`` drives them all and is
what the ``verify`` CLI command prints.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import models, ops
from .fusion import FusionSpec, MaterializeError, fuse, init_fusion_params, param_count, reconstruct_full


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    if not (np.all(np.isfinite(got)) and np.all(np.isfinite(want))):
        return float("inf")
    scale = max(float(np.max(np.abs(want))), 1e-30)
    return float(np.max(np.abs(got - want))) / scale


# ---------------------------------------------------------------------------
# algebraic identities

def check_lf_block_identity(n_cases: int = 100) -> tuple[bool, str]:
    """Concatenate-then-multiply equals the per-modality block sum.

    On integer-valued inputs every float operation is exact, so the two
    association orders must agree bit for bit; gaussian inputs then bound the
    rounding difference at 1e-12 relative.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(n_cases):
        a, b, c, o = rng.integers(1, 7, size=4)
        spec = FusionSpec("LF", (int(a), int(b), int(c)), int(o))
        z1, z2, z3 = (rng.integers(-8, 9, size=d).astype(float) for d in (a, b, c))
        w = rng.integers(-8, 9, size=(a + b + c, o)).astype(float)
        y = fuse(spec, {"w": w}, z1, z2, z3)
        blocks = z1 @ w[:a] + z2 @ w[a:a + b] + z3 @ w[a + b:]
        if not np.array_equal(y, blocks):
            return False, f"integer case {case}: block sum differs"
        z1, z2, z3 = (rng.normal(size=d) for d in (a, b, c))
        w = rng.normal(size=(a + b + c, o))
        y = fuse(spec, {"w": w}, z1, z2, z3)
        blocks = z1 @ w[:a] + z2 @ w[a:a + b] + z3 @ w[a + b:]
        worst = max(worst, _rel_err(y, blocks))
        if worst > 1e-12:
            return False, f"gaussian case {case}: rel err {worst:.2e} > 1e-12"
    return True, f"{n_cases} integer cases exact, gaussian worst rel err {worst:.2e}"


def check_pf2_block_expansion(n_cases: int = 100) -> tuple[bool, str]:
    """2nd-order full-path output equals the nine-block expansion over the
    partitioned outer product and weight tensor, within 1e-10 relative."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for case in range(n_cases):
        a, b, c, o = rng.integers(1, 6, size=4)
        d = a + b + c
        spec = FusionSpec("PF", (int(a), int(b), int(c)), int(o), order=2, path="full")
        w = rng.normal(size=(d, d, o))
        zs = [rng.normal(size=int(dim)) for dim in (a, b, c)]
        y = fuse(spec, {"w_full": w}, *zs)
        bounds = np.cumsum([0, a, b, c])
        y_blocks = np.zeros(o)
        for m in range(3):
            for n in range(3):
                zz = np.multiply.outer(zs[m], zs[n])
                wb = w[bounds[m]:bounds[m + 1], bounds[n]:bounds[n + 1], :]
                y_blocks += np.tensordot(zz, wb, axes=([0, 1], [0, 1]))
        worst = max(worst, _rel_err(y, y_blocks))
        if worst > 1e-10:
            return False, f"case {case}: rel err {worst:.2e} > 1e-10"
    return True, f"{n_cases} cases, worst rel err {worst:.2e}"


def check_reconstruction_tf() -> tuple[bool, str]:
    """Factorized TF output equals full-path output with the reconstructed
    dense tensor, for all dims <= 6 and ranks up to twice the largest dim."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for dims in [(2, 2, 2), (3, 4, 5), (6, 6, 6), (6, 5, 3), (4, 4, 4)]:
        for rank in (1, 2, max(dims), 2 * max(dims)):
            for o in (1, 3):
                spec = FusionSpec("TF", dims, o, rank=rank, path="factorized")
                params = init_fusion_params(spec, rng)
                for name in ("factor1", "factor2", "factor3", "mix"):
                    params[name] = rng.normal(size=params[name].shape)
                w = reconstruct_full(spec, params)
                zs = [rng.normal(size=d) for d in dims]
                y_fac = fuse(spec, params, *zs)
                y_full = fuse(FusionSpec("TF", dims, o, path="full"), {"w_full": w}, *zs)
                err = _rel_err(y_fac, y_full)
                worst = max(worst, err)
                if err > 1e-8:
                    return False, f"dims={dims} R={rank} O={o}: rel err {err:.2e} > 1e-8"
    return True, f"worst rel err {worst:.2e}"


def check_reconstruction_pf() -> tuple[bool, str]:
    """Factorized PF equals the dense reconstruction for p in 1..3, concat
    dims 3..6, ranks from 1 to twice the dim, symmetric and not."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for p in (1, 2, 3):
        for d in (3, 4, 5, 6):
            dims = (1, 1, d - 2)
            for rank in (1, 2, d, 2 * d):
                for symmetric in (False, True):
                    spec = FusionSpec("PF", dims, 2, rank=rank, order=p,
                                      symmetric=symmetric, path="factorized")
                    params = init_fusion_params(spec, rng)
                    for name in params:
                        params[name] = rng.normal(size=params[name].shape)
                    w = reconstruct_full(spec, params)
                    zs = [rng.normal(size=dd) for dd in dims]
                    y_fac = fuse(spec, params, *zs)
                    full_spec = FusionSpec("PF", dims, 2, order=p, path="full")
                    y_full = fuse(full_spec, {"w_full": w}, *zs)
                    err = _rel_err(y_fac, y_full)
                    worst = max(worst, err)
                    if err > 1e-8:
                        return False, (f"p={p} d={d} R={rank} sym={symmetric}: "
                                       f"rel err {err:.2e} > 1e-8")
    return True, f"worst rel err {worst:.2e}"


# ---------------------------------------------------------------------------
# gradient checks

def check_grad_primitives() -> tuple[bool, str]:
    """Every primitive passes central finite differences below 1e-4."""
    rng = np.random.default_rng(19)
    worst: dict[str, float] = {}

    def run(name, build, params):
        worst[name] = ad.grad_check(build, params)

    x = rng.normal(size=(3, 4))
    run("add/mul", lambda pv: ad.sum_all(ad.mul(ad.add(pv["a"], pv["b"]), pv["a"])),
        {"a": x, "b": rng.normal(size=(3, 4))})
    run("contract", lambda pv: ad.sum_all(ad.contract(pv["a"], pv["b"], 1)),
        {"a": rng.normal(size=(2, 4, 3)), "b": rng.normal(size=(4, 5, 2))})
    run("concat/reshape", lambda pv: ad.sum_all(
        ad.mul(c := ad.concat_last([pv["a"], pv["b"]]), c)),
        {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 2))})
    xr = rng.normal(size=(3, 4))
    xr[np.abs(xr) < 1e-3] += 1e-2  # keep clear of the ReLU kink
    run("relu", lambda pv: ad.sum_all(ad.mul(ad.relu(pv["x"]), ad.relu(pv["x"]))), {"x": xr})
    run("conv1d", lambda pv: ad.sum_all(ad.mul(
        y := ops.conv1d(pv["x"], pv["w"], pv["b"], stride=2, padding=1), y)),
        {"x": rng.normal(size=(2, 2, 9)), "w": rng.normal(size=(3, 2, 3)), "b": rng.normal(size=3)})
    # the extractors' own geometries: the (9, 4) EEG opener and an unbatched (3, 1) block
    run("conv1d 9/4", lambda pv: ad.sum_all(ad.mul(
        y := ops.conv1d(pv["x"], pv["w"], pv["b"], stride=4), y)),
        {"x": rng.normal(size=(2, 2, 21)), "w": rng.normal(size=(3, 2, 9)), "b": rng.normal(size=3)})
    run("conv1d [C, T]", lambda pv: ad.sum_all(ad.mul(
        y := ops.conv1d(pv["x"], pv["w"], pv["b"]), y)),
        {"x": rng.normal(size=(2, 7)), "w": rng.normal(size=(3, 2, 3)), "b": rng.normal(size=3)})
    # the fused extractor block at the (9, 4) EEG opener and a (3, 1) block, with the
    # input a constant (as in a model's first block) and a Variable; batch norm
    # cancels the conv bias, so both sides give it a zero gradient
    for geometry, (filt, stride, length) in {"9/4": (9, 4, 21), "3/1": (3, 1, 7)}.items():
        x, r = rng.normal(size=(3, 2, length)), rng.normal(size=(3, 3, (length - filt) // stride + 1))
        block = {"w": rng.normal(size=(3, 2, filt)), "b": rng.normal(size=3),
                 "g": rng.normal(size=3) + 1.0, "be": rng.normal(size=3)}
        st = ops.BatchNormState.fresh(3)
        run(f"conv_bn_relu {geometry}", lambda pv: ad.sum_all(ad.mul(ops.conv_bn_relu(
            pv["x"], pv["w"], pv["b"], pv["g"], pv["be"], st, stride=stride), r)), {"x": x, **block})
        run(f"conv_bn_relu {geometry} const x", lambda pv: ad.sum_all(ad.mul(ops.conv_bn_relu(
            x, pv["w"], pv["b"], pv["g"], pv["be"], st, stride=stride), r)), block)
    st = ops.BatchNormState.fresh(2)
    run("batchnorm_train", lambda pv: ad.sum_all(ad.mul(
        y := ops.batchnorm_train(pv["x"], pv["g"], pv["b"], st), y)),
        {"x": rng.normal(size=(3, 2, 4)), "g": rng.normal(size=2) + 1.0, "b": rng.normal(size=2)})
    run("avgpool/l2/linear/softmax_ce", lambda pv: ops.softmax_crossentropy(
        ops.linear_forward(ops.l2_normalize(ops.global_avgpool(pv["x"])), pv["w"], pv["b"]),
        np.array([0, 1, 1])),
        {"x": rng.normal(size=(3, 3, 5)), "w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)})
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    if bad:
        return False, f"failures: {bad}"
    return True, f"max rel err {max(worst.values()):.2e} over {len(worst)} primitives"


def _model_grad_err(model: models.ModelGraph, inputs, labels) -> float:
    def build(pvars):
        logits = model.forward(inputs, pvars)
        return ops.softmax_crossentropy(logits, labels)

    return ad.grad_check(build, model.params, eps=1e-5)


def check_grad_models() -> tuple[bool, str]:
    """Tiny structural clones of every model kind pass finite differences."""
    rng = np.random.default_rng(23)
    labels = np.array([0, 1])
    worst = {}
    x1, x2, x3 = models.tiny_inputs(rng, batch=2)
    for modality, x in zip(models.MODALITIES, (x1, x2, x3)):
        model = models.build_from_spec({"type": "single", "modality": modality}, seed=1, plans=models.TINY_PLANS)
        worst[modality] = _model_grad_err(model, x, labels)
    fused_cases = {
        "LF": {"kind": "LF", "output_dim": 8},
        "TF-fact": {"kind": "TF", "output_dim": 8, "rank": 4},
        "TF-full": {"kind": "TF", "output_dim": 4, "path": "full"},
        "PF3-sym": {"kind": "PF", "output_dim": 8, "rank": 4, "order": 3, "symmetric": True},
        "PF2": {"kind": "PF", "output_dim": 6, "rank": 3, "order": 2},
        "PF2-full": {"kind": "PF", "output_dim": 3, "order": 2, "path": "full"},
    }
    for name, fusion in fused_cases.items():
        model = models.build_from_spec({"type": "fused", "fusion": fusion}, seed=2, plans=models.TINY_PLANS)
        worst[name] = _model_grad_err(model, (x1, x2, x3), labels)
    bad = {k: round(v, 6) for k, v in worst.items() if v >= 1e-4}
    if bad:
        return False, f"failures: {bad}"
    return True, f"max rel err {max(worst.values()):.2e} over {len(worst)} models"


# ---------------------------------------------------------------------------
# parameter counts and shapes

REFERENCE_DIMS = (120, 144, 144)
REFERENCE_OUTPUT = 128


def check_param_counts(n_random: int = 200) -> tuple[bool, str]:
    """param_count matches allocated entries, and reproduces the reference
    totals at the reference feature dimensions."""
    rng = np.random.default_rng(29)
    for case in range(n_random):
        kind = rng.choice(["LF", "TF", "PF"])
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        o = int(rng.integers(1, 6))
        r = int(rng.integers(1, 9))
        p = int(rng.integers(1, 4))
        symmetric = bool(rng.integers(0, 2)) if kind == "PF" else False
        path = "full" if (kind != "LF" and rng.integers(0, 2)) else "factorized"
        spec = FusionSpec(kind, dims, o, rank=r, order=p, symmetric=symmetric, path=path)
        allocated = sum(v.size for v in init_fusion_params(spec, rng).values())
        if allocated != param_count(spec):
            return False, f"case {case} {spec}: allocated {allocated} != formula {param_count(spec)}"
    lf = param_count(FusionSpec("LF", REFERENCE_DIMS, REFERENCE_OUTPUT))
    tf_full = param_count(FusionSpec("TF", REFERENCE_DIMS, REFERENCE_OUTPUT, path="full"))
    pf_sym = param_count(FusionSpec("PF", REFERENCE_DIMS, REFERENCE_OUTPUT, rank=16, order=5, symmetric=True))
    tf_fact = param_count(FusionSpec("TF", REFERENCE_DIMS, REFERENCE_OUTPUT, rank=16))
    pf5 = param_count(FusionSpec("PF", REFERENCE_DIMS, REFERENCE_OUTPUT, rank=16, order=5))
    expected = (52224, 318504960, 835600, 835600, 4177936)
    got = (lf, tf_full, pf_sym, tf_fact, pf5)
    if got != expected:
        return False, f"reference dims mismatch: got {got}, expected {expected}"
    return True, f"{n_random} random specs match; reference totals {got}"


def check_shape_chains() -> tuple[bool, str]:
    """Extractor time-length chains and feature lengths match the reference
    chains (including the block-4 arithmetic note and the NIRS geometry)."""
    eeg = models.extractor_plan("eeg")
    chain = models.time_chain(eeg, 600)
    if chain != [148, 146, 144, 34, 32, 30]:
        return False, f"EEG chain {chain} != [148, 146, 144, 34, 32, 30]"
    # the often-quoted 32, 30, 28 tail is itself floor-formula consistent
    if ops.conv_out_length(144, 9, 4, 0) != 34 or ops.conv_out_length(32, 3, 1, 0) != 30 \
            or ops.conv_out_length(30, 3, 1, 0) != 28:
        return False, "EEG floor-formula cross-checks failed"
    nirs = models.extractor_plan("oxy")
    chain_n = models.time_chain(nirs, 30)
    if chain_n != [13, 11, 9, 7, 5, 3]:
        return False, f"NIRS chain {chain_n} != [13, 11, 9, 7, 5, 3]"
    feats = (models.feature_length(eeg), models.feature_length(nirs))
    if feats != (120, 144):
        return False, f"feature lengths {feats} != (120, 144)"
    return True, f"EEG chain {chain}, NIRS chain {chain_n}, features {feats}"


# ---------------------------------------------------------------------------
# checkpoint verification

def verify_checkpoint(indir) -> tuple[bool, str]:
    """Load a saved model, digest-check it and check that every parameter and
    batch-norm running statistic is finite and no running variance negative;
    for factorized fused models also re-run the factorized-vs-reconstructed
    forward agreement on random probes.

    A checkpoint that does not load (a missing file, or an array whose shape
    its topology does not allocate) raises instead of returning a result."""
    model = models.load_model(indir)
    problems = models.checkpoint_digest_problems(indir)
    if problems:
        return False, "; ".join(problems)
    arrays = dict(model.params)
    for name, st in model.state.items():
        arrays[f"{name}.running_mean"] = st.running_mean
        arrays[f"{name}.running_var"] = st.running_var
    bad = [name for name, arr in arrays.items() if not np.all(np.isfinite(arr))]
    if bad:
        return False, f"non-finite values in {len(bad)} array(s), first {bad[0]}"
    # training never writes a negative variance; one loads, but eval's sqrt(var + eps) may be NaN
    bad = [name for name, st in model.state.items() if np.any(st.running_var < 0)]
    if bad:
        return False, f"negative running variance in {len(bad)} array(s), first {bad[0]}.running_var"
    if model.topology["type"] != "fused":
        return True, "digests ok (single-modal model, no fusion factors)"
    spec = model.fusion_spec
    if spec.path != "factorized" or spec.kind == "LF":
        return True, "digests ok (no factorized fusion tensor to reconstruct)"
    params = {k.split(".", 1)[1]: v for k, v in model.params.items() if k.startswith("fusion.")}
    try:
        w = reconstruct_full(spec, params)
    except MaterializeError:
        return True, "digests ok (reconstruction skipped: materialization guard)"
    full_spec = FusionSpec(spec.kind, spec.input_dims, spec.output_dim, order=spec.order,
                           path="full", augment_one=spec.augment_one)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(5):
        zs = [rng.normal(size=d) for d in spec.input_dims]
        y_fac = fuse(spec, params, *zs)
        y_full = fuse(full_spec, {"w_full": w}, *zs)
        worst = max(worst, _rel_err(y_fac, y_full))
    if worst > 1e-8:
        return False, f"factorized vs reconstructed mismatch: rel err {worst:.2e} > 1e-8"
    return True, f"digests ok, reconstruction agreement rel err {worst:.2e}"


# ---------------------------------------------------------------------------
# driver

CHECKS = [
    ("lf-block-identity", check_lf_block_identity),
    ("pf2-block-expansion", check_pf2_block_expansion),
    ("cp-reconstruction-tf", check_reconstruction_tf),
    ("cp-reconstruction-pf", check_reconstruction_pf),
    ("grad-primitives", check_grad_primitives),
    ("grad-models", check_grad_models),
    ("param-counts", check_param_counts),
    ("shape-chains", check_shape_chains),
]


def run_checks(name_filter: str | None = None, checkpoint=None) -> list[tuple[str, bool, str]]:
    """Run the oracle suite; returns (name, passed, detail) rows."""
    results = []
    for name, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    if checkpoint is not None:
        name = "checkpoint"
        if not name_filter or name_filter in name:
            try:
                passed, detail = verify_checkpoint(checkpoint)
            except (models.ModelError, OSError):
                raise  # a checkpoint that does not load is a data error, not a failed check
            except Exception as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append((name, passed, detail))
    return results
