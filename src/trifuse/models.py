"""Network assembly: per-modality 1-D CNN feature extractors, single-modal
classifiers, and the tri-modal fused classifier.

The EEG extractor is six Conv1D+BatchNorm+ReLU blocks with (filter, stride) =
(9,4), (3,1), (3,1), (9,4), (3,1), (3,1) and channels 30 -> 60,60,60,120,
120,120, then global average pooling to a length-120 feature vector. On a
600-sample window the time lengths run 148, 146, 144, 34, 32, 30 (a 32 is
sometimes quoted for block 4, but floor((144-9)/4)+1 = 34; either way pooling
collapses the time axis, so nothing downstream depends on it).

A (9,4) opening filter cannot serve the 30-sample NIRS windows: it would emit
6 samples and leave block 4 with too few. The NIRS extractor therefore opens
with (5,2) followed by five (3,1) blocks, channels 36 -> 72,72,72,144,144,144,
giving the time chain 13, 11, 9, 7, 5, 3 and a length-144 feature vector.

Profiles: ``full`` uses the widths above; ``desk`` divides conv widths by 6
for fast desk-scale experiments (EEG features 20, NIRS 24).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import fields

import numpy as np

from . import autodiff as ad
from . import ops
from .autodiff import value_of
from .data import EEG_CHANNELS, MODALITIES, NIRS_CHANNELS
from .fusion import MATERIALIZE_LIMIT, FusionSpec, FusionSpecError, MaterializeError, fuse, init_fusion_params
from .fusion import param_count as fusion_param_count, param_shapes as fusion_param_shapes
from .ops import BatchNormState, conv_out_length
from .tensor import ShapeError, file_problem, load_tensor, save_tensor

N_CLASSES = 2

EEG_GEOMETRY = [(9, 4, 0), (3, 1, 0), (3, 1, 0), (9, 4, 0), (3, 1, 0), (3, 1, 0)]
EEG_WIDTHS = [60, 60, 60, 120, 120, 120]
NIRS_GEOMETRY = [(5, 2, 0), (3, 1, 0), (3, 1, 0), (3, 1, 0), (3, 1, 0), (3, 1, 0)]
NIRS_WIDTHS = [72, 72, 72, 144, 144, 144]

# full is the reference protocol and the default; desk divides the conv widths and shrinks the
# default epochs and fused vector for laptop-scale runs
PROFILES = {
    "full": {"divisor": 1, "epochs": 300, "output_dim": 128},
    "desk": {"divisor": 6, "epochs": 30, "output_dim": 16},
}
DEFAULT_PROFILE = "full"


class ModelError(ValueError):
    pass


def extractor_plan(modality: str, profile: str = DEFAULT_PROFILE) -> dict:
    """Block list for one extractor: in_channels plus per-block conv settings."""
    if profile not in tuple(PROFILES):
        raise ModelError(f"unknown profile {profile!r}")
    div = PROFILES[profile]["divisor"]
    if modality == "eeg":
        in_ch, widths, geometry = EEG_CHANNELS, EEG_WIDTHS, EEG_GEOMETRY
    elif modality in ("oxy", "deoxy"):
        in_ch, widths, geometry = NIRS_CHANNELS, NIRS_WIDTHS, NIRS_GEOMETRY
    else:
        raise ModelError(f"unknown modality {modality!r}")
    blocks = [
        {"out_channels": w // div, "filter": f, "stride": s, "padding": p}
        for w, (f, s, p) in zip(widths, geometry)
    ]
    return {"in_channels": in_ch, "blocks": blocks}


def time_chain(plan: dict, input_len: int) -> list[int]:
    """Successive conv output lengths for a given input length."""
    chain, t = [], input_len
    for blk in plan["blocks"]:
        t = conv_out_length(t, blk["filter"], blk["stride"], blk["padding"])
        if t < 1:
            raise ops.GeometryError(f"plan infeasible at block with filter {blk['filter']} (length {t})")
        chain.append(t)
    return chain


def feature_length(plan: dict) -> int:
    return plan["blocks"][-1]["out_channels"]


def extractor_plans(profile: str = DEFAULT_PROFILE) -> dict:
    return {m: extractor_plan(m, profile) for m in MODALITIES}


# tiny clones for finite-difference checks: same block structure, shrunk
# channels and time lengths (30 / 10), geometry adapted to stay feasible
TINY_PLANS = {
    "eeg": {"in_channels": 5, "blocks": [
        {"out_channels": 6, "filter": 5, "stride": 2, "padding": 0},
        {"out_channels": 6, "filter": 3, "stride": 1, "padding": 0},
        {"out_channels": 12, "filter": 3, "stride": 1, "padding": 0},
    ]},
    "oxy": {"in_channels": 6, "blocks": [
        {"out_channels": 6, "filter": 3, "stride": 1, "padding": 0},
        {"out_channels": 10, "filter": 3, "stride": 1, "padding": 0},
    ]},
}
TINY_PLANS["deoxy"] = TINY_PLANS["oxy"]
TINY_INPUT_LENGTHS = {"eeg": 30, "oxy": 10, "deoxy": 10}


SPEC_KEYS = ("type", "modality", "profile", "fusion", "l2_normalize")
BLOCK_KEYS = ("out_channels", "filter", "stride", "padding")
FUSION_KEYS = tuple(f.name for f in fields(FusionSpec) if f.name != "input_dims")  # input_dims come from the plans


def topology(spec: dict, plans: dict | None = None) -> dict:
    """Validate a model spec and return the topology it describes, less the seed.

    A spec holds ``type`` (``single`` or ``fused``), an optional ``profile``
    (default ``full``) and either a ``modality`` or a ``fusion`` dict of fusion
    hyperparameters plus an optional ``l2_normalize`` (default: on for TF and
    PF outputs, off for LF). The fusion input lengths come from the extractors;
    ``plans`` replaces the profile's extractor plans (e.g. ``TINY_PLANS``).
    A bad spec raises ``ModelError``, ``FusionSpecError`` or ``MaterializeError``.
    """
    if not isinstance(spec, dict) or not set(spec) <= set(SPEC_KEYS):
        raise ModelError(f"model spec must be a dict with keys from {SPEC_KEYS}, got {spec!r}")
    kind, profile, modality = spec.get("type"), spec.get("profile", DEFAULT_PROFILE), spec.get("modality")
    if profile not in tuple(PROFILES):
        raise ModelError(f"profile must be one of {tuple(PROFILES)}, got {profile!r}")
    if kind not in ("single", "fused"):
        raise ModelError(f"model spec type must be 'single' or 'fused', got {kind!r}")
    foreign = ("fusion", "l2_normalize") if kind == "single" else ("modality",)
    if any(spec.get(k) is not None for k in foreign):
        raise ModelError(f"a {kind} model takes no {' or '.join(foreign)}, got {spec!r}")
    if kind == "single":
        if modality not in MODALITIES:
            raise ModelError(f"single model needs a modality in {MODALITIES}, got {modality!r}")
        plan = plans[modality] if plans is not None else extractor_plan(modality, profile)
        feat = feature_length(plan)
        return {
            "type": "single", "modality": modality, "profile": profile,
            "extractors": {modality: plan}, "head": {"dims": [feat, max(feat // 2, 1), N_CLASSES]},
            "fusion": None, "l2_normalize": False,
        }
    fusion, l2_normalize = spec.get("fusion"), spec.get("l2_normalize")
    if not isinstance(fusion, dict) or not {"kind", "output_dim"} <= set(fusion) <= set(FUSION_KEYS):
        raise FusionSpecError(f"fusion must be a dict with kind, output_dim and optionally "
                              f"{', '.join(FUSION_KEYS[2:])}; got {fusion!r}")
    if l2_normalize is not None and not isinstance(l2_normalize, bool):
        raise ModelError(f"l2_normalize must be true or false, got {l2_normalize!r}")
    plans = plans if plans is not None else extractor_plans(profile)
    fusion_spec = FusionSpec(input_dims=tuple(feature_length(plans[m]) for m in MODALITIES), **fusion)
    if fusion_spec.path == "full" or fusion_spec.kind == "LF":  # LF's one weight is its full tensor
        fusion_spec.check_materializable()
    else:
        # TF's factors hold concat_dim x R x O entries, PF's p times that (a symmetric
        # layer multiplies p projections): an O(1) bound before anything order-sized
        order = fusion_spec.order if fusion_spec.kind == "PF" else 1
        entries = order * fusion_spec.concat_dim * fusion_spec.rank * fusion_spec.output_dim
        if entries > MATERIALIZE_LIMIT:
            raise MaterializeError(f"{fusion_spec.kind} factors would hold {entries} entries, "
                                   f"over the {MATERIALIZE_LIMIT} guard")
    return {
        "type": "fused", "modality": None, "profile": profile,
        "extractors": {m: plans[m] for m in MODALITIES},
        "head": {"dims": [fusion_spec.output_dim, N_CLASSES]}, "fusion": fusion_spec.to_dict(),
        "l2_normalize": fusion_spec.kind in ("TF", "PF") if l2_normalize is None else l2_normalize,
    }


def param_shapes(topology: dict) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter of a topology, in the order ``build_from_spec``
    draws them: extractor blocks, then the fusion layer, then the head. It is
    the one statement of a model's arrays, read to initialize, load and count."""
    shapes = {}
    for m, plan in topology["extractors"].items():
        in_ch = plan["in_channels"]
        for i, blk in enumerate(plan["blocks"]):
            oc = blk["out_channels"]
            shapes.update({f"{m}.conv{i}.w": (oc, in_ch, blk["filter"]), f"{m}.conv{i}.b": (oc,),
                           f"{m}.bn{i}.gamma": (oc,), f"{m}.bn{i}.beta": (oc,)})
            in_ch = oc
    if topology["fusion"]:
        spec = FusionSpec(**topology["fusion"])
        shapes.update({f"fusion.{k}": v for k, v in fusion_param_shapes(spec).items()})
    dims = topology["head"]["dims"]
    for name, d_in, d_out in zip(["head"] if topology["fusion"] else ["head1", "head2"], dims, dims[1:]):
        shapes[f"{name}.w"], shapes[f"{name}.b"] = (d_in, d_out), (d_out,)
    return shapes


class ModelGraph:
    """A classifier: named parameter store + batch-norm state + topology descriptor.

    ``forward(inputs)`` evaluates with the stored parameters and running
    statistics, a fixed map of each sample. ``forward(inputs, params)`` is the
    training forward over ``params`` (autodiff Variables, or plain arrays, in
    place of the stored ones): batch norm uses batch statistics and updates the running ones.
    """

    def __init__(self, topology: dict, params: dict[str, np.ndarray], state: dict[str, BatchNormState]):
        self.topology = topology
        self.fusion_spec = FusionSpec(**topology["fusion"]) if topology["fusion"] else None
        self.params = params
        self.state = state

    # -- forward ------------------------------------------------------------

    def _extract(self, name: str, x, P, train: bool):
        plan = self.topology["extractors"][name]
        if value_of(x).shape[-2] != plan["in_channels"]:
            raise ModelError(
                f"{name} input has {value_of(x).shape[-2]} channels, expected {plan['in_channels']}"
            )
        block = ops.conv_bn_relu if train else ops.conv_bn_relu_eval
        h = x
        for i, blk in enumerate(plan["blocks"]):
            h = block(h, P[f"{name}.conv{i}.w"], P[f"{name}.conv{i}.b"], P[f"{name}.bn{i}.gamma"],
                      P[f"{name}.bn{i}.beta"], self.state[f"{name}.bn{i}"],
                      stride=blk["stride"], padding=blk["padding"], name=f"{name}.block{i}")
        return ops.global_avgpool(h)

    def features(self, inputs, params=None):
        """Per-modality feature vectors at the pooling boundary; ``params`` as in ``forward``."""
        train = params is not None
        P = params if train else self.params
        if self.topology["type"] == "single":
            m = self.topology["modality"]
            return self._extract(m, inputs, P, train)
        x1, x2, x3 = inputs
        return tuple(
            self._extract(m, x, P, train)
            for m, x in zip(MODALITIES, (x1, x2, x3))
        )

    def forward(self, inputs, params=None):
        """Logits [batch, 2]: evaluation, or the training forward over ``params``."""
        P = params if params is not None else self.params
        if self.topology["type"] == "single":
            z = self.features(inputs, params)
            h = ad.relu(ops.linear_forward(z, P["head1.w"], P["head1.b"]))
            return ops.linear_forward(h, P["head2.w"], P["head2.b"])
        z1, z2, z3 = self.features(inputs, params)
        fused_params = {k.split(".", 1)[1]: P[k] for k in P if k.startswith("fusion.")}
        y = fuse(self.fusion_spec, fused_params, z1, z2, z3)
        if self.topology["l2_normalize"]:
            y = ops.l2_normalize(y)
        return ops.linear_forward(y, P["head.w"], P["head.b"])

    def predict(self, inputs) -> np.ndarray:
        """Class labels; ``FloatingPointError`` if any logit is not finite, since
        argmax would read a NaN row as class 0."""
        logits = self.forward(inputs)
        if not np.isfinite(logits).all():
            raise FloatingPointError("model evaluates to non-finite logits")
        return np.argmax(logits, axis=-1)

    # -- bookkeeping ---------------------------------------------------------

    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in param_shapes(self.topology).values())

    def fusion_param_count(self) -> int:
        return fusion_param_count(self.fusion_spec) if self.fusion_spec else 0


# ---------------------------------------------------------------------------
# factories and checkpoints

def build_from_spec(spec: dict, seed: int = 0, plans: dict | None = None) -> ModelGraph:
    """The one model constructor: ``topology(spec, plans)``, then every array of
    ``param_shapes`` drawn in order from one stream seeded by ``seed``. Conv and
    linear weights and biases are uniform in +-1/sqrt(fan_in), batch norm starts
    at gamma 1, beta 0; fusion weights come from ``init_fusion_params``."""
    topo = {**topology(spec, plans), "seed": seed}
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    state: dict[str, BatchNormState] = {}
    for name, shape in param_shapes(topo).items():
        if name.startswith("fusion."):
            if name not in params:
                fused = init_fusion_params(FusionSpec(**topo["fusion"]), rng)
                params.update({f"fusion.{k}": v for k, v in fused.items()})
        elif name.endswith(".gamma"):
            params[name] = np.ones(shape)
            state[name[:-len(".gamma")]] = BatchNormState.fresh(shape[0])
        elif name.endswith(".beta"):
            params[name] = np.zeros(shape)
        else:
            if name.endswith(".w"):  # conv [out, in, filter] or linear [in, out]; the bias reuses the bound
                bound = (1.0 / (shape[1] * shape[2] if len(shape) == 3 else shape[0])) ** 0.5
            params[name] = rng.uniform(-bound, bound, size=shape)
    return ModelGraph(topo, params, state)


def tiny_inputs(rng: np.random.Generator, batch: int = 2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random tri-modal batch matching the tiny extractor plans."""
    return tuple(
        rng.normal(size=(batch, TINY_PLANS[m]["in_channels"], TINY_INPUT_LENGTHS[m]))
        for m in MODALITIES
    )


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def save_model(model: ModelGraph, outdir) -> None:
    """Checkpoint: topology manifest + one binary tensor file per parameter.

    The manifest carries a sha256 digest per parameter file so corruption is
    detectable (see ``verify_checkpoint``).
    """
    os.makedirs(os.path.join(outdir, "params"), exist_ok=True)
    os.makedirs(os.path.join(outdir, "state"), exist_ok=True)
    digests = {}
    for name, arr in model.params.items():
        path = os.path.join(outdir, "params", name + ".ten")
        save_tensor(path, arr)
        digests[name] = _digest(path)
    bn_meta = {}
    for name, st in model.state.items():
        save_tensor(os.path.join(outdir, "state", name + ".mean.ten"), st.running_mean)
        save_tensor(os.path.join(outdir, "state", name + ".var.ten"), st.running_var)
        bn_meta[name] = {"eps": st.eps, "momentum": st.momentum}
    doc = {"topology": model.topology, "batchnorm": bn_meta,
           "params": sorted(model.params), "digests": digests}
    with open(os.path.join(outdir, "topology.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _plan_ok(plan) -> bool:
    """Whether a stored extractor plan has the form ``extractor_plan`` gives: int
    channels, filters and strides of at least 1 and int paddings of at least 0."""
    blocks = plan.get("blocks") if isinstance(plan, dict) else None
    return (isinstance(blocks, list) and len(blocks) > 0 and set(plan) == {"in_channels", "blocks"}
            and type(plan["in_channels"]) is int and plan["in_channels"] >= 1
            and all(isinstance(b, dict) and set(b) == set(BLOCK_KEYS)
                    and all(type(b[k]) is int and b[k] >= (k != "padding") for k in BLOCK_KEYS) for b in blocks))


def _checkpoint_file(indir, rel: str) -> str:
    """The path of a checkpoint's file ``rel``; ``ModelError`` when it is
    missing or not a regular file (a FIFO would block the open)."""
    path = os.path.join(indir, rel)
    if (why := file_problem(path)) is not None:
        raise ModelError(f"checkpoint file {rel} {why}")
    return path


def _read_checkpoint(indir) -> dict:
    """A checkpoint's ``topology.json``, checked to have the form ``save_model``
    writes: its topology must be the one ``topology`` derives from the spec and
    extractor plans it records. ``ModelError`` says what is malformed."""
    path = _checkpoint_file(indir, "topology.json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ModelError(f"checkpoint topology.json is not JSON ({exc})") from None
    fields = {"topology": dict, "params": list, "batchnorm": dict, "digests": dict}
    if not isinstance(doc, dict) or not all(isinstance(doc.get(k), t) for k, t in fields.items()):
        raise ModelError("checkpoint topology.json needs a topology, a params list, batchnorm and digests")
    if not all(isinstance(v, str) for v in doc["params"] + list(doc["digests"].values())):
        raise ModelError("checkpoint params and digests must be strings")
    if not all(isinstance(meta, dict) and set(meta) == {"eps", "momentum"}
               and all(type(v) in (int, float) and 0 <= v < math.inf for v in meta.values())
               for meta in doc["batchnorm"].values()):
        raise ModelError("checkpoint batchnorm entries must hold a finite eps and momentum, each >= 0")
    stored, plans = doc["topology"], doc["topology"].get("extractors")
    if not isinstance(plans, dict) or not all(_plan_ok(plan) for plan in plans.values()):
        raise ModelError("checkpoint topology has a malformed extractor plan")
    spec = {k: stored.get(k) for k in SPEC_KEYS}
    if spec["type"] == "single":
        del spec["l2_normalize"]  # recorded as false, but a single model's spec takes none
    elif isinstance(spec["fusion"], dict):
        spec["fusion"] = {k: v for k, v in spec["fusion"].items() if k != "input_dims"}
    try:
        topo = doc["topology"] = {**topology(spec, plans), "seed": stored.get("seed")}
    except ValueError as exc:
        raise ModelError(f"checkpoint topology is invalid: {exc}") from None
    except KeyError as exc:
        raise ModelError(f"checkpoint topology has no extractor plan for {exc}") from None
    if topo != stored:
        keys = sorted(k for k in topo.keys() | stored.keys() if topo.get(k) != stored.get(k))
        raise ModelError(f"checkpoint topology's {', '.join(map(repr, keys))} differ from what its spec describes")
    return doc


def checkpoint_digest_problems(indir) -> list[str]:
    """Parameter files whose sha256 no longer matches the checkpoint manifest."""
    doc = _read_checkpoint(indir)
    problems = []
    for name in doc["params"]:
        path = os.path.join(indir, "params", name + ".ten")
        if (why := file_problem(path)) is not None:
            problems.append(f"{name}: parameter file {why}")
        elif doc["digests"].get(name) != _digest(path):
            problems.append(f"{name}: digest mismatch (file corrupted or replaced)")
    return problems


def _load_checked(indir, rel: str, want: tuple) -> np.ndarray:
    try:
        arr = load_tensor(_checkpoint_file(indir, rel))
    except ShapeError as exc:
        raise ModelError(f"checkpoint file {rel} unreadable ({exc})") from None
    if arr.shape != want:
        raise ModelError(f"checkpoint file {rel} has shape {arr.shape}, expected {want} for its topology")
    return arr


def load_model(indir) -> ModelGraph:
    """Load a checkpoint, checking every array against the shape that its
    topology allocates; raises ``ModelError`` naming the first bad file or the
    malformed part of ``topology.json``."""
    doc = _read_checkpoint(indir)
    fusion = doc["topology"]["fusion"]
    # a non-symmetric factorized PF layer stores one factor per order: bound the
    # order by the stored names before param_shapes lists a shape per factor
    if fusion and fusion["kind"] == "PF" and not fusion["symmetric"] and fusion["order"] > len(doc["params"]):
        raise ModelError("checkpoint's parameter names do not match its topology")
    shapes = param_shapes(doc["topology"])
    bn_names = sorted(k[:-len(".gamma")] for k in shapes if k.endswith(".gamma"))
    if sorted(doc["params"]) != sorted(shapes) or sorted(doc["batchnorm"]) != bn_names:
        raise ModelError("checkpoint's parameter or batch-norm names do not match its topology")
    params = {name: _load_checked(indir, f"params/{name}.ten", shapes[name]) for name in doc["params"]}
    state = {}
    for name, meta in doc["batchnorm"].items():
        want = shapes[f"{name}.gamma"]
        state[name] = BatchNormState(
            _load_checked(indir, f"state/{name}.mean.ten", want),
            _load_checked(indir, f"state/{name}.var.ten", want),
            eps=meta["eps"], momentum=meta["momentum"],
        )
    return ModelGraph(doc["topology"], params, state)
