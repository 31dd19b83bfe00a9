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
import os

import numpy as np

from . import autodiff as ad
from . import ops
from .autodiff import value_of
from .fusion import FusionSpec, fuse, init_fusion_params
from .ops import BatchNormState, conv_out_length
from .tensor import load_tensor, save_tensor

MODALITIES = ("eeg", "oxy", "deoxy")
N_CLASSES = 2

EEG_GEOMETRY = [(9, 4, 0), (3, 1, 0), (3, 1, 0), (9, 4, 0), (3, 1, 0), (3, 1, 0)]
EEG_WIDTHS = [60, 60, 60, 120, 120, 120]
NIRS_GEOMETRY = [(5, 2, 0), (3, 1, 0), (3, 1, 0), (3, 1, 0), (3, 1, 0), (3, 1, 0)]
NIRS_WIDTHS = [72, 72, 72, 144, 144, 144]

PROFILE_DIVISOR = {"full": 1, "desk": 6}


class ModelError(ValueError):
    pass


def extractor_plan(modality: str, profile: str = "full") -> dict:
    """Block list for one extractor: in_channels plus per-block conv settings."""
    if profile not in PROFILE_DIVISOR:
        raise ModelError(f"unknown profile {profile!r}")
    div = PROFILE_DIVISOR[profile]
    if modality == "eeg":
        in_ch, widths, geometry = 30, EEG_WIDTHS, EEG_GEOMETRY
    elif modality in ("oxy", "deoxy"):
        in_ch, widths, geometry = 36, NIRS_WIDTHS, NIRS_GEOMETRY
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


def extractor_plans(profile: str = "full") -> dict:
    return {m: extractor_plan(m, profile) for m in MODALITIES}


def make_fusion_spec(fusion: dict, plans: dict) -> FusionSpec:
    """The fusion layer that a hyperparameter dict (``kind``, ``output_dim``,
    ``rank``, ...) describes on top of the given extractors."""
    return FusionSpec(input_dims=tuple(feature_length(plans[m]) for m in MODALITIES), **fusion)


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


class ModelGraph:
    """A classifier: named parameter store + topology descriptor + mode flag.

    ``forward`` accepts plain ndarrays (pure evaluation) or, for training, a
    dict of autodiff Variables standing in for the stored parameters.
    """

    def __init__(self, topology: dict, params: dict[str, np.ndarray], state: dict[str, BatchNormState]):
        self.topology = topology
        self.fusion_spec = FusionSpec(**topology["fusion"]) if topology["fusion"] else None
        self.params = params
        self.state = state
        self.mode = "train"

    # -- construction -------------------------------------------------------

    @classmethod
    def _init_extractor(cls, name: str, plan: dict, rng, params, state):
        in_ch = plan["in_channels"]
        for i, blk in enumerate(plan["blocks"]):
            oc, f = blk["out_channels"], blk["filter"]
            bound = (1.0 / (in_ch * f)) ** 0.5
            params[f"{name}.conv{i}.w"] = rng.uniform(-bound, bound, size=(oc, in_ch, f))
            params[f"{name}.conv{i}.b"] = rng.uniform(-bound, bound, size=oc)
            params[f"{name}.bn{i}.gamma"] = np.ones(oc)
            params[f"{name}.bn{i}.beta"] = np.zeros(oc)
            state[f"{name}.bn{i}"] = BatchNormState.fresh(oc)
            in_ch = oc

    @classmethod
    def _init_linear(cls, name: str, d_in: int, d_out: int, rng, params):
        bound = (1.0 / d_in) ** 0.5
        params[f"{name}.w"] = rng.uniform(-bound, bound, size=(d_in, d_out))
        params[f"{name}.b"] = rng.uniform(-bound, bound, size=d_out)

    @classmethod
    def single_modal(cls, modality: str, profile: str = "full", seed: int = 0,
                     plan: dict | None = None) -> "ModelGraph":
        """Extractor + Linear(feat -> feat/2) + ReLU + Linear(-> 2) classifier."""
        if modality not in MODALITIES:
            raise ModelError(f"modality must be one of {MODALITIES}")
        plan = plan if plan is not None else extractor_plan(modality, profile)
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        state: dict[str, BatchNormState] = {}
        cls._init_extractor(modality, plan, rng, params, state)
        feat = feature_length(plan)
        hidden = max(feat // 2, 1)
        cls._init_linear("head1", feat, hidden, rng, params)
        cls._init_linear("head2", hidden, N_CLASSES, rng, params)
        topology = {
            "type": "single", "modality": modality, "profile": profile,
            "extractors": {modality: plan}, "head": {"dims": [feat, hidden, N_CLASSES]},
            "fusion": None, "l2_normalize": False, "seed": seed,
        }
        return cls(topology, params, state)

    @classmethod
    def fused(cls, fusion: dict, profile: str = "full", seed: int = 0,
              l2_normalize: bool | None = None, plans: dict | None = None) -> "ModelGraph":
        """Three extractors -> fusion layer -> L2 normalize -> Linear(O -> 2).

        ``fusion`` holds the fusion hyperparameters; the input lengths come
        from the extractors. L2 normalization defaults on for TF and PF
        outputs; linear fusion skips it unless explicitly enabled.
        """
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        state: dict[str, BatchNormState] = {}
        plans = plans if plans is not None else extractor_plans(profile)
        fusion_spec = make_fusion_spec(fusion, plans)
        for m in MODALITIES:
            cls._init_extractor(m, plans[m], rng, params, state)
        for pname, arr in init_fusion_params(fusion_spec, rng).items():
            params[f"fusion.{pname}"] = arr
        if l2_normalize is None:
            l2_normalize = fusion_spec.kind in ("TF", "PF")
        cls._init_linear("head", fusion_spec.output_dim, N_CLASSES, rng, params)
        topology = {
            "type": "fused", "modality": None, "profile": profile,
            "extractors": plans, "head": {"dims": [fusion_spec.output_dim, N_CLASSES]},
            "fusion": fusion_spec.to_dict(), "l2_normalize": bool(l2_normalize), "seed": seed,
        }
        return cls(topology, params, state)

    # -- forward ------------------------------------------------------------

    def set_mode(self, mode: str) -> "ModelGraph":
        if mode not in ("train", "eval"):
            raise ModelError(f"mode must be train or eval, got {mode!r}")
        self.mode = mode
        return self

    def _extract(self, name: str, x, P, update_running: bool):
        plan = self.topology["extractors"][name]
        if value_of(x).shape[-2] != plan["in_channels"]:
            raise ModelError(
                f"{name} input has {value_of(x).shape[-2]} channels, expected {plan['in_channels']}"
            )
        h = x
        for i, blk in enumerate(plan["blocks"]):
            h = ops.conv1d(h, P[f"{name}.conv{i}.w"], P[f"{name}.conv{i}.b"],
                           stride=blk["stride"], padding=blk["padding"], name=f"{name}.conv{i}")
            st = self.state[f"{name}.bn{i}"]
            gamma, beta = P[f"{name}.bn{i}.gamma"], P[f"{name}.bn{i}.beta"]
            if self.mode == "train":
                h = ops.batchnorm_train(h, gamma, beta, st, update_running=update_running)
            else:
                h = ops.batchnorm_eval(h, gamma, beta, st)
            h = ad.relu(h)
        return ops.global_avgpool(h)

    def features(self, inputs, params=None, update_running: bool = True):
        """Per-modality feature vectors at the pooling boundary."""
        P = params if params is not None else self.params
        if self.topology["type"] == "single":
            m = self.topology["modality"]
            return self._extract(m, inputs, P, update_running)
        x1, x2, x3 = inputs
        return tuple(
            self._extract(m, x, P, update_running)
            for m, x in zip(MODALITIES, (x1, x2, x3))
        )

    def forward(self, inputs, params=None, update_running: bool = True):
        """Logits [batch, 2]; pass Variables via ``params`` when training."""
        P = params if params is not None else self.params
        if self.topology["type"] == "single":
            z = self.features(inputs, P, update_running)
            h = ad.relu(ops.linear_forward(z, P["head1.w"], P["head1.b"]))
            return ops.linear_forward(h, P["head2.w"], P["head2.b"])
        z1, z2, z3 = self.features(inputs, P, update_running)
        fused_params = {k.split(".", 1)[1]: P[k] for k in P if k.startswith("fusion.")}
        y = fuse(self.fusion_spec, fused_params, z1, z2, z3)
        if self.topology["l2_normalize"]:
            y = ops.l2_normalize(y)
        return ops.linear_forward(y, P["head.w"], P["head.b"])

    def predict(self, inputs) -> np.ndarray:
        logits = self.forward(inputs)
        return np.argmax(value_of(logits), axis=-1)

    def probabilities(self, inputs) -> np.ndarray:
        return ops.softmax(value_of(self.forward(inputs)))

    # -- bookkeeping ---------------------------------------------------------

    def param_count(self) -> int:
        return int(sum(v.size for v in self.params.values()))

    def fusion_param_count(self) -> int:
        return int(sum(v.size for k, v in self.params.items() if k.startswith("fusion.")))

    def copy(self) -> "ModelGraph":
        clone = ModelGraph(
            json.loads(json.dumps(self.topology)),
            {k: v.copy() for k, v in self.params.items()},
            {k: s.copy() for k, s in self.state.items()},
        )
        clone.mode = self.mode
        return clone


# ---------------------------------------------------------------------------
# factories and checkpoints

def build_from_spec(spec: dict, seed: int = 0) -> ModelGraph:
    """Construct a model from a JSON-able description (used by trainer and CLI)."""
    kind = spec.get("type")
    profile = spec.get("profile", "full")
    if kind == "single":
        return ModelGraph.single_modal(spec["modality"], profile=profile, seed=seed)
    if kind == "fused":
        return ModelGraph.fused(spec["fusion"], profile=profile, seed=seed, l2_normalize=spec.get("l2_normalize"))
    raise ModelError(f"model spec type must be 'single' or 'fused', got {kind!r}")


def build_tiny_single(modality: str, seed: int = 0) -> ModelGraph:
    return ModelGraph.single_modal(modality, profile="full", seed=seed, plan=TINY_PLANS[modality])


def build_tiny_fused(fusion: dict, seed: int = 0, l2_normalize: bool | None = None) -> ModelGraph:
    return ModelGraph.fused(fusion, profile="full", seed=seed,
                            l2_normalize=l2_normalize, plans=TINY_PLANS)


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


def checkpoint_digest_problems(indir) -> list[str]:
    """Parameter files whose sha256 no longer matches the checkpoint manifest."""
    with open(os.path.join(indir, "topology.json")) as fh:
        doc = json.load(fh)
    problems = []
    for name in doc["params"]:
        path = os.path.join(indir, "params", name + ".ten")
        if not os.path.exists(path):
            problems.append(f"{name}: parameter file missing")
        elif doc.get("digests", {}).get(name) != _digest(path):
            problems.append(f"{name}: digest mismatch (file corrupted or replaced)")
    return problems


def load_model(indir) -> ModelGraph:
    with open(os.path.join(indir, "topology.json")) as fh:
        doc = json.load(fh)
    params = {
        name: load_tensor(os.path.join(indir, "params", name + ".ten"))
        for name in doc["params"]
    }
    state = {}
    for name, meta in doc["batchnorm"].items():
        state[name] = BatchNormState(
            load_tensor(os.path.join(indir, "state", name + ".mean.ten")),
            load_tensor(os.path.join(indir, "state", name + ".var.ten")),
            eps=meta["eps"], momentum=meta["momentum"],
        )
    model = ModelGraph(doc["topology"], params, state)
    model.mode = "eval"
    return model
