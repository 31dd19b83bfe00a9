"""Tri-modal feature fusion layers.

Three families, each mapping feature vectors (z1, z2, z3) of lengths (A, B, C)
to a fused vector of length O. All three contract a list of operands with one
weight tensor ``W[i1..ik, o]``: ``y[o] = sum W[i1..ik, o] * x1[i1] * ... * xk[ik]``.

* linear fusion (LF): one operand, the concatenation ``zc = [z1, z2, z3]``;
* tensor fusion (TF): the operands ``z1, z2, z3`` (their outer product);
* polynomial fusion (PF): the operand ``zc`` p times (its p-fold outer power),
  capturing every degree-p interaction within and across modalities.

``fuse(spec, params, z1, z2, z3)`` is the one forward; the ``FusionSpec`` says
which of these it computes. LF and the ``full`` path of TF and PF hold ``W``
dense (guarded against huge allocations) and contract it one operand at a
time. The ``factorized`` path holds ``W`` as a rank-R sum of per-operand factor
tensors ``[dim, R, O]`` combined by a mixing vector ``[R]``: it projects each
operand through its factor and multiplies the projections. A symmetric PF
layer stores one factor tensor, projects ``zc`` through it once, and
multiplies that projection by itself p times. ``reconstruct_full`` rebuilds
the dense tensor from the factors so tests can assert the two paths agree.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import value_of

MATERIALIZE_LIMIT = 10**7

KINDS = ("LF", "TF", "PF")
PATHS = ("full", "factorized")


class FusionSpecError(ValueError):
    pass


class MaterializeError(ValueError):
    """Full weight tensor would exceed the allocation guard."""


@dataclass
class FusionSpec:
    kind: str
    input_dims: tuple[int, int, int]
    output_dim: int
    rank: int = 16
    order: int = 1
    symmetric: bool = False
    path: str = "factorized"
    augment_one: bool = False  # extension: prepend a constant 1 so PF also captures lower-degree terms

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FusionSpecError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.path not in PATHS:
            raise FusionSpecError(f"path must be one of {PATHS}, got {self.path!r}")
        for name in ("output_dim", "rank", "order"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise FusionSpecError(f"{name} must be an integer, got {value!r}")
        for name in ("symmetric", "augment_one"):
            if not isinstance(getattr(self, name), bool):
                raise FusionSpecError(f"{name} must be true or false, got {getattr(self, name)!r}")
        self.input_dims = tuple(int(d) for d in self.input_dims)
        if len(self.input_dims) != 3 or min(self.input_dims) < 1:
            raise FusionSpecError(f"input_dims must be three positive lengths, got {self.input_dims}")
        if self.output_dim < 1:
            raise FusionSpecError("output_dim must be positive")
        if self.kind == "PF" and self.order < 1:
            raise FusionSpecError("PF order must be >= 1")
        if self.symmetric and self.kind != "PF":
            raise FusionSpecError("symmetric applies to PF only")
        if self.augment_one and self.kind != "PF":
            raise FusionSpecError("augment_one applies to PF only")
        if self.kind in ("TF", "PF") and self.path == "factorized" and self.rank < 1:
            raise FusionSpecError("factorized path needs rank >= 1")

    @property
    def concat_dim(self) -> int:
        return sum(self.input_dims) + (1 if self.augment_one else 0)

    def full_entries(self) -> int:
        a, b, c = self.input_dims
        if self.kind == "LF":
            return self.concat_dim * self.output_dim
        if self.kind == "TF":
            return a * b * c * self.output_dim
        return self.concat_dim**self.order * self.output_dim

    def check_materializable(self, what: str = "full weight tensor") -> None:
        # concat_dim >= 3, so a PF order past the guard's bit length is over it;
        # the exact count would be a huge power
        huge = self.kind == "PF" and self.order >= MATERIALIZE_LIMIT.bit_length()
        n = f"{self.concat_dim}**{self.order} x {self.output_dim}" if huge else self.full_entries()
        if huge or n > MATERIALIZE_LIMIT:
            raise MaterializeError(
                f"{what} for {self.kind} would hold {n} entries, over the {MATERIALIZE_LIMIT} guard"
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "input_dims": list(self.input_dims)}


def param_shapes(spec: FusionSpec) -> dict[str, tuple[int, ...]]:
    """The shape of every learned fusion parameter, by name."""
    a, b, c = spec.input_dims
    d, o, r, p = spec.concat_dim, spec.output_dim, spec.rank, spec.order
    if spec.kind == "LF":
        return {"w": (d, o)}
    if spec.path == "full":
        return {"w_full": (a, b, c, o) if spec.kind == "TF" else (d,) * p + (o,)}
    if spec.kind == "TF":
        shapes = {f"factor{k}": (dim, r, o) for k, dim in enumerate((a, b, c), 1)}
    elif spec.symmetric:
        shapes = {"factor": (d, r, o)}
    else:
        shapes = {f"factor{k}": (d, r, o) for k in range(1, p + 1)}
    return {**shapes, "mix": (r,)}


def param_count(spec: FusionSpec) -> int:
    """Exact number of learned fusion parameters for a spec."""
    return sum(math.prod(shape) for shape in param_shapes(spec).values())


def init_fusion_params(spec: FusionSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh parameter tensors, one per ``param_shapes`` entry, drawn in its order.

    Factor entries are uniform with scale ``(1/dim)^(1/p)`` so the p-fold
    product of projections stays bounded at init; the mixing vector starts at
    1/R, making the rank dimension an average.
    """
    a, b, c = spec.input_dims
    d, r, p = spec.concat_dim, spec.rank, spec.order
    if spec.path == "full":
        spec.check_materializable()
    if spec.kind == "LF":
        s = (1.0 / d) ** 0.5
    elif spec.path == "full":
        s = (1.0 / (a * b * c)) ** 0.5 if spec.kind == "TF" else (1.0 / d) ** (p / 2.0)
    params = {}
    for name, shape in param_shapes(spec).items():
        if name == "mix":
            params[name] = np.full(r, 1.0 / r)
            continue
        if name.startswith("factor"):  # shape [dim, R, O]
            s = (1.0 / shape[0]) ** (1.0 / 3.0) if spec.kind == "TF" else (1.0 / d) ** (1.0 / p)
        params[name] = rng.uniform(-s, s, size=shape)
    return params


# ---------------------------------------------------------------------------
# forward (ndarray or Variable inputs)

def _mixdown(projs, mix):
    """Elementwise product of [batch, R, O] projections, contracted with mix [R]."""
    h = projs[0]
    for pm in projs[1:]:
        h = ad.mul(h, pm)
    return ad.contract(h, mix)


def _full_chain(t, z):
    """One step of y = sum_i z_i * t[:, i, ...]: multiply broadcast, then sum axis 1."""
    b, d = value_of(z).shape
    zr = ad.reshape(z, (b, d) + (1,) * (value_of(t).ndim - 2))
    return ad.sum_axis(ad.mul(t, zr), 1)


def fuse(spec: FusionSpec, params, z1, z2, z3):
    """The fused vector ``[batch, O]`` (``[O]`` for unbatched inputs), before normalization.

    Inputs are ``[len]`` or ``[batch, len]`` with lengths ``spec.input_dims``.
    The spec alone says which weights in ``params`` are read and how.
    """
    zs = []
    for z, dim, tag in zip((z1, z2, z3), spec.input_dims, ("z1", "z2", "z3")):
        shape = value_of(z).shape
        if len(shape) not in (1, 2):
            raise FusionSpecError(f"feature input must be order 1 or 2, got shape {shape}")
        if shape[-1] != dim:
            raise FusionSpecError(f"{tag} has length {shape[-1]}, expected {dim}")
        zs.append(ad.reshape(z, (1, dim)) if len(shape) == 1 else z)
    for name, want in param_shapes(spec).items():
        if value_of(params[name]).shape != want:
            raise FusionSpecError(f"{spec.kind} {name} has shape {value_of(params[name]).shape}, expected {want}")
    if spec.kind == "TF":
        operands = zs
    else:
        if spec.augment_one:
            zs = [np.ones((value_of(zs[0]).shape[0], 1))] + zs
        zc = ad.concat_last(zs)
        operands = [zc] if spec.kind == "LF" else [zc] * spec.order
    if spec.kind == "LF" or spec.path == "full":
        w = params["w" if spec.kind == "LF" else "w_full"]
        if spec.path == "full":
            spec.check_materializable("full-path weight tensor")
        y = ad.contract(operands[0], w)
        for z in operands[1:]:
            y = _full_chain(y, z)
    elif spec.symmetric:
        # one shared projection, multiplied by itself p times; backward sums
        # the p upstream gradients into it before one factor contraction
        y = _mixdown([ad.contract(operands[0], params["factor"])] * spec.order, params["mix"])
    else:
        projs = [ad.contract(z, params[f"factor{k}"]) for k, z in enumerate(operands, 1)]
        y = _mixdown(projs, params["mix"])
    return ad.reshape(y, value_of(y).shape[1:]) if value_of(z1).ndim == 1 else y


# ---------------------------------------------------------------------------
# dense reconstruction (testing utility)

def reconstruct_full(spec: FusionSpec, params: dict) -> np.ndarray:
    """Materialize the dense weight tensor a factorized layer represents.

    Sums rank-one components: ``W[i1..ip, o] = sum_r mix[r] * prod_k F_k[i_k, r, o]``.
    """
    spec.check_materializable("reconstruction")
    if spec.kind == "LF":
        return np.array(value_of(params["w"]))
    if spec.kind == "TF":
        factors = [value_of(params[f"factor{k}"]) for k in (1, 2, 3)]
    elif spec.symmetric:
        factors = [value_of(params["factor"])] * spec.order
    else:
        factors = [value_of(params[f"factor{k}"]) for k in range(1, spec.order + 1)]
    mix = value_of(params["mix"])
    dims = tuple(f.shape[0] for f in factors)
    out_dim = factors[0].shape[2]
    acc = np.zeros(dims + (out_dim,))
    for r in range(mix.shape[0]):
        term = factors[0][:, r, :]
        for f in factors[1:]:
            term = term[..., None, :] * f[:, r, :]
        acc += mix[r] * term
    return acc
