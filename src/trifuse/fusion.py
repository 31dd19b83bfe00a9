"""Tri-modal feature fusion layers.

Three families, each mapping feature vectors (z1, z2, z3) of lengths (A, B, C)
to a fused vector of length O:

* linear fusion (LF): concatenate, then one weight matrix;
* tensor fusion (TF): outer product of the three vectors contracted with a
  4th-order weight tensor;
* polynomial fusion (PF): p-fold outer power of the concatenated vector
  contracted with a (p+1)-order weight tensor, capturing every degree-p
  interaction within and across modalities.

TF and PF each have a ``full`` path (materialized weight tensor, guarded
against huge allocations) and a ``factorized`` path where the weight tensor is
a rank-R sum of per-position factor tensors ``[dim, R, O]`` combined by a
mixing vector ``[R]``. ``reconstruct_full`` rebuilds the dense tensor from the
factors so tests can assert the two paths agree. A symmetric PF layer stores
one factor tensor, projects the concatenated vector through it once, and
multiplies that projection by itself p times.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        n = self.full_entries()
        if n > MATERIALIZE_LIMIT:
            raise MaterializeError(
                f"{what} for {self.kind} would hold {n} entries, over the {MATERIALIZE_LIMIT} guard"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "input_dims": list(self.input_dims),
            "output_dim": self.output_dim,
            "rank": self.rank,
            "order": self.order,
            "symmetric": self.symmetric,
            "path": self.path,
            "augment_one": self.augment_one,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FusionSpec":
        return cls(
            kind=d["kind"],
            input_dims=tuple(d["input_dims"]),
            output_dim=int(d["output_dim"]),
            rank=int(d.get("rank", 16)),
            order=int(d.get("order", 1)),
            symmetric=bool(d.get("symmetric", False)),
            path=d.get("path", "factorized"),
            augment_one=bool(d.get("augment_one", False)),
        )


def param_count(spec: FusionSpec) -> int:
    """Exact number of learned fusion parameters for a spec."""
    a, b, c = spec.input_dims
    d, o, r, p = spec.concat_dim, spec.output_dim, spec.rank, spec.order
    if spec.kind == "LF":
        return d * o
    if spec.kind == "TF":
        if spec.path == "full":
            return a * b * c * o
        return (a + b + c) * r * o + r
    if spec.path == "full":
        return d**p * o
    if spec.symmetric:
        return d * r * o + r
    return p * d * r * o + r


def init_fusion_params(spec: FusionSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh parameter tensors.

    Factor entries are uniform with scale ``(1/dim)^(1/p)`` so the p-fold
    product of projections stays bounded at init; the mixing vector starts at
    1/R, making the rank dimension an average.
    """
    a, b, c = spec.input_dims
    d, o, r = spec.concat_dim, spec.output_dim, spec.rank
    if spec.path == "full":
        spec.check_materializable()
    if spec.kind == "LF":
        s = (1.0 / d) ** 0.5
        return {"w": rng.uniform(-s, s, size=(d, o))}
    if spec.kind == "TF":
        if spec.path == "full":
            s = (1.0 / (a * b * c)) ** 0.5
            return {"w_full": rng.uniform(-s, s, size=(a, b, c, o))}
        params = {}
        for name, dim in (("factor1", a), ("factor2", b), ("factor3", c)):
            s = (1.0 / dim) ** (1.0 / 3.0)
            params[name] = rng.uniform(-s, s, size=(dim, r, o))
        params["mix"] = np.full(r, 1.0 / r)
        return params
    p = spec.order
    if spec.path == "full":
        s = (1.0 / d) ** (p / 2.0)
        return {"w_full": rng.uniform(-s, s, size=(d,) * p + (o,))}
    s = (1.0 / d) ** (1.0 / p)
    if spec.symmetric:
        return {"factor": rng.uniform(-s, s, size=(d, r, o)), "mix": np.full(r, 1.0 / r)}
    params = {f"factor{k}": rng.uniform(-s, s, size=(d, r, o)) for k in range(1, p + 1)}
    params["mix"] = np.full(r, 1.0 / r)
    return params


# ---------------------------------------------------------------------------
# forward paths (ndarray or Variable inputs)

def _as_batch(z):
    zv = value_of(z)
    if zv.ndim == 1:
        return ad.reshape(z, (1, zv.shape[0])), True
    if zv.ndim == 2:
        return z, False
    raise FusionSpecError(f"feature input must be order 1 or 2, got shape {zv.shape}")


def _maybe_squeeze(y, single: bool):
    if not single:
        return y
    yv = value_of(y)
    return ad.reshape(y, yv.shape[1:])


def _check_len(z, expected: int, which: str):
    got = value_of(z).shape[-1]
    if got != expected:
        raise FusionSpecError(f"{which} has length {got}, expected {expected}")


def fuse_linear(z1, z2, z3, params):
    """Concatenate the three feature vectors and apply one weight matrix."""
    w = params["w"]
    d = value_of(w).shape[0]
    z1, s1 = _as_batch(z1)
    z2, _ = _as_batch(z2)
    z3, _ = _as_batch(z3)
    zc = ad.concat_last([z1, z2, z3])
    if value_of(zc).shape[-1] != d:
        raise FusionSpecError(
            f"concatenated length {value_of(zc).shape[-1]} does not match weight rows {d}"
        )
    return _maybe_squeeze(ad.matmul(zc, w), s1)


def _mixdown(projs, mix):
    """Elementwise product of [batch, R, O] projections, contracted with mix [R]."""
    h = projs[0]
    for pm in projs[1:]:
        h = ad.mul(h, pm)
    return ad.contract(h, mix, [1], [0])


def _full_chain(t, z, n_remaining: int):
    """One step of y = sum_i z_i * t[:, i, ...]: multiply broadcast, then sum axis 1."""
    b, d = value_of(z).shape
    zr = ad.reshape(z, (b, d) + (1,) * n_remaining)
    return ad.sum_axis(ad.mul(t, zr), 1)


def fuse_tensor(z1, z2, z3, params, path: str = "factorized"):
    """Trilinear fusion: outer(z1, z2, z3) contracted with the weight tensor."""
    z1, s1 = _as_batch(z1)
    z2, _ = _as_batch(z2)
    z3, _ = _as_batch(z3)
    if path == "full":
        w = params["w_full"]
        if value_of(w).size > MATERIALIZE_LIMIT:
            raise MaterializeError(f"full-path weight tensor has {value_of(w).size} entries, over the guard")
        a, b, c, _o = value_of(w).shape
        for z, dim, tag in ((z1, a, "z1"), (z2, b, "z2"), (z3, c, "z3")):
            _check_len(z, dim, tag)
        t = ad.contract(z1, w, [1], [0])  # [batch, B, C, O]
        t = _full_chain(t, z2, 2)  # [batch, C, O]
        t = _full_chain(t, z3, 1)  # [batch, O]
        return _maybe_squeeze(t, s1)
    if path != "factorized":
        raise FusionSpecError(f"unknown path {path!r}")
    f1, f2, f3, mix = params["factor1"], params["factor2"], params["factor3"], params["mix"]
    _check_len(z1, value_of(f1).shape[0], "z1")
    _check_len(z2, value_of(f2).shape[0], "z2")
    _check_len(z3, value_of(f3).shape[0], "z3")
    projs = [ad.contract(z, f, [1], [0]) for z, f in ((z1, f1), (z2, f2), (z3, f3))]
    return _maybe_squeeze(_mixdown(projs, mix), s1)


def _concat_input(z1, z2, z3, spec: FusionSpec):
    z1, s1 = _as_batch(z1)
    z2, _ = _as_batch(z2)
    z3, _ = _as_batch(z3)
    for z, dim, tag in zip((z1, z2, z3), spec.input_dims, ("z1", "z2", "z3")):
        _check_len(z, dim, tag)
    parts = [z1, z2, z3]
    if spec.augment_one:
        batch = value_of(z1).shape[0]
        ones = np.ones((batch, 1))
        parts = [ones] + parts
    return ad.concat_last(parts), s1


def fuse_polynomial(z1, z2, z3, params, spec: FusionSpec):
    """Degree-p fusion of the concatenated feature vector."""
    if spec.kind != "PF":
        raise FusionSpecError(f"fuse_polynomial needs a PF spec, got {spec.kind}")
    zc, s1 = _concat_input(z1, z2, z3, spec)
    p = spec.order
    if spec.path == "full":
        spec.check_materializable("full-path weight tensor")
        w = params["w_full"]
        t = ad.contract(zc, w, [1], [0])  # [batch, d^(p-1)..., O]
        for k in range(2, p + 1):
            t = _full_chain(t, zc, p - k + 1)
        return _maybe_squeeze(t, s1)
    if spec.symmetric:
        # one shared projection, multiplied by itself p times; backward sums
        # the p upstream gradients into it before one factor contraction
        projs = [ad.contract(zc, params["factor"], [1], [0])] * p
    else:
        projs = [ad.contract(zc, params[f"factor{k}"], [1], [0]) for k in range(1, p + 1)]
    return _maybe_squeeze(_mixdown(projs, params["mix"]), s1)


def fuse(spec: FusionSpec, params, z1, z2, z3):
    """Dispatch on the fusion kind; output is the pre-normalization fused vector."""
    if spec.kind == "LF":
        return fuse_linear(z1, z2, z3, params)
    if spec.kind == "TF":
        return fuse_tensor(z1, z2, z3, params, path=spec.path)
    return fuse_polynomial(z1, z2, z3, params, spec)


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
