"""Tour of the three fusion layers.

Builds linear (LF), tensor (TF) and polynomial (PF) fusion layers, shows how
the factorized weight representation keeps parameter counts manageable, and
checks that the factorized forward path agrees with a contraction against the
dense reconstructed weight tensor.
"""

import numpy as np

from trifuse.fusion import FusionSpec, fuse, init_fusion_params, param_count, reconstruct_full

rng = np.random.default_rng(0)

# feature lengths produced by the full-profile extractors: EEG 120, NIRS 144
dims = (120, 144, 144)
O = 128

print("parameter counts at feature lengths", dims, "fused length", O)
for label, spec in [
    ("LF", FusionSpec("LF", dims, O)),
    ("TF full (guarded)", FusionSpec("TF", dims, O, path="full")),
    ("TF factorized R=16", FusionSpec("TF", dims, O, rank=16)),
    ("PF p=5 factorized R=16", FusionSpec("PF", dims, O, rank=16, order=5)),
    ("PF p=5 symmetric R=16", FusionSpec("PF", dims, O, rank=16, order=5, symmetric=True)),
]:
    print(f"  {label:26} {param_count(spec):>15,}")
print()

# forward pass on one random tri-modal feature triple
z1, z2, z3 = (rng.normal(size=d) for d in dims)
for kind, kw in [("LF", {}), ("TF", {"rank": 16}), ("PF", {"rank": 16, "order": 3, "symmetric": True})]:
    spec = FusionSpec(kind, dims, O, **kw)
    params = init_fusion_params(spec, rng)
    y = fuse(spec, params, z1, z2, z3)
    print(f"{kind}: fused vector length {y.shape[0]}, norm {np.linalg.norm(y):.4f}")
print()

# at desk scale the dense weight tensor is small enough to materialize, so we
# can check that both paths of the same layer agree
spec = FusionSpec("PF", (5, 6, 4), 8, rank=12, order=3, symmetric=True)
params = init_fusion_params(spec, rng)
w = reconstruct_full(spec, params)
print("reconstructed dense PF weight tensor:", w.shape)

zs = [rng.normal(size=d) for d in spec.input_dims]
y_fact = fuse(spec, params, *zs)
full_spec = FusionSpec("PF", spec.input_dims, 8, order=3, path="full")
y_full = fuse(full_spec, {"w_full": w}, *zs)
rel = np.max(np.abs(y_fact - y_full)) / np.max(np.abs(y_full))
print(f"factorized vs dense forward: max relative difference {rel:.2e}")
