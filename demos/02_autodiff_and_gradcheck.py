"""The tape engine in isolation.

Records a small computation on a tape, runs the backward pass, and then
confirms the analytic gradients against central finite differences, both for
a hand-written expression and for a complete (tiny) fused classifier.
"""

import numpy as np

from trifuse import autodiff as ad
from trifuse import models, ops

rng = np.random.default_rng(1)

# 1. a scalar function of two tensors, differentiated by hand vs the tape
tape = ad.Tape()
a = tape.variable(rng.normal(size=(3, 4)))
b = tape.variable(rng.normal(size=(4, 2)))
loss = ad.sum_all(ad.mul(ad.matmul(a, b), ad.matmul(a, b)))  # sum((a@b)^2)
ad.backward(tape, loss)

manual_a = 2.0 * (a.value @ b.value) @ b.value.T
manual_b = 2.0 * a.value.T @ (a.value @ b.value)
print("tape vs hand-derived gradient:")
print("  d/da max abs diff", np.max(np.abs(a.grad - manual_a)))
print("  d/db max abs diff", np.max(np.abs(b.grad - manual_b)))
print(f"  tape recorded {len(tape.nodes)} backward nodes")
print()

# 2. finite-difference check of a conv + batchnorm + pooling chain
state = ops.BatchNormState.fresh(4)


def build(pv):
    h = ops.conv1d(pv["x"], pv["w"], pv["b"], stride=2, name="demo.conv")
    h = ops.batchnorm_train(h, pv["gamma"], pv["beta"], state)
    h = ad.relu(h)
    z = ops.global_avgpool(h)
    return ad.sum_all(ad.mul(z, z))


params = {
    "x": rng.normal(size=(3, 2, 17)),
    "w": rng.normal(size=(4, 2, 5)), "b": rng.normal(size=4),
    "gamma": rng.normal(size=4) + 1.0, "beta": rng.normal(size=4),
}
err = ad.grad_check(build, params, eps=1e-5)
print(f"conv/batchnorm/pool chain: max relative gradient error {err:.2e}")

# 3. a whole tiny fused classifier end to end
spec = {"kind": "PF", "output_dim": 8, "rank": 4, "order": 3, "symmetric": True}
model = models.build_from_spec({"type": "fused", "fusion": spec}, seed=2, plans=models.TINY_PLANS)
inputs = models.tiny_inputs(rng, batch=2)
labels = np.array([0, 1])


def model_loss(pvars):
    logits = model.forward(inputs, pvars)
    return ops.softmax_crossentropy(logits, labels)


err = ad.grad_check(model_loss, model.params, eps=1e-5)
print(f"tiny fused classifier ({model.param_count()} parameters): "
      f"max relative gradient error {err:.2e}")
