"""Differentiable network ops: 1-D convolution, batch norm, ReLU, linear maps,
global average pooling, softmax cross-entropy and L2 normalization.

Ops accept plain ndarrays (pure evaluation) or autodiff Variables (recorded on
the tape). Convolution and pooling work on ``[channels, time]`` inputs or
batched ``[batch, channels, time]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import is_variable, value_of


class GeometryError(ValueError):
    """Convolution geometry produces an empty output."""


def conv_out_length(length: int, filt: int, stride: int, padding: int) -> int:
    return (length + 2 * padding - filt) // stride + 1


# ---------------------------------------------------------------------------
# conv1d

def _im2col(x: np.ndarray, filt: int, stride: int, padding: int) -> np.ndarray:
    """[B, C, T] -> [B*T_out, C*filt] window matrix (one contiguous copy)."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    else:
        x = np.ascontiguousarray(x)
    b, c, t = x.shape
    t_out = (t - filt) // stride + 1
    sb, sc, st = x.strides
    windows = as_strided(x, shape=(b, t_out, c, filt), strides=(sb, st * stride, sc, st))
    return np.ascontiguousarray(windows).reshape(b * t_out, c * filt)


def conv1d(x, w, bias, stride: int = 1, padding: int = 0, name: str = "conv1d"):
    """Cross-correlation along time. ``w`` is [out_ch, in_ch, filter]."""
    xv, wv, bv = value_of(x), value_of(w), value_of(bias)
    single = xv.ndim == 2
    xb = xv[None] if single else xv
    out_ch, in_ch, filt = wv.shape
    if xb.ndim != 3 or xb.shape[1] != in_ch:
        raise ValueError(f"{name}: input shape {xv.shape} does not match {in_ch} input channels")
    t_in = xb.shape[2]
    t_out = conv_out_length(t_in, filt, stride, padding)
    if t_out < 1:
        raise GeometryError(
            f"{name}: infeasible geometry, input length {t_in} with filter {filt}, "
            f"stride {stride}, padding {padding} gives output length {t_out}"
        )
    batch = xb.shape[0]
    cols = _im2col(xb, filt, stride, padding)  # [B*T_out, C*K]
    w2 = wv.reshape(out_ch, in_ch * filt)
    out = (cols @ w2.T + bv[None, :]).reshape(batch, t_out, out_ch).transpose(0, 2, 1)
    out = np.ascontiguousarray(out)
    if single:
        out = out[0]

    tape = ad._shared_tape((x, w, bias))
    if tape is None:
        return out
    vx, vw, vb2 = ad._lift(tape, x), ad._lift(tape, w), ad._lift(tape, bias)
    t_pad = t_in + 2 * padding

    def backward_fn(g):
        gb3 = g[None] if single else g
        grad_bias = gb3.sum(axis=(0, 2)) if vb2.requires_grad else None
        g_mat = None
        if vw.requires_grad or vx.requires_grad:
            g_mat = np.ascontiguousarray(gb3.transpose(0, 2, 1)).reshape(batch * t_out, out_ch)
        grad_w = (g_mat.T @ cols).reshape(wv.shape) if vw.requires_grad else None
        grad_x = None
        if vx.requires_grad:
            gwin = (g_mat @ w2).reshape(batch, t_out, in_ch, filt)
            gxp = np.zeros((batch, in_ch, t_pad))
            for k in range(filt):
                gxp[:, :, k:k + stride * t_out:stride] += gwin[:, :, :, k].transpose(0, 2, 1)
            grad_x = gxp[:, :, padding:padding + t_in]
            if single:
                grad_x = grad_x[0]
        return grad_x, grad_w, grad_bias

    return tape.record(name, out, (vx, vw, vb2), backward_fn)


# ---------------------------------------------------------------------------
# batch normalization

@dataclass
class BatchNormState:
    """Running statistics for one batch-norm layer (per channel)."""

    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    @classmethod
    def fresh(cls, channels: int, eps: float = 1e-5, momentum: float = 0.1) -> "BatchNormState":
        return cls(np.zeros(channels), np.ones(channels), eps, momentum)

    def copy(self) -> "BatchNormState":
        return BatchNormState(self.running_mean.copy(), self.running_var.copy(), self.eps, self.momentum)


def batchnorm_train(x, gamma, beta, state: BatchNormState, update_running: bool = True):
    """Standardize by batch statistics over (batch, time), then scale/shift.

    Updates the running statistics in place unless ``update_running`` is off.
    """
    xv = value_of(x)
    if xv.ndim != 3:
        raise ValueError(f"batchnorm expects [batch, channels, time], got shape {xv.shape}")
    if xv.shape[0] < 2:
        raise ValueError("batchnorm train mode needs batch size >= 2")
    n = xv.shape[0] * xv.shape[2]
    mu = xv.mean(axis=(0, 2))
    # centred input serves the variance (the same sums np.var makes) and xhat
    xhat = xv - mu[None, :, None]
    out = np.multiply(xhat, xhat)
    var = out.sum(axis=(0, 2)) / n
    ivar = 1.0 / np.sqrt(var + state.eps)
    xhat *= ivar[None, :, None]
    gv, bv = value_of(gamma), value_of(beta)
    np.multiply(xhat, gv[None, :, None], out=out)
    out += bv[None, :, None]

    if update_running:
        m = state.momentum
        state.running_mean *= 1.0 - m
        state.running_mean += m * mu
        state.running_var *= 1.0 - m
        state.running_var += m * var * (n / (n - 1.0))  # unbiased for running stats

    tape = ad._shared_tape((x, gamma, beta))
    if tape is None:
        return out
    vx, vg, vb = ad._lift(tape, x), ad._lift(tape, gamma), ad._lift(tape, beta)

    def backward_fn(g):
        grad_beta = g.sum(axis=(0, 2))
        gx = g * xhat
        grad_gamma = gx.sum(axis=(0, 2))
        grad_x = None
        if vx.requires_grad:
            # (ivar/n) * (n*gamma*g - s1 - xhat*s2), s1 = gamma*grad_beta, s2 = gamma*grad_gamma
            coef = gv * ivar / n
            np.multiply(xhat, (coef * grad_gamma)[None, :, None], out=gx)
            gx += (coef * grad_beta)[None, :, None]
            grad_x = np.multiply(g, (n * coef)[None, :, None])
            grad_x -= gx
        return (grad_x, grad_gamma if vg.requires_grad else None,
                grad_beta if vb.requires_grad else None)

    return tape.record("batchnorm", out, (vx, vg, vb), backward_fn)


def batchnorm_eval(x, gamma, beta, state: BatchNormState):
    """Standardize by running statistics; a pure function of its inputs."""
    xv = value_of(x)
    single = xv.ndim == 2
    xb = xv[None] if single else xv
    ivar = 1.0 / np.sqrt(state.running_var + state.eps)
    xhat = xb - state.running_mean[None, :, None]
    xhat *= ivar[None, :, None]
    gv, bv = value_of(gamma), value_of(beta)
    out = np.multiply(xhat, gv[None, :, None])
    out += bv[None, :, None]
    if single:
        out = out[0]

    tape = ad._shared_tape((x, gamma, beta))
    if tape is None:
        return out
    vx, vg, vb = ad._lift(tape, x), ad._lift(tape, gamma), ad._lift(tape, beta)

    def backward_fn(g):
        gb3 = g[None] if single else g
        grad_beta = gb3.sum(axis=(0, 2)) if vb.requires_grad else None
        grad_gamma = (gb3 * xhat).sum(axis=(0, 2)) if vg.requires_grad else None
        grad_x = None
        if vx.requires_grad:
            grad_x = gb3 * (gv * ivar)[None, :, None]
            if single:
                grad_x = grad_x[0]
        return grad_x, grad_gamma, grad_beta

    return tape.record("batchnorm_eval", out, (vx, vg, vb), backward_fn)


# ---------------------------------------------------------------------------
# pooling, activations, heads

def global_avgpool(x):
    """Mean over the time axis: [.., channels, time] -> [.., channels]."""
    xv = value_of(x)
    if xv.ndim not in (2, 3) or xv.shape[-1] < 1:
        raise ValueError(f"global_avgpool expects [channels, time] or batched, got {xv.shape}")
    out = xv.mean(axis=-1)
    if not is_variable(x):
        return out
    t = xv.shape[-1]

    def backward_fn(g):
        return (np.repeat(g[..., None], t, axis=-1) / t,)

    return x.tape.record("global_avgpool", out, (x,), backward_fn)


def linear_forward(x, w, bias):
    """Affine map x @ w + bias; x is [features] or [batch, features]."""
    return ad.add(ad.matmul(x, w), bias)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax probabilities (plain numpy, numerically stabilized)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_crossentropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels.

    ``logits`` is [batch, classes]; stabilized by max subtraction.
    """
    lv = value_of(logits)
    if lv.ndim != 2 or lv.shape[1] < 2:
        raise ValueError(f"softmax_crossentropy expects [batch, classes>=2] logits, got {lv.shape}")
    if not np.all(np.isfinite(lv)):
        raise ValueError("softmax_crossentropy: non-finite logits")
    labels = np.asarray(labels, dtype=np.int64)
    batch, classes = lv.shape
    if labels.shape != (batch,) or labels.min() < 0 or labels.max() >= classes:
        raise ValueError("labels out of range for logits")
    z = lv - lv.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    out = np.mean(lse - z[np.arange(batch), labels])
    if not is_variable(logits):
        return out
    probs = np.exp(z - lse[:, None])

    def backward_fn(g):
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        return (grad * (g / batch),)

    return logits.tape.record("softmax_ce", out, (logits,), backward_fn)


def l2_normalize(y, eps: float = 1e-12):
    """Scale vectors to unit L2 norm along the last axis; eps guards zero input."""
    yv = value_of(y)
    norm = np.sqrt((yv * yv).sum(axis=-1, keepdims=True))
    denom = np.maximum(norm, eps)
    out = yv / denom
    if not is_variable(y):
        return out
    guarded = norm[..., 0] <= eps

    def backward_fn(g):
        dot = (yv * g).sum(axis=-1, keepdims=True)
        grad = g / denom - yv * (dot / denom**3)
        if np.any(guarded):
            grad = np.where(guarded[..., None], g / eps, grad)
        return (grad,)

    return y.tape.record("l2_normalize", out, (y,), backward_fn)
