"""Differentiable network ops: 1-D convolution, batch norm, ReLU, the fused
conv + batch norm + ReLU extractor block, linear maps, global average pooling,
softmax cross-entropy and L2 normalization.

Ops accept plain ndarrays (pure evaluation) or autodiff Variables (recorded on
the tape through ``autodiff.record``); ``batchnorm_eval`` and
``conv_bn_relu_eval``, which no training step calls, take ndarrays only.
Convolution, the eval ops and pooling work on ``[channels, time]`` inputs or
batched ``[batch, channels, time]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import needs_grad, record, value_of


class GeometryError(ValueError):
    """Convolution geometry produces an empty output."""


def conv_out_length(length: int, filt: int, stride: int, padding: int) -> int:
    return (length + 2 * padding - filt) // stride + 1


# ---------------------------------------------------------------------------
# conv1d

def _windows(x: np.ndarray, filt: int, stride: int, padding: int) -> np.ndarray:
    """[B, C, T] -> [C*filt, B*T_out] window matrix, time innermost (one copy).

    Row ``c*filt + k`` holds tap ``k`` of channel ``c``; column ``b*T_out + t``
    is window ``t`` of sample ``b``. At stride 1 every run the copy reads is
    contiguous time.
    """
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    b, c, t = x.shape
    t_out = (t - filt) // stride + 1
    sb, sc, st = x.strides
    windows = as_strided(x, shape=(c, filt, b, t_out), strides=(sc, st, sb, st * stride))
    return np.ascontiguousarray(windows).reshape(c * filt, b * t_out)


def _conv_matmul(xv: np.ndarray, wv: np.ndarray, stride: int, padding: int, name: str):
    """A conv's window matrix and GEMM product: ``(y [O, B*T_out], cols, batch,
    t_out, single)``, with ``single`` set for a ``[C, T]`` input."""
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
    cols = _windows(xb, filt, stride, padding)  # [C*K, B*T_out]
    return wv.reshape(out_ch, in_ch * filt) @ cols, cols, xb.shape[0], t_out, single


def _conv_grads(x, w, cols: np.ndarray, g2: np.ndarray, stride: int, padding: int):
    """``(grad_x, grad_w)`` of a conv from ``g2``, the output gradient as
    ``[O, B*T_out]``; grad_x scatters the window gradients back (col2im)."""
    xv, wv = value_of(x), value_of(w)
    grad_w = None
    if needs_grad(w):  # written straight into w's gradient buffer where it has one
        out = None if w is x else ad.grad_out(w, (wv.shape[0], -1))
        grad_w = np.matmul(g2, cols.T, out=out).reshape(wv.shape)
    grad_x = None
    if needs_grad(x):
        out_ch, in_ch, filt = wv.shape
        t_in = xv.shape[-1]
        t_out = conv_out_length(t_in, filt, stride, padding)
        batch = g2.shape[1] // t_out
        gwin = (wv.reshape(out_ch, in_ch * filt).T @ g2).reshape(in_ch, filt, batch, t_out)
        gxp = np.zeros((batch, in_ch, t_in + 2 * padding))
        for k in range(filt):
            gxp[:, :, k:k + stride * t_out:stride] += gwin[:, k].transpose(1, 0, 2)
        grad_x = gxp[:, :, padding:padding + t_in]
        if xv.ndim == 2:
            grad_x = grad_x[0]
    return grad_x, grad_w


def _batch_major(y: np.ndarray, batch: int, single: bool) -> np.ndarray:
    """``[O, B*T]`` as a ``[B, O, T]`` view (``[O, T]`` for a single sample)."""
    out = y.reshape(y.shape[0], batch, -1).transpose(1, 0, 2)
    return out[0] if single else out


def conv1d(x, w, bias, stride: int = 1, padding: int = 0, name: str = "conv1d"):
    """Cross-correlation along time. ``w`` is [out_ch, in_ch, filter]."""
    xv, wv, bv = value_of(x), value_of(w), value_of(bias)
    y, cols, batch, t_out, single = _conv_matmul(xv, wv, stride, padding, name)
    out_ch = wv.shape[0]
    # out= keeps the result C-ordered; without it numpy keeps y's [O, B, T] order
    out = np.add(_batch_major(y, batch, False), bv[None, :, None], out=np.empty((batch, out_ch, t_out)))
    if single:
        out = out[0]

    def backward_fn(g):
        gb3 = g[None] if single else g
        grad_bias = gb3.sum(axis=(0, 2)) if needs_grad(bias) else None
        g2 = None
        if needs_grad(w) or needs_grad(x):
            g2 = np.ascontiguousarray(gb3.transpose(1, 0, 2)).reshape(out_ch, batch * t_out)
        return (*_conv_grads(x, w, cols, g2, stride, padding), grad_bias)

    return record(name, out, (x, w, bias), backward_fn)


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
    def fresh(cls, channels: int) -> "BatchNormState":
        return cls(np.zeros(channels), np.ones(channels))


def batchnorm_train(x, gamma, beta, state: BatchNormState):
    """Standardize by batch statistics over (batch, time), then scale/shift;
    moves the running statistics toward the batch's in place."""
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

    m = state.momentum
    state.running_mean *= 1.0 - m
    state.running_mean += m * mu
    state.running_var *= 1.0 - m
    state.running_var += m * var * (n / (n - 1.0))  # unbiased for running stats

    def backward_fn(g):
        grad_beta = g.sum(axis=(0, 2))
        gx = g * xhat
        grad_gamma = gx.sum(axis=(0, 2))
        grad_x = None
        if needs_grad(x):
            # (ivar/n) * (n*gamma*g - s1 - xhat*s2), s1 = gamma*grad_beta, s2 = gamma*grad_gamma
            coef = gv * ivar / n
            np.multiply(xhat, (coef * grad_gamma)[None, :, None], out=gx)
            gx += (coef * grad_beta)[None, :, None]
            grad_x = np.multiply(g, (n * coef)[None, :, None])
            grad_x -= gx
        return (grad_x, grad_gamma if needs_grad(gamma) else None,
                grad_beta if needs_grad(beta) else None)

    return record("batchnorm", out, (x, gamma, beta), backward_fn)


def batchnorm_eval(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, state: BatchNormState) -> np.ndarray:
    """Standardize ``[C, T]`` or ``[B, C, T]`` by the running statistics, then
    scale/shift: the fixed affine map of a trained layer. Plain numpy, no tape."""
    ivar = 1.0 / np.sqrt(state.running_var + state.eps)
    out = x - state.running_mean[:, None]
    out *= ivar[:, None]
    out *= gamma[:, None]
    out += beta[:, None]
    return out


# ---------------------------------------------------------------------------
# one extractor block: conv, batch norm, ReLU

def conv_bn_relu(x, w, bias, gamma, beta, state: BatchNormState, stride: int = 1, padding: int = 0,
                 name: str = "conv_bn_relu"):
    """``relu(batchnorm_train(conv1d(x, w, bias)))`` as one tape node, over the
    conv's ``[O, B*T_out]`` product; returns a ``[B, O, T_out]`` view of it.

    Batch norm subtracts the batch mean, so the conv bias cancels from the
    output: it is never added and gets no gradient, and only enters the
    running mean, as ``mean + bias``.
    """
    xv, wv, gv, bv = value_of(x), value_of(w), value_of(gamma), value_of(beta)
    if xv.ndim != 3:
        raise ValueError(f"{name} expects [batch, channels, time], got shape {xv.shape}")
    if xv.shape[0] < 2:
        raise ValueError("batchnorm train mode needs batch size >= 2")
    xhat, cols, batch, t_out, _ = _conv_matmul(xv, wv, stride, padding, name)
    n = batch * t_out
    mu = xhat.sum(axis=1) / n
    xhat -= mu[:, None]
    var = np.einsum("ij,ij->i", xhat, xhat) / n
    ivar = 1.0 / np.sqrt(var + state.eps)
    xhat *= ivar[:, None]
    out = np.multiply(xhat, gv[:, None])
    out += bv[:, None]
    np.maximum(out, 0.0, out=out)

    m = state.momentum
    state.running_mean *= 1.0 - m
    state.running_mean += m * (mu + value_of(bias))
    state.running_var *= 1.0 - m
    state.running_var += m * var * (n / (n - 1.0))  # unbiased for running stats

    def backward_fn(g):
        # the ReLU mask and the one transpose to [O, B*T]
        g2 = np.multiply(g.transpose(1, 0, 2), (out > 0).reshape(-1, batch, t_out),
                         out=np.empty((out.shape[0], batch, t_out))).reshape(out.shape)
        grad_beta = g2.sum(axis=1)
        grad_gamma = np.einsum("ij,ij->i", g2, xhat)
        # (ivar/n) * (n*gamma*g - s1 - xhat*s2), s1 = gamma*grad_beta, s2 = gamma*grad_gamma;
        # nothing reads xhat after a node's one backward, so it is the scratch
        coef = gv * ivar / n
        gx = np.multiply(xhat, (coef * grad_gamma)[:, None], out=xhat)
        gx += (coef * grad_beta)[:, None]
        g2 *= (n * coef)[:, None]
        g2 -= gx
        return (*_conv_grads(x, w, cols, g2, stride, padding), None,
                grad_gamma if needs_grad(gamma) else None, grad_beta if needs_grad(beta) else None)

    return record(name, _batch_major(out, batch, False), (x, w, bias, gamma, beta), backward_fn)


def conv_bn_relu_eval(x: np.ndarray, w: np.ndarray, bias: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      state: BatchNormState, stride: int = 1, padding: int = 0,
                      name: str = "conv_bn_relu") -> np.ndarray:
    """``relu(batchnorm_eval(conv1d(x, w, bias)))`` on ``[C, T]`` or ``[B, C, T]``:
    batch norm by the running statistics is a per-channel affine map, folded
    here, on every call, into one scale and shift of the conv's ``[O, B*T_out]``
    product. Returns a view of that product, as ``conv_bn_relu`` does. Plain
    numpy, no tape."""
    y, _, batch, _, single = _conv_matmul(value_of(x), value_of(w), stride, padding, name)
    scale = gamma / np.sqrt(state.running_var + state.eps)
    shift = beta + (bias - state.running_mean) * scale
    y *= scale[:, None]
    y += shift[:, None]
    np.maximum(y, 0.0, out=y)
    return _batch_major(y, batch, single)


# ---------------------------------------------------------------------------
# pooling, activations, heads

def global_avgpool(x):
    """Mean over the time axis: [.., channels, time] -> [.., channels]."""
    xv = value_of(x)
    if xv.ndim not in (2, 3) or xv.shape[-1] < 1:
        raise ValueError(f"global_avgpool expects [channels, time] or batched, got {xv.shape}")
    t = xv.shape[-1]

    def backward_fn(g):
        return (np.repeat(g[..., None], t, axis=-1) / t,)

    return record("global_avgpool", xv.mean(axis=-1), (x,), backward_fn)


def linear_forward(x, w, bias):
    """Affine map x @ w + bias; x is [features] or [batch, features]."""
    return ad.add(ad.matmul(x, w), bias)


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

    def backward_fn(g):
        grad = np.exp(z - lse[:, None])  # the softmax probabilities
        grad[np.arange(batch), labels] -= 1.0
        return (grad * (g / batch),)

    return record("softmax_ce", out, (logits,), backward_fn)


def l2_normalize(y, eps: float = 1e-12):
    """Scale vectors to unit L2 norm along the last axis; eps guards zero input."""
    yv = value_of(y)
    norm = np.sqrt((yv * yv).sum(axis=-1, keepdims=True))
    denom = np.maximum(norm, eps)

    def backward_fn(g):
        dot = (yv * g).sum(axis=-1, keepdims=True)
        grad = g / denom - yv * (dot / denom**3)
        guarded = norm <= eps
        if np.any(guarded):
            grad = np.where(guarded, g / eps, grad)
        return (grad,)

    return record("l2_normalize", yv / denom, (y,), backward_fn)
