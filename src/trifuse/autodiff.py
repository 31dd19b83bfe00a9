"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

One :class:`Tape` records one forward computation; :func:`backward` replays it
in reverse creation order (a valid reverse topological order, since every
operand is created before its consumer) and accumulates gradients into every
Variable the loss depends on.

All math ops here and in ``ops`` are polymorphic: given plain ndarrays they
compute and return ndarrays; given at least one :class:`Variable` they return
through :func:`record`, which records the op, with its other operands as the
plain arrays they are, for the backward pass.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import tensor as tc


class AutodiffError(RuntimeError):
    pass


class NonFiniteError(AutodiffError):
    """A forward evaluation produced a non-finite value."""


class Variable:
    """A tensor value on a tape; backward writes its gradient into ``buffer`` if set, else into a new array."""

    __slots__ = ("value", "grad", "buffer", "tape")

    def __init__(self, value, tape: "Tape"):
        self.value = tc.as_tensor(value)
        self.grad: np.ndarray | None = None
        self.buffer: np.ndarray | None = None
        self.tape = tape

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Variable(shape={self.value.shape})"


class _Node:
    __slots__ = ("name", "out", "parents", "backward_fn")

    def __init__(self, name, out, parents, backward_fn):
        self.name = name
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn


class Tape:
    """Append-only record of primitive ops, replayed in reverse by backward()."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def variable(self, value) -> Variable:
        """Register a leaf tensor whose gradient backward computes (a parameter)."""
        return Variable(value, self)

    def record(self, name: str, value, parents: Sequence, backward_fn: Callable) -> Variable:
        """Create an op output and the node backward replays for it; ``parents``
        are the op's operands in order, Variables or plain arrays."""
        out = Variable(value, self)
        self.nodes.append(_Node(name, out, tuple(parents), backward_fn))
        return out


def grad_of(v: Variable) -> np.ndarray:
    """The accumulated gradient, or zeros for a variable the loss never touched."""
    if v.grad is None:
        return np.zeros_like(v.value)
    return v.grad


def backward(tape: Tape, loss: Variable) -> None:
    """Populate d(loss)/d(ancestor) for every Variable ancestor of ``loss``."""
    if loss.value.shape != ():
        raise AutodiffError(f"backward() needs a scalar loss, got shape {loss.value.shape}")
    if loss.tape is not tape:
        raise AutodiffError("loss does not belong to this tape")
    _accumulate(loss, np.ones((), dtype=np.float64))
    for node in reversed(tape.nodes):
        g = node.out.grad
        if g is None:
            continue
        parent_grads = node.backward_fn(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None or not isinstance(parent, Variable):
                continue
            _accumulate(parent, pg)


def grad_out(x, shape) -> np.ndarray | None:
    """Where an op may write operand ``x``'s whole gradient, as ``shape``: the buffer
    of a Variable that has one and no gradient yet, else None. An op must not ask
    for it when ``x`` is also another of its operands, whose gradient would be
    copied into the same buffer."""
    if isinstance(x, Variable) and x.buffer is not None and x.grad is None:
        return x.buffer.reshape(shape)
    return None


def _accumulate(v: Variable, g: np.ndarray) -> None:
    if v.grad is not None:
        v.grad += g
    elif v.buffer is not None:
        v.grad = v.buffer
        if not np.may_share_memory(g, v.buffer):  # else g is the buffer, written through grad_out
            np.copyto(v.grad, g)
    else:
        v.grad = np.array(g, dtype=np.float64, copy=True)


# ---------------------------------------------------------------------------
# polymorphic op plumbing

def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Variable) else tc.as_tensor(x)


def needs_grad(x) -> bool:
    """Whether backward must produce a gradient for operand ``x``."""
    return isinstance(x, Variable)


def record(name: str, out, operands: Sequence, backward_fn: Callable):
    """How every op returns: ``out`` itself when no operand is a Variable, else
    the Variable ``Tape.record`` makes on the operands' one shared tape.

    ``backward_fn(g)`` returns one gradient (or None) per operand.
    """
    tape = None
    for x in operands:
        if isinstance(x, Variable):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise AutodiffError("operands live on different tapes")
    if tape is None:
        return out
    return tape.record(name, out, operands, backward_fn)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squash = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if squash:
        g = g.sum(axis=squash, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# generic math primitives

def add(a, b):
    av, bv = value_of(a), value_of(b)

    def backward_fn(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return record("add", av + bv, (a, b), backward_fn)


def mul(a, b):
    av, bv = value_of(a), value_of(b)

    def backward_fn(g):
        ga = _unbroadcast(g * bv, av.shape) if needs_grad(a) else None
        gb = _unbroadcast(g * av, bv.shape) if needs_grad(b) else None
        return ga, gb

    return record("mul", av * bv, (a, b), backward_fn)


def sum_all(a):
    av = value_of(a)

    def backward_fn(g):
        return (np.broadcast_to(g, av.shape),)

    return record("sum_all", av.sum(), (a,), backward_fn)


def sum_axis(a, axis: int, keepdims: bool = False):
    av = value_of(a)

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av.shape),)

    return record("sum_axis", av.sum(axis=axis, keepdims=keepdims), (a,), backward_fn)


def reshape(a, shape):
    av = value_of(a)

    def backward_fn(g):
        return (g.reshape(av.shape),)

    return record("reshape", av.reshape(shape), (a,), backward_fn)


def concat_last(xs: Sequence):
    vals = [value_of(x) for x in xs]

    def backward_fn(g):
        grads, start = [], 0
        for v in vals:
            n = v.shape[-1]
            grads.append(g[..., start:start + n])
            start += n
        return grads

    return record("concat", np.concatenate(vals, axis=-1), xs, backward_fn)


def relu(a):
    av = value_of(a)

    def backward_fn(g):
        return (g * (av > 0),)  # subgradient at 0 is 0

    return record("relu", np.maximum(av, 0.0), (a,), backward_fn)


def contract(a, b, axis: int = 1):
    """Differentiable contraction of ``a``'s ``axis`` with ``b``'s axis 0; the
    result holds ``a``'s other axes in order, then ``b``'s axes 1 onward."""
    av, bv = value_of(a), value_of(b)
    if not 0 <= axis < av.ndim or bv.ndim == 0 or av.shape[axis] != bv.shape[0]:
        raise tc.ShapeError(f"cannot contract axis {axis} of shape {av.shape} with axis 0 of shape {bv.shape}")
    free = [ax for ax in range(av.ndim) if ax != axis]

    def backward_fn(g):
        ga = gb = None
        if needs_grad(a):  # g's trailing axes are b's axes 1 onward
            ga = np.moveaxis(np.tensordot(g, bv, axes=(list(range(len(free), g.ndim)), list(range(1, bv.ndim)))),
                             -1, axis)
        if needs_grad(b):  # [contracted axis, free axes] @ [free axes, b's axes 1 onward]
            n_free, rest = math.prod(av.shape[ax] for ax in free), math.prod(bv.shape[1:])
            gb = np.matmul(np.moveaxis(av, axis, 0).reshape(bv.shape[0], n_free), g.reshape(n_free, rest),
                           out=None if b is a else grad_out(b, (bv.shape[0], rest))).reshape(bv.shape)
        return ga, gb

    return record("contract", np.tensordot(av, bv, axes=([axis], [0])), (a, b), backward_fn)


def matmul(a, b):
    """Matrix product as a contraction over ``a``'s last axis."""
    return contract(a, b, value_of(a).ndim - 1)


# ---------------------------------------------------------------------------
# finite-difference gradient checking

def grad_check(build_loss: Callable, params: dict, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    ``build_loss(params)`` must construct the loss from the given parameters:
    Variables for the analytic gradient, plain arrays for each perturbed
    evaluation. A loss that is not a Variable has zero analytic gradient.
    Returns the max over all parameter coordinates of
    ``|analytic - numeric| / max(1, |analytic|)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    params = {k: tc.as_tensor(v) for k, v in params.items()}

    tape = Tape()
    pvars = {k: tape.variable(v.copy()) for k, v in params.items()}
    loss = build_loss(pvars)
    if isinstance(loss, Variable):
        backward(tape, loss)
    analytic = {k: grad_of(v) for k, v in pvars.items()}

    def eval_at(work: dict, name: str, idx: int) -> float:
        val = float(value_of(build_loss(work)))
        if not np.isfinite(val):
            raise NonFiniteError(f"non-finite loss while perturbing {name}[{idx}]")
        return val

    max_err = 0.0
    work = {k: v.copy() for k, v in params.items()}
    for name in params:
        flat = work[name].reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = eval_at(work, name, idx)
            flat[idx] = orig - eps
            f_minus = eval_at(work, name, idx)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(grad_flat[idx] - numeric) / max(1.0, abs(grad_flat[idx]))
            max_err = max(max_err, err)
    return max_err
