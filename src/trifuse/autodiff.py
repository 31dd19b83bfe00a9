"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

One :class:`Tape` records one forward computation; :func:`backward` replays it
in reverse creation order (a valid reverse topological order, since every
operand is created before its consumer) and accumulates gradients into every
``requires_grad`` ancestor of the loss.

All math ops here and in ``ops`` are polymorphic: given plain ndarrays they
compute and return ndarrays; given at least one :class:`Variable` they return
through :func:`record`, which lifts the rest to constants on that variable's
tape and records the op for the backward pass.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as tc


class AutodiffError(RuntimeError):
    pass


class NonFiniteError(AutodiffError):
    """A forward evaluation produced a non-finite value."""


class Variable:
    """A tensor value on a tape; backward writes its gradient into ``buffer`` if set, else into a new array."""

    __slots__ = ("value", "grad", "buffer", "requires_grad", "tape", "node_id")

    def __init__(self, value, tape: "Tape", requires_grad: bool, node_id: int):
        self.value = tc.as_tensor(value)
        self.grad: np.ndarray | None = None
        self.buffer: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Variable(shape={self.value.shape}, requires_grad={self.requires_grad}, id={self.node_id})"


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
        self._next_id = 0

    def variable(self, value, requires_grad: bool = True) -> Variable:
        """Register a leaf tensor (a parameter when requires_grad is set)."""
        v = Variable(value, self, requires_grad, self._next_id)
        self._next_id += 1
        return v

    def constant(self, value) -> Variable:
        return self.variable(value, requires_grad=False)

    def record(self, name: str, value, parents: Sequence[Variable], backward_fn: Callable) -> Variable:
        """Create an op output; the node is kept only if a parent needs gradients."""
        needs = any(p.requires_grad for p in parents)
        out = self.variable(value, requires_grad=needs)
        if needs:
            self.nodes.append(_Node(name, out, tuple(parents), backward_fn))
        return out


def grad_of(v: Variable) -> np.ndarray:
    """The accumulated gradient, or zeros for a variable the loss never touched."""
    if v.grad is None:
        return np.zeros_like(v.value)
    return v.grad


def backward(tape: Tape, loss: Variable) -> None:
    """Populate d(loss)/d(ancestor) for every requires_grad ancestor of ``loss``."""
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
            if pg is None or not parent.requires_grad:
                continue
            _accumulate(parent, pg)


def _accumulate(v: Variable, g: np.ndarray) -> None:
    if v.grad is not None:
        v.grad += g
    elif v.buffer is not None:
        v.grad = v.buffer
        np.copyto(v.grad, g)
    else:
        v.grad = np.array(g, dtype=np.float64, copy=True)


# ---------------------------------------------------------------------------
# polymorphic op plumbing

def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Variable) else tc.as_tensor(x)


def needs_grad(x) -> bool:
    """Whether backward must produce a gradient for operand ``x``."""
    return isinstance(x, Variable) and x.requires_grad


def record(name: str, out, operands: Sequence, backward_fn: Callable):
    """How every op returns: ``out`` itself when no operand is a Variable, else
    the Variable ``Tape.record`` makes on the operands' one shared tape, with
    the other operands lifted to constants on it in operand order.

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
    parents = [x if isinstance(x, Variable) else tape.constant(x) for x in operands]
    return tape.record(name, out, parents, backward_fn)


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


def contract(a, b, axes_a: Sequence[int], axes_b: Sequence[int]):
    """Differentiable pairwise tensor contraction (see tensor.contract)."""
    av, bv = value_of(a), value_of(b)
    out = tc.contract(av, bv, axes_a, axes_b)
    axes_a, axes_b = list(axes_a), list(axes_b)
    free_a = [ax for ax in range(av.ndim) if ax not in axes_a]
    free_b = [ax for ax in range(bv.ndim) if ax not in axes_b]

    def grad_wrt_a(g):
        # tensordot over the free-b block leaves dims [free_a..., sorted(axes_b)...]
        out_fb = list(range(len(free_a), len(free_a) + len(free_b)))
        raw = np.tensordot(g, bv, axes=(out_fb, free_b))
        sorted_cb = sorted(axes_b)
        src_of_dest = [0] * av.ndim
        for r, ax in enumerate(free_a):
            src_of_dest[ax] = r
        for r, b_ax in enumerate(sorted_cb):
            a_ax = axes_a[axes_b.index(b_ax)]
            src_of_dest[a_ax] = len(free_a) + r
        return np.transpose(raw, src_of_dest)

    def grad_wrt_b(g):
        raw = np.tensordot(av, g, axes=(free_a, list(range(len(free_a)))))
        sorted_ca = sorted(axes_a)
        src_of_dest = [0] * bv.ndim
        for r, a_ax in enumerate(sorted_ca):
            b_ax = axes_b[axes_a.index(a_ax)]
            src_of_dest[b_ax] = r
        for r, ax in enumerate(free_b):
            src_of_dest[ax] = len(sorted_ca) + r
        return np.transpose(raw, src_of_dest)

    def backward_fn(g):
        ga = grad_wrt_a(g) if needs_grad(a) else None
        gb = grad_wrt_b(g) if needs_grad(b) else None
        return ga, gb

    return record("contract", out, (a, b), backward_fn)


def matmul(a, b):
    """2-D matrix product as a contraction over the inner axis."""
    return contract(a, b, [value_of(a).ndim - 1], [0])


# ---------------------------------------------------------------------------
# finite-difference gradient checking

def grad_check(build_loss: Callable, params: dict, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    ``build_loss(tape, param_vars)`` must construct the loss from the given
    parameter Variables. Returns the max over all parameter coordinates of
    ``|analytic - numeric| / max(1, |analytic|)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    params = {k: tc.as_tensor(v) for k, v in params.items()}

    tape = Tape()
    pvars = {k: tape.variable(v.copy(), requires_grad=True) for k, v in params.items()}
    loss = build_loss(tape, pvars)
    backward(tape, loss)
    analytic = {k: grad_of(v) for k, v in pvars.items()}

    def eval_at(work: dict, name: str, idx: int) -> float:
        t = Tape()
        consts = {k: t.constant(v) for k, v in work.items()}
        out = build_loss(t, consts)
        val = float(value_of(out))
        if not np.isfinite(val):
            raise NonFiniteError(f"non-finite loss while perturbing {name}[{idx}]")
        return val

    max_err = 0.0
    work = {k: v.copy() for k, v in params.items()}
    for name, base in params.items():
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
