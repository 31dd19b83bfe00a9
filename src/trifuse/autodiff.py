"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

One :class:`Tape` records one forward computation; :func:`backward` replays it
in reverse creation order (a valid reverse topological order, since every
operand is created before its consumer) and accumulates gradients into every
``requires_grad`` ancestor of the loss.

All math ops here are polymorphic: given plain ndarrays they compute and
return ndarrays; given at least one :class:`Variable` they lift the rest to
constants on that variable's tape and record the op for the backward pass.
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
    """A tensor value tracked on a tape, with a lazily allocated gradient."""

    __slots__ = ("value", "grad", "requires_grad", "tape", "node_id")

    def __init__(self, value, tape: "Tape", requires_grad: bool, node_id: int):
        self.value = tc.as_tensor(value)
        self.grad: np.ndarray | None = None
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

    def _new_variable(self, value, requires_grad: bool) -> Variable:
        v = Variable(value, self, requires_grad, self._next_id)
        self._next_id += 1
        return v

    def variable(self, value, requires_grad: bool = True) -> Variable:
        """Register a leaf tensor (a parameter when requires_grad is set)."""
        return self._new_variable(value, requires_grad)

    def constant(self, value) -> Variable:
        return self._new_variable(value, requires_grad=False)

    def record(self, name: str, value, parents: Sequence[Variable], backward_fn: Callable) -> Variable:
        """Create an op output; the node is kept only if a parent needs gradients."""
        needs = any(p.requires_grad for p in parents)
        out = self._new_variable(value, requires_grad=needs)
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
    if v.grad is None:
        v.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        v.grad += g


# ---------------------------------------------------------------------------
# polymorphic op plumbing

def is_variable(x) -> bool:
    return isinstance(x, Variable)


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Variable) else tc.as_tensor(x)


def _shared_tape(xs) -> Tape | None:
    tape = None
    for x in xs:
        if isinstance(x, Variable):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise AutodiffError("operands live on different tapes")
    return tape


def _lift(tape: Tape, x) -> Variable:
    return x if isinstance(x, Variable) else tape.constant(x)


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
    out = value_of(a) + value_of(b)
    tape = _shared_tape((a, b))
    if tape is None:
        return out
    va, vb = _lift(tape, a), _lift(tape, b)
    sa, sb = va.value.shape, vb.value.shape

    def backward_fn(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return tape.record("add", out, (va, vb), backward_fn)


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    out = av * bv
    tape = _shared_tape((a, b))
    if tape is None:
        return out
    va, vb = _lift(tape, a), _lift(tape, b)

    def backward_fn(g):
        ga = _unbroadcast(g * bv, av.shape) if va.requires_grad else None
        gb = _unbroadcast(g * av, bv.shape) if vb.requires_grad else None
        return ga, gb

    return tape.record("mul", out, (va, vb), backward_fn)


def scale(a, c: float):
    out = value_of(a) * c
    if not is_variable(a):
        return out

    def backward_fn(g):
        return (g * c,)

    return a.tape.record("scale", out, (a,), backward_fn)


def neg(a):
    return scale(a, -1.0)


def sub(a, b):
    return add(a, neg(b) if is_variable(b) else -value_of(b))


def sum_all(a):
    out = value_of(a).sum()
    if not is_variable(a):
        return out
    shape = a.value.shape

    def backward_fn(g):
        return (np.broadcast_to(g, shape),)

    return a.tape.record("sum_all", out, (a,), backward_fn)


def sum_axis(a, axis: int, keepdims: bool = False):
    av = value_of(a)
    out = av.sum(axis=axis, keepdims=keepdims)
    if not is_variable(a):
        return out

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av.shape),)

    return a.tape.record("sum_axis", out, (a,), backward_fn)


def reshape(a, shape):
    av = value_of(a)
    out = av.reshape(shape)
    if not is_variable(a):
        return out
    orig = av.shape

    def backward_fn(g):
        return (g.reshape(orig),)

    return a.tape.record("reshape", out, (a,), backward_fn)


def concat_last(xs: Sequence):
    vals = [value_of(x) for x in xs]
    out = np.concatenate(vals, axis=-1)
    tape = _shared_tape(xs)
    if tape is None:
        return out
    vs = [_lift(tape, x) for x in xs]
    sizes = [v.shape[-1] for v in vals]

    def backward_fn(g):
        grads, start = [], 0
        for n in sizes:
            grads.append(g[..., start:start + n])
            start += n
        return grads

    return tape.record("concat", out, tuple(vs), backward_fn)


def relu(a):
    av = value_of(a)
    out = np.maximum(av, 0.0)
    if not is_variable(a):
        return out
    mask = av > 0  # subgradient at 0 is 0

    def backward_fn(g):
        return (g * mask,)

    return a.tape.record("relu", out, (a,), backward_fn)


def contract(a, b, axes_a: Sequence[int], axes_b: Sequence[int]):
    """Differentiable pairwise tensor contraction (see tensor.contract)."""
    av, bv = value_of(a), value_of(b)
    out = tc.contract(av, bv, axes_a, axes_b)
    tape = _shared_tape((a, b))
    if tape is None:
        return out
    va, vb = _lift(tape, a), _lift(tape, b)
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
        ga = grad_wrt_a(g) if va.requires_grad else None
        gb = grad_wrt_b(g) if vb.requires_grad else None
        return ga, gb

    return tape.record("contract", out, (va, vb), backward_fn)


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
