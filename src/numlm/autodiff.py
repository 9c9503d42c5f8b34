"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

A Tensor wraps a value array and a same-shape gradient buffer. Operations
record backward closures; Tensor.backward() runs them in reverse topological
order. Everything is double precision; shapes are 0-d scalars, vectors, or
matrices, which is all the models here need.
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction (fast eval path)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.value) if requires_grad else None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def backward(self, seed: Optional[np.ndarray] = None):
        """Backpropagate from this tensor (default seed: ones)."""
        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        grads: dict[int, np.ndarray] = {}
        grads[id(self)] = (
            np.ones_like(self.value) if seed is None else np.asarray(seed, dtype=np.float64)
        )
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node._accumulate(g)
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] += pg
                else:
                    grads[id(parent)] = pg

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


TensorLike = Union[Tensor, np.ndarray, float, int]


def as_tensor(x: TensorLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(value: np.ndarray, parents: Iterable[Tensor], backward) -> Tensor:
    out = Tensor(value)
    parents = tuple(parents)
    if _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient g to the given original operand shape."""
    if g.shape == shape:
        return g
    # sum over leading broadcast axes, then over size-1 axes
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    val = a.value + b.value

    def backward(g):
        return (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape))

    return _make(val, (a, b), backward)


def sub(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    val = a.value - b.value

    def backward(g):
        return (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape))

    return _make(val, (a, b), backward)


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    val = a.value * b.value
    av, bv = a.value, b.value

    def backward(g):
        return (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape))

    return _make(val, (a, b), backward)


def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    """Matrix-vector, vector-matrix, or matrix-matrix product."""
    a, b = as_tensor(a), as_tensor(b)
    val = a.value @ b.value
    av, bv = a.value, b.value

    def backward(g):
        if av.ndim == 2 and bv.ndim == 1:
            return (np.outer(g, bv), av.T @ g)
        if av.ndim == 1 and bv.ndim == 2:
            return (g @ bv.T, np.outer(av, g))
        if av.ndim == 1 and bv.ndim == 1:  # dot product
            return (g * bv, g * av)
        return (g @ bv.T, av.T @ g)

    return _make(val, (a, b), backward)


def getitem(a: Tensor, idx) -> Tensor:
    val = a.value[idx]

    def backward(g):
        ga = np.zeros_like(a.value)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(val, (a,), backward)


def concat(parts: list[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    val = np.concatenate([p.value for p in parts])
    sizes = [p.value.shape[0] for p in parts]

    def backward(g):
        out = []
        off = 0
        for s in sizes:
            out.append(g[off:off + s])
            off += s
        return tuple(out)

    return _make(val, tuple(parts), backward)


def sigmoid(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    # numerically stable in both tails
    z = np.exp(-np.abs(a.value))
    val = np.where(a.value >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def backward(g):
        return (g * val * (1.0 - val),)

    return _make(val, (a,), backward)


def tanh(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    val = np.tanh(a.value)

    def backward(g):
        return (g * (1.0 - val * val),)

    return _make(val, (a,), backward)


def exp(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    val = np.exp(a.value)

    def backward(g):
        return (g * val,)

    return _make(val, (a,), backward)


def log(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore"):
        val = np.log(a.value)
    av = a.value

    def backward(g):
        return (g / av,)

    return _make(val, (a,), backward)


def tsum(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    val = np.asarray(a.value.sum())
    shape = a.value.shape

    def backward(g):
        return (np.broadcast_to(g, shape).copy() if shape else np.asarray(g),)

    return _make(val, (a,), backward)


def stack(parts: list[Tensor]) -> Tensor:
    """Stack scalars into a vector."""
    parts = [as_tensor(p) for p in parts]
    val = np.array([p.value for p in parts], dtype=np.float64)

    def backward(g):
        return tuple(np.asarray(gi) for gi in g)

    return _make(val, tuple(parts), backward)


def logsumexp(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    m = float(np.max(a.value))
    e = np.exp(a.value - m)
    z = e.sum()
    val = np.asarray(np.log(z) + m)
    soft = e / z

    def backward(g):
        return (g * soft,)

    return _make(val, (a,), backward)


def log_softmax(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    return sub(a, logsumexp(a))


def softmax(a: TensorLike) -> Tensor:
    """Stable softmax over a vector of logits (max-subtraction)."""
    return exp(log_softmax(a))
