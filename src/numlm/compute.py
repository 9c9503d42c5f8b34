"""Neural building blocks shared by every model: LSTM cell, cross entropy,
inverted dropout, Adam, and a finite-difference gradient check.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class NonFiniteLoss(RuntimeError):
    """Raised when a loss or gradient goes non-finite during training."""


def uniform_init(rng: np.random.Generator, shape, scale: float = 0.1) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape).astype(np.float64)


class ParamStore:
    """Named trainable tensors. Names are stable and drive checkpointing."""

    def __init__(self):
        self._params: Dict[str, Tensor] = {}

    def create(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params.keys())

    def zero_grad(self):
        for t in self._params.values():
            t.zero_grad()

    def load_arrays(self, arrays: Dict[str, np.ndarray]):
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ValueError(f"parameter mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for k, t in self._params.items():
            a = np.asarray(arrays[k], dtype=np.float64)
            if a.shape != t.value.shape:
                raise ValueError(f"shape mismatch for {k}: {a.shape} vs {t.value.shape}")
            t.value = a.copy()
            t.grad = np.zeros_like(t.value)

    def snapshot(self) -> Dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self._params.items()}


class LstmCell:
    """Standard LSTM cell; forget-gate bias initialised to forget_bias."""

    def __init__(self, params: ParamStore, name: str, n_in: int, dim: int,
                 rng: np.random.Generator, forget_bias: float = 1.0):
        self.dim = dim
        self.n_in = n_in
        self.W = params.create(f"{name}.W", uniform_init(rng, (4 * dim, n_in + dim)))
        b = uniform_init(rng, (4 * dim,))
        b[dim:2 * dim] = forget_bias
        self.b = params.create(f"{name}.b", b)

    def initial_state(self):
        z = Tensor(np.zeros(self.dim))
        return z, Tensor(np.zeros(self.dim))

    def step(self, x: Tensor, state):
        h, c = state
        if x.value.shape != (self.n_in,):
            raise ValueError(f"lstm input has shape {x.value.shape}, expected ({self.n_in},)")
        z = (self.W @ ad.concat([x, h])) + self.b
        d = self.dim
        i = ad.sigmoid(z[slice(0, d)])
        f = ad.sigmoid(z[slice(d, 2 * d)])
        g = ad.tanh(z[slice(2 * d, 3 * d)])
        o = ad.sigmoid(z[slice(3 * d, 4 * d)])
        c_new = (f * c) + (i * g)
        h_new = o * ad.tanh(c_new)
        return h_new, c_new

    def step_batch(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        """Grad-free batched step on raw arrays, rows are batch items."""
        z = np.concatenate([x, h], axis=1) @ self.W.value.T + self.b.value
        _, c_new, h_new = self.gates(z, c)
        return h_new, c_new

    def gates(self, z: np.ndarray, c: np.ndarray):
        """From pre-activations z and the previous cell, rows batch items:
        the activations [i | f | g | o], the new cell and the new state."""
        d = self.dim
        a = 1.0 / (1.0 + np.exp(-z))
        a[:, 2 * d:3 * d] = np.tanh(z[:, 2 * d:3 * d])
        c_new = a[:, d:2 * d] * c + a[:, :d] * a[:, 2 * d:3 * d]
        return a, c_new, a[:, 3 * d:] * np.tanh(c_new)


def cross_entropy(log_probs) -> float:
    """Mean negative log probability. Returns inf (not an exception) if any
    probability underflowed to zero."""
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.size == 0:
        raise ValueError("cross_entropy over empty sequence")
    if np.any(np.isneginf(lp)):
        return math.inf
    return float(-lp.mean())


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator],
            train: bool) -> Tensor:
    """Inverted dropout; identity in eval mode."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate out of range: {rate}")
    if not train or rate == 0.0:
        return x
    mask = (rng.random(x.value.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


class Adam:
    """Adam with bias correction; one state slot per parameter."""

    def __init__(self, params: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v.value) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.value) for k, v in params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NonFiniteLoss(f"non-finite gradient in parameter {k}")
            m = self.m[k]
            v = self.v[k]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def gradient_check(loss_fn: Callable[[], Tensor], params: ParamStore,
                   h_step: float = 1e-5, max_coords_per_param: int = 5,
                   rng: Optional[np.random.Generator] = None) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    loss_fn must rebuild the graph from current parameter values on each call.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    params.zero_grad()
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    for name, p in params.items():
        flat_val = p.value.reshape(-1)
        flat_grad = p.grad.reshape(-1)
        n = flat_val.size
        coords = range(n) if n <= max_coords_per_param else \
            rng.choice(n, size=max_coords_per_param, replace=False)
        for i in coords:
            orig = flat_val[i]
            flat_val[i] = orig + h_step
            with ad.no_grad():
                up = float(loss_fn().value)
            flat_val[i] = orig - h_step
            with ad.no_grad():
                down = float(loss_fn().value)
            flat_val[i] = orig
            numeric = (up - down) / (2 * h_step)
            analytic = flat_grad[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
