"""EM fitting of one-dimensional Gaussian mixtures and the pooled component
bank whose means/variances stay frozen during language-model training.

Seven mixtures with K = 2, 4, ..., 128 components are fitted independently
and their (mean, variance) pairs pooled, 254 components in total. Mixture
weights are never taken from EM; the language model re-learns them from the
hidden state.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

BANK_SIZES = (2, 4, 8, 16, 32, 64, 128)
MAX_ITER = 500
TOL = 1e-8


def variance_floor(values: np.ndarray) -> float:
    rng = float(values.max() - values.min())
    if rng == 0.0:
        rng = max(abs(float(values[0])), 1.0)
    return 1e-6 * rng * rng


def percentile_init(values: Sequence[float], k: int) -> np.ndarray:
    """K initial means at quantiles i/(K+1), linear interpolation."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("empty values")
    qs = np.arange(1, k + 1) / (k + 1)
    return np.quantile(v, qs, method="linear")


@dataclass
class MixtureFit:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood_trace: List[float] = field(default_factory=list)


def _log_pdf_matrix(values: np.ndarray, means: np.ndarray,
                    variances: np.ndarray) -> np.ndarray:
    # rows: data points, cols: components
    d = values[:, None] - means[None, :]
    return -0.5 * (d * d) / variances[None, :] \
        - 0.5 * np.log(2 * math.pi * variances[None, :])


def em_fit(values: Sequence[float], k: int,
           init_means: Sequence[float] | None = None) -> MixtureFit:
    """Standard EM for a 1-D Gaussian mixture.

    Stops when the log-likelihood improves by less than TOL or after
    MAX_ITER iterations. Collapsed components are floored in variance, with
    one warning per fit that counts the floorings. Raises ValueError if K
    exceeds the number of distinct values, or if an iteration lowers the
    log-likelihood.
    """
    x = np.asarray(values, dtype=np.float64)
    if k < 1:
        raise ValueError("K must be >= 1")
    if np.unique(x).size < k:
        raise ValueError(f"K={k} exceeds {np.unique(x).size} distinct values")
    floor = variance_floor(x)
    means = np.asarray(init_means, dtype=np.float64) if init_means is not None \
        else percentile_init(x, k)
    if means.size != k:
        raise ValueError("init_means size must equal K")
    means = means.copy()
    variances = np.full(k, max(float(x.var()), floor))
    weights = np.full(k, 1.0 / k)
    trace: List[float] = []
    floored = []  # components floored, per iteration that floored any
    prev_ll = -math.inf
    for _ in range(MAX_ITER):
        # E step
        log_p = _log_pdf_matrix(x, means, variances) + np.log(weights)[None, :]
        m = log_p.max(axis=1, keepdims=True)
        log_norm = m[:, 0] + np.log(np.exp(log_p - m).sum(axis=1))
        ll = float(log_norm.sum())
        if trace and ll < trace[-1] - 1e-9:
            raise ValueError(f"K={k}: EM log-likelihood decreased by {trace[-1] - ll:.6g}")
        trace.append(ll)
        if ll - prev_ll < TOL:
            break
        prev_ll = ll
        resp = np.exp(log_p - log_norm[:, None])
        # M step
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-300)
        weights = nk / x.size
        means = (resp * x[:, None]).sum(axis=0) / nk
        d = x[:, None] - means[None, :]
        variances = (resp * d * d).sum(axis=0) / nk
        collapsed = int((variances < floor).sum())
        if collapsed:
            floored.append(collapsed)
            variances = np.maximum(variances, floor)
    if floored:
        warnings.warn(f"K={k}: floored {sum(floored)} collapsed component variance(s) "
                      f"on {len(floored)} EM iteration(s)")
    return MixtureFit(weights, means, variances, trace)


@dataclass
class GaussianMixtureBank:
    """Pooled (mean, variance) pairs, tagged with the K of the sub-fit that
    produced them."""

    means: np.ndarray
    variances: np.ndarray
    source_k: np.ndarray  # int array, same length

    @property
    def size(self) -> int:
        return int(self.means.size)

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"#components={self.size}\n")
            for mu, s2, k in zip(self.means, self.variances, self.source_k):
                f.write(f"{float(mu)!r} {float(s2)!r} {int(k)}\n")

    @classmethod
    def load(cls, path: str) -> "GaussianMixtureBank":
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if not header.startswith("#components="):
                raise ValueError(f"bad bank header: {header!r}")
            n = int(header.split("=", 1)[1])
            rows = [f.readline().split() for _ in range(n)]
        found = sum(1 for r in rows if len(r) == 3)
        if found < n:
            raise ValueError(f"truncated bank {path}: header declares {n} components, "
                             f"found {found} rows of mean, variance and K")
        means = np.array([float(r[0]) for r in rows])
        variances = np.array([float(r[1]) for r in rows])
        source_k = np.array([int(r[2]) for r in rows])
        return cls(means, variances, source_k)


def build_component_bank(train_values: Sequence[float]) -> Tuple[GaussianMixtureBank, dict]:
    """Fit the seven doubling-size mixtures and pool their components.

    Sub-fits with K above the number of distinct values are skipped with a
    warning. Returns the bank and a dict of per-K log-likelihood traces.
    """
    x = np.asarray(train_values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("no training values")
    means: List[float] = []
    variances: List[float] = []
    source: List[int] = []
    traces = {}
    distinct = np.unique(x).size
    for k in BANK_SIZES:
        if k > distinct:
            warnings.warn(f"skipping K={k}: only {distinct} distinct values")
            continue
        fit = em_fit(x, k)
        traces[k] = fit.log_likelihood_trace
        means.extend(fit.means.tolist())
        variances.extend(fit.variances.tolist())
        source.extend([k] * k)
    return GaussianMixtureBank(np.array(means), np.array(variances),
                               np.array(source, dtype=int)), traces
