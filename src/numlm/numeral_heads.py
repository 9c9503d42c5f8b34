"""Open-vocabulary numeral strategies: digit-by-digit generation, a
discretised mixture of Gaussians with a precision-pattern model, and a gated
combination of strategies.

Every branch exposes:
  log_prob_token(h, token)      graph-mode scalar Tensor
  candidate_log_probs(hv, cs)   grad-free numpy scoring for decoding
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.special import erf, log_softmax as np_log_softmax

from . import autodiff as ad
from .autodiff import Tensor
from .compute import ParamStore, uniform_init
from .corpus import Token
from .embed import EOS_INDEX, N_CHARS, N_EMIT, SymbolBatch, SymbolLstm, char_indices
from .gmm import GaussianMixtureBank


@dataclass(frozen=True)
class Candidate:
    surface: str
    value: float
    precision: int


class DigitRnn(SymbolLstm):
    """Character-level LSTM over {0-9, '.', EOS}, conditioned on the token
    state via the initial hidden state. Normalised one symbol at a time."""

    def __init__(self, params: ParamStore, name: str, dim: int,
                 rng: np.random.Generator):
        super().__init__(params, name, "chars", N_CHARS, dim, rng, emit=True)

    def log_prob(self, h: Tensor, surface: str) -> Tensor:
        return self.run(self.pad([char_indices(surface) + [EOS_INDEX]]), h)[0]

    def log_prob_token(self, h: Tensor, token: Token) -> Tensor:
        return self.log_prob(h, token.surface)

    def first_emission_probs(self, hv: np.ndarray) -> np.ndarray:
        """Distribution over the 12 emission symbols for the first step."""
        return np.exp(self.batch_log_probs(hv, self.pad([[s] for s in range(N_EMIT)])))

    def candidate_batch(self, candidates: Sequence[Candidate]) -> SymbolBatch:
        """The candidates' digit sequences as one padded batch; h-independent."""
        return self.pad([char_indices(c.surface) + [EOS_INDEX] for c in candidates])

    def candidate_log_probs(self, hv: np.ndarray, candidates: Sequence[Candidate],
                            digit_batch: Optional[SymbolBatch] = None) -> np.ndarray:
        return self.batch_log_probs(hv, digit_batch or self.candidate_batch(candidates))


# pattern-model inventories
PATTERN_INT = 0
PATTERN_POINT = 1
PATTERN_DIGIT = 2
PATTERN_EOS = 3
N_PATTERN_EMIT = 4
PATTERN_SOS = 4  # input-only symbol


def _pattern_transition_masks() -> np.ndarray:
    """Additive log-masks restricting each conditional to the valid pattern
    grammar, so that p(r) sums to 1 over r. Rows indexed by the previous
    symbol (SOS included), columns by the 4 emissions."""
    masks = np.full((5, N_PATTERN_EMIT), -np.inf)
    masks[PATTERN_SOS, PATTERN_INT] = 0.0
    masks[PATTERN_INT, [PATTERN_POINT, PATTERN_EOS]] = 0.0
    masks[PATTERN_POINT, PATTERN_DIGIT] = 0.0
    masks[PATTERN_DIGIT, [PATTERN_DIGIT, PATTERN_EOS]] = 0.0
    return masks


class PrecisionPatternModel(SymbolLstm):
    """Sequence model over {INT_PART, '.', \\d, EOS} giving p(r), the
    distribution over decimal precision, conditioned on the token state.

    Emissions that would leave the valid pattern language are masked out of
    every conditional, so the distribution is proper over r = 0, 1, 2, ...
    """

    MASKS = _pattern_transition_masks()

    def __init__(self, params: ParamStore, name: str, dim: int,
                 rng: np.random.Generator):
        super().__init__(params, name, "emb", PATTERN_SOS + 1, dim, rng,
                         emit=True, log_mask=self.MASKS)

    @staticmethod
    def pattern_targets(r: int) -> List[int]:
        if r < 0:
            raise ValueError("precision must be non-negative")
        if r == 0:
            return [PATTERN_INT, PATTERN_EOS]
        return [PATTERN_INT, PATTERN_POINT] + [PATTERN_DIGIT] * r + [PATTERN_EOS]

    def log_prob(self, h: Tensor, r: int) -> Tensor:
        return self.run(self.pad([self.pattern_targets(r)]), h)[0]

    def log_probs_upto(self, hv: np.ndarray, r_max: int) -> np.ndarray:
        """log p(r) for r = 0..r_max, grad-free."""
        return self.batch_log_probs(
            hv, self.pad([self.pattern_targets(r) for r in range(r_max + 1)]))


def precision_half_width(r: int) -> float:
    return 0.5 * 10.0 ** (-r)


def _check_on_grid(value: float, r: int):
    scaled = value * 10.0 ** r
    if abs(scaled - round(scaled)) > 1e-6 * max(1.0, abs(scaled)):
        raise ValueError(f"value {value} is not representable at precision r={r}")


class MogHead:
    """Mixture-of-Gaussians numeral model: fixed component bank, hidden-state
    dependent mixture weights, and the precision-pattern model."""

    def __init__(self, params: ParamStore, name: str, dim: int,
                 bank: GaussianMixtureBank, rng: np.random.Generator):
        if bank is None or bank.size == 0:
            raise ValueError("MoG head needs a non-empty component bank")
        self.dim = dim
        self.bank = bank
        self.means = bank.means.copy()
        self.sigmas = np.sqrt(bank.variances)
        self.B = params.create(f"{name}.B", uniform_init(rng, (bank.size, dim)))
        self.pattern = PrecisionPatternModel(params, f"{name}.pattern", dim, rng)

    def mixture_weights(self, h: Tensor) -> Tensor:
        return ad.softmax(self.B @ h)

    def _component_cell_masses(self, values, rs) -> np.ndarray:
        """F_k(v + eps_r) - F_k(v - eps_r) per value (rows) and component (cols)."""
        v = np.atleast_1d(np.asarray(values, dtype=np.float64))
        r = np.broadcast_to(np.asarray(rs, dtype=int), v.shape).astype(np.float64)
        eps = (0.5 * np.power(10.0, -r))[:, None]
        scale = self.sigmas[None, :] * math.sqrt(2)
        hi = (v[:, None] + eps - self.means[None, :]) / scale
        lo = (v[:, None] - eps - self.means[None, :]) / scale
        return 0.5 * (erf(hi) - erf(lo))

    def log_prob(self, h: Tensor, token: Token) -> Tensor:
        """log p(s) = log p(r) + log Q(v|r); graph mode."""
        _check_on_grid(token.value, token.precision)
        q = self._component_cell_masses(np.array([token.value]), token.precision)[0]
        pi = self.mixture_weights(h)
        cell_mass = ad.tsum(pi * Tensor(q))
        return self.pattern.log_prob(h, token.precision) + ad.log(cell_mass)

    log_prob_token = log_prob

    def candidate_log_probs(self, hv: np.ndarray,
                            candidates: Sequence[Candidate],
                            q_matrix: Optional[np.ndarray] = None) -> np.ndarray:
        rs = np.array([c.precision for c in candidates])
        if q_matrix is None:
            q_matrix = self.candidate_q_matrix(candidates)
        pi = np.exp(np_log_softmax(self.B.value @ hv))
        mass = q_matrix @ pi
        r_max = int(rs.max())
        pattern_lp = self.pattern.log_probs_upto(hv, r_max)
        with np.errstate(divide="ignore"):
            return pattern_lp[rs] + np.log(mass)

    def candidate_q_matrix(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """Per-candidate per-component cell masses; h-independent, cacheable."""
        values = np.array([c.value for c in candidates])
        rs = np.array([c.precision for c in candidates])
        return self._component_cell_masses(values, rs)


class CombinationHead:
    """Gated mixture over {closed softmax without UNK, d-RNN, MoG}.

    The closed constituent is a proper distribution over in-vocabulary
    numerals only; it contributes zero mass to out-of-vocabulary numerals.
    """

    STRATEGIES = ("h-softmax", "d-rnn", "mog")

    def __init__(self, params: ParamStore, name: str, dim: int, vocab,
                 bank: GaussianMixtureBank, rng: np.random.Generator):
        from .heads import ClosedSoftmax  # heads imports this module
        self.dim = dim
        inventory = vocab.in_vocab_numerals()
        self.closed = ClosedSoftmax(params, f"{name}.closed.E_out", len(inventory),
                                    dim, rng, numerals=inventory)
        self.drnn = DigitRnn(params, f"{name}.drnn", dim, rng)
        self.mog = MogHead(params, f"{name}.mog", dim, bank, rng)
        self.A = params.create(f"{name}.A", uniform_init(rng, (3, dim)))

    def selection_log_probs(self, h: Tensor) -> Tensor:
        return ad.log_softmax(self.A @ h)

    def selection_probs(self, hv: np.ndarray) -> np.ndarray:
        return np.exp(np_log_softmax(self.A.value @ hv))

    def closed_log_prob(self, h: Tensor, surface: str) -> Optional[Tensor]:
        row = self.closed.rows.get(surface)
        return None if row is None else self.closed.log_prob(h, row)

    def log_prob_token(self, h: Tensor, token: Token) -> Tensor:
        log_alpha = self.selection_log_probs(h)
        terms = []
        closed = self.closed_log_prob(h, token.surface)
        if closed is not None:
            terms.append(log_alpha[0] + closed)
        terms.append(log_alpha[1] + self.drnn.log_prob(h, token.surface))
        terms.append(log_alpha[2] + self.mog.log_prob(h, token))
        return ad.logsumexp(ad.stack(terms))

    def candidate_log_probs(self, hv: np.ndarray,
                            candidates: Sequence[Candidate],
                            q_matrix: Optional[np.ndarray] = None,
                            digit_batch: Optional[SymbolBatch] = None) -> np.ndarray:
        la = np_log_softmax(self.A.value @ hv)
        parts = np.full((3, len(candidates)), -np.inf)
        if self.closed.numerals:
            closed_lp = self.closed.log_probs(hv)
            for i, c in enumerate(candidates):
                row = self.closed.rows.get(c.surface)
                if row is not None:
                    parts[0, i] = closed_lp[row]
        parts[1] = self.drnn.candidate_log_probs(hv, candidates, digit_batch=digit_batch)
        parts[2] = self.mog.candidate_log_probs(hv, candidates, q_matrix=q_matrix)
        stacked = la[:, None] + parts
        m = stacked.max(axis=0)
        return m + np.log(np.exp(stacked - m[None, :]).sum(axis=0))
