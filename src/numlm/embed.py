"""Token embeddings, the LSTM over a small symbol alphabet behind the
character-level numeral encoder and the numeral models, and the gated
token-character input embedding used for numerals.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.special import log_softmax as np_log_softmax

from . import autodiff as ad
from .autodiff import Tensor
from .compute import LstmCell, ParamStore, uniform_init

# character inventory for numeral surfaces: SOS/EOS bracket the digits
CHAR_SOS = "<s>"
CHAR_EOS = "</s>"
CHARS = [str(d) for d in range(10)] + [".", CHAR_EOS, CHAR_SOS]
CHAR_INDEX = {c: i for i, c in enumerate(CHARS)}
N_CHARS = len(CHARS)  # 13
# symbols a numeral model may emit (everything except SOS)
EMIT_CHARS = CHARS[:-1]
N_EMIT = len(EMIT_CHARS)  # 12
EOS_INDEX = CHAR_INDEX[CHAR_EOS]


class EmbeddingTable:
    """One D-vector per vocabulary index, stored as rows of a (|V|, D) matrix."""

    def __init__(self, params: ParamStore, name: str, n_types: int, dim: int,
                 rng: np.random.Generator):
        self.n_types = n_types
        self.dim = dim
        self.E = params.create(name, uniform_init(rng, (n_types, dim)))

    def __call__(self, index: int) -> Tensor:
        if not 0 <= index < self.n_types:
            raise IndexError(f"embedding index {index} out of range [0, {self.n_types})")
        return self.E[index]

    def load_pretrained(self, path: str, surfaces: List[str]) -> int:
        """Initialise rows whose surface appears in the embedding file.

        File format: one line per token, the token then D floats. Returns the
        number of rows initialised.
        """
        vectors: Dict[str, np.ndarray] = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                parts = line.rstrip("\n").split(" ")
                if len(parts) != self.dim + 1:
                    raise ValueError(
                        f"pretrained row for {parts[0]!r} has {len(parts) - 1} dims, expected {self.dim}")
                vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
        hits = 0
        for i, s in enumerate(surfaces):
            v = vectors.get(s)
            if v is not None:
                self.E.value[i] = v
                hits += 1
        return hits


def char_indices(surface: str) -> List[int]:
    """Indices of a numeral surface's characters in CHARS."""
    try:
        return [CHAR_INDEX[ch] for ch in surface]
    except KeyError as e:
        raise ValueError(f"character {e.args[0]!r} outside the numeral character set") from None


class SymbolLstm:
    """LSTM over a small symbol alphabet whose last symbol is the start
    marker SOS, run from a given initial hidden state and a zero cell.

    With `emit`, an output layer scores the next symbol (any but SOS) at
    every step; `log_mask[prev]`, when given, is added to those scores to
    rule out symbols that may not follow `prev`.
    """

    def __init__(self, params: ParamStore, name: str, table: str, n_symbols: int,
                 dim: int, rng: np.random.Generator, emit: bool = False,
                 log_mask: Optional[np.ndarray] = None):
        self.dim = dim
        self.sos = n_symbols - 1
        self.emb = EmbeddingTable(params, f"{name}.{table}", n_symbols, dim, rng)
        self.cell = LstmCell(params, f"{name}.lstm", dim, dim, rng)
        if emit:
            self.Wout = params.create(f"{name}.out.W", uniform_init(rng, (self.sos, dim)))
            self.bout = params.create(f"{name}.out.b", uniform_init(rng, (self.sos,)))
        self.log_mask = log_mask

    def _states(self, h: Tensor, inputs: Sequence[int]):
        state = (h, Tensor(np.zeros(self.dim)))
        for sym in inputs:
            state = self.cell.step(self.emb(sym), state)
            yield state[0]

    def encode(self, symbols: Sequence[int]) -> Tensor:
        """Final hidden state after reading SOS then `symbols` from a zero state."""
        *_, h = self._states(Tensor(np.zeros(self.dim)), [self.sos, *symbols])
        return h

    def sequence_log_prob(self, h: Tensor, targets: Sequence[int]) -> Tensor:
        """log p(targets | h), one conditional per symbol; graph mode."""
        inputs = [self.sos, *targets[:-1]]
        total = None
        for hs, prev, tgt in zip(self._states(h, inputs), inputs, targets):
            logits = (self.Wout @ hs) + self.bout
            if self.log_mask is not None:
                logits = logits + Tensor(self.log_mask[prev])
            lp = ad.log_softmax(logits)[tgt]
            total = lp if total is None else total + lp
        return total

    def batch_log_probs(self, hv: np.ndarray, seqs: Sequence[Sequence[int]]) -> np.ndarray:
        """log p(seq | hv) for every target sequence, grad-free, scored as
        one padded batch."""
        n, steps = len(seqs), max(len(s) for s in seqs)
        targets = np.full((n, steps), -1, dtype=int)
        for i, s in enumerate(seqs):
            targets[i, :len(s)] = s
        inputs = np.full((n, steps), self.sos, dtype=int)
        inputs[:, 1:] = targets[:, :-1]
        inputs[targets < 0] = self.sos  # past a row's end: keeps masked scores finite
        H = np.repeat(hv[None, :], n, axis=0)
        C = np.zeros_like(H)
        out = np.zeros(n)
        for t in range(steps):
            H, C = self.cell.step_batch(self.emb.E.value[inputs[:, t]], H, C)
            logits = H @ self.Wout.value.T + self.bout.value
            if self.log_mask is not None:
                logits = logits + self.log_mask[inputs[:, t]]
            lp = np_log_softmax(logits, axis=1)
            active = targets[:, t] >= 0
            out += np.where(active, lp[np.arange(n), np.maximum(targets[:, t], 0)], 0.0)
        return out


class CharEncoder(SymbolLstm):
    """Character-level LSTM over a numeral's digits; output is the final
    hidden state, dimension D."""

    def __init__(self, params: ParamStore, name: str, dim: int,
                 rng: np.random.Generator):
        super().__init__(params, name, "chars", N_CHARS, dim, rng)

    def __call__(self, surface: str) -> Tensor:
        return self.encode(char_indices(surface) + [EOS_INDEX])


class GatedInputEmbed:
    """e = g * token_vec + (1 - g) * char_vec with a per-dimension gate
    computed from the token embedding."""

    def __init__(self, params: ParamStore, name: str, dim: int,
                 rng: np.random.Generator):
        self.Wg = params.create(f"{name}.Wg", uniform_init(rng, (dim, dim)))
        self.bg = params.create(f"{name}.bg", uniform_init(rng, (dim,)))

    def __call__(self, token_vec: Tensor, char_vec: Tensor) -> Tensor:
        g = ad.sigmoid((self.Wg @ token_vec) + self.bg)
        return (g * token_vec) + ((1.0 - g) * char_vec)
