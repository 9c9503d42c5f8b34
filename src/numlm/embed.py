"""Token embeddings, the LSTM over a small symbol alphabet behind the
character-level numeral encoder and the numeral models, and the gated
token-character input embedding used for numerals.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Union

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


class SymbolBatch(NamedTuple):
    """Symbol sequences as the rows [SOS, s_0, ..., s_(k-1), 0, ...] of one
    padded matrix, with each sequence's length k. The encoder reads whole
    rows; the emitting form reads all but the last column and scores the
    symbols after SOS. Steps past a row's end are never scored or returned."""
    symbols: np.ndarray
    lens: np.ndarray


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
        self.emit = emit
        if emit:
            self.Wout = params.create(f"{name}.out.W", uniform_init(rng, (self.sos, dim)))
            self.bout = params.create(f"{name}.out.b", uniform_init(rng, (self.sos,)))
        self.log_mask = log_mask

    def pad(self, seqs: Sequence[Sequence[int]]) -> SymbolBatch:
        """The batch `run` reads."""
        lens = np.array([len(s) for s in seqs], dtype=np.intp)
        symbols = np.zeros((len(seqs), int(lens.max(initial=0)) + 1), dtype=np.intp)
        symbols[:, 0] = self.sos
        for i, s in enumerate(seqs):
            symbols[i, 1:1 + len(s)] = s
        return SymbolBatch(symbols, lens)

    def run(self, batch: SymbolBatch, h0: Union[None, np.ndarray, Tensor] = None) -> Tensor:
        """One pass over a padded batch from h0 (zero if None, one [D] state
        for every row, or [N, D]) and a zero cell, as a single autodiff node
        with hand-written backpropagation through time. Returns each row's
        final hidden state [N, D] or, with the emission layer, each row's
        log-probability of its symbols [N]."""
        symbols = batch.symbols.T  # step-major, so that each step's rows are contiguous
        if self.emit:  # past its end a row reads SOS, which keeps masked scores finite
            active = np.arange(symbols.shape[0] - 1)[:, None] < batch.lens
            inputs, targets = np.where(active, symbols[:-1], self.sos), symbols[1:]
        else:
            inputs = symbols
        cell, d, (steps, n) = self.cell, self.dim, inputs.shape
        E, Wx = self.emb.E.value, cell.W.value[:, :d]
        WhT = np.ascontiguousarray(cell.W.value[:, d:].T)
        Zx = (E @ Wx.T + cell.b.value)[inputs]  # [L, N, 4D], each symbol projected once
        hv = h0.value if isinstance(h0, Tensor) else h0
        Hs = [np.zeros((n, d)) if hv is None else np.broadcast_to(hv, (n, d))]
        Cs, As = [np.zeros((n, d))], []
        for t in range(steps):
            a, c, h = cell.gates(Zx[t] + Hs[-1] @ WhT, Cs[-1])
            Hs.append(h)
            Cs.append(c)
            As.append(a)
        H = np.stack(Hs)  # [L + 1, N, D], the initial state first
        if self.emit:
            Hout = H[1:].reshape(-1, d)
            logits = self.Wout.value @ Hout.T + self.bout.value[:, None]  # [S, L * N]
            if self.log_mask is not None:
                logits = logits + self.log_mask[inputs.reshape(-1)].T
            lp = np_log_softmax(logits, axis=0)
            picked = lp[targets.reshape(-1), np.arange(steps * n)].reshape(steps, n)
            value = np.where(active, picked, 0.0).sum(axis=0)
        else:
            value = H[batch.lens + 1, np.arange(n)]  # after SOS and every symbol
        parents = [self.emb.E, cell.W, cell.b] + ([self.Wout, self.bout] if self.emit else [])
        if isinstance(h0, Tensor):
            parents.append(h0)

        def backward(g):
            A, C = np.stack(As), np.stack(Cs)
            TC = np.tanh(C[1:])
            I, F, G, O = np.split(A, 4, axis=2)
            dc_dh = O * (1.0 - TC * TC)
            dgate = A * (1.0 - A)
            dgate[..., 2 * d:3 * d] = 1.0 - G * G
            if self.emit:
                weight = np.where(active, g, 0.0).reshape(-1)
                dlogits = (np.eye(self.sos)[:, targets.reshape(-1)] - np.exp(lp)) * weight
                dH = (dlogits.T @ self.Wout.value).reshape(steps, n, d)
            else:
                dH = np.zeros((steps, n, d))
                dH[batch.lens, np.arange(n)] = g
            dZ = np.empty((steps, n, 4 * d))
            dh = dc = np.zeros((n, d))
            for t in range(steps - 1, -1, -1):  # steps past a row's end get zero
                dh = dh + dH[t]
                dct = dc + dh * dc_dh[t]
                dZ[t] = np.concatenate([dct * G[t], dct * C[t], dct * I[t], dh * TC[t]],
                                       axis=1) * dgate[t]
                dh, dc = dZ[t] @ WhT.T, dct * F[t]
            dZ2 = dZ.reshape(-1, 4 * d)
            dP = np.zeros((E.shape[0], 4 * d))  # per symbol, through its projection
            np.add.at(dP, inputs.reshape(-1), dZ2)
            dW = np.concatenate([dP.T @ E, dZ2.T @ H[:-1].reshape(-1, d)], axis=1)
            grads = [dP @ Wx, dW, dP.sum(axis=0)]
            if self.emit:
                grads += [dlogits @ Hout, dlogits.sum(axis=1)]
            if isinstance(h0, Tensor):
                grads.append(ad._unbroadcast(dh, h0.shape))
            return tuple(grads)

        return ad._make(value, parents, backward)

    def batch_log_probs(self, hv: np.ndarray, batch: SymbolBatch) -> np.ndarray:
        """log p(row | hv) for every row of a padded batch, grad-free."""
        with ad.no_grad():
            return self.run(batch, hv).value


class CharEncoder(SymbolLstm):
    """Character-level LSTM over a numeral's digits; output is the final
    hidden state, dimension D."""

    def __init__(self, params: ParamStore, name: str, dim: int,
                 rng: np.random.Generator):
        super().__init__(params, name, "chars", N_CHARS, dim, rng)

    def encode(self, surfaces: Sequence[str]) -> Tensor:
        """Final hidden states [N, D] of the numerals `surfaces`."""
        return self.run(self.pad([char_indices(s) + [EOS_INDEX] for s in surfaces]))

    def __call__(self, surface: str) -> Tensor:
        return self.encode([surface])[0]


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
