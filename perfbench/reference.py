"""An independent plain-numpy reading of numlm checkpoints.

Nothing here imports numlm: the checkpoint file is parsed from its
documented layout (magic line, little-endian u64 header length, JSON header,
row-major float64 parameter buffers) and the forward pass is written out
from the model's equations, so it can serve as a reference for the
program's own scoring.
"""
from __future__ import annotations

import json
import re
import struct
from typing import Dict, List, Tuple

import numpy as np

MAGIC = b"NUMLMCKPT\n"
NUMERAL_RE = re.compile(r"^\d+(\.\d+)?$")
# numeral character inventory: digits, '.', end marker, start marker
CHAR_INDEX = {**{str(d): d for d in range(10)}, ".": 10}
CHAR_EOS, CHAR_SOS = 11, 12


def split_tokens(line: str) -> List[Tuple[str, bool]]:
    """(surface, is_numeral) per whitespace token of a prepared corpus line."""
    return [(w, bool(NUMERAL_RE.match(w))) for w in line.split()]


def read_lines(path: str) -> List[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def read_checkpoint(path: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(MAGIC):
        raise ValueError(f"{path}: bad magic")
    off = len(MAGIC)
    (n,) = struct.unpack_from("<Q", blob, off)
    off += 8
    header = json.loads(blob[off:off + n].decode("utf-8"))
    off += n
    arrays = {}
    for meta in header["params"]:
        shape = tuple(meta["shape"])
        count = int(np.prod(shape)) if shape else 1
        arrays[meta["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=off).reshape(shape).copy()
        off += 8 * count
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} trailing bytes")
    return header, arrays


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max()
    return z - (np.log(np.exp(z - m).sum()) + m)


class ReferenceLM:
    """Token LSTM with the gated token/character input embedding, and the
    flat or hierarchical closed softmax with optional character-composed
    numeral columns."""

    def __init__(self, header: dict, arrays: Dict[str, np.ndarray]):
        self.kind = header["kind"]
        self.p = arrays
        self.dim = header["dim"]
        self.words = header["vocab"]["words"]
        self.numerals = header["vocab"]["numerals"]
        self.word_index = {w: i for i, w in enumerate(self.words)}
        self.numeral_index = {s: i for i, s in enumerate(self.numerals)}
        self.plus_rnn = self.kind.endswith("+rnn")
        self._columns: Dict[str, np.ndarray] = {}

    # -- building blocks ---------------------------------------------------
    def _lstm(self, name: str, x, h, c):
        z = self.p[f"{name}.W"] @ np.concatenate([x, h]) + self.p[f"{name}.b"]
        d = self.dim
        i, f = _sigmoid(z[:d]), _sigmoid(z[d:2 * d])
        g, o = np.tanh(z[2 * d:3 * d]), _sigmoid(z[3 * d:])
        c = f * c + i * g
        return o * np.tanh(c), c

    def _char_encode(self, name: str, surface: str) -> np.ndarray:
        h = c = np.zeros(self.dim)
        chars = self.p[f"{name}.chars"]
        for idx in [CHAR_SOS] + [CHAR_INDEX[ch] for ch in surface] + [CHAR_EOS]:
            h, c = self._lstm(f"{name}.lstm", chars[idx], h, c)
        return h

    def _row(self, surface: str, is_num: bool) -> int:
        if is_num:
            return len(self.words) + self.numeral_index.get(
                surface, len(self.numerals) - 1)
        return self.word_index.get(surface, len(self.words) - 1)

    def embed(self, surface: str, is_num: bool) -> np.ndarray:
        e = self.p["in.E"][self._row(surface, is_num)]
        if not is_num:
            return e
        g = _sigmoid(self.p["in.gate.Wg"] @ e + self.p["in.gate.bg"])
        return g * e + (1.0 - g) * self._char_encode("in.char", surface)

    def hidden_states(self, doc: List[Tuple[str, bool]]) -> List[np.ndarray]:
        """The state each token is predicted from (zero initial state)."""
        h = c = np.zeros(self.dim)
        out = []
        for surface, is_num in doc:
            out.append(h)
            h, c = self._lstm("rnn", self.embed(surface, is_num), h, c)
        return out

    # -- closed output layers ---------------------------------------------
    def _closed_logits(self, table: str, char_name: str, h) -> np.ndarray:
        base = self.p[table] @ h
        if not self.plus_rnn:
            return base
        first = len(self.words) if table == "out.E_out" else 0
        # in-vocabulary numeral columns gain a character-composed score;
        # every other entry counts its token column twice
        if char_name not in self._columns:
            self._columns[char_name] = np.array(
                [self._char_encode(char_name, s) for s in self.numerals[:-1]]
            ).reshape(-1, self.dim)
        cols = self._columns[char_name]
        extra = base.copy()
        extra[first:first + len(cols)] = cols @ h
        return base + extra

    def full_log_probs(self, h) -> np.ndarray:
        """log p over every vocabulary entry, words then numerals."""
        if self.kind.startswith("softmax"):
            return _log_softmax(self._closed_logits("out.E_out", "out.char", h))
        s = self.p["out.class_gate.b"] @ h
        log_num = -np.logaddexp(0.0, -s)
        log_word = -np.logaddexp(0.0, s)
        words = _log_softmax(self.p["out.word.E_out"] @ h)
        nums = _log_softmax(self._closed_logits("out.num.E_out", "out.num.char", h))
        return np.concatenate([log_word + words, log_num + nums])

    def doc_log_probs(self, doc: List[Tuple[str, bool]]) -> np.ndarray:
        states = self.hidden_states(doc)
        return np.array([self.full_log_probs(h)[self._row(s, n)]
                         for h, (s, n) in zip(states, doc)])
