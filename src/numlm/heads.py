"""Token-level recurrent backbone and output strategies.

Model kinds:
  softmax, softmax+rnn      one softmax over the joint word/numeral vocabulary
  h-softmax, h-softmax+rnn  class gate + independent per-class softmaxes
  d-rnn, mog, combination   class gate + an open-vocabulary numeral branch

All models share the input side: plain token embeddings for words, gated
token-character embeddings for numerals.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import log_softmax as np_log_softmax, logsumexp as np_logsumexp

from . import autodiff as ad
from .autodiff import Tensor
from .compute import LstmCell, ParamStore, dropout, uniform_init
from .corpus import Token, Vocabulary
from .embed import CharEncoder, EmbeddingTable, GatedInputEmbed
from .gmm import GaussianMixtureBank
from .numeral_heads import Candidate, CombinationHead, DigitRnn, MogHead

MODEL_KINDS = ("softmax", "softmax+rnn", "h-softmax", "h-softmax+rnn",
               "d-rnn", "mog", "combination")
OPEN_NUMERAL_KINDS = ("d-rnn", "mog", "combination")


def canonical_kind(name: str) -> str:
    k = name.strip().lower().replace("_", "-")
    if k == "drnn":
        k = "d-rnn"
    if k not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {name!r}; choose from {MODEL_KINDS}")
    return k


def _log_sigmoid(x: Tensor) -> Tensor:
    # log sigma(x) = -log(1 + e^-x), stable in both tails
    return -ad.logsumexp(ad.stack([Tensor(0.0), -x]))


def _log_one_minus_sigmoid(x: Tensor) -> Tensor:
    return -ad.logsumexp(ad.stack([Tensor(0.0), x]))


class ClosedSoftmax:
    """Softmax over the rows of one output table.

    The in-vocabulary numerals `numerals` occupy the contiguous rows from
    `first` on. With `char_name` (the +rnn kinds) each of them also scores
    against a character-composed column, and every other row counts its
    token column twice.
    """

    def __init__(self, params: ParamStore, name: str, n_rows: int, dim: int,
                 rng: np.random.Generator, numerals: Sequence[str] = (),
                 first: int = 0, char_name: Optional[str] = None):
        self.E_out = params.create(name, uniform_init(rng, (n_rows, dim)))
        self.char_out = CharEncoder(params, char_name, dim, rng) if char_name else None
        self.numerals = list(numerals)
        self.first = first
        self.rows = {s: first + i for i, s in enumerate(self.numerals)}
        self._table: Optional[Tensor] = None

    def prepare(self):
        """Rebuild the +rnn output table from the current parameters: the
        character-composed columns [len(numerals), D] are added to the rows
        from `first` on, every other row to itself."""
        if self.char_out is not None:
            lo, hi = self.first, self.first + len(self.numerals)
            E = self.E_out
            self._table = E + ad.concat([E[slice(0, lo)], self.char_out.encode(self.numerals),
                                         E[slice(hi, E.shape[0])]])

    def logits(self, h: Tensor) -> Tensor:
        if self.char_out is None:
            return self.E_out @ h
        if self._table is None:
            self.prepare()
        return self._table @ h

    def log_prob(self, h: Tensor, row: int) -> Tensor:
        return ad.log_softmax(self.logits(h))[row]

    def log_probs(self, hv: np.ndarray) -> np.ndarray:
        """Every row's log probability, grad-free."""
        with ad.no_grad():
            return np_log_softmax(self.logits(Tensor(hv)).value)


class FlatSoftmax(ClosedSoftmax):
    """Single softmax over the full vocabulary, numerals after the words."""

    def __init__(self, params: ParamStore, vocab: Vocabulary, dim: int,
                 rng: np.random.Generator, plus_rnn: bool):
        super().__init__(params, "out.E_out", vocab.size, dim, rng,
                         numerals=vocab.in_vocab_numerals(), first=vocab.n_words,
                         char_name="out.char" if plus_rnn else None)
        self.vocab = vocab

    def log_prob_token(self, h: Tensor, token: Token) -> Tensor:
        return self.log_prob(h, self.vocab.index(token))

    def candidate_log_probs(self, hv: np.ndarray,
                            candidates: Sequence[Candidate], **_) -> np.ndarray:
        lp = self.log_probs(hv)
        unk = self.vocab.unk_numeral_index
        rows = [self.rows.get(c.surface, unk) for c in candidates]
        return lp[rows] - np_logsumexp(lp[self.first:])


class ClosedNumeralBranch(ClosedSoftmax):
    """Softmax over the numeral inventory, UNK included."""

    def __init__(self, params: ParamStore, vocab: Vocabulary, dim: int,
                 rng: np.random.Generator, plus_rnn: bool):
        super().__init__(params, "out.num.E_out", vocab.n_numerals, dim, rng,
                         numerals=vocab.in_vocab_numerals(),
                         char_name="out.num.char" if plus_rnn else None)
        self.vocab = vocab

    def log_prob_token(self, h: Tensor, token: Token) -> Tensor:
        return self.log_prob(h, self.vocab.numeral_branch_index(token))

    def candidate_log_probs(self, hv: np.ndarray,
                            candidates: Sequence[Candidate], **_) -> np.ndarray:
        unk = self.vocab.n_numerals - 1
        return self.log_probs(hv)[[self.rows.get(c.surface, unk) for c in candidates]]


class Hierarchical:
    """Class gate p(numeral | h) = sigma(h . b) over independently
    normalised word and numeral branches; the branches share no parameters."""

    def __init__(self, params: ParamStore, vocab: Vocabulary, dim: int,
                 rng: np.random.Generator, numeral_branch):
        self.vocab = vocab
        self.b = params.create("out.class_gate.b", uniform_init(rng, (dim,)))
        self.words = ClosedSoftmax(params, "out.word.E_out", vocab.n_words, dim, rng)
        self.numeral_branch = numeral_branch

    def prepare(self):
        if hasattr(self.numeral_branch, "prepare"):
            self.numeral_branch.prepare()

    def log_prob_token(self, h: Tensor, token: Token) -> Tensor:
        score = self.b @ h
        if token.is_numeral:
            return _log_sigmoid(score) + self.numeral_branch.log_prob_token(h, token)
        return _log_one_minus_sigmoid(score) + \
            self.words.log_prob(h, self.vocab.word_branch_index(token))

    def candidate_log_probs(self, hv: np.ndarray,
                            candidates: Sequence[Candidate], **kw) -> np.ndarray:
        return self.numeral_branch.candidate_log_probs(hv, candidates, **kw)


class NumerateLM:
    """A token-level LSTM language model with a pluggable output strategy."""

    def __init__(self, kind: str, vocab: Vocabulary, dim: int, seed: int = 0,
                 bank: Optional[GaussianMixtureBank] = None):
        self.kind = canonical_kind(kind)
        self.vocab = vocab
        self.dim = dim
        self.seed = seed
        self._bank = bank
        rng = np.random.default_rng(seed)
        params = ParamStore()
        self.params = params

        self.in_table = EmbeddingTable(params, "in.E", vocab.size, dim, rng)
        self.in_char = CharEncoder(params, "in.char", dim, rng)
        self.gate = GatedInputEmbed(params, "in.gate", dim, rng)
        self.cell = LstmCell(params, "rnn", dim, dim, rng)

        if self.kind in ("softmax", "softmax+rnn"):
            self.strategy = FlatSoftmax(params, vocab, dim, rng,
                                        plus_rnn=self.kind.endswith("+rnn"))
        else:
            if self.kind in ("h-softmax", "h-softmax+rnn"):
                branch = ClosedNumeralBranch(params, vocab, dim, rng,
                                             plus_rnn=self.kind.endswith("+rnn"))
            elif self.kind == "d-rnn":
                branch = DigitRnn(params, "out.drnn", dim, rng)
            elif self.kind == "mog":
                branch = MogHead(params, "out.mog", dim, bank, rng)
            else:
                branch = CombinationHead(params, "out.comb", dim, vocab, bank, rng)
            self.strategy = Hierarchical(params, vocab, dim, rng, branch)

    @property
    def open_numeral_vocab(self) -> bool:
        return self.kind in OPEN_NUMERAL_KINDS

    @property
    def hierarchical(self) -> bool:
        return isinstance(self.strategy, Hierarchical)

    # -- input side -------------------------------------------------------
    def input_embedding(self, token: Token) -> Tensor:
        tok_vec = self.in_table(self.vocab.index(token))
        if token.is_numeral:
            return self.gate(tok_vec, self.in_char(token.surface))
        return tok_vec

    def initial_state(self):
        return self.cell.initial_state()

    def advance(self, state, token: Token, *, train: bool = False,
                drop_rate: float = 0.0, rng=None):
        x = dropout(self.input_embedding(token), drop_rate, rng, train)
        return self.cell.step(x, state)

    # -- scoring ----------------------------------------------------------
    def prepare(self):
        """Rebuild the +rnn character columns from the current parameters."""
        self.strategy.prepare()

    def load_arrays(self, arrays: Dict[str, np.ndarray]):
        """Set every parameter; the +rnn columns are rebuilt on first use."""
        self.params.load_arrays(arrays)
        for head in (self.strategy, getattr(self.strategy, "numeral_branch", None)):
            if isinstance(head, ClosedSoftmax):
                head._table = None

    def token_log_prob(self, h: Tensor, token: Token) -> Tensor:
        return self.strategy.log_prob_token(h, token)

    def doc_log_probs(self, tokens: Sequence[Token], *, train: bool = False,
                      drop_rate: float = 0.0, rng=None) -> List[Tensor]:
        """Per-token log probabilities; token t is predicted from the state
        after consuming tokens < t (zero initial state)."""
        self.prepare()
        return self._token_loop(tokens, None, train, drop_rate, rng)

    def score_doc(self, tokens: Sequence[Token],
                  collect_numeral_states: bool = False):
        """Grad-free scoring. Returns (log-prob array, [(position, h)] at
        numeral positions if requested). It does not prepare: `score_corpus`
        and `dev_cross_entropy` call `prepare()` once per pass, under
        no_grad; `doc_log_probs` rebuilds the columns for every training
        document; a new or reloaded model builds them on first use."""
        states: List[Tuple[int, np.ndarray]] = []
        with ad.no_grad():
            out = self._token_loop(tokens, states if collect_numeral_states else None)
        return np.array([float(lp.value) for lp in out]), states

    def _token_loop(self, tokens: Sequence[Token], numeral_states: Optional[list],
                    train=False, drop_rate=0.0, rng=None) -> List[Tensor]:
        out: List[Tensor] = []
        state = self.initial_state()
        for t, tok in enumerate(tokens):
            if numeral_states is not None and tok.is_numeral:
                numeral_states.append((t, state[0].value.copy()))
            h = dropout(state[0], drop_rate, rng, train)
            out.append(self.token_log_prob(h, tok))
            state = self.advance(state, tok, train=train,
                                 drop_rate=drop_rate, rng=rng)
        return out

    def numeral_candidate_log_probs(self, hv: np.ndarray,
                                    candidates: Sequence[Candidate],
                                    **kw) -> np.ndarray:
        """log p(candidate | numeral class, h), grad-free."""
        return self.strategy.candidate_log_probs(hv, candidates, **kw)
