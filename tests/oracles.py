"""Reference computations the tests compare the library against.

Each is a free function over a model component; none is used by numlm
itself.
"""
import math
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy.special import log_softmax as np_log_softmax

import numlm.autodiff as ad
from numlm.autodiff import Tensor
from numlm.corpus import Kind
from numlm.embed import CHAR_INDEX, CHAR_SOS, EOS_INDEX, N_EMIT
from numlm.evaluation import TokenRecord, _adjusted_classes, _in_filter
from numlm.numeral_heads import _check_on_grid


def symbol_states(lstm, h: Tensor, inputs: Sequence[int]):
    """Hidden states of a SymbolLstm reading `inputs` from (h, 0), one
    graph-mode cell step per symbol."""
    state = (h, Tensor(np.zeros(lstm.dim)))
    for sym in inputs:
        state = lstm.cell.step(lstm.emb(sym), state)
        yield state[0]


def symbol_encode(lstm, h: Tensor, symbols: Sequence[int]) -> Tensor:
    """Final hidden state after reading SOS then `symbols`; graph mode."""
    *_, last = symbol_states(lstm, h, [lstm.sos, *symbols])
    return last


def symbol_sequence_log_prob(lstm, h: Tensor, targets: Sequence[int]) -> Tensor:
    """log p(targets | h), one conditional per symbol; graph mode."""
    inputs = [lstm.sos, *targets[:-1]]
    total = None
    for hs, prev, tgt in zip(symbol_states(lstm, h, inputs), inputs, targets):
        logits = (lstm.Wout @ hs) + lstm.bout
        if lstm.log_mask is not None:
            logits = logits + Tensor(lstm.log_mask[prev])
        lp = ad.log_softmax(logits)[tgt]
        total = lp if total is None else total + lp
    return total


def trie_mass(drnn, hv: np.ndarray, depth: int) -> float:
    """Terminated mass over all symbol strings of length <= depth plus
    the continuation mass of unterminated depth-length prefixes.
    Telescopes to 1 for a properly normalised model."""
    cont_syms = list(range(N_EMIT - 1))  # digits and '.', EOS excluded
    H = hv[None, :].copy()
    C = np.zeros_like(H)
    X = drnn.emb.E.value[CHAR_INDEX[CHAR_SOS]][None, :]
    H, C = drnn.cell.step_batch(X, H, C)
    logp = np.zeros(1)
    total = 0.0
    for level in range(depth):
        lp = np_log_softmax(H @ drnn.Wout.value.T + drnn.bout.value, axis=1)
        total += float(np.exp(logp + lp[:, EOS_INDEX]).sum())
        n = H.shape[0]
        new_logp = (logp[:, None] + lp[:, cont_syms]).T.reshape(-1)
        newH = np.empty((n * len(cont_syms), drnn.dim))
        newC = np.empty_like(newH)
        for j, sym in enumerate(cont_syms):
            x = np.repeat(drnn.emb.E.value[sym][None, :], n, axis=0)
            h2, c2 = drnn.cell.step_batch(x, H, C)
            newH[j * n:(j + 1) * n] = h2
            newC[j * n:(j + 1) * n] = c2
        H, C, logp = newH, newC, new_logp
    lp = np_log_softmax(H @ drnn.Wout.value.T + drnn.bout.value, axis=1)
    total += float(np.exp(logp + lp[:, EOS_INDEX]).sum())  # EOS at final level
    cont = float(np.exp(logp[:, None] + lp[:, cont_syms]).sum())
    return total + cont


def mog_density(mog, h: Tensor, v: float) -> float:
    """pdf value q(v) of a MoG head's mixture; grad-free."""
    with ad.no_grad():
        pi = mog.mixture_weights(h).value
    z = (v - mog.means) / mog.sigmas
    pdf = np.exp(-0.5 * z * z) / (mog.sigmas * math.sqrt(2 * math.pi))
    return float(pi @ pdf)


def mog_pmf(mog, h: Tensor, v: float, r: int) -> float:
    """Discretised mass Q(v|r) under the current mixture weights; grad-free."""
    _check_on_grid(v, r)
    with ad.no_grad():
        pi = mog.mixture_weights(h).value
    q = mog._component_cell_masses(np.array([v]), r)[0]
    return float(pi @ q)


def class_probs(hierarchical, h: Tensor) -> Tuple[float, float]:
    """(p(word | h), p(numeral | h)) under a hierarchical strategy's gate."""
    with ad.no_grad():
        p_num = float(ad.sigmoid(hierarchical.b @ h).value)
    return 1.0 - p_num, p_num


def adjusted_perplexity_redistributed(records: Sequence[TokenRecord],
                                      oov_sizes: Dict[str, int],
                                      open_numeral_vocab: bool,
                                      class_filter: str = "all") -> float:
    """Direct route: divide each OOV token's probability by |OOV_c|."""
    sel = [r for r in records if _in_filter(r, class_filter)]
    if not sel:
        return float("nan")
    adjusted = _adjusted_classes(open_numeral_vocab)
    total = 0.0
    for r in sel:
        lp = r.logp
        cls = "numeral" if r.kind is Kind.Numeral else "word"
        if r.oov and cls in adjusted:
            if oov_sizes.get(cls, 0) < 1:
                raise ValueError(f"{cls} tokens are OOV but the OOV type set is empty")
            lp = lp - math.log(oov_sizes[cls])
        if math.isinf(lp):
            return math.inf
        total += lp
    return math.exp(-total / len(sel))
