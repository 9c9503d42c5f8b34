"""Perplexity and adjusted perplexity by token class, number-line decoding
with regression metrics, Benford analysis, embedding-similarity reports and
the combination-model strategy-selection report.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import autodiff as ad
from .corpus import Kind, Token, Vocabulary
from .gmm import percentile_init
from .heads import NumerateLM
from .numeral_heads import Candidate, CombinationHead, DigitRnn, MogHead


@dataclass
class TokenRecord:
    kind: Kind
    oov: bool
    logp: float
    token: Optional[Token] = None
    state: Optional[np.ndarray] = None  # numerals: the state they were scored from


CLASS_FILTERS = ("words", "numerals", "all")


def _in_filter(rec: TokenRecord, class_filter: str) -> bool:
    if class_filter == "all":
        return True
    if class_filter == "words":
        return rec.kind is Kind.Word
    if class_filter == "numerals":
        return rec.kind is Kind.Numeral
    raise ValueError(f"unknown class filter {class_filter!r}")


def score_corpus(model: NumerateLM,
                 corpus: Sequence[Sequence[Token]]) -> List[TokenRecord]:
    """The one grad-free forward over a corpus; decoding, Benford and
    strategy selection read the numeral states it keeps."""
    with ad.no_grad():
        model.prepare()
    records: List[TokenRecord] = []
    for doc in corpus:
        if not doc:
            continue
        logps, states = model.score_doc(doc, collect_numeral_states=True)
        hs = dict(states)
        records += [TokenRecord(tok.kind, model.vocab.is_oov(tok), float(lp),
                                tok, hs.get(t))
                    for t, (tok, lp) in enumerate(zip(doc, logps))]
    return records


def perplexity(records: Sequence[TokenRecord], class_filter: str = "all") -> float:
    logps = [r.logp for r in records if _in_filter(r, class_filter)]
    if not logps:
        return float("nan")
    if any(math.isinf(lp) for lp in logps):
        return math.inf
    return math.exp(-sum(logps) / len(logps))


def oov_type_sets(corpus: Sequence[Sequence[Token]],
                  vocab: Vocabulary) -> Dict[str, Set[str]]:
    """Distinct out-of-vocabulary types per class, from this corpus only."""
    out: Dict[str, Set[str]] = {"word": set(), "numeral": set()}
    for doc in corpus:
        for tok in doc:
            if vocab.is_oov(tok):
                out["numeral" if tok.is_numeral else "word"].add(tok.surface)
    return out


def _adjusted_classes(open_numeral_vocab: bool) -> Tuple[str, ...]:
    # word OOV is always mapped to UNK; numerals only under closed strategies
    return ("word",) if open_numeral_vocab else ("word", "numeral")


def adjusted_perplexity(records: Sequence[TokenRecord],
                        oov_sizes: Dict[str, int],
                        open_numeral_vocab: bool,
                        class_filter: str = "all") -> float:
    """Closed form: exp(H + sum_c H_adjust^c)."""
    sel = [r for r in records if _in_filter(r, class_filter)]
    if not sel:
        return float("nan")
    if any(math.isinf(r.logp) for r in sel):
        return math.inf
    n = len(sel)
    h = -sum(r.logp for r in sel) / n
    h_adj = 0.0
    for cls in _adjusted_classes(open_numeral_vocab):
        kind = Kind.Word if cls == "word" else Kind.Numeral
        m = sum(1 for r in sel if r.oov and r.kind is kind)
        if m == 0:
            continue
        if oov_sizes.get(cls, 0) < 1:
            raise ValueError(f"{cls} tokens are OOV but the OOV type set is empty")
        h_adj += (m / n) * math.log(oov_sizes[cls])
    return math.exp(h + h_adj)


# -- number-line evaluation --------------------------------------------------
def choose_decimal_limit(precisions: Sequence[int], coverage: float = 0.9) -> int:
    if not 0 < coverage <= 1:
        raise ValueError("coverage must be in (0, 1]")
    if not precisions:
        return 0
    n = 0
    total = len(precisions)
    while sum(1 for r in precisions if r <= n) / total < coverage:
        n += 1
    return n


def build_candidate_set(train_values: Sequence[float], vocab: Vocabulary,
                        n: int) -> List[Candidate]:
    """In-vocabulary numbers plus 100 training percentile points, each
    rendered at every precision r = 0..n; deduplicated by surface."""
    if not train_values:
        raise ValueError("no training values to build candidates from")
    bases = [float(s) for s in vocab.in_vocab_numerals()]
    bases.extend(percentile_init(train_values, 100).tolist())
    seen = {}
    for v in bases:
        for r in range(n + 1):
            surface = f"{v:.{r}f}"
            if surface not in seen:
                seen[surface] = Candidate(surface, float(surface), r)
    return sorted(seen.values(), key=lambda c: (c.value, c.precision))


def _candidate_kwargs(model: NumerateLM, candidates: Sequence[Candidate]) -> dict:
    """Per-checkpoint cacheable pieces of candidate scoring."""
    branch = getattr(model.strategy, "numeral_branch", None)
    kw = {}
    for part in (branch.mog, branch.drnn) if isinstance(branch, CombinationHead) else (branch,):
        if isinstance(part, MogHead):
            kw["q_matrix"] = part.candidate_q_matrix(candidates)
        if isinstance(part, DigitRnn):
            kw["digit_batch"] = part.candidate_batch(candidates)
    return kw


def decode_number(model: NumerateLM, hv: np.ndarray,
                  candidates: Sequence[Candidate], **kw) -> Candidate:
    """Most probable candidate under the numeral branch; ties break toward
    smaller value, then fewer decimals."""
    scores = model.numeral_candidate_log_probs(hv, candidates, **kw)
    best = max(range(len(candidates)), key=lambda i: (
        scores[i], -candidates[i].value, -candidates[i].precision))
    return candidates[best]


@dataclass
class DecodeResult:
    truth: float
    predicted: float
    predicted_surface: str


def decode_corpus(model: NumerateLM, records: Sequence[TokenRecord],
                  candidates: Sequence[Candidate]) -> List[DecodeResult]:
    """Decode every numeral of `score_corpus` records, in corpus order."""
    kw = _candidate_kwargs(model, candidates)
    results: List[DecodeResult] = []
    for r in records:
        if r.state is not None:
            pred = decode_number(model, r.state, candidates, **kw)
            results.append(DecodeResult(r.token.value, pred.value, pred.surface))
    return results


def regression_metrics(truths: Sequence[float], preds: Sequence[float]) -> dict:
    if len(truths) != len(preds):
        raise ValueError("truths and predictions differ in length")
    e = np.asarray(truths, dtype=float) - np.asarray(preds, dtype=float)
    abs_e = np.abs(e)
    nonzero = np.asarray(truths, dtype=float) != 0.0
    excluded = int((~nonzero).sum())
    out = {
        "rmse": float(np.sqrt(np.mean(e * e))) if e.size else None,
        "mae": float(abs_e.mean()) if e.size else None,
        "mdae": float(np.median(abs_e)) if e.size else None,
        "excluded_zero_targets": excluded,
    }
    if nonzero.any():
        pe = np.abs(e[nonzero] / np.asarray(truths, dtype=float)[nonzero])
        out["mape"] = float(pe.mean() * 100.0)
        out["mdape"] = float(np.median(pe) * 100.0)
    else:
        out["mape"] = None
        out["mdape"] = None
    return out


# -- Benford -----------------------------------------------------------------
def benford_reference(position: int = 1) -> np.ndarray:
    """P(digit at the given significant position) under the first-digit law."""
    if position == 1:
        return np.array([math.log10(1 + 1 / d) for d in range(1, 10)])
    lo = 10 ** (position - 2)
    hi = 10 ** (position - 1)
    return np.array([
        sum(math.log10(1 + 1 / (10 * m + d)) for m in range(lo, hi))
        for d in range(10)
    ])


def significant_digit(value: float, position: int = 1) -> Optional[int]:
    """Digit at the given significant position of a positive value."""
    if value <= 0 or not math.isfinite(value):
        return None
    digits = f"{value:.12e}".replace(".", "").split("e")[0].lstrip("0")
    if len(digits) < position:
        return None
    return int(digits[position - 1])


def benford_corpus_distribution(values: Iterable[float],
                                position: int = 1) -> np.ndarray:
    offset = 1 if position == 1 else 0
    counts = np.zeros(10 - offset)
    for v in values:
        d = significant_digit(v, position)
        if d is not None and d >= offset:
            counts[d - offset] += 1
    total = counts.sum()
    return counts / total if total else counts


def _digit_rnn(model: NumerateLM) -> DigitRnn:
    branch = getattr(model.strategy, "numeral_branch", None)
    if isinstance(branch, CombinationHead):
        return branch.drnn
    if not isinstance(branch, DigitRnn):
        raise ValueError("model has no digit-RNN branch")
    return branch


def benford_model_distribution(model: NumerateLM,
                               corpus: Sequence[Sequence[Token]]) -> np.ndarray:
    """First-digit distribution of a d-RNN branch, marginalising the first
    emission over context states at numeral positions ('0' excluded)."""
    drnn = _digit_rnn(model)
    numerals = [r for r in score_corpus(model, corpus) if r.state is not None]
    if not numerals:
        raise ValueError("no numeral positions in corpus")
    acc = np.zeros(9)
    for r in numerals:
        digits = drnn.first_emission_probs(r.state)[1:10]  # symbols '1'..'9'
        acc += digits / digits.sum()
    return acc / len(numerals)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


# -- representation reports ---------------------------------------------------
def cosine_similarity_matrix(rows: np.ndarray) -> np.ndarray:
    if rows.size == 0:
        return np.zeros((0, 0))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    unit = rows / np.maximum(norms, 1e-300)
    return unit @ unit.T


def output_embedding_rows(model: NumerateLM, surfaces: Sequence[str]
                          ) -> Tuple[List[str], np.ndarray, List[str]]:
    """Output embedding per requested token; unknown tokens are skipped."""
    vocab = model.vocab
    rows: List[np.ndarray] = []
    kept: List[str] = []
    skipped: List[str] = []
    strategy = model.strategy
    for s in surfaces:
        idx = vocab.index_of(s)
        if idx is None:
            table = None
        elif not model.hierarchical:
            table, row = strategy, idx
        elif idx < vocab.n_words:
            table, row = strategy.words, idx
        else:
            # the closed numeral branch, or the combination's closed
            # constituent, which has no row for the last index, UNK_NUM
            branch = strategy.numeral_branch
            table, row = getattr(branch, "closed", branch), idx - vocab.n_words
        E_out = getattr(table, "E_out", None)
        if E_out is None or row >= E_out.shape[0]:
            skipped.append(s)
            continue
        rows.append(E_out.value[row])
        kept.append(s)
    return kept, np.array(rows), skipped


def embedding_similarity_report(model: NumerateLM,
                                surfaces: Sequence[str]
                                ) -> Tuple[List[str], np.ndarray, List[str]]:
    kept, rows, skipped = output_embedding_rows(model, surfaces)
    return kept, cosine_similarity_matrix(rows), skipped


def digit_similarity_report(model: NumerateLM) -> Tuple[List[str], np.ndarray]:
    """Cosine similarities of the digit-RNN output digit embeddings."""
    drnn = _digit_rnn(model)
    labels = [str(d) for d in range(10)]
    return labels, cosine_similarity_matrix(drnn.Wout.value[:10])


def write_similarity_csv(path: str, labels: Sequence[str], matrix: np.ndarray):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow([""] + list(labels))
        for lab, row in zip(labels, matrix):
            w.writerow([lab] + [repr(float(x)) for x in row])


# -- combination strategy selection -------------------------------------------
def strategy_selection(model: NumerateLM,
                       corpus: Sequence[Sequence[Token]]) -> List[dict]:
    """Mean selection weights per numeral type under a combination model."""
    branch = getattr(model.strategy, "numeral_branch", None)
    if not isinstance(branch, CombinationHead):
        raise ValueError("strategy selection needs a combination model")
    sums: Dict[str, np.ndarray] = {}
    counts: Dict[str, int] = {}
    for r in score_corpus(model, corpus):
        if r.state is None:
            continue
        s = r.token.surface
        sums[s] = sums.get(s, np.zeros(3)) + branch.selection_probs(r.state)
        counts[s] = counts.get(s, 0) + 1
    rows = []
    for s in sorted(sums, key=lambda k: (-counts[k], k)):
        mean = sums[s] / counts[s]
        rows.append({"surface": s, "count": counts[s],
                     "alpha_h_softmax": float(mean[0]),
                     "alpha_d_rnn": float(mean[1]),
                     "alpha_mog": float(mean[2])})
    return rows


def write_selection_csv(path: str, rows: Sequence[dict]):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["surface", "count", "alpha_h_softmax", "alpha_d_rnn", "alpha_mog"])
        for r in rows:
            w.writerow([r["surface"], r["count"], repr(r["alpha_h_softmax"]),
                        repr(r["alpha_d_rnn"]), repr(r["alpha_mog"])])


# -- full report ---------------------------------------------------------------
def evaluate(model: NumerateLM,
             test_corpus: Sequence[Sequence[Token]],
             train_corpus: Sequence[Sequence[Token]],
             coverage: float = 0.9) -> dict:
    """End-to-end EvalReport: PP/APP per class, number-line regression over
    the candidate set, and the test-corpus first-digit table."""
    vocab = model.vocab
    records = score_corpus(model, test_corpus)
    oov_sets = oov_type_sets(test_corpus, vocab)
    oov_sizes = {cls: len(types) for cls, types in oov_sets.items()}
    open_num = model.open_numeral_vocab
    pp = {f: perplexity(records, f) for f in CLASS_FILTERS}
    app = {f: adjusted_perplexity(records, oov_sizes, open_num, f)
           for f in CLASS_FILTERS}

    train_numerals = [t for doc in train_corpus for t in doc if t.is_numeral]
    train_values = [t.value for t in train_numerals]
    n, candidates, decoded = 0, [], []
    if train_values and any(r.state is not None for r in records):
        n = choose_decimal_limit([t.precision for t in train_numerals], coverage)
        candidates = build_candidate_set(train_values, vocab, n)
        decoded = decode_corpus(model, records, candidates)
    test_values = [d.truth for d in decoded]
    dist = benford_corpus_distribution(test_values, position=1)
    ref = benford_reference(1)
    digits = range(9) if decoded else ()

    return {
        "model": model.kind,
        "pp": pp,
        "app": app,
        "reg": regression_metrics(test_values, [d.predicted for d in decoded]),
        "benford": {
            "position": 1,
            "digits": {str(d + 1): float(dist[d]) for d in digits},
            "reference": {str(d + 1): float(ref[d]) for d in digits},
        },
        "candidates": {"size": len(candidates), "decimal_limit": n},
        "oov": {
            "word_types": oov_sizes["word"],
            "numeral_types": oov_sizes["numeral"],
            "counting": "distinct OOV types observed in the test split",
            "numeral_class_adjusted": not open_num,
        },
    }


def write_eval_json(report: dict, path: str):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
