"""Output checks. Each takes the program's outputs as plain data and raises
CheckFailed when they are wrong, so the self-test can feed it a perturbed
copy and see it refuse."""
from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from reference import ReferenceLM

RTOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(a, b, rtol: float = RTOL) -> bool:
    """Elementwise |a - b| <= rtol * |b| (|b| floored at 1e-3); equal
    infinities match."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    with np.errstate(invalid="ignore"):
        ok = (a == b) | (np.abs(a - b) <= rtol * np.maximum(np.abs(b), 1e-3))
    return bool(np.all(ok))


# (a) independent forward ----------------------------------------------------
def reference_scores(header: dict, arrays: Dict[str, np.ndarray],
                     docs: Sequence[List[Tuple[str, bool]]],
                     program_logps: Sequence[np.ndarray]):
    """Closed kinds: the plain-numpy forward reproduces score_corpus."""
    ref = ReferenceLM(header, arrays)
    require(len(docs) == len(program_logps), "document count differs")
    for i, (doc, got) in enumerate(zip(docs, program_logps)):
        want = ref.doc_log_probs(doc)
        require(_close(got, want),
                f"doc {i}: score_corpus log-probs differ from the reference "
                f"forward by up to {np.max(np.abs(np.asarray(got) - want)):.3g}")


def reference_states(header: dict, arrays: Dict[str, np.ndarray],
                     docs: Sequence[List[Tuple[str, bool]]],
                     program_states: Sequence[List[Tuple[int, np.ndarray]]]):
    """Open kinds: the plain-numpy forward reproduces the hidden states
    score_doc returns at numeral positions."""
    ref = ReferenceLM(header, arrays)
    require(len(docs) == len(program_states), "document count differs")
    for i, (doc, got) in enumerate(zip(docs, program_states)):
        states = ref.hidden_states(doc)
        want = [(t, states[t]) for t, (_, is_num) in enumerate(doc) if is_num]
        require([t for t, _ in got] == [t for t, _ in want],
                f"doc {i}: numeral positions differ")
        for (t, hv), (_, hw) in zip(got, want):
            require(_close(hv, hw),
                    f"doc {i} position {t}: hidden state differs from the "
                    f"reference forward")


# (b) normalisation ----------------------------------------------------------
def closed_normalisation(full_logps: Sequence[np.ndarray]):
    """Probabilities over the whole vocabulary sum to 1 within 1e-9."""
    for i, lp in enumerate(full_logps):
        total = float(np.exp(np.asarray(lp)).sum())
        require(abs(total - 1.0) <= 1e-9,
                f"state {i}: vocabulary mass {total!r} is not 1")


def open_normalisation(candidate_logps: Sequence[np.ndarray]):
    """Candidate log-probs are <= 0 and their mass is at most 1 + 1e-9."""
    for i, lp in enumerate(candidate_logps):
        lp = np.asarray(lp)
        require(bool(np.all(lp <= 0.0)), f"state {i}: a candidate log-prob is > 0")
        total = float(np.exp(lp).sum())
        require(total <= 1.0 + 1e-9,
                f"state {i}: candidate mass {total!r} exceeds 1")


# (c) batched vs graph-mode candidate scores ---------------------------------
def candidate_scores(batched: Sequence[np.ndarray], graph: Sequence[np.ndarray]):
    require(len(batched) == len(graph), "state count differs")
    for i, (b, g) in enumerate(zip(batched, graph)):
        require(_close(b, g),
                f"state {i}: batched candidate scores differ from graph mode")


# (d) EM ---------------------------------------------------------------------
def em_fits(traces: Dict[str, List[float]], bank_means: np.ndarray,
            train_values: np.ndarray):
    for k, tr in traces.items():
        steps = np.diff(np.asarray(tr, dtype=float))
        require(bool(np.all(steps >= -1e-9)),
                f"K={k}: EM log-likelihood decreases by {-steps.min():.3g}")
    lo, hi = float(np.min(train_values)), float(np.max(train_values))
    require(bool(np.all((bank_means >= lo) & (bank_means <= hi))),
            f"a bank mean lies outside the training range [{lo}, {hi}]")


# (e) training helps ---------------------------------------------------------
def dev_improves(history: List[List[float]], epochs: int, untrained_ce: float):
    require(len(history) == epochs,
            f"ran {len(history)} epochs, expected {epochs}")
    final = history[-1][2]
    require(math.isfinite(final) and final < untrained_ce,
            f"final dev CE {final!r} is not below the untrained {untrained_ce!r}")


# (f) workload property ------------------------------------------------------
def workload_property(name: str, facts: dict):
    if name == "wide-vocab":
        require(facts["train_types"] > facts["vocab_cap"]
                and facts["vocab_size"] == facts["vocab_cap"] + 2,
                f"vocabulary not at its cap: {facts}")
    elif name == "open-numeral":
        require(abs(facts["numeral_share"] - 0.09) <= 0.02,
                f"numeral share {facts['numeral_share']:.4f} is not near 0.09")
        require(facts["bank_size"] == facts["full_bank_size"],
                f"bank has {facts['bank_size']} components, not "
                f"{facts['full_bank_size']}: an EM sub-fit was skipped")
    elif name == "char-composed":
        require(facts["in_vocab_numerals"] > 0,
                "no in-vocabulary numerals to compose columns for")
    else:
        raise CheckFailed(f"no property defined for workload {name}")


# counts and reruns ----------------------------------------------------------
def count_matches(what: str, expected: int, observed: int):
    require(expected == observed, f"{what}: expected {expected}, saw {observed}")


def rerun_identical(what: str, first: str, later: str):
    require(first == later, f"{what} changed between rounds")
