"""Timing spans around numlm's public functions, installed from outside the
package for the traced run.

Each wrapper replaces a name where its caller looks it up (a class
attribute for methods, a module global for functions), so nothing under
src/ changes. A span records name, phase, start, end and parent; self time
is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, List, Optional, Tuple

PHASES = ("train", "dev", "eval")


class Tracer:
    def __init__(self):
        self.phase = "train"
        # (id, parent id or -1, name, phase, start, end)
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.self_s = defaultdict(float)    # (name, phase) -> seconds
        self.total_s = defaultdict(float)   # (name, phase) -> seconds
        self.calls = defaultdict(int)       # (name, phase) -> calls
        self.counts = defaultdict(int)      # (counter, phase) -> count
        self._stack: List[list] = []        # [id, start, child seconds]
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def span(self, owner, attr: str, name: str, phase: Optional[str] = None,
             count: Optional[Callable] = None):
        """Time every call of owner.attr as span `name`. `phase` switches the
        tracer's phase for the duration of the call; `count(args, result)`
        returns an amount added to counter `name` in the caller's phase."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                outer = tracer.phase
                sid = len(tracer.spans) + len(tracer._stack)
                parent = tracer._stack[-1][0] if tracer._stack else -1
                frame = [sid, time.perf_counter(), 0.0]
                tracer._stack.append(frame)
                if phase is not None:
                    tracer.phase = phase
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer.phase = outer
                    tracer._stack.pop()
                    dur = end - frame[1]
                    if tracer._stack:
                        tracer._stack[-1][2] += dur
                    key = (name, outer)
                    tracer.self_s[key] += dur - frame[2]
                    tracer.total_s[key] += dur
                    tracer.calls[key] += 1
                    tracer.spans.append((sid, parent, name, outer, frame[1], end))
                if count is not None:
                    tracer.counts[(name, outer)] += count(args, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def counter(self, owner, attr: str, name: str):
        """Count calls of owner.attr per phase without a span (cheap enough
        for Tensor construction)."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.counts[(name, tracer.phase)] += 1
                return fn(*args, **kwargs)
            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reading results ------------------------------------------------------
    def reset(self):
        """Clear the per-layer tables; spans are kept for write_spans."""
        for d in (self.self_s, self.total_s, self.calls, self.counts):
            d.clear()

    @staticmethod
    def across_phases(table, name: str) -> float:
        return sum(table[(name, p)] for p in PHASES)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tphase\tstart_s\tend_s\n")
            for sid, parent, name, phase, start, end in sorted(self.spans):
                f.write(f"{sid}\t{parent}\t{name}\t{phase}\t{start!r}\t{end!r}\n")


def install_numlm_spans(tracer: Tracer):
    """The layer boundaries the per-layer metrics are read from."""
    from numlm import autodiff, cli, compute, evaluation, heads, numeral_heads
    from numlm import train as train_mod

    lm = heads.NumerateLM
    tracer.span(lm, "input_embedding", "embed.input")
    tracer.span(lm, "advance", "compute.lstm")
    tracer.span(lm, "token_log_prob", "heads.strategy")
    tracer.span(lm, "prepare", "heads.prepare")
    tracer.span(lm, "doc_log_probs", "model.doc_log_probs",
                count=lambda args, _: len(args[1]))
    tracer.span(lm, "score_doc", "model.score_doc")
    tracer.span(lm, "numeral_candidate_log_probs", "numeral_heads.candidates")
    for branch in (heads.ClosedNumeralBranch, numeral_heads.DigitRnn,
                   numeral_heads.MogHead, numeral_heads.CombinationHead):
        tracer.span(branch, "log_prob_token", "numeral_heads.branch")
    tracer.span(autodiff.Tensor, "backward", "autodiff.backward")
    tracer.counter(autodiff.Tensor, "__init__", "autodiff.tensors")
    tracer.span(compute.Adam, "step", "compute.adam")
    tracer.span(train_mod, "dev_cross_entropy", "train.dev", phase="dev")
    tracer.span(cli, "save_checkpoint", "train.checkpoint")
    tracer.span(cli, "load_checkpoint", "train.checkpoint")
    tracer.span(evaluation, "score_corpus", "evaluation.score")
    tracer.span(evaluation, "decode_corpus", "evaluation.decode",
                count=lambda args, result: len(result))
