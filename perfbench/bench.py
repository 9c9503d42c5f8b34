"""One benchmark run: set-up, measured rounds of train + eval through the
numlm CLI, output checks, and the metrics computed from them.

The caller must have fixed the BLAS thread count and put the checkout's
src/ on sys.path before importing this module.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import numlm.autodiff as ad
from numlm import evaluation as ev
from numlm.cli import main as cli_main
from numlm.corpus import Kind, Token, read_corpus_file, tokenize
from numlm.gmm import BANK_SIZES, GaussianMixtureBank
from numlm.heads import MODEL_KINDS, NumerateLM
from numlm.train import dev_cross_entropy, load_checkpoint

import checks
from reference import read_checkpoint, read_lines, split_tokens
from tracer import Tracer, install_numlm_spans
from workloads import (DIM, DROPOUT, EPOCHS, GMM_KINDS, LEARNING_RATE,
                       MODEL_SEED, Workload)

SAMPLE_DOCS = 6          # test documents fed to the reference forward
SAMPLE_STATES = 2        # numeral positions for checks (b) and (c)
SAMPLE_CANDIDATES = 40   # candidates scored in graph mode per position


class CommandFailed(RuntimeError):
    pass


@dataclass
class CorpusCounts:
    docs: int
    tokens: int
    numerals: int
    types: int
    values: np.ndarray

    @classmethod
    def of(cls, path: str) -> "CorpusCounts":
        """Counted from the generated text with a plain whitespace split, not
        through numlm's tokenizer."""
        docs = [split_tokens(line) for line in read_lines(path)]
        nums = [s for doc in docs for s, is_num in doc if is_num]
        return cls(len(docs), sum(len(d) for d in docs), len(nums),
                   len({s for doc in docs for s, _ in doc}),
                   np.array([float(s) for s in nums]))


@dataclass
class Round:
    train_s: Dict[str, float] = field(default_factory=dict)
    eval_s: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    # traced rounds only: tokens through doc_log_probs per trained kind,
    # numerals decoded per evaluated kind, and the per-layer figures
    tokens_through: Dict[str, int] = field(default_factory=dict)
    decoded: Dict[str, int] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Run:
    def __init__(self, root: str, workload: Workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.dir = os.path.join(root, ".perfbench_runs", workload.name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.corpus_dir = os.path.join(self.dir, "corpus")
        self.data_dir = os.path.join(self.dir, "data")
        self.bank_path = os.path.join(self.data_dir, "bank.txt")
        self.attempted = 0
        self.failed = 0
        self.refusals: List[str] = []
        self.setup_s: Dict[str, float] = {}
        self._digests: Dict[str, str] = {}
        self._log = io.StringIO()

    def kind_dir(self, kind: str) -> str:
        return os.path.join(self.dir, kind.replace("+", "_"))

    # -- operations -------------------------------------------------------
    def cli(self, *argv: str) -> float:
        """Run one numlm command in-process; returns its wall time."""
        self.attempted += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli_main(list(argv))
        except Exception:  # a crash in the program fails this operation
            rc = traceback.format_exc()
        elapsed = time.perf_counter() - start
        self._log.write(f"$ numlm {' '.join(argv)}\n{out.getvalue()}")
        if rc != 0:
            self.failed += 1
            raise CommandFailed(f"numlm {' '.join(argv)} failed: {rc}\n"
                                f"{out.getvalue()}")
        return elapsed

    def check(self, name: str, fn, *args):
        """Run one output check as a counted operation."""
        self.attempted += 1
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.refusals.append(f"{name}: {exc}")

    # -- set-up -----------------------------------------------------------
    def setup(self):
        spec_path = os.path.join(self.dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(self.wl.spec(), f)
        self.setup_s["synth"] = self.cli(
            "synth", "--spec", spec_path, "--seed", str(self.seed),
            "--out", self.corpus_dir)
        self.setup_s["prep"] = self.cli(
            "prep", "--input", self.corpus_dir, "--out", self.data_dir,
            "--vocab-size", str(self.wl.vocab_cap))
        if self.wl.needs_bank:
            self.setup_s["fit-gmm"] = self.cli(
                "fit-gmm", "--data-dir", self.data_dir, "--out", self.data_dir)
        for kind in self.wl.kinds:
            os.makedirs(self.kind_dir(kind), exist_ok=True)
            with open(self.config_path(kind), "w", encoding="utf-8") as f:
                f.write("\n".join([
                    f"model = {kind}", f"dim = {DIM}",
                    f"vocab_cap = {self.wl.vocab_cap}", f"dropout = {DROPOUT}",
                    f"lr = {LEARNING_RATE}",
                    f"patience = {EPOCHS}",
                    f"max_epochs = {EPOCHS}", f"seed = {MODEL_SEED}",
                    f"data_dir = {self.data_dir}",
                    f"bank_path = {self.bank_path if kind in GMM_KINDS else ''}",
                    f"out_dir = {self.kind_dir(kind)}", ""]))

    def config_path(self, kind: str) -> str:
        return os.path.join(self.kind_dir(kind), "run.cfg")

    def checkpoint_path(self, kind: str) -> str:
        return os.path.join(self.kind_dir(kind), "checkpoint.bin")

    def eval_path(self, kind: str) -> str:
        return os.path.join(self.kind_dir(kind), "eval.json")

    # -- measured rounds ----------------------------------------------------
    def round(self, tracer: Optional[Tracer] = None) -> Round:
        """`numlm train` then `numlm eval` for every kind; later rounds must
        reproduce the first round's checkpoint and eval.json bytes."""
        r = Round()
        start = time.perf_counter()
        counts = tracer.counts if tracer else {}
        tokens_key = ("model.doc_log_probs", "train")
        decoded_key = ("evaluation.decode", "eval")
        for kind in self.wl.kinds:
            if tracer:
                tracer.phase = "train"
                before = counts[tokens_key]
            r.train_s[kind] = self.cli("train", "--config", self.config_path(kind))
            if tracer:
                r.tokens_through[kind] = counts[tokens_key] - before
                tracer.phase = "eval"
                before = counts[decoded_key]
            r.eval_s[kind] = self.cli(
                "eval", "--checkpoint", self.checkpoint_path(kind),
                "--data-dir", self.data_dir, "--out", self.kind_dir(kind))
            if tracer:
                r.decoded[kind] = counts[decoded_key] - before
        r.wall_s = time.perf_counter() - start
        for kind in self.wl.kinds:
            for path in (self.checkpoint_path(kind), self.eval_path(kind)):
                digest = _sha256(path)
                if path in self._digests:
                    self.check(f"rerun {path}", checks.rerun_identical,
                               path, self._digests[path], digest)
                else:
                    self._digests[path] = digest
        return r

    def write_log(self):
        with open(os.path.join(self.dir, "cli.log"), "w", encoding="utf-8") as f:
            f.write(self._log.getvalue())

    # -- output checks --------------------------------------------------------
    def output_checks(self, train: CorpusCounts) -> List[Tuple[str, Callable, tuple]]:
        """Every output check (a)-(f) with the outputs it judges, gathered
        from the files of the last round."""
        sample = self._sample_test_docs()
        dev = read_corpus_file(os.path.join(self.data_dir, "dev.txt"))
        train_docs = read_corpus_file(os.path.join(self.data_dir, "train.txt"))
        train_nums = [t for doc in train_docs for t in doc if t.is_numeral]
        out = []
        for kind in self.wl.kinds:
            out += self._kind_checks(kind, sample, dev, train_nums)
        if self.wl.needs_bank:
            with open(os.path.join(self.data_dir, "traces.json"),
                      encoding="utf-8") as f:
                traces = json.load(f)
            means = np.array([float(line.split()[0]) for line in
                              read_lines(self.bank_path)[1:]])
            out.append(("(d) EM", checks.em_fits, (traces, means, train.values)))
        out.append((f"(f) {self.wl.name}", checks.workload_property,
                    (self.wl.name, self._facts(train))))
        return out

    def _sample_test_docs(self) -> List[str]:
        """Test lines for the reference forward: half of them with a
        numeral (where the numeral checks need states), half without."""
        lines = read_lines(os.path.join(self.data_dir, "test.txt"))
        rng = np.random.default_rng(self.seed)
        has_num = [any(n for _, n in split_tokens(line)) for line in lines]
        picks = []
        for want in (True, False):
            pool = [i for i, h in enumerate(has_num) if h is want]
            picks += rng.choice(pool, size=min(SAMPLE_DOCS // 2, len(pool)),
                                replace=False).tolist()
        return [lines[i] for i in sorted(picks)]

    def _kind_checks(self, kind, sample, dev, train_nums):
        path = self.checkpoint_path(kind)
        header, arrays = read_checkpoint(path)
        model, config, _ = load_checkpoint(path)
        docs = [tokenize(line) for line in sample]
        ref_docs = [split_tokens(line) for line in sample]
        states = [model.score_doc(doc, collect_numeral_states=True)[1]
                  for doc in docs]
        out = []
        if model.open_numeral_vocab:
            out.append((f"(a) {kind}", checks.reference_states,
                        (header, arrays, ref_docs, states)))
        else:
            logps = [np.array([r.logp for r in ev.score_corpus(model, [doc])])
                     for doc in docs]
            out.append((f"(a) {kind}", checks.reference_scores,
                        (header, arrays, ref_docs, logps)))

        flat = [hv for doc_states in states for _, hv in doc_states]
        picked = [flat[i] for i in np.linspace(0, len(flat) - 1,
                                                 SAMPLE_STATES, dtype=int)]
        n = ev.choose_decimal_limit([t.precision for t in train_nums], 0.9)
        cands = ev.build_candidate_set([t.value for t in train_nums],
                                       model.vocab, n)
        with open(self.eval_path(kind), encoding="utf-8") as f:
            decoded_over = json.load(f)["candidates"]["size"]
        out.append((f"(b) {kind} candidate set", checks.count_matches,
                    ("candidate set size", len(cands), decoded_over)))
        step = max(1, len(cands) // SAMPLE_CANDIDATES)
        some = cands[::step]
        batched, graph, full = [], [], []
        for hv in picked:
            batched.append(model.numeral_candidate_log_probs(hv, cands))
            with ad.no_grad():
                if model.open_numeral_vocab:
                    graph.append(_graph_branch(model, hv, some))
                else:
                    full.append(_graph_full(model, hv))
                    graph.append(_graph_closed(model, hv, some, full[-1]))
        if model.open_numeral_vocab:
            out.append((f"(b) {kind}", checks.open_normalisation, (batched,)))
        else:
            out.append((f"(b) {kind}", checks.closed_normalisation, (full,)))
        out.append((f"(c) {kind}", checks.candidate_scores,
                    ([b[::step] for b in batched], graph)))

        bank = (GaussianMixtureBank.load(config.bank_path)
                if config.bank_path else None)
        untrained = NumerateLM(kind, model.vocab, config.dim, seed=config.seed,
                               bank=bank)
        out.append((f"(e) {kind}", checks.dev_improves,
                    (header["extra"]["history"], EPOCHS,
                     dev_cross_entropy(untrained, dev))))
        return out

    def _facts(self, train: CorpusCounts) -> dict:
        header = read_checkpoint(self.checkpoint_path(self.wl.kinds[0]))[0]
        numerals = header["vocab"]["numerals"]
        facts = {
            "vocab_cap": self.wl.vocab_cap,
            "vocab_size": len(header["vocab"]["words"]) + len(numerals),
            "train_types": train.types,
            "numeral_share": train.numerals / train.tokens,
            "in_vocab_numerals": len(numerals) - 1,
        }
        if self.wl.needs_bank:
            facts["bank_size"] = len(read_lines(self.bank_path)) - 1
            facts["full_bank_size"] = sum(BANK_SIZES)
        return facts

    # -- metrics --------------------------------------------------------------
    def eval_reports(self) -> Dict[str, dict]:
        out = {}
        for kind in self.wl.kinds:
            with open(self.eval_path(kind), encoding="utf-8") as f:
                out[kind] = json.load(f)
        return out

    def end_to_end(self, rounds: List[Round], setup_s: float, peak_rss_mb: float,
                   train: CorpusCounts, test: CorpusCounts) -> Dict[str, tuple]:
        k, e = len(self.wl.kinds), EPOCHS
        reports = self.eval_reports()
        return {
            "setup_s": (setup_s, "s"),
            "train_tok_per_s": (k * e * train.tokens / sum(
                _fastest(rounds, lambda r: r.train_s[kind])
                for kind in self.wl.kinds), "tok/s"),
            "eval_tok_per_s": (k * test.tokens / sum(
                _fastest(rounds, lambda r: r.eval_s[kind])
                for kind in self.wl.kinds), "tok/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "test_nats_per_tok": (statistics.fmean(
                math.log(rep["pp"]["all"]) for rep in reports.values()),
                "nats/token"),
        }


def _graph_full(model, hv) -> np.ndarray:
    """log p of every vocabulary entry through token_log_prob."""
    vocab, h = model.vocab, ad.Tensor(hv)
    return np.array([
        float(model.token_log_prob(h, Token(
            vocab.surface(i),
            Kind.Numeral if i >= vocab.n_words else Kind.Word)).value)
        for i in range(vocab.size)])


def _graph_closed(model, hv, cands, full) -> np.ndarray:
    """Per-candidate log p(surface | numeral class) in graph mode."""
    vocab = model.vocab
    if model.hierarchical:
        return _graph_branch(model, hv, cands)
    class_mass = np.logaddexp.reduce(full[vocab.n_words:])
    return np.array([full[vocab.index_of(c.surface, vocab.unk_numeral_index)]
                     - class_mass for c in cands])


def _graph_branch(model, hv, cands) -> np.ndarray:
    branch, h = model.strategy.numeral_branch, ad.Tensor(hv)
    return np.array([float(branch.log_prob_token(
        h, Token(c.surface, Kind.Numeral, c.value, c.precision)).value)
        for c in cands])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, run: Run, train: CorpusCounts,
                  test: CorpusCounts) -> Dict[str, float]:
    """Per-layer figures of one traced round."""
    k, e = len(run.wl.kinds), EPOCHS
    self_s, total_s, T = tracer.self_s, tracer.total_s, tracer
    decode_s = total_s[("evaluation.decode", "eval")]
    return {
        "embed.input_s": self_s[("embed.input", "train")],
        "compute.lstm_s": self_s[("compute.lstm", "train")],
        "heads.strategy_s": self_s[("heads.strategy", "train")],
        "numeral_heads.branch_s": total_s[("numeral_heads.branch", "train")],
        "heads.prepare_s": T.across_phases(total_s, "heads.prepare"),
        "autodiff.backward_s": total_s[("autodiff.backward", "train")],
        "autodiff.tensors_per_tok":
            T.counts[("autodiff.tensors", "train")] / (k * e * train.tokens),
        "compute.adam_s": total_s[("compute.adam", "train")],
        "train.dev_s": total_s[("train.dev", "train")],
        "train.checkpoint_s": T.across_phases(total_s, "train.checkpoint"),
        "evaluation.score_s": total_s[("evaluation.score", "eval")],
        "evaluation.decode_s": decode_s,
        "evaluation.decode_num_per_s":
            T.counts[("evaluation.decode", "eval")] / decode_s,
        "numeral_heads.candidates_s":
            total_s[("numeral_heads.candidates", "eval")],
        "evaluation.forward_per_doc":
            T.calls[("model.score_doc", "eval")] / (k * test.docs),
    }


LAYER_UNITS = {
    "synth.generate_s": "s", "corpus.prep_s": "s", "gmm.fit_s": "s",
    "gmm.em_iters": "count", "embed.input_s": "s", "compute.lstm_s": "s",
    "heads.strategy_s": "s", "numeral_heads.branch_s": "s",
    "heads.prepare_s": "s", "autodiff.backward_s": "s",
    "autodiff.tensors_per_tok": "count", "compute.adam_s": "s",
    "train.dev_s": "s", "train.checkpoint_s": "s", "evaluation.score_s": "s",
    "evaluation.decode_s": "s", "evaluation.decode_num_per_s": "numerals/s",
    "numeral_heads.candidates_s": "s", "evaluation.forward_per_doc": "ratio",
    "evaluation.candidates": "count",
    **{f"heads.{kind.replace('+', '_')}.{path}_tok_per_s": "tok/s"
       for kind in MODEL_KINDS for path in ("train", "eval")},
    "trace.overhead_pct": "%",
}


def _fastest(rounds: List[Round], fn) -> float:
    """Every round repeats the same calls, so the same call differs from
    round to round only by how much other load on the host slowed it; its
    fastest time is the least disturbed measurement of the program."""
    return min(fn(r) for r in rounds)


def _mean_of(rounds: List[Round], fn) -> float:
    return sum(fn(r) for r in rounds) / len(rounds)


def execute(root: str, workload: Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """Set up, run whole rounds while the next one should end within
    `seconds` (at least one), check the outputs and return the result
    object. In a traced run every untraced round is followed by the same
    round with spans installed."""
    run = Run(root, workload, seed)
    # the process's one (cold) set-up: synth, prep and fit-gmm up to the
    # first `numlm train`
    start = time.perf_counter()
    run.setup()
    setup_s = time.perf_counter() - start
    train = CorpusCounts.of(os.path.join(run.corpus_dir, "train.txt"))
    test = CorpusCounts.of(os.path.join(run.corpus_dir, "test.txt"))

    rounds: List[Round] = []
    traced: List[Round] = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        rounds.append(run.round())
        if tracer:
            install_numlm_spans(tracer)
            try:
                r = run.round(tracer)
            finally:
                tracer.uninstall()
            r.layers = layer_metrics(tracer, run, train, test)
            tracer.reset()
            traced.append(r)
        # start another round only if it should end within `seconds`
        now = time.perf_counter()
        if now - start + (now - step) > seconds:
            break
    rss = peak_rss_mb()

    for name, fn, check_args in run.output_checks(train):
        run.check(name, fn, *check_args)
    for r in traced:
        for kind, n in r.tokens_through.items():
            run.check(f"traced tokens {kind}", checks.count_matches,
                      "tokens through doc_log_probs",
                      EPOCHS * train.tokens, n)
        for kind, n in r.decoded.items():
            run.check(f"traced numerals {kind}", checks.count_matches,
                      "numerals decoded", test.numerals, n)
    run.write_log()

    if tracer:
        tracer.write_spans(os.path.join(run.dir, "spans.tsv"))
        values = traced_metrics(run, rounds, traced, train, test)
        metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    else:
        metrics = run.end_to_end(rounds, setup_s, rss, train, test)
    return {
        "correct": not run.refusals,
        "attempted": run.attempted,
        "failed": run.failed,
        "refusals": run.refusals,
        "rounds": len(rounds),
        "metrics": {name: {"value": float(v), "unit": u}
                    for name, (v, u) in metrics.items()},
    }


def traced_metrics(run: Run, rounds: List[Round], traced: List[Round],
                   train: CorpusCounts, test: CorpusCounts) -> Dict[str, float]:
    e = EPOCHS
    values = {name: _mean_of(traced, lambda r: r.layers[name])
              for name in traced[0].layers}
    values["synth.generate_s"] = run.setup_s["synth"]
    values["corpus.prep_s"] = run.setup_s["prep"]
    values["gmm.fit_s"] = run.setup_s.get("fit-gmm", 0.0)
    values["gmm.em_iters"] = 0
    if run.wl.needs_bank:
        with open(os.path.join(run.data_dir, "traces.json"), encoding="utf-8") as f:
            values["gmm.em_iters"] = sum(len(t) for t in json.load(f).values())
    values["evaluation.candidates"] = statistics.fmean(
        rep["candidates"]["size"] for rep in run.eval_reports().values())
    for kind in MODEL_KINDS:
        label = kind.replace("+", "_")
        ran = kind in run.wl.kinds
        values[f"heads.{label}.train_tok_per_s"] = e * train.tokens / _fastest(
            rounds, lambda r: r.train_s[kind]) if ran else 0.0
        values[f"heads.{label}.eval_tok_per_s"] = test.tokens / _fastest(
            rounds, lambda r: r.eval_s[kind]) if ran else 0.0
    values["trace.overhead_pct"] = 100.0 * (
        _mean_of(traced, lambda r: r.wall_s)
        / _mean_of(rounds, lambda r: r.wall_s) - 1.0)
    return values
