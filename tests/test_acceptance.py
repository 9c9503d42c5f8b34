"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line to stdout (with pytest capture suspended) before
asserting, so a full run always shows one line per criterion.
"""
import itertools
import json
import math
import sys
import time

import numpy as np
import pytest

import numlm.autodiff as ad
from numlm.autodiff import Tensor
from numlm.cli import main as cli_main
from numlm.compute import ParamStore, gradient_check
from numlm.corpus import Kind, build_vocabulary, tokenize, tokenize_corpus
from numlm.gmm import GaussianMixtureBank, build_component_bank, em_fit
from numlm.heads import MODEL_KINDS, NumerateLM
from numlm.numeral_heads import (PATTERN_DIGIT, PATTERN_INT, PATTERN_POINT,
                                 PATTERN_SOS, Candidate, CombinationHead,
                                 DigitRnn, MogHead)
from numlm.synth import generate_synthetic_corpus
from numlm.train import RunConfig, train_model
from numlm import evaluation as ev

from conftest import numeral_token
from oracles import adjusted_perplexity_redistributed, trie_mass


@pytest.fixture
def report(capfd):
    """Report function that prints one PASS/FAIL line per criterion.

    Pytest capture is suspended around the print so the line always
    reaches the real stdout.
    """
    def _report(name, ok, detail=""):
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  [{detail}]"
        with capfd.disabled():
            print(line, flush=True)
    return _report


def doc_vocab_bank():
    doc = tokenize("the value is 60.5 now")
    vocab = build_vocabulary([doc], cap=100)
    bank = GaussianMixtureBank(np.array([7.0, 58.0, 60.5, 40.0]),
                               np.array([4.0, 9.0, 1.0, 400.0]),
                               np.array([2, 2, 4, 4]))
    return doc, vocab, bank


def unit_bank():
    return GaussianMixtureBank(np.array([0.0]), np.array([1.0]), np.array([1]))


def full_vocab_mass(model):
    model.prepare()
    state = model.advance(model.initial_state(), tokenize("the")[0])
    h = state[0]
    total = 0.0
    with ad.no_grad():
        for idx in range(model.vocab.size):
            surface = model.vocab.surface(idx)
            kind = Kind.Numeral if idx >= model.vocab.n_words else Kind.Word
            if kind is Kind.Numeral and surface != "<UNK_NUM>":
                tok = numeral_token(surface)
            else:
                from numlm.corpus import Token
                tok = Token(surface, kind)
            total += math.exp(float(model.token_log_prob(h, tok).value))
    return total


def test_criterion_1_gradient_correctness(report):
    doc, vocab, bank = doc_vocab_bank()
    t0 = time.time()
    worst = 0.0
    for seed, kind in enumerate(MODEL_KINDS):
        model = NumerateLM(kind, vocab, dim=6, seed=seed, bank=bank)

        def loss():
            logps = model.doc_log_probs(doc)
            total = logps[0]
            for lp in logps[1:]:
                total = total + lp
            return total * (-1.0 / len(doc))

        # step chosen in the valley between central-difference truncation
        # error and float64 roundoff for a loss of this magnitude
        err = gradient_check(loss, model.params, h_step=2e-3,
                             rng=np.random.default_rng(seed))
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    report("criterion 1: gradient correctness, all 7 model kinds", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60


def test_criterion_2_normalization_suite(report):
    t0 = time.time()
    doc, vocab, bank = doc_vocab_bank()
    # (a) flat softmax variants sum to 1 over the full vocabulary
    masses = [full_vocab_mass(NumerateLM(k, vocab, dim=6, seed=i))
              for i, k in enumerate(("softmax", "softmax+rnn"))]
    a_err = max(abs(m - 1.0) for m in masses)
    # (b) digit-RNN trie mass to depth 6 plus continuation
    params = ParamStore()
    drnn = DigitRnn(params, "drnn", 6, np.random.default_rng(3))
    hv = np.random.default_rng(4).normal(size=6)
    b_err = abs(trie_mass(drnn, hv, depth=6) - 1.0)
    # (c) discretised mixture grid mass for r in {0, 1, 2} over +-10 sigma
    params = ParamStore()
    mog = MogHead(params, "mog", 6, unit_bank(), np.random.default_rng(5))
    hv = np.random.default_rng(6).normal(size=6)
    pi = np.exp(mog.B.value @ hv - np.logaddexp.reduce(mog.B.value @ hv))
    c_err = 0.0
    grids = {}
    for r in (0, 1, 2):
        step = 10.0 ** (-r)
        grid = np.round(np.arange(-10.0, 10.0 + step / 2, step), r)
        cands = [Candidate(f"{abs(v):.{r}f}", float(v), r) for v in grid]
        grids[r] = cands
        mass = float((mog.candidate_q_matrix(cands) @ pi).sum())
        c_err = max(c_err, abs(mass - 1.0))
    # (d) combination three-way enumeration mass at r_max=2, digit length <= 4
    params = ParamStore()
    head = CombinationHead(params, "comb", 6, vocab, unit_bank(),
                           np.random.default_rng(7))
    hv = np.random.default_rng(8).normal(size=6)
    alpha = head.selection_probs(hv)
    closed_lp = head.closed.E_out.value @ hv
    closed_mass = float(np.exp(closed_lp - np.logaddexp.reduce(closed_lp)).sum())
    drnn_mass = trie_mass(head.drnn, hv, depth=4)
    pat = head.mog.pattern
    pi = np.exp(head.mog.B.value @ hv
                - np.logaddexp.reduce(head.mog.B.value @ hv))
    pattern_lp = pat.log_probs_upto(hv, 2)
    mog_mass = 0.0
    for r in (0, 1, 2):
        grid_mass = float((head.mog.candidate_q_matrix(grids[r]) @ pi).sum())
        mog_mass += math.exp(pattern_lp[r]) * grid_mass
    # mass of every precision r > 2: probability of the shared open prefix
    # INT '.' d d d, computed by stepping the pattern cell independently
    from scipy.special import log_softmax
    h = hv[None, :]
    c = np.zeros_like(h)
    prev = PATTERN_SOS
    lp = 0.0
    for tgt in [PATTERN_INT, PATTERN_POINT] + [PATTERN_DIGIT] * 3:
        x = pat.emb.E.value[prev][None, :]
        h, c = pat.cell.step_batch(x, h, c)
        logits = h[0] @ pat.Wout.value.T + pat.bout.value + pat.MASKS[prev]
        lp += log_softmax(logits)[tgt]
        prev = tgt
    mog_mass += math.exp(lp)
    total = alpha[0] * closed_mass + alpha[1] * drnn_mass + alpha[2] * mog_mass
    d_err = abs(total - 1.0)
    elapsed = time.time() - t0
    ok = a_err < 1e-9 and b_err < 1e-9 and c_err < 1e-6 and d_err < 1e-6 \
        and elapsed < 120
    report("criterion 2: normalization suite", ok,
           f"a {a_err:.1e}, b {b_err:.1e}, c {c_err:.1e}, d {d_err:.1e}, "
           f"{elapsed:.1f}s")
    assert a_err < 1e-9
    assert b_err < 1e-9
    assert c_err < 1e-6
    assert d_err < 1e-6
    assert elapsed < 120


def test_criterion_3_app_oracle_equivalence(report):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        records = []
        for _ in range(int(rng.integers(5, 40))):
            kind = Kind.Numeral if rng.random() < 0.4 else Kind.Word
            records.append(ev.TokenRecord(kind, bool(rng.random() < 0.3),
                                          float(np.log(rng.uniform(1e-4, 1)))))
        sizes = {"word": int(rng.integers(1, 20)),
                 "numeral": int(rng.integers(1, 20))}
        open_num = bool(rng.random() < 0.5)
        for f in ev.CLASS_FILTERS:
            a = ev.adjusted_perplexity(records, sizes, open_num, f)
            b = adjusted_perplexity_redistributed(records, sizes,
                                                  open_num, f)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    records = [ev.TokenRecord(Kind.Word, False, math.log(0.3)),
               ev.TokenRecord(Kind.Numeral, False, math.log(0.1))]
    app = ev.adjusted_perplexity(records, {"word": 0, "numeral": 0}, False)
    exact = app == ev.perplexity(records)
    ok = worst < 1e-12 and exact
    report("criterion 3: APP closed form vs redistribution", ok,
           f"max rel diff {worst:.1e}, empty-OOV APP==PP {exact}")
    assert worst < 1e-12
    assert exact


def test_criterion_4_hierarchical_decoupling(report):
    doc, vocab, bank = doc_vocab_bank()
    model = NumerateLM("h-softmax", vocab, dim=6, seed=7)
    model.prepare()
    states = [np.zeros(6), np.random.default_rng(6).normal(size=6)]
    words = [tokenize(w)[0] for w in ("the", "value", "is", "now")]
    with ad.no_grad():
        before = [float(model.token_log_prob(Tensor(h), w).value)
                  for h in states for w in words]
    for name, t in model.params.items():
        if name.startswith("out.num"):
            t.value += 3.21
    model.prepare()
    with ad.no_grad():
        after = [float(model.token_log_prob(Tensor(h), w).value)
                 for h in states for w in words]
    ok = before == after  # bit-identical
    report("criterion 4: hierarchical branch decoupling", ok,
           f"{len(before)} word probabilities unchanged bit for bit")
    assert before == after


def test_criterion_5_em_monotone_and_recovery(report):
    rng = np.random.default_rng(0)
    monotone = True
    for _ in range(50):
        vals = rng.normal(size=60) * rng.uniform(0.5, 5) + rng.normal(0, 10)
        fit = em_fit(vals, 4)
        if not np.all(np.diff(fit.log_likelihood_trace) >= -1e-9):
            monotone = False
    cluster = np.concatenate([rng.normal(0.0, 0.02, 100),
                              rng.normal(10.0, 0.02, 100)])
    fit = em_fit(cluster, 2)
    means = np.sort(fit.means)
    err = max(abs(means[0] - 0.0), abs(means[1] - 10.0))
    ok = monotone and err < 0.1
    report("criterion 5: EM monotonicity and mean recovery", ok,
           f"50 traces monotone {monotone}, mean err {err:.3f}")
    assert monotone
    assert err < 0.1


# -- criterion 6 corpora -----------------------------------------------------
# Corpus A stresses the closed-vocabulary gap: a huge word vocabulary, one
# template starting with an in-vocabulary numeral (scored from the zero
# state, where flat softmax is stuck at uniform 1/V), one mid-document
# wide-range slot whose values stay out of vocabulary, and filler templates
# that keep numerals rare.
def corpus_a_spec(pool=1430, n_train=4600):
    def choice(tag):
        return {"dist": "choice",
                "values": [f"{tag}{i:03d}" for i in range(pool)]}
    wide = {"dist": "normal", "mean": 600.0, "std": 90.0, "precision": 2,
            "min": 0.5}
    unif = {"dist": "uniform_int", "low": 100, "high": 149}
    return {
        "n_train": n_train, "n_dev": 300, "n_test": 800,
        "filler_word_types": 0,
        "templates": [
            {"label": "level", "weight": 1.05,
             "text": "sensor {c1} and {c2} reported level {x} near {c3} "
                     "during {c4} check",
             "slots": {"x": wide, "c1": choice("sa"), "c2": choice("sb"),
                       "c3": choice("sc"), "c4": choice("sd")}},
            {"label": "load", "weight": 1.0,
             "text": "{n} load carried by unit {c5} with {c6} for {c7} "
                     "and {c8} shift",
             "slots": {"n": unif, "c5": choice("ua"), "c6": choice("ub"),
                       "c7": choice("uc"), "c8": choice("ud")}},
            {"label": "fillerA", "weight": 3.2,
             "text": "crew {f1} noted {f2} with {f3} and {f4} before {f5} "
                     "leaving",
             "slots": {"f1": choice("sa"), "f2": choice("sc"),
                       "f3": choice("ua"), "f4": choice("uc"),
                       "f5": choice("sb")}},
            {"label": "fillerB", "weight": 3.2,
             "text": "staff {f1} logged {f2} beside {f3} and {f4} after "
                     "{f5} review",
             "slots": {"f1": choice("sb"), "f2": choice("sd"),
                       "f3": choice("ub"), "f4": choice("ud"),
                       "f5": choice("sa")}},
        ],
    }


# Corpus B stresses numeral density modelling: every numeral comes from a
# continuous attribute and a small vocabulary cap forces most numeral types
# out of vocabulary even though they are frequent in training.
CORPUS_B_SPEC = {
    "n_train": 2000, "n_dev": 200, "n_test": 1200,
    "filler_word_types": 3000,
    "templates": [
        {"label": "level", "weight": 1.0,
         "text": "sensor {w1} reported level {x} near {w2} today",
         "slots": {"x": {"dist": "normal", "mean": 60.0, "std": 9.0,
                         "precision": 1, "min": 0.5},
                   "w1": {"dist": "filler"}, "w2": {"dist": "filler"}}},
        {"label": "load", "weight": 1.0,
         "text": "unit {w1} carried load {y} during {w2} shift",
         "slots": {"y": {"dist": "normal", "mean": 300.0, "std": 40.0,
                         "precision": 0, "min": 1.0},
                   "w1": {"dist": "filler"}, "w2": {"dist": "filler"}}},
        {"label": "filler", "weight": 2.0,
         "text": "crew {w1} checked {w2} and {w3} before leaving",
         "slots": {"w1": {"dist": "filler"}, "w2": {"dist": "filler"},
                   "w3": {"dist": "filler"}}},
    ],
}


def load_splits(spec, seed, cap):
    corpus = generate_synthetic_corpus(spec, seed)
    train = tokenize_corpus(corpus.lines["train"])
    dev = tokenize_corpus(corpus.lines["dev"])
    test = tokenize_corpus(corpus.lines["test"])
    vocab = build_vocabulary(train, cap=cap)
    nums = [t for doc in test for t in doc if t.is_numeral]
    oov = sum(1 for t in nums if vocab.is_oov(t)) / len(nums)
    n_docs = len(train) + len(dev) + len(test)
    return train, dev, test, vocab, oov, n_docs


def run_model(kind, train, dev, vocab, bank, cap, epochs, lr, seed):
    cfg = RunConfig(model=kind, dim=16, vocab_cap=cap, max_epochs=epochs,
                    patience=epochs, dropout=0.0, lr=lr, seed=seed)
    model, _ = train_model(cfg, train, dev, vocab,
                           bank=bank if kind in ("mog", "combination")
                           else None)
    return model


def corpus_b_trial(seed):
    """One seed of the density corpus: returns (oov, b_ok, c_ok)."""
    train, dev, test, vocab, oov, n_docs = \
        load_splits(CORPUS_B_SPEC, seed, cap=1000)
    assert n_docs >= 2000
    vals = [t.value for doc in train for t in doc if t.is_numeral]
    bank, _ = build_component_bank(vals)
    out = {}
    for kind in ("h-softmax", "d-rnn", "mog", "combination"):
        model = run_model(kind, train, dev, vocab, bank, 1000, 2, 1e-3, seed)
        rep = ev.evaluate(model, test, train)
        out[kind] = (rep["app"]["numerals"], rep["reg"]["mape"])
    b_ok = out["mog"][1] < out["h-softmax"][1]
    floor = min(out[k][0] for k in ("h-softmax", "d-rnn", "mog"))
    c_ok = out["combination"][0] <= floor * 1.05
    return oov, b_ok, c_ok, out


def test_criterion_6_synthetic_end_to_end(report):
    t0 = time.time()
    # (a) closed-vocabulary gap corpus, fixed seed
    train, dev, test, vocab, oov_a, n_docs_a = \
        load_splits(corpus_a_spec(), 0, cap=5500)
    apps = {}
    for kind in ("softmax", "h-softmax"):
        model = run_model(kind, train, dev, vocab, None, 5500, 2, 3e-4, 0)
        recs = ev.score_corpus(model, test)
        sizes = {k: len(v) for k, v in ev.oov_type_sets(test, vocab).items()}
        apps[kind] = ev.adjusted_perplexity(recs, sizes,
                                            model.open_numeral_vocab,
                                            "numerals")
    ratio = apps["softmax"] / apps["h-softmax"]
    a_ok = ratio >= 10.0 and n_docs_a >= 2000 and oov_a >= 0.5
    # (b) + (c) density corpus; 4-of-5-seeds fallback for stochastic training
    oov_b, b_ok, c_ok, _ = corpus_b_trial(0)
    seeds_note = "seed 0"
    if not (b_ok and c_ok):
        results = [(b_ok, c_ok)]
        results += [corpus_b_trial(s)[1:3] for s in range(1, 5)]
        b_ok = sum(r[0] for r in results) >= 4
        c_ok = sum(r[1] for r in results) >= 4
        seeds_note = (f"b {sum(r[0] for r in results)}/5, "
                      f"c {sum(r[1] for r in results)}/5")
    elapsed = time.time() - t0
    ok = a_ok and b_ok and c_ok and oov_b >= 0.5 and elapsed < 1800
    report("criterion 6: synthetic end-to-end", ok,
           f"a ratio {ratio:.1f} (oov {oov_a:.2f}), b/c {seeds_note} "
           f"(oov {oov_b:.2f}), {elapsed:.0f}s")
    assert oov_a >= 0.5 and n_docs_a >= 2000
    assert ratio >= 10.0
    assert oov_b >= 0.5
    assert b_ok
    assert c_ok
    assert elapsed < 1800


def test_criterion_7_benford(report):
    rng = np.random.default_rng(4)
    vals = 10.0 ** rng.uniform(0, 6, size=100_000)
    corpus_tv = ev.total_variation(ev.benford_corpus_distribution(vals, 1),
                                   ev.benford_reference(1))
    spec = {
        "n_train": 300, "n_dev": 40, "n_test": 60,
        "filler_word_types": 30,
        "templates": [
            {"label": "b", "weight": 1.0,
             "text": "entry {w1} recorded {x} units",
             "slots": {"x": {"dist": "log_uniform", "low": 1.0, "high": 1e6,
                             "precision": 0},
                       "w1": {"dist": "filler"}}},
        ],
    }
    corpus = generate_synthetic_corpus(spec, 0)
    train = tokenize_corpus(corpus.lines["train"])
    dev = tokenize_corpus(corpus.lines["dev"])
    test = tokenize_corpus(corpus.lines["test"])
    vocab = build_vocabulary(train, cap=200)
    cfg = RunConfig(model="d-rnn", dim=12, vocab_cap=200, max_epochs=6,
                    patience=6, dropout=0.0, lr=2e-3, seed=0)
    model, _ = train_model(cfg, train, dev, vocab)
    data_dist = ev.benford_corpus_distribution(
        [t.value for doc in train for t in doc if t.is_numeral], 1)
    model_tv = ev.total_variation(ev.benford_model_distribution(model, test),
                                  data_dist)
    ok = corpus_tv < 0.02 and model_tv < 0.1
    report("criterion 7: Benford first-digit behaviour", ok,
           f"corpus TV {corpus_tv:.4f}, model TV {model_tv:.4f}")
    assert corpus_tv < 0.02
    assert model_tv < 0.1


def test_criterion_8_metric_unit_fixtures(report):
    checks = []
    m = ev.regression_metrics([3.0, 4.0], [0.0, 0.0])
    checks.append(abs(m["rmse"] - math.sqrt(12.5)) < 1e-12)
    checks.append(m["mae"] == 3.5 and m["mdae"] == 3.5)
    m = ev.regression_metrics([100.0, 200.0], [90.0, 220.0])
    checks.append(abs(m["mape"] - 10.0) < 1e-12)
    checks.append(abs(m["mdape"] - 10.0) < 1e-12)
    m = ev.regression_metrics([0.0, 100.0], [5.0, 110.0])
    checks.append(m["excluded_zero_targets"] == 1)
    checks.append(abs(m["mape"] - 10.0) < 1e-12)

    def rec(logp, kind=Kind.Word):
        return ev.TokenRecord(kind, False, logp)

    checks.append(abs(ev.perplexity([rec(math.log(1 / 1000))] * 10) - 1000.0)
                  < 1e-9)
    checks.append(ev.perplexity([rec(0.0)] * 5) == 1.0)
    checks.append(abs(ev.perplexity([rec(math.log(0.5)),
                                     rec(math.log(0.125))]) - 4.0) < 1e-12)
    mixed = [rec(math.log(0.5)), rec(math.log(0.25), Kind.Numeral)]
    checks.append(abs(ev.perplexity(mixed, "words") - 2.0) < 1e-12)
    checks.append(abs(ev.perplexity(mixed, "numerals") - 4.0) < 1e-12)
    ok = all(checks)
    report("criterion 8: metric unit fixtures", ok,
           f"{sum(checks)}/{len(checks)} fixtures exact")
    assert all(checks)


def test_criterion_9_determinism(report, tmp_path):
    spec = {
        "n_train": 80, "n_dev": 20, "n_test": 20, "filler_word_types": 20,
        "templates": [
            {"label": "x", "weight": 1.0, "text": "value {x} seen by {w}",
             "slots": {"x": {"dist": "normal", "mean": 60.0, "std": 8.0,
                             "precision": 1},
                       "w": {"dist": "filler"}}},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    corpus = tmp_path / "corpus"
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert cli_main(["synth", "--spec", str(spec_path), "--seed", "0",
                     "--out", str(corpus)]) == 0
    assert cli_main(["prep", "--input", str(corpus), "--out", str(data),
                     "--vocab-size", "60"]) == 0
    assert cli_main(["fit-gmm", "--data-dir", str(data),
                     "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"model = mog\ndim = 10\nvocab_cap = 60\nmax_epochs = 2\n"
                   f"patience = 2\ndata_dir = {data}\n"
                   f"bank_path = {data}/bank.txt\nout_dir = {run}\nseed = 0\n")

    def one_round():
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert cli_main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--data-dir", str(data), "--out", str(run)]) == 0
        return ((run / "checkpoint.bin").read_bytes(),
                (run / "eval.json").read_bytes())

    first = one_round()
    second = one_round()
    ckpt_same = first[0] == second[0]
    eval_same = first[1] == second[1]
    ok = ckpt_same and eval_same
    report("criterion 9: bit-identical reruns", ok,
           f"checkpoint {ckpt_same}, eval.json {eval_same}")
    assert ckpt_same
    assert eval_same
