import math

import numpy as np
import pytest

from numlm import evaluation as ev
from numlm.corpus import UNK_NUM, Kind, build_vocabulary, tokenize_corpus
from numlm.gmm import GaussianMixtureBank
from numlm.heads import MODEL_KINDS, NumerateLM
from numlm.numeral_heads import Candidate, DigitRnn

from conftest import numeral_token
from oracles import adjusted_perplexity_redistributed


def rec(logp, kind=Kind.Word, oov=False):
    return ev.TokenRecord(kind, oov, logp)


class TestPerplexity:
    def test_uniform_1000(self):
        records = [rec(math.log(1 / 1000))] * 10
        assert ev.perplexity(records) == pytest.approx(1000.0)

    def test_perfect_predictor(self):
        assert ev.perplexity([rec(0.0)] * 5) == pytest.approx(1.0)

    def test_half_and_eighth(self):
        records = [rec(math.log(0.5)), rec(math.log(0.125))]
        assert ev.perplexity(records) == pytest.approx(4.0)

    def test_zero_probability_token_infinite(self):
        records = [rec(-math.inf), rec(math.log(0.5))]
        assert ev.perplexity(records) == math.inf

    def test_class_filters(self):
        records = [rec(math.log(0.5), Kind.Word),
                   rec(math.log(0.25), Kind.Numeral)]
        assert ev.perplexity(records, "words") == pytest.approx(2.0)
        assert ev.perplexity(records, "numerals") == pytest.approx(4.0)

    def test_at_least_one(self):
        rng = np.random.default_rng(0)
        records = [rec(float(-rng.exponential())) for _ in range(30)]
        assert ev.perplexity(records) >= 1.0


class TestAdjustedPerplexity:
    def test_no_oov_equals_pp(self):
        records = [rec(math.log(0.3)), rec(math.log(0.1), Kind.Numeral)]
        app = ev.adjusted_perplexity(records, {"word": 0, "numeral": 0}, False)
        assert app == ev.perplexity(records)

    def test_fixture_closed_form(self):
        # 10 tokens, 2 OOV words, |OOV_word| = 5, each p = 0.1
        records = [rec(math.log(0.1), oov=(i < 2)) for i in range(10)]
        sizes = {"word": 5, "numeral": 0}
        app = ev.adjusted_perplexity(records, sizes, False)
        expected = math.exp(math.log(10) + 0.2 * math.log(5))
        assert app == pytest.approx(expected, rel=1e-12)
        redis = adjusted_perplexity_redistributed(records, sizes, False)
        assert app == pytest.approx(redis, rel=1e-12)

    def test_open_numeral_model_numeral_app_is_pp(self):
        records = [rec(math.log(0.2), Kind.Numeral, oov=True)] * 4
        sizes = {"word": 0, "numeral": 3}
        app = ev.adjusted_perplexity(records, sizes, True, "numerals")
        assert app == ev.perplexity(records, "numerals")

    def test_randomized_routes_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            records = []
            for _ in range(int(rng.integers(5, 40))):
                kind = Kind.Numeral if rng.random() < 0.4 else Kind.Word
                records.append(rec(float(np.log(rng.uniform(1e-4, 1))),
                                   kind, bool(rng.random() < 0.3)))
            sizes = {"word": int(rng.integers(1, 20)),
                     "numeral": int(rng.integers(1, 20))}
            open_num = bool(rng.random() < 0.5)
            for f in ev.CLASS_FILTERS:
                a = ev.adjusted_perplexity(records, sizes, open_num, f)
                b = adjusted_perplexity_redistributed(records, sizes,
                                                      open_num, f)
                assert a == pytest.approx(b, rel=1e-12)
                assert a >= ev.perplexity(records, f) - 1e-12

    def test_inconsistent_oov_set_rejected(self):
        records = [rec(math.log(0.1), oov=True)]
        with pytest.raises(ValueError):
            ev.adjusted_perplexity(records, {"word": 0, "numeral": 0}, False)


class TestDecimalLimit:
    def test_all_integers(self):
        assert ev.choose_decimal_limit([0, 0, 0]) == 0

    def test_stated_distribution(self):
        # 80% r<=1, 92% r<=2 at coverage 0.9 -> n = 2
        rs = [0] * 40 + [1] * 40 + [2] * 12 + [3] * 8
        assert ev.choose_decimal_limit(rs, 0.9) == 2

    def test_coverage_bounds(self):
        with pytest.raises(ValueError):
            ev.choose_decimal_limit([0], 0.0)


class TestCandidateSet:
    def make_vocab(self, text):
        return build_vocabulary(tokenize_corpus([text]), cap=100)

    def test_base_value_formats(self):
        vocab = self.make_vocab("x 5")
        cands = ev.build_candidate_set([5.0], vocab, n=1)
        assert {c.surface for c in cands} == {"5", "5.0"}

    def test_dedup_across_bases(self):
        vocab = self.make_vocab("x 5 5.0")
        cands = ev.build_candidate_set([5.0, 5.0], vocab, n=1)
        assert {c.surface for c in cands} == {"5", "5.0"}

    def test_percentiles_bounded(self):
        vocab = self.make_vocab("x 1")
        values = list(np.linspace(0, 1000, 5000))
        cands = ev.build_candidate_set(values, vocab, n=0)
        assert len(cands) <= 101  # 100 percentiles + the in-vocab numeral

    def test_empty_train_values_rejected(self):
        vocab = self.make_vocab("x 1")
        with pytest.raises(ValueError):
            ev.build_candidate_set([], vocab, 0)


class TestDecodeNumber:
    def test_single_candidate(self, tiny_vocab):
        model = NumerateLM("h-softmax", tiny_vocab, dim=8, seed=0)
        only = [Candidate("7", 7.0, 0)]
        assert ev.decode_number(model, np.zeros(8), only).surface == "7"

    def test_hsoftmax_matches_branch_lookup(self, tiny_vocab):
        model = NumerateLM("h-softmax", tiny_vocab, dim=8, seed=1)
        hv = np.random.default_rng(2).normal(size=8)
        cands = [Candidate(s, float(s), numeral_token(s).precision)
                 for s in tiny_vocab.in_vocab_numerals()]
        scores = model.numeral_candidate_log_probs(hv, cands)
        branch_lp = model.strategy.numeral_branch.log_probs(hv)
        for i, s in enumerate(tiny_vocab.in_vocab_numerals()):
            assert scores[i] == pytest.approx(branch_lp[i], abs=1e-12)

    def test_tie_breaks_toward_smaller_then_fewer_decimals(self, tiny_vocab):
        model = NumerateLM("h-softmax", tiny_vocab, dim=8, seed=3)
        # zero state scores all OOV candidates identically (all map to UNK)
        cands = [Candidate("99.9", 99.9, 1), Candidate("12", 12.0, 0),
                 Candidate("12.0", 12.0, 1)]
        pick = ev.decode_number(model, np.zeros(8), cands)
        assert pick.surface == "12"
        reordered = list(reversed(cands))
        assert ev.decode_number(model, np.zeros(8), reordered).surface == "12"

    def test_mog_narrow_component_decodes_near_peak(self, tiny_vocab):
        bank = GaussianMixtureBank(np.array([58.0]), np.array([0.04]),
                                   np.array([1]))
        model = NumerateLM("mog", tiny_vocab, dim=8, seed=4, bank=bank)
        cands = [Candidate(str(v), float(v), 0) for v in range(49, 69)]
        pick = ev.decode_number(model, np.zeros(8), cands)
        assert abs(pick.value - 58.0) <= 1.0


class TestRegressionMetrics:
    def test_absolute_errors(self):
        m = ev.regression_metrics([3.0, 4.0], [0.0, 0.0])
        assert m["rmse"] == pytest.approx(math.sqrt(12.5))
        assert m["mae"] == pytest.approx(3.5)
        assert m["mdae"] == pytest.approx(3.5)

    def test_percentage_errors(self):
        m = ev.regression_metrics([100.0, 200.0], [90.0, 220.0])
        assert m["mape"] == pytest.approx(10.0)
        assert m["mdape"] == pytest.approx(10.0)

    def test_zero_targets_excluded(self):
        m = ev.regression_metrics([0.0, 100.0], [5.0, 110.0])
        assert m["excluded_zero_targets"] == 1
        assert m["mape"] == pytest.approx(10.0)

    def test_all_zero_targets_undefined(self):
        m = ev.regression_metrics([0.0, 0.0], [1.0, 2.0])
        assert m["mape"] is None and m["mdape"] is None
        assert m["excluded_zero_targets"] == 2

    def test_mae_le_rmse_and_permutation_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(1, 100, 50)
        p = t + rng.normal(0, 5, 50)
        m1 = ev.regression_metrics(list(t), list(p))
        assert m1["mae"] <= m1["rmse"] + 1e-12
        perm = rng.permutation(50)
        m2 = ev.regression_metrics(list(t[perm]), list(p[perm]))
        for k in ("rmse", "mae", "mdae", "mape", "mdape"):
            assert m1[k] == pytest.approx(m2[k], rel=1e-12)

    def test_median_beats_mean_on_skewed_data(self):
        # constant-median predictor has lower MAE than constant-mean
        vals = np.concatenate([np.full(90, 10.0), np.full(10, 1000.0)])
        med = float(np.median(vals))
        mean = float(np.mean(vals))
        m_med = ev.regression_metrics(list(vals), [med] * 100)
        m_mean = ev.regression_metrics(list(vals), [mean] * 100)
        assert m_med["mae"] < m_mean["mae"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.regression_metrics([1.0], [1.0, 2.0])


class TestBenford:
    def test_reference_first_digit(self):
        ref = ev.benford_reference(1)
        assert ref[0] == pytest.approx(math.log10(2), abs=1e-12)
        assert ref.sum() == pytest.approx(1.0, abs=1e-12)

    def test_log_uniform_matches_benford(self):
        rng = np.random.default_rng(4)
        vals = 10.0 ** rng.uniform(0, 6, size=100_000)
        dist = ev.benford_corpus_distribution(vals, 1)
        tv = ev.total_variation(dist, ev.benford_reference(1))
        assert tv < 0.02

    def test_uniform_digit_model_is_flat(self, tiny_vocab):
        model = NumerateLM("d-rnn", tiny_vocab, dim=8, seed=5)
        branch = model.strategy.numeral_branch
        branch.Wout.value[:] = 0.0
        branch.bout.value[:] = 0.0
        corpus = tokenize_corpus(["the value is 58 now"])
        dist = ev.benford_model_distribution(model, corpus)
        np.testing.assert_allclose(dist, 1.0 / 9, atol=1e-12)
        tv = ev.total_variation(dist, ev.benford_reference(1))
        assert tv > 0.1  # maximal Benford violation among smooth models

    def test_significant_digit_positions(self):
        assert ev.significant_digit(0.00345, 1) == 3
        assert ev.significant_digit(0.00345, 2) == 4
        assert ev.significant_digit(2018.0, 1) == 2
        assert ev.significant_digit(0.0, 1) is None


class TestSimilarity:
    def test_diagonal_and_symmetry(self, tiny_vocab):
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=6)
        surfaces = tiny_vocab.in_vocab_numerals()
        labels, matrix, skipped = ev.embedding_similarity_report(model, surfaces)
        assert labels == surfaces and not skipped
        np.testing.assert_allclose(np.diag(matrix), 1.0, atol=1e-12)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_unknown_token_skipped(self, tiny_vocab):
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=6)
        labels, matrix, skipped = ev.embedding_similarity_report(
            model, ["60.5", "unseen-token"])
        assert skipped == ["unseen-token"]
        assert labels == ["60.5"]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_rows_per_kind(self, kind, tiny_vocab, tiny_bank):
        model = NumerateLM(kind, tiny_vocab, dim=8, seed=6, bank=tiny_bank)
        surfaces = tiny_vocab.words + tiny_vocab.numerals + ["unseen"]
        n_words = tiny_vocab.n_words
        strategy = model.strategy
        branch = getattr(strategy, "numeral_branch", None)
        want = {}
        for i, s in enumerate(surfaces[:-1]):
            if not model.hierarchical:
                want[s] = strategy.E_out.value[i]
            elif i < n_words:
                want[s] = strategy.words.E_out.value[i]
            elif kind.startswith("h-softmax"):
                want[s] = branch.E_out.value[i - n_words]
            elif kind == "combination" and s != UNK_NUM:
                want[s] = branch.closed.E_out.value[branch.closed.rows[s]]
        kept, rows, skipped = ev.output_embedding_rows(model, surfaces)
        assert kept == list(want)
        assert skipped == [s for s in surfaces if s not in want]
        for s, row in zip(kept, rows):
            np.testing.assert_array_equal(row, want[s])

    def test_digit_report_shape(self, tiny_vocab):
        model = NumerateLM("d-rnn", tiny_vocab, dim=8, seed=7)
        labels, matrix = ev.digit_similarity_report(model)
        assert labels == [str(d) for d in range(10)]
        assert matrix.shape == (10, 10)


class TestStrategySelection:
    def test_zero_gate_uniform_thirds(self, tiny_vocab, tiny_bank):
        model = NumerateLM("combination", tiny_vocab, dim=8, seed=8,
                           bank=tiny_bank)
        model.strategy.numeral_branch.A.value[:] = 0.0
        corpus = tokenize_corpus(["the value is 60.5 today",
                                  "the value is 58 now"])
        rows = ev.strategy_selection(model, corpus)
        for row in rows:
            for key in ("alpha_h_softmax", "alpha_d_rnn", "alpha_mog"):
                assert row[key] == pytest.approx(1.0 / 3, abs=1e-12)

    def test_rows_sum_to_one(self, tiny_vocab, tiny_bank):
        model = NumerateLM("combination", tiny_vocab, dim=8, seed=9,
                           bank=tiny_bank)
        corpus = tokenize_corpus(["the value is 60.5 today"])
        rows = ev.strategy_selection(model, corpus)
        for row in rows:
            total = (row["alpha_h_softmax"] + row["alpha_d_rnn"]
                     + row["alpha_mog"])
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_requires_combination(self, tiny_vocab):
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=0)
        with pytest.raises(ValueError):
            ev.strategy_selection(model, [])


class TestEvalReport:
    def test_structure_and_invariants(self, tiny_vocab, tiny_corpus, tiny_bank):
        model = NumerateLM("h-softmax", tiny_vocab, dim=8, seed=10)
        report = ev.evaluate(model, tiny_corpus, tiny_corpus)
        for section in ("pp", "app", "reg", "benford", "candidates", "oov"):
            assert section in report
        for f in ev.CLASS_FILTERS:
            assert report["app"][f] >= report["pp"][f] - 1e-12
        assert set(report["reg"]) == {"rmse", "mae", "mdae", "mape", "mdape",
                                      "excluded_zero_targets"}
        assert report["oov"]["numeral_class_adjusted"] is True

    def test_open_model_numeral_app_equals_pp(self, tiny_vocab, tiny_corpus,
                                              tiny_bank):
        model = NumerateLM("mog", tiny_vocab, dim=8, seed=11, bank=tiny_bank)
        report = ev.evaluate(model, tiny_corpus, tiny_corpus)
        assert report["app"]["numerals"] == report["pp"]["numerals"]
        assert report["oov"]["numeral_class_adjusted"] is False

    def test_json_written(self, tmp_path, tiny_vocab, tiny_corpus):
        import json
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=12)
        report = ev.evaluate(model, tiny_corpus, tiny_corpus)
        path = tmp_path / "eval.json"
        ev.write_eval_json(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["pp"]["all"] == pytest.approx(report["pp"]["all"])


class TestOneForward:
    """One grad-free pass per test document feeds every reader."""

    def test_evaluate_scores_each_document_once(self, tiny_vocab, tiny_corpus,
                                                tiny_bank, monkeypatch):
        calls = []
        score_doc = NumerateLM.score_doc

        def counted(self, doc, *args, **kw):
            calls.append(len(doc))
            return score_doc(self, doc, *args, **kw)

        monkeypatch.setattr(NumerateLM, "score_doc", counted)
        test = tiny_corpus + [[]]
        for kind in ("h-softmax+rnn", "combination"):
            model = NumerateLM(kind, tiny_vocab, dim=8, seed=12, bank=tiny_bank)
            calls.clear()
            ev.evaluate(model, test, tiny_corpus)
            assert calls == [len(doc) for doc in tiny_corpus]

    def test_score_corpus_prepares_once(self, tiny_vocab, tiny_corpus,
                                        prepare_calls):
        model = NumerateLM("softmax+rnn", tiny_vocab, dim=8, seed=13)
        ev.score_corpus(model, tiny_corpus)
        assert len(prepare_calls) == 1

    def test_records_keep_numeral_states(self, tiny_vocab, tiny_corpus):
        model = NumerateLM("d-rnn", tiny_vocab, dim=8, seed=14)
        got = [r for r in ev.score_corpus(model, tiny_corpus) if r.state is not None]
        want = [(doc[t], hv) for doc in tiny_corpus
                for t, hv in model.score_doc(doc, collect_numeral_states=True)[1]]
        assert [r.token for r in got] == [tok for tok, _ in want]
        for r, (_, hv) in zip(got, want):
            np.testing.assert_array_equal(r.state, hv)

    @pytest.mark.parametrize("kind", ["d-rnn", "combination"])
    def test_decode_pads_candidates_once(self, kind, tiny_vocab, tiny_corpus,
                                         tiny_bank, monkeypatch):
        pads = []
        pad = DigitRnn.pad

        def counted(self, seqs):
            pads.append(len(seqs))
            return pad(self, seqs)

        monkeypatch.setattr(DigitRnn, "pad", counted)
        model = NumerateLM(kind, tiny_vocab, dim=8, seed=15, bank=tiny_bank)
        records = ev.score_corpus(model, tiny_corpus)
        cands = ev.build_candidate_set([60.5, 58.0, 7.0], tiny_vocab, 1)
        pads.clear()
        decoded = ev.decode_corpus(model, records, cands)
        assert len(decoded) == 4
        assert pads == [len(cands)]
