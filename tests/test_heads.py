import math

import numpy as np
import pytest
from scipy.special import logsumexp

import numlm.autodiff as ad
from numlm.autodiff import Tensor
from numlm.corpus import Kind, Token, tokenize
from numlm.heads import MODEL_KINDS, NumerateLM, canonical_kind

from conftest import numeral_token
from oracles import class_probs


def full_distribution(model):
    """Enumerate p(s) for every vocabulary entry at a fixed state."""
    model.prepare()
    state = model.initial_state()
    state = model.advance(state, tokenize("the")[0])
    h = state[0]
    probs = {}
    with ad.no_grad():
        for idx in range(model.vocab.size):
            surface = model.vocab.surface(idx)
            kind = Kind.Numeral if idx >= model.vocab.n_words else Kind.Word
            if kind is Kind.Numeral and surface != "<UNK_NUM>":
                tok = numeral_token(surface)
            else:
                tok = Token(surface, kind)
            probs[surface] = math.exp(float(model.token_log_prob(h, tok).value))
    return probs


class TestCanonicalKind:
    def test_aliases(self):
        assert canonical_kind("D-RNN") == "d-rnn"
        assert canonical_kind("drnn") == "d-rnn"
        assert canonical_kind("h_softmax") == "h-softmax"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            canonical_kind("transformer")


class TestAdvance:
    def test_deterministic(self, tiny_vocab):
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=0)
        tok = tokenize("the")[0]
        s1 = model.advance(model.initial_state(), tok)
        s2 = model.advance(model.initial_state(), tok)
        np.testing.assert_array_equal(s1[0].value, s2[0].value)

    def test_order_sensitive(self, tiny_vocab):
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=0)
        a, b = tokenize("the value")
        s_ab = model.advance(model.advance(model.initial_state(), a), b)
        s_ba = model.advance(model.advance(model.initial_state(), b), a)
        assert not np.allclose(s_ab[0].value, s_ba[0].value)


class TestFlatSoftmax:
    def test_zero_state_uniform(self, tiny_vocab):
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=0)
        lp = model.strategy.log_probs(np.zeros(8))
        np.testing.assert_allclose(np.exp(lp), 1.0 / tiny_vocab.size, atol=1e-12)

    def test_scaling_h_doubles_logits(self, tiny_vocab):
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=0)
        h = np.random.default_rng(0).normal(size=8)
        with ad.no_grad():
            l1 = model.strategy.logits(Tensor(h)).value
            l2 = model.strategy.logits(Tensor(2 * h)).value
        np.testing.assert_allclose(l2, 2 * l1, atol=1e-12)

    def test_argmax_matches_hand_dot_products(self, tiny_vocab):
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=1)
        h = np.random.default_rng(1).normal(size=8)
        with ad.no_grad():
            logits = model.strategy.logits(Tensor(h)).value
        hand = model.strategy.E_out.value @ h
        np.testing.assert_allclose(logits, hand, atol=1e-12)
        assert int(np.argmax(logits)) == int(np.argmax(hand))

    @pytest.mark.parametrize("kind", ["softmax", "softmax+rnn"])
    def test_distribution_sums_to_one(self, tiny_vocab, kind):
        model = NumerateLM(kind, tiny_vocab, dim=8, seed=2)
        probs = full_distribution(model)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


class TestSoftmaxRnn:
    def test_zero_char_encoder_doubles_word_columns(self, tiny_vocab):
        model = NumerateLM("softmax+rnn", tiny_vocab, dim=8, seed=3)
        strat = model.strategy
        for name, t in model.params.items():
            if name.startswith("out.char"):
                t.value[:] = 0.0
        strat.prepare()
        h = np.random.default_rng(2).normal(size=8)
        with ad.no_grad():
            logits = strat.logits(Tensor(h)).value
        base = strat.E_out.value @ h
        n_words = tiny_vocab.n_words
        np.testing.assert_allclose(logits[:n_words], 2 * base[:n_words], atol=1e-12)
        # in-vocabulary numerals keep base + zero char score
        np.testing.assert_allclose(logits[n_words:-1], base[n_words:-1], atol=1e-12)
        np.testing.assert_allclose(logits[-1], 2 * base[-1], atol=1e-12)

    def test_char_params_touch_only_numeral_columns(self, tiny_vocab):
        model = NumerateLM("softmax+rnn", tiny_vocab, dim=8, seed=3)
        strat = model.strategy
        h = np.random.default_rng(3).normal(size=8)
        strat.prepare()
        with ad.no_grad():
            before = strat.logits(Tensor(h)).value.copy()
        model.params["out.char.chars"].value += 0.5
        strat.prepare()
        with ad.no_grad():
            after = strat.logits(Tensor(h)).value
        n_words = tiny_vocab.n_words
        np.testing.assert_array_equal(after[:n_words], before[:n_words])
        assert not np.allclose(after[n_words:-1], before[n_words:-1])


class TestClassGate:
    def test_zero_b_is_half_half(self, tiny_vocab):
        model = NumerateLM("h-softmax", tiny_vocab, dim=8, seed=0)
        model.strategy.b.value[:] = 0.0
        p_word, p_num = class_probs(model.strategy, Tensor(np.zeros(8)))
        assert p_word == p_num == 0.5

    def test_sum_to_one(self, tiny_vocab):
        model = NumerateLM("h-softmax", tiny_vocab, dim=8, seed=0)
        h = Tensor(np.random.default_rng(4).normal(size=8))
        p_word, p_num = class_probs(model.strategy, h)
        assert p_word + p_num == 1.0

    def test_log3_score_gives_three_quarters(self, tiny_vocab):
        model = NumerateLM("h-softmax", tiny_vocab, dim=8, seed=0)
        model.strategy.b.value[:] = 0.0
        model.strategy.b.value[0] = math.log(3)
        h = np.zeros(8)
        h[0] = 1.0
        _, p_num = class_probs(model.strategy, Tensor(h))
        assert p_num == pytest.approx(0.75, abs=1e-12)


class TestHierarchical:
    @pytest.mark.parametrize("kind", ["h-softmax", "h-softmax+rnn"])
    def test_product_rule(self, tiny_vocab, kind):
        model = NumerateLM(kind, tiny_vocab, dim=8, seed=5)
        model.prepare()
        h = Tensor(np.random.default_rng(5).normal(size=8))
        tok = numeral_token("60.5")
        with ad.no_grad():
            lp = float(model.token_log_prob(h, tok).value)
            _, p_num = class_probs(model.strategy, h)
            branch = float(model.strategy.numeral_branch.log_prob_token(h, tok).value)
        assert lp == pytest.approx(math.log(p_num) + branch, abs=1e-9)

    @pytest.mark.parametrize("kind", ["h-softmax", "h-softmax+rnn"])
    def test_total_mass_one(self, tiny_vocab, kind):
        model = NumerateLM(kind, tiny_vocab, dim=8, seed=6)
        probs = full_distribution(model)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_word_probs_independent_of_numeral_branch(self, tiny_vocab):
        model = NumerateLM("h-softmax", tiny_vocab, dim=8, seed=7)
        h = Tensor(np.random.default_rng(6).normal(size=8))
        word = tokenize("the")[0]
        with ad.no_grad():
            before = float(model.token_log_prob(h, word).value)
        model.params["out.num.E_out"].value += 3.21
        with ad.no_grad():
            after = float(model.token_log_prob(h, word).value)
        assert before == after  # bit-identical

    def test_oov_tokens_never_abort(self, tiny_vocab):
        for kind in ("softmax", "h-softmax", "h-softmax+rnn"):
            model = NumerateLM(kind, tiny_vocab, dim=8, seed=8)
            model.prepare()
            h = Tensor(np.zeros(8))
            with ad.no_grad():
                lp_word = float(model.token_log_prob(h, tokenize("zebra")[0]).value)
                lp_num = float(model.token_log_prob(h, numeral_token("123456")).value)
            assert math.isfinite(lp_word) and math.isfinite(lp_num)


class TestScoring:
    def test_doc_log_probs_use_preceding_context_only(self, tiny_vocab):
        model = NumerateLM("softmax", tiny_vocab, dim=8, seed=9)
        doc = tokenize("the value is 58 now")
        logps, _ = model.score_doc(doc)
        # first token scored from the zero initial state
        with ad.no_grad():
            lp0 = float(model.token_log_prob(model.initial_state()[0], doc[0]).value)
        assert logps[0] == pytest.approx(lp0, abs=1e-12)
        # changing a later token does not change earlier scores
        doc2 = tokenize("the value is 58 low")
        logps2, _ = model.score_doc(doc2)
        np.testing.assert_allclose(logps[:4], logps2[:4], atol=1e-15)

    def test_every_kind_scores_a_doc(self, tiny_vocab, tiny_bank):
        doc = tokenize("the value is 60.5 now")
        for kind in MODEL_KINDS:
            model = NumerateLM(kind, tiny_vocab, dim=8, seed=10, bank=tiny_bank)
            logps, states = model.score_doc(doc, collect_numeral_states=True)
            assert np.all(np.isfinite(logps))
            assert [p for p, _ in states] == [3]
