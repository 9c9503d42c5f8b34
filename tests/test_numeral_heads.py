import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import numlm.autodiff as ad
from numlm.autodiff import Tensor
from numlm.compute import ParamStore
from numlm.embed import EMIT_CHARS
from numlm.gmm import GaussianMixtureBank
from numlm.heads import NumerateLM
from numlm.numeral_heads import (Candidate, CombinationHead, DigitRnn, MogHead,
                                 PrecisionPatternModel, precision_half_width)

from conftest import numeral_token
from oracles import mog_density, mog_pmf, trie_mass

DIM = 6


def make_drnn(seed=0):
    params = ParamStore()
    return params, DigitRnn(params, "drnn", DIM, np.random.default_rng(seed))


def make_pattern(seed=0):
    params = ParamStore()
    return params, PrecisionPatternModel(params, "pat", DIM,
                                         np.random.default_rng(seed))


def make_mog(bank, seed=0):
    params = ParamStore()
    return params, MogHead(params, "mog", DIM, bank,
                           np.random.default_rng(seed))


def unit_bank():
    return GaussianMixtureBank(np.array([0.0]), np.array([1.0]), np.array([1]))


class TestDigitRnn:
    def test_uniform_conditionals_single_digit(self):
        params, drnn = make_drnn()
        drnn.Wout.value[:] = 0.0
        drnn.bout.value[:] = 0.0
        with ad.no_grad():
            lp = float(drnn.log_prob(Tensor(np.zeros(DIM)), "7").value)
        assert lp == pytest.approx(2 * math.log(1 / 12), abs=1e-12)

    def test_prefix_dominates_extension_under_uniform(self):
        params, drnn = make_drnn()
        drnn.Wout.value[:] = 0.0
        drnn.bout.value[:] = 0.0
        h = Tensor(np.zeros(DIM))
        with ad.no_grad():
            assert float(drnn.log_prob(h, "12").value) <= \
                float(drnn.log_prob(h, "1").value)

    def test_unknown_character_rejected(self):
        params, drnn = make_drnn()
        with pytest.raises(ValueError):
            with ad.no_grad():
                drnn.log_prob(Tensor(np.zeros(DIM)), "1x2")

    def test_trie_mass_telescopes_to_one(self):
        params, drnn = make_drnn(seed=3)
        hv = np.random.default_rng(4).normal(size=DIM)
        assert trie_mass(drnn, hv, depth=4) == pytest.approx(1.0, abs=1e-9)

    def test_trie_mass_matches_explicit_enumeration(self):
        # independent oracle: enumerate every string over the 11 continuing
        # symbols up to length 3 via log_prob, plus continuation mass
        params, drnn = make_drnn(seed=5)
        hv = np.random.default_rng(6).normal(size=DIM)
        h = Tensor(hv)
        symbols = EMIT_CHARS[:-1]  # digits and '.'
        total = 0.0
        with ad.no_grad():
            for length in range(0, 3):
                for tup in itertools.product(symbols, repeat=length):
                    total += math.exp(float(drnn.log_prob(h, "".join(tup)).value))
        assert trie_mass(drnn, hv, depth=2) == pytest.approx(1.0, abs=1e-9)
        # terminated mass is a strict sub-fraction; the rest is continuation
        assert 0.0 < total < 1.0

    def test_candidate_scores_match_sequential_log_prob(self):
        params, drnn = make_drnn(seed=7)
        hv = np.random.default_rng(8).normal(size=DIM)
        cands = [Candidate("7", 7.0, 0), Candidate("60.5", 60.5, 1),
                 Candidate("0.50", 0.5, 2), Candidate("1234", 1234.0, 0)]
        batch = drnn.candidate_log_probs(hv, cands)
        with ad.no_grad():
            seq = [float(drnn.log_prob(Tensor(hv), c.surface).value) for c in cands]
        np.testing.assert_allclose(batch, seq, atol=1e-10)

    def test_unseen_numeral_gets_positive_probability(self):
        params, drnn = make_drnn(seed=9)
        with ad.no_grad():
            lp = float(drnn.log_prob(Tensor(np.zeros(DIM)), "987654.321").value)
        assert math.isfinite(lp)


class TestPrecisionPattern:
    def test_uniform_r0(self):
        params, pat = make_pattern()
        pat.Wout.value[:] = 0.0
        pat.bout.value[:] = 0.0
        with ad.no_grad():
            lp = float(pat.log_prob(Tensor(np.zeros(DIM)), 0).value)
        # INT is forced after SOS; after INT the choice is {'.', EOS}
        assert lp == pytest.approx(math.log(0.5), abs=1e-12)

    def test_uniform_r2(self):
        params, pat = make_pattern()
        pat.Wout.value[:] = 0.0
        pat.bout.value[:] = 0.0
        with ad.no_grad():
            lp = float(pat.log_prob(Tensor(np.zeros(DIM)), 2).value)
        # free choices: '.' vs EOS after INT, then continue vs stop per digit
        assert lp == pytest.approx(3 * math.log(0.5), abs=1e-12)

    def test_precision_mass_telescopes_to_one(self):
        # sum p(r) for r <= R plus the probability of the open prefix that
        # every r > R shares; the masked grammar makes this exactly one
        params, pat = make_pattern(seed=2)
        hv = np.random.default_rng(3).normal(size=DIM)

        def prefix_prob(targets):
            h = hv[None, :]
            c = np.zeros_like(h)
            prev = 4  # SOS
            lp = 0.0
            from scipy.special import log_softmax
            for tgt in targets:
                x = pat.emb.E.value[prev][None, :]
                h, c = pat.cell.step_batch(x, h, c)
                logits = h[0] @ pat.Wout.value.T + pat.bout.value
                lp += log_softmax(logits + pat.MASKS[prev])[tgt]
                prev = tgt
            return math.exp(lp)

        depth = 5
        total = sum(math.exp(lp) for lp in pat.log_probs_upto(hv, depth))
        cont = prefix_prob([0, 1] + [2] * (depth + 1))
        assert total + cont == pytest.approx(1.0, abs=1e-9)

    def test_log_probs_upto_matches_graph(self):
        params, pat = make_pattern(seed=4)
        hv = np.random.default_rng(5).normal(size=DIM)
        fast = pat.log_probs_upto(hv, 3)
        with ad.no_grad():
            slow = [float(pat.log_prob(Tensor(hv), r).value) for r in range(4)]
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_negative_precision_rejected(self):
        params, pat = make_pattern()
        with pytest.raises(ValueError):
            pat.pattern_targets(-1)


class TestMogHead:
    def test_standard_normal_density_at_zero(self):
        params, mog = make_mog(unit_bank())
        q = mog_density(mog, Tensor(np.zeros(DIM)), 0.0)
        assert q == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_duplicate_components_equal_single(self):
        bank2 = GaussianMixtureBank(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                                    np.array([1, 1]))
        params1, mog1 = make_mog(unit_bank())
        params2, mog2 = make_mog(bank2)
        for v in (-1.0, 0.0, 2.5):
            q1 = mog_density(mog1, Tensor(np.zeros(DIM)), v)
            q2 = mog_density(mog2, Tensor(np.zeros(DIM)), v)
            assert q1 == pytest.approx(q2, abs=1e-12)

    def test_density_integrates_to_one(self, tiny_bank):
        params, mog = make_mog(tiny_bank, seed=1)
        h = Tensor(np.random.default_rng(2).normal(size=DIM))
        lo = float((tiny_bank.means - 10 * np.sqrt(tiny_bank.variances)).min())
        hi = float((tiny_bank.means + 10 * np.sqrt(tiny_bank.variances)).max())
        integral, err = quad(lambda v: mog_density(mog, h, v), lo, hi, limit=400)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_pmf_standard_normal_r0(self):
        params, mog = make_mog(unit_bank())
        h = Tensor(np.zeros(DIM))
        expected0 = norm.cdf(0.5) - norm.cdf(-0.5)
        expected1 = norm.cdf(1.5) - norm.cdf(0.5)
        assert mog_pmf(mog, h, 0.0, 0) == pytest.approx(expected0, abs=1e-12)
        assert mog_pmf(mog, h, 1.0, 0) == pytest.approx(expected1, abs=1e-12)

    def test_half_width_r3(self):
        assert precision_half_width(3) == pytest.approx(0.0005)

    def test_off_grid_value_rejected(self):
        params, mog = make_mog(unit_bank())
        with pytest.raises(ValueError):
            mog_pmf(mog, Tensor(np.zeros(DIM)), 0.55, 0)

    def test_product_rule_and_precision_sensitivity(self, tiny_bank):
        params, mog = make_mog(tiny_bank, seed=3)
        h = Tensor(np.random.default_rng(4).normal(size=DIM))
        tok60 = numeral_token("60")
        tok600 = numeral_token("60.0")
        with ad.no_grad():
            lp60 = float(mog.log_prob(h, tok60).value)
            lp600 = float(mog.log_prob(h, tok600).value)
            pattern0 = float(mog.pattern.log_prob(h, 0).value)
        q = mog_pmf(mog, h, 60.0, 0)
        assert lp60 == pytest.approx(pattern0 + math.log(q), abs=1e-9)
        assert lp60 != lp600

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_grid_mass_is_one(self, r):
        # grid over +-10 sigma around the single standard normal component
        params, mog = make_mog(unit_bank(), seed=5)
        hv = np.random.default_rng(6).normal(size=DIM)
        step = 10.0 ** (-r)
        grid = np.round(np.arange(-10.0, 10.0 + step / 2, step), r)
        q = mog.candidate_q_matrix(
            [Candidate(f"{abs(v):.{r}f}", float(v), r) for v in grid])
        pi = np.ones(1)
        assert float((q @ pi).sum()) == pytest.approx(1.0, abs=1e-6)

    def test_coarsening_sums_children(self, tiny_bank):
        # Q(v | r) equals the sum of its 10 children cells at r+1
        params, mog = make_mog(tiny_bank, seed=7)
        hv = np.random.default_rng(8).normal(size=DIM)
        pi = np.exp(mog.B.value @ hv - np.logaddexp.reduce(mog.B.value @ hv))
        for v, r in [(60.0, 0), (58.3, 1)]:
            parent = float(mog._component_cell_masses([v], [r])[0] @ pi)
            child_step = 10.0 ** (-(r + 1))
            children = np.round(v + child_step * (np.arange(10) - 4.5), r + 2)
            kid_masses = mog._component_cell_masses(children,
                                                    np.full(10, r + 1)) @ pi
            assert float(kid_masses.sum()) == pytest.approx(parent, abs=1e-9)

    def test_unseen_value_positive_probability(self, tiny_bank):
        params, mog = make_mog(tiny_bank, seed=9)
        with ad.no_grad():
            lp = float(mog.log_prob(Tensor(np.zeros(DIM)),
                                    numeral_token("123.4")).value)
        assert math.isfinite(lp)


class TestCombinationHead:
    def make(self, tiny_vocab, tiny_bank, seed=0):
        params = ParamStore()
        head = CombinationHead(params, "comb", DIM, tiny_vocab, tiny_bank,
                               np.random.default_rng(seed))
        return params, head

    def test_selection_simplex(self, tiny_vocab, tiny_bank):
        params, head = self.make(tiny_vocab, tiny_bank)
        alpha = head.selection_probs(np.random.default_rng(1).normal(size=DIM))
        assert alpha.shape == (3,)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_saturated_gate_equals_drnn(self, tiny_vocab, tiny_bank):
        params, head = self.make(tiny_vocab, tiny_bank, seed=2)
        head.A.value[:] = 0.0
        head.A.value[1, :] = 1e3  # alpha one-hot on the d-RNN
        hv = np.full(DIM, 0.1)
        h = Tensor(hv)
        tok = numeral_token("58")
        with ad.no_grad():
            combined = float(head.log_prob_token(h, tok).value)
            drnn_only = float(head.drnn.log_prob(h, tok.surface).value)
        assert combined == pytest.approx(drnn_only, abs=1e-9)

    def test_mixture_arithmetic_against_constituents(self, tiny_vocab, tiny_bank):
        params, head = self.make(tiny_vocab, tiny_bank, seed=3)
        hv = np.random.default_rng(4).normal(size=DIM)
        h = Tensor(hv)
        tok = numeral_token("60.5")  # in the closed inventory
        with ad.no_grad():
            alpha = head.selection_probs(hv)
            p_closed = math.exp(float(head.closed_log_prob(h, tok.surface).value))
            p_drnn = math.exp(float(head.drnn.log_prob(h, tok.surface).value))
            p_mog = math.exp(float(head.mog.log_prob(h, tok).value))
            combined = math.exp(float(head.log_prob_token(h, tok).value))
        expected = alpha[0] * p_closed + alpha[1] * p_drnn + alpha[2] * p_mog
        assert combined == pytest.approx(expected, rel=1e-9)

    def test_oov_numeral_drops_closed_term(self, tiny_vocab, tiny_bank):
        params, head = self.make(tiny_vocab, tiny_bank, seed=5)
        hv = np.random.default_rng(6).normal(size=DIM)
        h = Tensor(hv)
        tok = numeral_token("999")  # not in the closed inventory
        assert head.closed_log_prob(h, tok.surface) is None
        with ad.no_grad():
            alpha = head.selection_probs(hv)
            p_drnn = math.exp(float(head.drnn.log_prob(h, tok.surface).value))
            p_mog = math.exp(float(head.mog.log_prob(h, tok).value))
            combined = math.exp(float(head.log_prob_token(h, tok).value))
        assert combined == pytest.approx(alpha[1] * p_drnn + alpha[2] * p_mog,
                                         rel=1e-9)

    def test_candidate_scores_match_tokenwise(self, tiny_vocab, tiny_bank):
        params, head = self.make(tiny_vocab, tiny_bank, seed=7)
        hv = np.random.default_rng(8).normal(size=DIM)
        cands = [Candidate("60.5", 60.5, 1), Candidate("999", 999.0, 0),
                 Candidate("58", 58.0, 0), Candidate("0.3", 0.3, 1)]
        batch = head.candidate_log_probs(hv, cands)
        with ad.no_grad():
            seq = [float(head.log_prob_token(Tensor(hv),
                                             numeral_token(c.surface)).value)
                   for c in cands]
        np.testing.assert_allclose(batch, seq, atol=1e-9)
