import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import numlm.autodiff as ad
from numlm.autodiff import Tensor
from numlm.compute import ParamStore, gradient_check
from numlm.embed import (CHAR_INDEX, CHARS, N_CHARS, N_EMIT, CharEncoder,
                         EmbeddingTable, GatedInputEmbed, SymbolLstm)
from numlm.numeral_heads import PrecisionPatternModel
from oracles import symbol_encode, symbol_sequence_log_prob


def test_char_inventory():
    assert N_CHARS == 13
    assert N_EMIT == 12
    assert set("0123456789.") < set(CHARS)
    assert len(CHAR_INDEX) == 13


class TestEmbeddingTable:
    def make(self, n=5, dim=4, seed=0):
        params = ParamStore()
        return params, EmbeddingTable(params, "E", n, dim,
                                      np.random.default_rng(seed))

    def test_index_selects_row(self):
        params, table = self.make()
        for i in range(5):
            np.testing.assert_array_equal(table(i).value, table.E.value[i])

    def test_rows_independent(self):
        params, table = self.make()
        before = table.E.value[1].copy()
        table.E.value[0] += 100.0
        np.testing.assert_array_equal(table.E.value[1], before)

    def test_out_of_range_rejected(self):
        params, table = self.make()
        with pytest.raises(IndexError):
            table(5)

    def test_load_pretrained_fixture(self, tmp_path):
        params, table = self.make(n=3, dim=4)
        path = tmp_path / "vectors.txt"
        path.write_text("the 1.0 2.0 3.0 4.0\n"
                        "cat -1.0 0.0 0.5 0.25\n"
                        "unrelated 9.0 9.0 9.0 9.0\n")
        hits = table.load_pretrained(str(path), ["the", "dog", "cat"])
        assert hits == 2
        np.testing.assert_array_equal(table.E.value[0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(table.E.value[2], [-1.0, 0.0, 0.5, 0.25])

    def test_load_pretrained_dim_mismatch(self, tmp_path):
        params, table = self.make(n=2, dim=4)
        path = tmp_path / "vectors.txt"
        path.write_text("the 1.0 2.0\n")
        with pytest.raises(ValueError):
            table.load_pretrained(str(path), ["the"])


class TestCharEncoder:
    def make(self, dim=4, seed=0):
        params = ParamStore()
        return params, CharEncoder(params, "enc", dim, np.random.default_rng(seed))

    def test_zero_weights_zero_output(self):
        params, enc = self.make()
        for name, t in params.items():
            t.value[:] = 0.0
        np.testing.assert_array_equal(enc("12.5").value, np.zeros(4))

    def test_order_sensitive(self):
        params, enc = self.make(seed=3)
        assert not np.allclose(enc("12").value, enc("21").value)

    def test_unknown_character_rejected(self):
        params, enc = self.make()
        with pytest.raises(ValueError):
            enc("1a2")

    def test_gradient_flows(self):
        params, enc = self.make(dim=3, seed=5)
        err = gradient_check(lambda: ad.tsum(enc("3.5") * enc("3.5")), params)
        assert err < 1e-4


class TestGatedInputEmbed:
    def make(self, dim=4, seed=0):
        params = ParamStore()
        return params, GatedInputEmbed(params, "gate", dim,
                                       np.random.default_rng(seed))

    def test_saturated_gate_returns_token(self):
        params, gate = self.make()
        gate.Wg.value[:] = 0.0
        gate.bg.value[:] = 1e3
        tok, ch = Tensor(np.arange(4.0)), Tensor(-np.ones(4))
        np.testing.assert_allclose(gate(tok, ch).value, tok.value, atol=1e-12)

    def test_closed_gate_returns_char(self):
        params, gate = self.make()
        gate.Wg.value[:] = 0.0
        gate.bg.value[:] = -1e3
        tok, ch = Tensor(np.arange(4.0)), Tensor(-np.ones(4))
        np.testing.assert_allclose(gate(tok, ch).value, ch.value, atol=1e-12)

    def test_zero_gate_params_average(self):
        params, gate = self.make()
        gate.Wg.value[:] = 0.0
        gate.bg.value[:] = 0.0
        tok, ch = Tensor(np.arange(4.0)), Tensor(np.ones(4))
        np.testing.assert_allclose(gate(tok, ch).value,
                                   (tok.value + ch.value) / 2, atol=1e-15)

    def test_gradient_reaches_both_paths(self):
        params = ParamStore()
        rng = np.random.default_rng(2)
        table = EmbeddingTable(params, "tok", 3, 4, rng)
        enc = CharEncoder(params, "char", 4, rng)
        gate = GatedInputEmbed(params, "gate", 4, rng)

        def loss():
            e = gate(table(1), enc("60.5"))
            return ad.tsum(e * e)

        assert gradient_check(loss, params) < 1e-4
        params.zero_grad()
        loss().backward()
        assert np.any(params["tok"].grad[1] != 0.0)
        assert np.any(params["char.chars"].grad != 0.0)


N_SYMBOLS = 6  # five symbols a sequence may hold, then SOS


def make_symbol_lstm(form, dim=4, seed=0):
    """A SymbolLstm in one of its three forms: 'encode', 'emit', 'masked'
    (emitting, with an additive mask over the previous symbol)."""
    params = ParamStore()
    rng = np.random.default_rng(seed)
    mask = rng.normal(size=(N_SYMBOLS, N_SYMBOLS - 1)) if form == "masked" else None
    lstm = SymbolLstm(params, "lstm", "emb", N_SYMBOLS, dim, rng,
                      emit=form != "encode", log_mask=mask)
    return params, lstm


FORMS = ("encode", "emit", "masked")
batches = st.lists(st.lists(st.integers(0, N_SYMBOLS - 2), min_size=1, max_size=9),
                   min_size=1, max_size=6)


class TestSymbolLstmOp:
    """`SymbolLstm.run`: one node over a right-aligned batch, hand-written BPTT."""

    @settings(max_examples=60, deadline=None)
    @given(form=st.sampled_from(FORMS), seqs=batches, seed=st.integers(0, 2 ** 16))
    def test_each_row_equals_its_sequence_alone(self, form, seqs, seed):
        params, lstm = make_symbol_lstm(form, seed=seed)
        h0 = np.random.default_rng(seed + 1).normal(size=(len(seqs), lstm.dim))
        with ad.no_grad():
            batched = lstm.run(lstm.pad(seqs), h0).value
            alone = [lstm.run(lstm.pad([s]), h0[i]).value[0]
                     for i, s in enumerate(seqs)]
        np.testing.assert_allclose(batched, np.array(alone), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("form", FORMS)
    def test_no_grad_records_nothing(self, form):
        params, lstm = make_symbol_lstm(form)
        with ad.no_grad():
            out = lstm.run(lstm.pad([[0, 1], [2]]), Tensor(np.ones(4), requires_grad=True))
        assert out._parents == () and out._backward is None

    def loss_on(self, params, lstm, seqs):
        """Weighted sum of the op's outputs, differentiable in every parameter
        and in the initial state `h0`, per row [N, D] or shared [D]."""
        weights = Tensor(np.random.default_rng(7).normal(
            size=(len(seqs),) if lstm.emit else (len(seqs), lstm.dim)))
        return ad.tsum(lstm.run(lstm.pad(seqs), params["h0"]) * weights)

    SEQS = [[0, 3, 1], [4], [2, 2, 0, 1, 3], [1, 0]]

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("per_row_h0", [True, False])
    def test_gradient_check(self, form, per_row_h0):
        params, lstm = make_symbol_lstm(form, dim=3, seed=11)
        # weights of order one: at the +-0.1 draw some gradients are ~1e-7,
        # below what central differences resolve to the 1e-4 bound
        rng = np.random.default_rng(13)
        for _, t in params.items():
            t.value = rng.normal(size=t.value.shape)
        shape = (len(self.SEQS), 3) if per_row_h0 else (3,)
        params.create("h0", np.random.default_rng(12).normal(size=shape))
        err = gradient_check(lambda: self.loss_on(params, lstm, self.SEQS),
                             params, max_coords_per_param=12)
        assert err < 1e-4

    @pytest.mark.parametrize("form", FORMS)
    def test_matches_graph_mode_oracle(self, form):
        params, lstm = make_symbol_lstm(form, dim=5, seed=21)
        params.create("h0", np.random.default_rng(22).normal(size=(len(self.SEQS), 5)))
        weights = np.random.default_rng(7).normal(
            size=(len(self.SEQS),) if lstm.emit else (len(self.SEQS), 5))

        params.zero_grad()
        loss = self.loss_on(params, lstm, self.SEQS)
        loss.backward()
        fused = {k: t.grad.copy() for k, t in params.items()}

        params.zero_grad()
        total = None
        for i, s in enumerate(self.SEQS):
            h = params["h0"][i]
            if lstm.emit:
                term = symbol_sequence_log_prob(lstm, h, s) * weights[i]
            else:
                term = ad.tsum(symbol_encode(lstm, h, s) * Tensor(weights[i]))
            total = term if total is None else total + term
        total.backward()

        assert float(loss.value) == pytest.approx(float(total.value), abs=1e-12)
        for k, t in params.items():
            np.testing.assert_allclose(fused[k], t.grad, rtol=0, atol=1e-12, err_msg=k)

    def test_pattern_batch_matches_oracle(self):
        # the pattern grammar's masks rule out every symbol after EOS, so
        # the shorter rows' padding steps must stay finite in both passes
        params = ParamStore()
        pat = PrecisionPatternModel(params, "pat", 4, np.random.default_rng(31))
        seqs = [pat.pattern_targets(r) for r in (0, 3, 1)]
        h0 = params.create("h0", np.random.default_rng(32).normal(size=(3, 4)))
        params.zero_grad()
        loss = ad.tsum(pat.run(pat.pad(seqs), h0))
        loss.backward()
        fused = {k: t.grad.copy() for k, t in params.items()}
        params.zero_grad()
        total = None
        for i, s in enumerate(seqs):
            term = symbol_sequence_log_prob(pat, h0[i], s)
            total = term if total is None else total + term
        total.backward()
        assert float(loss.value) == pytest.approx(float(total.value), abs=1e-12)
        for k, t in params.items():
            assert np.all(np.isfinite(fused[k])), k
            np.testing.assert_allclose(fused[k], t.grad, rtol=0, atol=1e-12, err_msg=k)

    def test_char_encoder_matches_oracle(self):
        params, enc = TestCharEncoder().make(dim=4, seed=3)
        symbols = [CHAR_INDEX[ch] for ch in "60.25"] + [CHAR_INDEX["</s>"]]
        with ad.no_grad():
            want = symbol_encode(enc, Tensor(np.zeros(4)), symbols).value
        np.testing.assert_allclose(enc("60.25").value, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(enc.encode(["7", "60.25"]).value[1], want,
                                   rtol=0, atol=1e-12)
