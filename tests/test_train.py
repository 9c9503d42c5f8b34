import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numlm.compute import Adam, NonFiniteLoss
from numlm.corpus import build_vocabulary, tokenize_corpus
from numlm.gmm import GaussianMixtureBank
from numlm.heads import MODEL_KINDS, NumerateLM
from numlm.synth import default_spec, generate_synthetic_corpus
from numlm.train import (CHECKPOINT_FORMAT_VERSION, RunConfig, VersionMismatch,
                         dev_cross_entropy, load_checkpoint, save_checkpoint,
                         train_model)


def small_split(n_docs=10):
    lines = [f"item {i} has value {50 + i}" for i in range(n_docs)]
    return tokenize_corpus(lines)


class TestRunConfig:
    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("model = H-SOFTMAX  # canonicalised\n"
                        "\n"
                        "dim = 20\n"
                        "lr = 0.01\n"
                        "data_dir = /tmp/data\n")
        cfg = RunConfig.from_file(str(path))
        assert cfg.model == "h-softmax"
        assert cfg.dim == 20
        assert cfg.lr == 0.01
        assert cfg.data_dir == "/tmp/data"
        assert cfg.dropout == 0.1  # default preserved

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("dim = 20\nbatch_size = 4\n")
        with pytest.raises(ValueError, match="2"):
            RunConfig.from_file(str(path))

    def test_dict_roundtrip(self):
        cfg = RunConfig(model="mog", dim=10, seed=3)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"momentum": 0.9})


class TestTraining:
    def test_epoch_one_loss_near_log_vocab(self):
        corpus = small_split(12)
        vocab = build_vocabulary(corpus, cap=100)
        cfg = RunConfig(model="softmax", dim=10, max_epochs=1, dropout=0.0)
        model, history = train_model(cfg, corpus, corpus, vocab)
        assert history[0].train_ce == pytest.approx(math.log(vocab.size), rel=0.15)

    def test_memorization(self):
        # every sentence is determined by its prefix; the first token is
        # predicted from the zero state and costs ln|V|, so a long sentence
        # amortises that floor below the 0.1 nat target
        line = ("alpha beta gamma delta " * 8).strip()
        corpus = tokenize_corpus([line] * 10)
        vocab = build_vocabulary(corpus, cap=100)
        cfg = RunConfig(model="softmax", dim=24, max_epochs=500, patience=500,
                        dropout=0.0, lr=5e-3)
        model, history = train_model(cfg, corpus, corpus, vocab)
        assert history[-1].train_ce < 0.1

    def test_early_stopping_restores_best(self):
        corpus = small_split(8)
        # dev split disjoint in content so dev loss can worsen
        dev = tokenize_corpus(["other words entirely 7 here"] * 3)
        vocab = build_vocabulary(corpus, cap=100)
        cfg = RunConfig(model="softmax", dim=10, max_epochs=50, patience=2,
                        dropout=0.0, lr=0.05)
        model, history = train_model(cfg, corpus, dev, vocab)
        dev_ces = [h.dev_ce for h in history]
        best = min(dev_ces)
        # stopped within patience epochs of the best epoch
        assert len(dev_ces) <= dev_ces.index(best) + 1 + cfg.patience
        from numlm.train import dev_cross_entropy
        assert dev_cross_entropy(model, dev) == pytest.approx(best, abs=1e-9)

    def test_identical_seeds_bit_identical(self):
        corpus = small_split(6)
        vocab = build_vocabulary(corpus, cap=100)
        cfg = RunConfig(model="h-softmax", dim=8, max_epochs=2, seed=11)
        m1, _ = train_model(cfg, corpus, corpus, vocab)
        m2, _ = train_model(cfg, corpus, corpus, vocab)
        for (k1, t1), (k2, t2) in zip(m1.params.items(), m2.params.items()):
            assert k1 == k2
            np.testing.assert_array_equal(t1.value, t2.value)

    def test_bank_frozen_during_training(self, tiny_bank):
        corpus = small_split(6)
        vocab = build_vocabulary(corpus, cap=100)
        means_before = tiny_bank.means.copy()
        vars_before = tiny_bank.variances.copy()
        cfg = RunConfig(model="mog", dim=8, max_epochs=2)
        model, _ = train_model(cfg, corpus, corpus, vocab, bank=tiny_bank)
        np.testing.assert_array_equal(tiny_bank.means, means_before)
        np.testing.assert_array_equal(tiny_bank.variances, vars_before)
        np.testing.assert_array_equal(model.strategy.numeral_branch.means,
                                      means_before)

    def test_non_finite_loss_names_document(self, monkeypatch):
        corpus = small_split(4)
        vocab = build_vocabulary(corpus, cap=100)
        from numlm import heads
        from numlm.autodiff import Tensor

        def bad_doc_log_probs(self, tokens, **kw):
            return [Tensor(np.array(math.nan)) for _ in tokens]

        monkeypatch.setattr(heads.NumerateLM, "doc_log_probs", bad_doc_log_probs)
        cfg = RunConfig(model="softmax", dim=8, max_epochs=1)
        with pytest.raises(NonFiniteLoss, match="document"):
            train_model(cfg, corpus, corpus, vocab)


class TestCheckpoint:
    def roundtrip(self, tmp_path, kind, bank=None):
        corpus = small_split(5)
        vocab = build_vocabulary(corpus, cap=100)
        cfg = RunConfig(model=kind, dim=8, max_epochs=1, seed=4)
        model, _ = train_model(cfg, corpus, corpus, vocab, bank=bank)
        path = tmp_path / "ck.bin"
        save_checkpoint(str(path), model, cfg, extra={"note": 1})
        return model, cfg, path

    def test_roundtrip_softmax(self, tmp_path):
        model, cfg, path = self.roundtrip(tmp_path, "softmax")
        loaded, lcfg, extra = load_checkpoint(str(path))
        assert lcfg == cfg
        assert extra == {"note": 1}
        assert loaded.vocab.words == model.vocab.words
        for (k1, t1), (k2, t2) in zip(model.params.items(), loaded.params.items()):
            assert k1 == k2
            np.testing.assert_array_equal(t1.value, t2.value)

    def test_roundtrip_mog_embeds_bank(self, tmp_path, tiny_bank):
        model, cfg, path = self.roundtrip(tmp_path, "mog", bank=tiny_bank)
        loaded, _, _ = load_checkpoint(str(path))
        np.testing.assert_array_equal(loaded._bank.means, tiny_bank.means)
        np.testing.assert_array_equal(loaded._bank.variances, tiny_bank.variances)

    def test_save_is_deterministic(self, tmp_path):
        model, cfg, path = self.roundtrip(tmp_path, "softmax")
        path2 = tmp_path / "ck2.bin"
        save_checkpoint(str(path2), model, cfg, extra={"note": 1})
        assert path.read_bytes() == path2.read_bytes()

    def test_version_mismatch_refused(self, tmp_path):
        import json
        import struct
        model, cfg, path = self.roundtrip(tmp_path, "softmax")
        raw = path.read_bytes()
        magic_len = len(b"NUMLMCKPT\n")
        (n,) = struct.unpack("<Q", raw[magic_len:magic_len + 8])
        header = json.loads(raw[magic_len + 8:magic_len + 8 + n])
        header["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        blob = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[:magic_len] + struct.pack("<Q", len(blob)) + blob
                        + raw[magic_len + 8 + n:])
        with pytest.raises(VersionMismatch) as exc:
            load_checkpoint(str(bad))
        assert exc.value.found == CHECKPOINT_FORMAT_VERSION + 1
        assert exc.value.expected == CHECKPOINT_FORMAT_VERSION

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_end_inside_length_field_rejected(self, tmp_path):
        model, cfg, path = self.roundtrip(tmp_path, "softmax")
        bad = tmp_path / "short.bin"
        bad.write_bytes(path.read_bytes()[:12])
        with pytest.raises(ValueError, match="short.bin"):
            load_checkpoint(str(bad))

    def test_end_inside_parameter_rejected(self, tmp_path):
        model, cfg, path = self.roundtrip(tmp_path, "softmax")
        last = list(model.params.names())[-1]
        bad = tmp_path / "cut.bin"
        bad.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match=f"cut.bin.*{last}"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("key", ["format_version", "params", "vocab", "bank",
                                     "config", "kind", "dim", "seed"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        import json
        import struct
        model, cfg, path = self.roundtrip(tmp_path, "softmax")
        raw = path.read_bytes()
        magic_len = len(b"NUMLMCKPT\n")
        (n,) = struct.unpack("<Q", raw[magic_len:magic_len + 8])
        header = json.loads(raw[magic_len + 8:magic_len + 8 + n])
        del header[key]
        blob = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "nokey.bin"
        bad.write_bytes(raw[:magic_len] + struct.pack("<Q", len(blob)) + blob
                        + raw[magic_len + 8 + n:])
        with pytest.raises(ValueError, match=f"nokey.bin.*'{key}'"):
            load_checkpoint(str(bad))


def _tiny_checkpoint(kind: str, seed: int, path: str) -> NumerateLM:
    vocab = build_vocabulary(small_split(3), cap=100)
    bank = GaussianMixtureBank(np.array([50.0, 52.0]), np.array([1.0, 4.0]),
                               np.array([2, 2]))
    model = NumerateLM(kind, vocab, dim=4, seed=seed, bank=bank)
    save_checkpoint(path, model, RunConfig(model=kind, dim=4, seed=seed))
    return model


class TestCheckpointProperties:
    """Only an intact checkpoint loads; any other length is a ValueError
    naming the file."""

    @classmethod
    def setup_class(cls):
        cls.dir = tempfile.TemporaryDirectory()
        path = os.path.join(cls.dir.name, "ck.bin")
        _tiny_checkpoint("combination", 0, path)
        with open(path, "rb") as f:
            cls.raw = f.read()

    @classmethod
    def teardown_class(cls):
        cls.dir.cleanup()

    def _load(self, data: bytes):
        path = os.path.join(self.dir.name, "case.bin")
        with open(path, "wb") as f:
            f.write(data)
        return load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_proper_prefix_rejected(self, data):
        cut = data.draw(st.integers(0, len(self.raw) - 1))
        with pytest.raises(ValueError, match="case.bin"):
            self._load(self.raw[:cut])

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_trailing_bytes_rejected(self, tail):
        with pytest.raises(ValueError, match="case.bin"):
            self._load(self.raw + tail)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(MODEL_KINDS), st.integers(0, 2 ** 32 - 1))
    def test_intact_roundtrip_exact(self, kind, seed):
        path = os.path.join(self.dir.name, "rt.bin")
        model = _tiny_checkpoint(kind, seed, path)
        loaded, cfg, _ = load_checkpoint(path)
        assert (loaded.kind, cfg.seed) == (kind, seed)
        assert loaded.vocab.words == model.vocab.words
        assert loaded.vocab.numerals == model.vocab.numerals
        assert loaded.params.names() == model.params.names()
        for (_, t1), (_, t2) in zip(model.params.items(), loaded.params.items()):
            assert t1.value.tobytes() == t2.value.tobytes()


class TestPreparedColumns:
    """Grad-free passes build the +rnn character columns once, and no read
    sees columns built from other parameter values."""

    def test_dev_pass_prepares_once(self, prepare_calls):
        corpus = small_split(5)
        model = NumerateLM("softmax+rnn", build_vocabulary(corpus, cap=100), dim=8)
        dev_cross_entropy(model, corpus)
        assert len(prepare_calls) == 1

    @staticmethod
    def early_stopped(kind):
        corpus = small_split(8)
        dev = tokenize_corpus(["other words entirely 7 here",
                               "item 3 has value 53"] * 2)
        vocab = build_vocabulary(corpus, cap=100)
        cfg = RunConfig(model=kind, dim=8, max_epochs=30, patience=2,
                        dropout=0.0, lr=0.05, seed=2)
        model, history = train_model(cfg, corpus, dev, vocab)
        dev_ces = [h.dev_ce for h in history]
        # the best parameters are not the last ones trained
        assert dev_ces.index(min(dev_ces)) < len(dev_ces) - 1
        return model, cfg, dev

    @pytest.mark.parametrize("kind", ["softmax+rnn", "h-softmax+rnn"])
    def test_trained_model_scores_like_its_checkpoint(self, tmp_path, kind):
        model, cfg, dev = self.early_stopped(kind)
        save_checkpoint(str(tmp_path / "ck.bin"), model, cfg)
        loaded, _, _ = load_checkpoint(str(tmp_path / "ck.bin"))
        for doc in dev:
            got, _ = model.score_doc(doc)
            want, _ = loaded.score_doc(doc)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["softmax+rnn", "h-softmax+rnn"])
    def test_dev_ce_after_a_step_matches_a_fresh_model(self, kind):
        corpus = small_split(5)
        vocab = build_vocabulary(corpus, cap=100)
        model = NumerateLM(kind, vocab, dim=8, seed=3)
        opt = Adam(model.params, lr=0.05)
        dev_cross_entropy(model, corpus)
        model.params.zero_grad()
        logps = model.doc_log_probs(corpus[0])
        total = logps[0]
        for lp in logps[1:]:
            total = total + lp
        (-total).backward()
        opt.step()
        fresh = NumerateLM(kind, vocab, dim=8, seed=4)
        fresh.params.load_arrays(model.params.snapshot())
        assert dev_cross_entropy(model, corpus) == dev_cross_entropy(fresh, corpus)


class TestSyntheticCorpus:
    def test_seed_determinism(self):
        spec = default_spec(n_train=50, n_dev=10, n_test=10)
        c1 = generate_synthetic_corpus(spec, 9)
        c2 = generate_synthetic_corpus(spec, 9)
        assert c1.lines == c2.lines

    def test_slot_values_match_text(self):
        spec = default_spec(n_train=100, n_dev=10, n_test=10)
        corpus = generate_synthetic_corpus(spec, 1)
        for split, recs in corpus.slots.items():
            for rec in recs:
                piece = corpus.lines[split][rec.doc].split()[rec.token_index]
                assert float(piece) == rec.value

    def test_generated_mean_near_spec(self):
        spec = default_spec(n_train=4000, n_dev=10, n_test=10)
        corpus = generate_synthetic_corpus(spec, 2)
        ef = [r.value for r in corpus.slots["train"] if r.label == "ef"]
        se = 8.0 / math.sqrt(len(ef))
        assert abs(np.mean(ef) - 58.0) < 3 * se + 0.05  # min-clip bias margin

    def test_oov_rate_dial(self):
        # a wide continuous slot yields hundreds of distinct numeral types
        spec = {
            "n_train": 2000, "n_dev": 100, "n_test": 400,
            "filler_word_types": 0,
            "templates": [
                {"label": "x", "weight": 1.0, "text": "reading {x} noted",
                 "slots": {"x": {"dist": "normal", "mean": 500.0, "std": 100.0,
                                 "precision": 1}}},
            ],
        }
        corpus = generate_synthetic_corpus(spec, 3)
        train = tokenize_corpus(corpus.lines["train"])
        test = tokenize_corpus(corpus.lines["test"])
        vocab = build_vocabulary(train, cap=50)
        nums = [t for doc in test for t in doc if t.is_numeral]
        oov = sum(1 for t in nums if vocab.is_oov(t))
        assert oov / len(nums) > 0.8
