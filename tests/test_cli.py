import json
import os
import struct

import numpy as np
import pytest

from numlm import cli
from numlm.cli import main
from numlm.compute import NonFiniteLoss
from numlm.train import CHECKPOINT_FORMAT_VERSION


def read(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.fixture
def pipeline(tmp_path):
    """synth -> prep -> fit-gmm -> train for a small mog model."""
    corpus = tmp_path / "corpus"
    data = tmp_path / "data"
    run = tmp_path / "run"
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
    assert main(["synth", "--spec", str(spec_path), "--seed", "0",
                 "--out", str(corpus)]) == 0
    assert main(["prep", "--input", str(corpus), "--out", str(data),
                 "--vocab-size", "60"]) == 0
    assert main(["fit-gmm", "--data-dir", str(data), "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"model = mog\ndim = 10\nvocab_cap = 60\nmax_epochs = 1\n"
                   f"patience = 1\ndata_dir = {data}\n"
                   f"bank_path = {data}/bank.txt\nout_dir = {run}\nseed = 0\n")
    assert main(["train", "--config", str(cfg)]) == 0
    return tmp_path, corpus, data, run, cfg


class TestSynth:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--seed", "5", "--out", str(out)]) == 0
        for name in ("train.txt", "dev.txt", "test.txt", "slots.json"):
            assert read(a / name) == read(b / name)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("NUMLM_SEED", "5")
        assert main(["synth", "--out", str(a)]) == 0
        monkeypatch.delenv("NUMLM_SEED")
        assert main(["synth", "--seed", "5", "--out", str(b)]) == 0
        assert read(a / "train.txt") == read(b / "train.txt")


class TestPrep:
    def test_idempotent(self, pipeline):
        tmp_path, corpus, data, run, cfg = pipeline
        again = tmp_path / "data2"
        assert main(["prep", "--input", str(corpus), "--out", str(again),
                     "--vocab-size", "60"]) == 0
        for name in ("vocab.txt", "stats.json", "train.txt"):
            assert read(data / name) == read(again / name)

    def test_missing_input_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prep", "--out", "/tmp/x"])
        assert exc.value.code == 2

    def test_unreadable_input_runtime_error(self, tmp_path, capsys):
        rc = main(["prep", "--input", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_manifest_written(self, pipeline):
        tmp_path, corpus, data, run, cfg = pipeline
        out = tmp_path / "manifest_check"
        assert main(["prep", "--input", str(corpus), "--out", str(out),
                     "--vocab-size", "60"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "prep"
        assert manifest["inputs"]  # digests recorded
        for digest in manifest["inputs"].values():
            assert len(digest) == 64


class TestFitGmm:
    def test_bank_line_count_matches_header(self, pipeline):
        tmp_path, corpus, data, run, cfg = pipeline
        lines = (data / "bank.txt").read_text().splitlines()
        n = int(lines[0].split("=")[1])
        assert len(lines) == n + 1

    def test_traces_monotone(self, pipeline):
        tmp_path, corpus, data, run, cfg = pipeline
        traces = json.loads((data / "traces.json").read_text())
        for k, trace in traces.items():
            assert np.all(np.diff(trace) >= -1e-9)

    def test_log_likelihood_drop_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        from test_gmm import force_log_likelihood_drop
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.txt").write_text("".join(f"value {v} seen\n" for v in range(40)))
        force_log_likelihood_drop(monkeypatch)
        rc = main(["fit-gmm", "--data-dir", str(data), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error: K=2: EM log-likelihood decreased" in capsys.readouterr().err


class TestTrainEval:
    def test_eval_writes_report(self, pipeline):
        tmp_path, corpus, data, run, cfg = pipeline
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--data-dir", str(data), "--out", str(run)]) == 0
        report = json.loads((run / "eval.json").read_text())
        assert set(report["pp"]) == {"words", "numerals", "all"}
        assert report["app"]["all"] >= report["pp"]["all"] - 1e-9

    def test_digest_mismatch_warns(self, pipeline, capsys):
        tmp_path, corpus, data, run, cfg = pipeline
        train_file = data / "train.txt"
        train_file.write_text(train_file.read_text() + "value 3.3 seen by w001\n")
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--data-dir", str(data), "--out", str(run)]) == 0
        assert "warning" in capsys.readouterr().err

    def test_version_mismatch_refused(self, pipeline, capsys):
        tmp_path, corpus, data, run, cfg = pipeline
        raw = read(run / "checkpoint.bin")
        magic_len = len(b"NUMLMCKPT\n")
        (n,) = struct.unpack("<Q", raw[magic_len:magic_len + 8])
        header = json.loads(raw[magic_len + 8:magic_len + 8 + n])
        header["format_version"] = 99
        blob = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[:magic_len] + struct.pack("<Q", len(blob)) + blob
                        + raw[magic_len + 8 + n:])
        rc = main(["eval", "--checkpoint", str(bad), "--data-dir", str(data),
                   "--out", str(tmp_path / "evalout")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "99" in err and str(CHECKPOINT_FORMAT_VERSION) in err

    def test_truncated_bank_exits_cleanly(self, pipeline, capsys):
        tmp_path, corpus, data, run, cfg = pipeline
        bank = tmp_path / "truncated_bank.txt"
        bank.write_text("#components=3\n60.0 4.0 2\n")
        cfg.write_text(cfg.read_text().replace(f"{data}/bank.txt", str(bank)))
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bank) in err
        assert "Traceback" not in err

    def test_non_finite_loss_exits_cleanly(self, pipeline, capsys, monkeypatch):
        tmp_path, corpus, data, run, cfg = pipeline

        def diverge(*args, **kwargs):
            raise NonFiniteLoss("non-finite loss at document 3")

        monkeypatch.setattr(cli, "train_model", diverge)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "document 3" in err

    def test_train_determinism_bit_identical(self, pipeline):
        tmp_path, corpus, data, run, cfg = pipeline
        first = read(run / "checkpoint.bin")
        assert main(["train", "--config", str(cfg)]) == 0
        assert read(run / "checkpoint.bin") == first


class TestAnalyze:
    def test_similarity_csv(self, pipeline):
        tmp_path, corpus, data, run, cfg = pipeline
        assert main(["analyze", "--checkpoint", str(run / "checkpoint.bin"),
                     "--mode", "similarity", "--tokens", "value,seen",
                     "--out", str(run)]) == 0
        lines = (run / "similarity.csv").read_text().splitlines()
        assert lines[0] == ",value,seen"
        assert len(lines) == 3

    def test_similarity_skips_combination_unk_numeral(self, pipeline, capsys):
        tmp_path, corpus, data, run, cfg = pipeline
        cfg2 = tmp_path / "cfg_comb.txt"
        run2 = tmp_path / "run_comb"
        cfg2.write_text(cfg.read_text().replace("model = mog", "model = combination")
                        .replace(f"out_dir = {run}", f"out_dir = {run2}"))
        assert main(["train", "--config", str(cfg2)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--checkpoint", str(run2 / "checkpoint.bin"),
                     "--mode", "similarity", "--tokens", "value,<UNK_NUM>",
                     "--out", str(run2)]) == 0
        assert "note: '<UNK_NUM>' has no output embedding, skipped" in \
            capsys.readouterr().err
        lines = (run2 / "similarity.csv").read_text().splitlines()
        assert lines[0] == ",value"

    def test_missing_header_key_exits_cleanly(self, pipeline, capsys):
        tmp_path, corpus, data, run, cfg = pipeline
        raw = read(run / "checkpoint.bin")
        magic_len = len(b"NUMLMCKPT\n")
        (n,) = struct.unpack("<Q", raw[magic_len:magic_len + 8])
        header = json.loads(raw[magic_len + 8:magic_len + 8 + n])
        del header["vocab"]
        blob = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "nokey.bin"
        bad.write_bytes(raw[:magic_len] + struct.pack("<Q", len(blob)) + blob
                        + raw[magic_len + 8 + n:])
        rc = main(["analyze", "--checkpoint", str(bad), "--mode", "similarity",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "nokey.bin" in err and "'vocab'" in err

    def test_truncated_checkpoint_exits_cleanly(self, pipeline, capsys):
        tmp_path, corpus, data, run, cfg = pipeline
        bad = tmp_path / "short.bin"
        bad.write_bytes(read(run / "checkpoint.bin")[:12])
        rc = main(["analyze", "--checkpoint", str(bad), "--mode", "similarity",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_benford_needs_digit_branch(self, pipeline, capsys):
        tmp_path, corpus, data, run, cfg = pipeline
        rc = main(["analyze", "--checkpoint", str(run / "checkpoint.bin"),
                   "--mode", "benford", "--data-dir", str(data),
                   "--out", str(run)])
        assert rc == 1  # mog has no digit branch

    def test_benford_table_on_drnn(self, pipeline):
        tmp_path, corpus, data, run, cfg = pipeline
        cfg2 = tmp_path / "cfg_drnn.txt"
        run2 = tmp_path / "run_drnn"
        cfg2.write_text(f"model = d-rnn\ndim = 10\nvocab_cap = 60\n"
                        f"max_epochs = 1\npatience = 1\ndata_dir = {data}\n"
                        f"out_dir = {run2}\nseed = 0\n")
        assert main(["train", "--config", str(cfg2)]) == 0
        assert main(["analyze", "--checkpoint", str(run2 / "checkpoint.bin"),
                     "--mode", "benford", "--data-dir", str(data),
                     "--out", str(run2)]) == 0
        lines = (run2 / "benford.csv").read_text().splitlines()
        assert lines[0] == "digit,model,reference"
        assert len(lines) == 10  # 9 digit rows
