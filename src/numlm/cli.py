"""Command-line entry point.

Subcommands wire the library into reproducible runs:

  synth    generate a synthetic corpus from a generation spec
  prep     tokenise, build the vocabulary, write corpus statistics
  fit-gmm  pretrain the frozen Gaussian mixture component bank
  train    fit a model from a run config, write a checkpoint
  eval     score a test split, write the EvalReport JSON
  analyze  emit Benford / similarity / strategy-selection tables

Every command writes a manifest (config, seed, sha256 input digests,
artifact paths) under --out. Exit codes: 0 success, 1 runtime failure,
2 usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import corpus as corpus_mod
from . import evaluation as ev
from . import synth as synth_mod
from .compute import NonFiniteLoss
from .gmm import GaussianMixtureBank, build_component_bank
from .train import (RunConfig, VersionMismatch, load_checkpoint,
                    save_checkpoint, train_model)

SPLITS = ("train", "dev", "test")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_inputs(paths: List[str]) -> Dict[str, str]:
    return {p: _sha256(p) for p in sorted(set(paths)) if os.path.isfile(p)}


def _write_manifest(out_dir: str, command: str, config: dict, seed: Optional[int],
                    inputs: List[str], artifacts: List[str]):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": _digest_inputs(inputs),
        "artifacts": sorted(artifacts),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _resolve_seed(flag_value: Optional[int], default: int = 0) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("NUMLM_SEED")
    if env is not None:
        return int(env)
    return default


def _split_paths(data_dir: str) -> Dict[str, str]:
    return {s: os.path.join(data_dir, f"{s}.txt") for s in SPLITS}


def _read_splits(data_dir: str, required=SPLITS):
    paths = _split_paths(data_dir)
    out = {}
    for s in required:
        if not os.path.isfile(paths[s]):
            raise FileNotFoundError(f"missing split file {paths[s]}")
        out[s] = corpus_mod.read_corpus_file(paths[s])
    return out


# -- subcommands -------------------------------------------------------------
def cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.spec == "default":
        spec = synth_mod.default_spec()
    elif args.spec == "benford":
        spec = synth_mod.benford_spec()
    else:
        spec = synth_mod.load_spec(args.spec)
    corpus = synth_mod.generate_synthetic_corpus(spec, seed)
    os.makedirs(args.out, exist_ok=True)
    corpus.save(args.out)
    artifacts = [f"{s}.txt" for s in corpus.lines] + ["slots.json"]
    inputs = [] if args.spec in ("default", "benford") else [args.spec]
    _write_manifest(args.out, "synth", {"spec": args.spec}, seed, inputs, artifacts)
    return 0


def cmd_prep(args) -> int:
    if os.path.isdir(args.input):
        in_paths = _split_paths(args.input)
        missing = [p for p in in_paths.values() if not os.path.isfile(p)]
        if missing:
            raise FileNotFoundError(f"missing split files: {missing}")
    else:
        if not os.path.isfile(args.input):
            raise FileNotFoundError(f"input corpus not found: {args.input}")
        in_paths = {"train": args.input}
    splits = {s: corpus_mod.read_corpus_file(p) for s, p in in_paths.items()}
    vocab = corpus_mod.build_vocabulary(splits["train"], args.vocab_size)
    os.makedirs(args.out, exist_ok=True)
    vocab.save(os.path.join(args.out, "vocab.txt"))
    artifacts = ["vocab.txt", "stats.json"]
    for s, toks in splits.items():
        with open(os.path.join(args.out, f"{s}.txt"), "w", encoding="utf-8") as f:
            for doc in toks:
                f.write(" ".join(t.surface for t in doc) + "\n")
        artifacts.append(f"{s}.txt")
    stats = corpus_mod.corpus_stats(splits.get("test", splits["train"]), vocab)
    corpus_mod.write_stats(stats, os.path.join(args.out, "stats.json"))
    d = stats.to_dict()
    print(f"{'instances':<14}{d['n_instances']}")
    print(f"{'max length':<14}{d['max_length']}")
    print(f"{'avg length':<14}{d['avg_length']:.1f}")
    print(f"{'% words':<14}{d['pct_words']:.1f}")
    print(f"{'% numerals':<14}{d['pct_numerals']:.1f}")
    v = d["values"]
    if v["min"] is not None:
        print(f"{'value min':<14}{v['min']}")
        print(f"{'value median':<14}{v['median']}")
        print(f"{'value mean':<14}{v['mean']:.2f}")
        print(f"{'value max':<14}{v['max']}")
    seed = _resolve_seed(args.seed)
    _write_manifest(args.out, "prep",
                    {"input": args.input, "vocab_size": args.vocab_size},
                    seed, list(in_paths.values()), artifacts)
    return 0


def cmd_fit_gmm(args) -> int:
    train_path = os.path.join(args.data_dir, "train.txt")
    if not os.path.isfile(train_path):
        raise FileNotFoundError(f"missing split file {train_path}")
    docs = corpus_mod.read_corpus_file(train_path)
    values = [t.value for doc in docs for t in doc if t.is_numeral]
    if not values:
        raise ValueError("no numeral values in the training split")
    bank, traces = build_component_bank(values)
    os.makedirs(args.out, exist_ok=True)
    bank.save(os.path.join(args.out, "bank.txt"))
    with open(os.path.join(args.out, "traces.json"), "w", encoding="utf-8") as f:
        json.dump({str(k): tr for k, tr in traces.items()}, f, sort_keys=True)
        f.write("\n")
    _write_manifest(args.out, "fit-gmm", {"data_dir": args.data_dir}, None,
                    [train_path], ["bank.txt", "traces.json"])
    print(f"bank: {len(bank.means)} components from {len(traces)} fits")
    return 0


def cmd_train(args) -> int:
    config = RunConfig.from_file(args.config)
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    elif "NUMLM_SEED" in os.environ:
        config.seed = int(os.environ["NUMLM_SEED"])
    if not config.data_dir:
        raise ValueError("config must set data_dir")
    if not config.out_dir:
        raise ValueError("set out_dir in the config or pass --out")
    splits = _read_splits(config.data_dir, required=("train", "dev"))
    vocab = corpus_mod.build_vocabulary(splits["train"], config.vocab_cap)
    bank = GaussianMixtureBank.load(config.bank_path) if config.bank_path else None
    model, history = train_model(config, splits["train"], splits["dev"],
                                 vocab, bank)
    os.makedirs(config.out_dir, exist_ok=True)
    input_paths = [os.path.join(config.data_dir, "train.txt"),
                   os.path.join(config.data_dir, "dev.txt")]
    if config.bank_path:
        input_paths.append(config.bank_path)
    extra = {
        "input_digests": _digest_inputs(input_paths),
        "history": [[h.epoch, h.train_ce, h.dev_ce] for h in history],
    }
    save_checkpoint(os.path.join(config.out_dir, "checkpoint.bin"), model,
                    config, extra=extra)
    _write_manifest(config.out_dir, "train", config.to_dict(), config.seed,
                    input_paths + [args.config], ["checkpoint.bin"])
    for h in history:
        print(f"epoch {h.epoch:3d}  train_ce {h.train_ce:.4f}  dev_ce {h.dev_ce:.4f}")
    return 0


def _load_checkpoint_or_refuse(path: str):
    try:
        return load_checkpoint(path)
    except VersionMismatch as exc:
        print(f"refusing checkpoint {path}: found format version {exc.found}, "
              f"this build supports version {exc.expected}", file=sys.stderr)
        raise


def _warn_on_digest_mismatch(extra: dict, data_dir: str):
    recorded = extra.get("input_digests", {})
    for path, digest in recorded.items():
        name = os.path.basename(path)
        local = os.path.join(data_dir, name)
        if os.path.isfile(local) and _sha256(local) != digest:
            print(f"warning: {local} differs from the corpus digest recorded "
                  f"at training time", file=sys.stderr)


def cmd_eval(args) -> int:
    model, config, extra = _load_checkpoint_or_refuse(args.checkpoint)
    splits = _read_splits(args.data_dir, required=("train", "test"))
    _warn_on_digest_mismatch(extra, args.data_dir)
    report = ev.evaluate(model, splits["test"], splits["train"])
    os.makedirs(args.out, exist_ok=True)
    ev.write_eval_json(report, os.path.join(args.out, "eval.json"))
    _write_manifest(args.out, "eval",
                    {"checkpoint": args.checkpoint, "data_dir": args.data_dir},
                    model.seed,
                    [args.checkpoint] + list(_split_paths(args.data_dir).values()),
                    ["eval.json"])
    print(f"pp.all {report['pp']['all']:.3f}  app.all {report['app']['all']:.3f}")
    return 0


def cmd_analyze(args) -> int:
    model, config, extra = _load_checkpoint_or_refuse(args.checkpoint)
    os.makedirs(args.out, exist_ok=True)
    inputs = [args.checkpoint]
    if args.mode in ("benford", "selection"):
        if not args.data_dir:
            raise ValueError(f"--data-dir is required for --mode {args.mode}")
        test = _read_splits(args.data_dir, required=("test",))["test"]
        inputs.append(os.path.join(args.data_dir, "test.txt"))
    if args.mode == "benford":
        dist = ev.benford_model_distribution(model, test)
        ref = ev.benford_reference(1)
        path = os.path.join(args.out, "benford.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write("digit,model,reference\n")
            for d in range(9):
                f.write(f"{d + 1},{float(dist[d])!r},{float(ref[d])!r}\n")
        artifacts = ["benford.csv"]
    elif args.mode == "similarity":
        if not args.tokens and model.kind in ("d-rnn", "combination"):
            labels, matrix = ev.digit_similarity_report(model)
        else:
            surfaces = (args.tokens.split(",") if args.tokens else
                        sorted(model.vocab.in_vocab_numerals(), key=float))
            labels, matrix, skipped = ev.embedding_similarity_report(model, surfaces)
            for s in skipped:
                print(f"note: {s!r} has no output embedding, skipped",
                      file=sys.stderr)
        ev.write_similarity_csv(os.path.join(args.out, "similarity.csv"),
                                labels, matrix)
        artifacts = ["similarity.csv"]
    else:  # selection
        rows = ev.strategy_selection(model, test)
        ev.write_selection_csv(os.path.join(args.out, "selection.csv"), rows)
        artifacts = ["selection.csv"]
    _write_manifest(args.out, "analyze",
                    {"checkpoint": args.checkpoint, "mode": args.mode,
                     "data_dir": args.data_dir, "tokens": args.tokens},
                    model.seed, inputs, artifacts)
    return 0


# -- parser -------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="numlm",
                                description="numeracy-aware language models")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic corpus")
    s.add_argument("--spec", default="default",
                   help="spec JSON path, or builtin 'default' / 'benford'")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("prep", help="tokenise and build the vocabulary")
    s.add_argument("--input", required=True,
                   help="corpus file, or a directory with train/dev/test.txt")
    s.add_argument("--out", required=True)
    s.add_argument("--vocab-size", type=int, default=1000)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_prep)

    s = sub.add_parser("fit-gmm", help="pretrain the Gaussian component bank")
    s.add_argument("--data-dir", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_fit_gmm)

    s = sub.add_parser("train", help="train a model from a run config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("eval", help="score a test split")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--data-dir", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("analyze", help="emit analysis tables")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--mode", required=True,
                   choices=("benford", "similarity", "selection"))
    s.add_argument("--data-dir", default=None)
    s.add_argument("--tokens", default=None,
                   help="comma-separated token subset for --mode similarity")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_analyze)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VersionMismatch, NonFiniteLoss, FileNotFoundError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
