"""Training orchestration: run configuration, the cross-entropy training
loop with early stopping, and checkpoint serialisation.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .compute import Adam, NonFiniteLoss
from .corpus import Token, Vocabulary
from .gmm import GaussianMixtureBank
from .heads import NumerateLM, canonical_kind

CHECKPOINT_FORMAT_VERSION = 1
_MAGIC = b"NUMLMCKPT\n"


class VersionMismatch(RuntimeError):
    def __init__(self, found: int, expected: int):
        super().__init__(
            f"checkpoint format version {found} does not match supported version {expected}")
        self.found = found
        self.expected = expected


@dataclass
class RunConfig:
    model: str = "softmax"
    dim: int = 50
    vocab_cap: int = 1000
    dropout: float = 0.1
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 3
    max_epochs: int = 50
    seed: int = 0
    data_dir: str = ""
    bank_path: str = ""
    out_dir: str = ""
    pretrained_embeddings: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(known)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.model = canonical_kind(cfg.model)
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """Flat `key = value` text config; unknown keys are errors."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values: dict = {}
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in fields:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                ftype = fields[key].type
                if ftype == "int" or ftype is int:
                    values[key] = int(raw)
                elif ftype == "float" or ftype is float:
                    values[key] = float(raw)
                else:
                    values[key] = raw
        return cls.from_dict(values)


@dataclass
class EpochLog:
    epoch: int
    train_ce: float
    dev_ce: float


def dev_cross_entropy(model: NumerateLM, corpus: Sequence[Sequence[Token]]) -> float:
    with ad.no_grad():
        model.prepare()
    total = 0.0
    n = 0
    for doc in corpus:
        if not doc:
            continue
        logps, _ = model.score_doc(doc)
        total += float(logps.sum())
        n += len(doc)
    return -total / max(n, 1)


def train_model(config: RunConfig,
                train_corpus: Sequence[Sequence[Token]],
                dev_corpus: Sequence[Sequence[Token]],
                vocab: Vocabulary,
                bank: Optional[GaussianMixtureBank] = None,
                ) -> Tuple[NumerateLM, List[EpochLog]]:
    """Minimise per-token cross entropy; one optimiser step per document.

    Stops when dev cross entropy has not improved for `patience` epochs and
    restores the best-dev parameters. Fully determined by the seed.
    """
    model = NumerateLM(config.model, vocab, config.dim, seed=config.seed, bank=bank)
    if config.pretrained_embeddings:
        surfaces = vocab.words + vocab.numerals
        model.in_table.load_pretrained(config.pretrained_embeddings, surfaces)
    opt = Adam(model.params, lr=config.lr, beta1=config.beta1,
               beta2=config.beta2, eps=config.adam_eps)
    rng = np.random.default_rng(config.seed + 1)
    docs = [d for d in train_corpus if d]
    history: List[EpochLog] = []
    best_dev = math.inf
    best_params: Optional[Dict[str, np.ndarray]] = None
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(docs))
        ce_sum = 0.0
        ce_tokens = 0
        for di in order:
            doc = docs[di]
            model.params.zero_grad()
            logps = model.doc_log_probs(doc, train=True,
                                        drop_rate=config.dropout, rng=rng)
            total = logps[0]
            for lp in logps[1:]:
                total = total + lp
            loss = total * (-1.0 / len(doc))
            if not np.isfinite(loss.value):
                raise NonFiniteLoss(f"non-finite loss at document {int(di)}")
            loss.backward()
            opt.step()
            ce_sum += float(loss.value) * len(doc)
            ce_tokens += len(doc)
        dev_ce = dev_cross_entropy(model, dev_corpus)
        history.append(EpochLog(epoch, ce_sum / max(ce_tokens, 1), dev_ce))
        if dev_ce < best_dev:
            best_dev = dev_ce
            best_params = model.params.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if best_params is not None:
        model.load_arrays(best_params)
    return model, history


# -- checkpoint format -----------------------------------------------------
def save_checkpoint(path: str, model: NumerateLM, config: RunConfig,
                    extra: Optional[dict] = None):
    """Self-describing binary: JSON header (version, config, vocab, bank,
    parameter index) followed by row-major float64 buffers."""
    bank = getattr(model, "_bank", None)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": model.kind,
        "dim": model.dim,
        "seed": model.seed,
        "config": config.to_dict(),
        "vocab": {"words": model.vocab.words, "numerals": model.vocab.numerals},
        "bank": None if bank is None else {
            "means": bank.means.tolist(),
            "variances": bank.variances.tolist(),
            "source_k": bank.source_k.tolist(),
        },
        "extra": extra or {},
        "params": [{"name": k, "shape": list(v.value.shape)}
                   for k, v in model.params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for k, v in model.params.items():
            f.write(np.ascontiguousarray(v.value, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> Tuple[NumerateLM, RunConfig, dict]:
    """Raises ValueError naming the file unless the header has every entry
    and the buffers after it are exactly those its shapes declare."""
    with open(path, "rb") as f:
        def read(size: int, what: str) -> bytes:
            buf = f.read(size)
            if len(buf) < size:
                raise ValueError(f"truncated checkpoint {path}: ends inside {what}")
            return buf

        if f.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        (n,) = struct.unpack("<Q", read(8, "the header length"))
        header = json.loads(read(n, "the header").decode("utf-8"))
        for key in ("format_version", "params", "vocab", "bank", "config", "kind", "dim", "seed"):
            if key not in header:
                raise ValueError(f"checkpoint {path} header has no {key!r} entry")
        if header["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise VersionMismatch(header["format_version"], CHECKPOINT_FORMAT_VERSION)
        arrays: Dict[str, np.ndarray] = {}
        for meta in header["params"]:
            shape = tuple(meta["shape"])
            buf = read(8 * int(np.prod(shape)), f"parameter {meta['name']}")
            arrays[meta["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise ValueError(f"checkpoint {path} has bytes after its last parameter")
    vocab = Vocabulary(header["vocab"]["words"], header["vocab"]["numerals"])
    bank = None
    if header["bank"] is not None:
        bank = GaussianMixtureBank(np.array(header["bank"]["means"]),
                                   np.array(header["bank"]["variances"]),
                                   np.array(header["bank"]["source_k"], dtype=int))
    config = RunConfig.from_dict(header["config"])
    model = NumerateLM(header["kind"], vocab, header["dim"],
                       seed=header["seed"], bank=bank)
    model.load_arrays(arrays)
    return model, config, header.get("extra", {})
