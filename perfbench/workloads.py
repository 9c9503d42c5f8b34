"""The benchmark's workloads: corpus spec, model kinds and training settings.

Each workload is chosen so that one group of layers dominates its cost
while the others sit nearly idle; README.md lists which layer metric should
move on which workload.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

DIM = 16
# one epoch for every kind; patience = EPOCHS, so early stopping never ends
# a run sooner
EPOCHS = 1
LEARNING_RATE = 3e-3
DROPOUT = 0.1
MODEL_SEED = 0
GMM_KINDS = ("mog", "combination")


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: Tuple[str, ...]
    vocab_cap: int
    spec: Callable[[], dict]

    @property
    def needs_bank(self) -> bool:
        return any(k in GMM_KINDS for k in self.kinds)


def wide_vocab_spec() -> dict:
    """Corpus-A-like: rare word types drawn from a 100k-type filler pool, so
    560 training documents hold about 3.7k types against the 2500 cap; one
    template opens with an in-vocabulary numeral, one carries a wide-range
    numeral that stays out of vocabulary, and filler templates keep numerals
    near 2% of tokens. Most test filler words are unseen, so test cross
    entropy hangs on the learned UNK mass; the ~1.2k types beyond the cap
    give UNK enough training tokens to keep that steady from seed to seed.
    The sizes keep one round near 7 s, so a run holds three or more."""
    wide = {"dist": "normal", "mean": 600.0, "std": 90.0, "precision": 2,
            "min": 0.5}
    unif = {"dist": "uniform_int", "low": 100, "high": 149}
    fill = {"dist": "filler"}

    def slots(*names, **extra):
        return {**{n: fill for n in names}, **extra}

    return {
        "n_train": 560, "n_dev": 40, "n_test": 700,
        "filler_word_types": 100_000,
        "templates": [
            {"label": "level", "weight": 1.0,
             "text": "sensor {a} {b} reported level {x} near {c} {d} {e} check",
             "slots": slots("a", "b", "c", "d", "e", x=wide)},
            {"label": "load", "weight": 1.0,
             "text": "{n} load carried by {a} {b} {c} {d} {e} shift",
             "slots": slots("a", "b", "c", "d", "e", n=unif)},
            {"label": "fillerA", "weight": 4.0,
             "text": "crew {a} {b} noted {c} {d} {e} {f} {g}",
             "slots": slots("a", "b", "c", "d", "e", "f", "g")},
            {"label": "fillerB", "weight": 4.0,
             "text": "staff {a} {b} logged {c} {d} {e} {f} {g}",
             "slots": slots("a", "b", "c", "d", "e", "f", "g")},
        ],
    }


def open_numeral_spec() -> dict:
    from numlm.synth import default_spec
    return default_spec(n_train=400, n_dev=40, n_test=200)


def char_composed_spec() -> dict:
    """The default spec's templates with every numeral slot narrowed to a
    small pool: each pool value is drawn about five times in 96 training
    documents, so every seed's vocabulary holds the same 15 numerals. The
    +rnn cost per document grows with that inventory, which under the
    default slots varies by about 10% from seed to seed."""
    from numlm.synth import default_spec
    spec = default_spec(n_train=96, n_dev=12, n_test=120)
    slots = {t["label"]: t["slots"] for t in spec["templates"]}
    slots["ef"]["x"] = {"dist": "choice", "values": [
        "52.5", "54.0", "55.5", "57.0", "58.5", "60.0"]}
    for name in ("a", "b"):
        slots["dim"][name] = {"dist": "uniform_int", "low": 33, "high": 38}
    slots["year"]["y"] = {"dist": "uniform_int", "low": 2009, "high": 2011}
    return spec


WORKLOADS = {w.name: w for w in (
    Workload("wide-vocab", ("softmax", "h-softmax"), vocab_cap=2500,
             spec=wide_vocab_spec),
    Workload("open-numeral", ("d-rnn", "mog", "combination"), vocab_cap=250,
             spec=open_numeral_spec),
    Workload("char-composed", ("softmax+rnn", "h-softmax+rnn"),
             vocab_cap=1000, spec=char_composed_spec),
)}
