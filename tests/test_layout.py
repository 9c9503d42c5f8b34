"""Guards on names that outside readers depend on.

Checkpoints store parameters by name in creation order, and the initial
values come from one seeded generator in that order, so a refactor of the
model classes must leave every kind's (name, shape) list and its initial
draws exactly as they are. The benchmark's traced run patches numlm
methods by name from outside the package.
"""
import hashlib
import os
import sys

import pytest

from numlm.heads import MODEL_KINDS, NumerateLM

BACKBONE = [
    ("in.E", (16, 4)), ("in.char.chars", (13, 4)), ("in.char.lstm.W", (16, 8)),
    ("in.char.lstm.b", (16,)), ("in.gate.Wg", (4, 4)), ("in.gate.bg", (4,)),
    ("rnn.W", (16, 8)), ("rnn.b", (16,)),
]
GATE = [("out.class_gate.b", (4,)), ("out.word.E_out", (12, 4))]

LAYOUT = {
    "softmax": BACKBONE + [("out.E_out", (16, 4))],
    "softmax+rnn": BACKBONE + [
        ("out.E_out", (16, 4)), ("out.char.chars", (13, 4)),
        ("out.char.lstm.W", (16, 8)), ("out.char.lstm.b", (16,))],
    "h-softmax": BACKBONE + [("out.num.E_out", (4, 4))] + GATE,
    "h-softmax+rnn": BACKBONE + [
        ("out.num.E_out", (4, 4)), ("out.num.char.chars", (13, 4)),
        ("out.num.char.lstm.W", (16, 8)), ("out.num.char.lstm.b", (16,))] + GATE,
    "d-rnn": BACKBONE + [
        ("out.drnn.chars", (13, 4)), ("out.drnn.lstm.W", (16, 8)),
        ("out.drnn.lstm.b", (16,)), ("out.drnn.out.W", (12, 4)),
        ("out.drnn.out.b", (12,))] + GATE,
    "mog": BACKBONE + [
        ("out.mog.B", (4, 4)), ("out.mog.pattern.emb", (5, 4)),
        ("out.mog.pattern.lstm.W", (16, 8)), ("out.mog.pattern.lstm.b", (16,)),
        ("out.mog.pattern.out.W", (4, 4)), ("out.mog.pattern.out.b", (4,))] + GATE,
    "combination": BACKBONE + [
        ("out.comb.closed.E_out", (3, 4)), ("out.comb.drnn.chars", (13, 4)),
        ("out.comb.drnn.lstm.W", (16, 8)), ("out.comb.drnn.lstm.b", (16,)),
        ("out.comb.drnn.out.W", (12, 4)), ("out.comb.drnn.out.b", (12,)),
        ("out.comb.mog.B", (4, 4)), ("out.comb.mog.pattern.emb", (5, 4)),
        ("out.comb.mog.pattern.lstm.W", (16, 8)),
        ("out.comb.mog.pattern.lstm.b", (16,)),
        ("out.comb.mog.pattern.out.W", (4, 4)),
        ("out.comb.mog.pattern.out.b", (4,)), ("out.comb.A", (3, 4))] + GATE,
}

# sha256 over the initial parameter values, float64 bytes in creation order
INITIAL_DIGEST = {
    "softmax": "6862625f47d514005d9399cbe2f1b442b6f59a672a08361ae6da96c3b407bc67",
    "softmax+rnn": "849863109b44ef83799c3f50530cd8e79478d2e352a85b60d2c03df07172012f",
    "h-softmax": "aa229ca2b8dac26368aa4d440aa71202a8534f76e5d5357e0331f4d5219b60c8",
    "h-softmax+rnn": "daca77730fdae3cceb25426de24a6f53b142579dad17a3d4dac6f13779e5c4bc",
    "d-rnn": "c88a95e3fc6c1cf76a9dd86469f87aeb47f3c76520cc5b497de22250ab7cbdd7",
    "mog": "6e19b563c10694885b1bf7e47636865f3ffdf9329d544f54bc7a94e6de14948c",
    "combination": "8d1af4d32ac6779147a34a3123c95b240dcb37de54b795acf091ae85650f917a",
}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_parameter_layout_and_initial_draws(tiny_vocab, tiny_bank, kind):
    model = NumerateLM(kind, tiny_vocab, dim=4, seed=0, bank=tiny_bank)
    items = list(model.params.items())
    assert [(name, t.value.shape) for name, t in items] == LAYOUT[kind]
    digest = hashlib.sha256()
    for _, t in items:
        digest.update(t.value.tobytes())
    assert digest.hexdigest() == INITIAL_DIGEST[kind]


def test_benchmark_tracer_finds_every_patched_name():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    try:
        from tracer import Tracer, install_numlm_spans
    finally:
        sys.path.pop(0)
    tracer = Tracer()
    install_numlm_spans(tracer)
    tracer.uninstall()
