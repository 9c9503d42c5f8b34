"""Self-test of the benchmark's output checks: each check must accept the
program's real outputs and refuse a slightly perturbed copy of them.

Run from the repository root (a few seconds):

    python3 perfbench/selftest.py

It trains all seven model kinds on a tiny corpus through the CLI with the
timing spans installed, gathers
every check with the outputs it judges, and feeds each check first the real outputs, then every
perturbation listed for it below. Exit code 0 when every check passes on
the real outputs and refuses every perturbation.
"""
from __future__ import annotations

import copy
import sys

import numpy as np

from run import ROOT, import_numlm

SHIFT = 1e-6


def _shift_first(seq):
    out = copy.deepcopy(seq)
    out[0][0] += SHIFT
    return out


def _bump_row(arrays, name):
    out = {k: v.copy() for k, v in arrays.items()}
    out[name][0] += 1e-3
    return out


def _overfill(logps):
    """Add just enough mass to the largest candidate that the total is 1 + 1e-8."""
    out = [np.array(lp, dtype=float) for lp in logps]
    lp = out[0]
    i = int(np.argmax(lp))
    lp[i] = np.log(np.exp(lp[i]) + 1.0 - np.exp(lp).sum() + 1e-8)
    return out


def _positive(logps):
    out = [np.array(lp, dtype=float) for lp in logps]
    out[0][int(np.argmax(out[0]))] = SHIFT
    return out


def _shift_top(logps):
    out = [np.array(lp, dtype=float) for lp in logps]
    out[0][int(np.argmax(out[0]))] += SHIFT
    return out


def _dip(traces):
    out = copy.deepcopy(traces)
    tr = next(t for t in out.values() if len(t) >= 2)
    tr[-1] = tr[-2] - SHIFT
    return out


def _shifted_state(states):
    out = copy.deepcopy(states)
    doc = next(d for d in out if d)
    doc[0][1][0] += SHIFT
    return out


def perturbations(fn, args):
    """(description, perturbed args) pairs a correct check must refuse."""
    import checks
    if fn is checks.reference_scores:
        header, arrays, docs, logps = args
        return [("one log-prob shifted by 1e-6",
                 (header, arrays, docs, _shift_first(logps))),
                ("one rnn.W row changed before the reference forward",
                 (header, _bump_row(arrays, "rnn.W"), docs, logps))]
    if fn is checks.reference_states:
        header, arrays, docs, states = args
        return [("one hidden-state entry shifted by 1e-6",
                 (header, arrays, docs, _shifted_state(states))),
                ("one rnn.W row changed before the reference forward",
                 (header, _bump_row(arrays, "rnn.W"), docs, states))]
    if fn is checks.closed_normalisation:
        return [("the most probable entry's log-prob shifted by 1e-6",
                 (_shift_top(args[0]),))]
    if fn is checks.open_normalisation:
        return [("candidate mass raised to 1 + 1e-8", (_overfill(args[0]),)),
                ("one log-prob set to +1e-6", (_positive(args[0]),))]
    if fn is checks.candidate_scores:
        batched, graph = args
        return [("one batched score shifted by 1e-6",
                 (_shift_first(batched), graph))]
    if fn is checks.count_matches:
        what, expected, observed = args
        return [("count off by one", (what, expected, observed + 1))]
    if fn is checks.em_fits:
        traces, means, values = args
        high = means.copy()
        high[0] = values.max() + SHIFT
        return [("one EM step decreases by 1e-6", (_dip(traces), means, values)),
                ("one bank mean above the largest value", (traces, high, values))]
    if fn is checks.dev_improves:
        history, epochs, untrained = args
        tied = copy.deepcopy(history)
        tied[-1][2] = untrained
        return [("final dev CE equal to the untrained one",
                 (tied, epochs, untrained)),
                ("one epoch fewer than configured",
                 (history[:-1], epochs, untrained))]
    if fn is checks.rerun_identical:
        what, first, later = args
        return [("digest of a changed file", (what, first, later[::-1]))]
    raise KeyError(f"no perturbation for {fn.__name__}")


# the workload-property check judges facts the selftest corpus cannot have,
# so it is fed passing and failing facts for each workload directly
PROPERTY_CASES = {
    "wide-vocab": ({"vocab_cap": 2500, "vocab_size": 2502, "train_types": 3700},
                   {"vocab_size": 2400, "train_types": 2400}),
    "open-numeral": ({"numeral_share": 0.091, "bank_size": 254,
                      "full_bank_size": 254},
                     {"numeral_share": 0.06, "bank_size": 126}),
    "char-composed": ({"in_vocab_numerals": 38}, {"in_vocab_numerals": 0}),
}


def main() -> int:
    import_numlm()
    import bench
    import checks
    from numlm.synth import default_spec
    from tracer import Tracer, install_numlm_spans
    from workloads import Workload

    wl = Workload("selftest", bench.MODEL_KINDS, vocab_cap=1000,
                  spec=lambda: default_spec(n_train=30, n_dev=6, n_test=10))
    run = bench.Run(ROOT, wl, seed=3)
    run.setup()
    tracer = Tracer()
    install_numlm_spans(tracer)
    try:
        traced = run.round(tracer)
    finally:
        tracer.uninstall()
    train = bench.CorpusCounts.of(f"{run.corpus_dir}/train.txt")
    test = bench.CorpusCounts.of(f"{run.corpus_dir}/test.txt")
    cases = [(name, fn, args) for name, fn, args in run.output_checks(train)
             if fn is not checks.workload_property]
    for kind in wl.kinds:
        cases.append((f"traced tokens {kind}", checks.count_matches,
                      ("tokens through doc_log_probs", bench.EPOCHS * train.tokens,
                       traced.tokens_through[kind])))
        cases.append((f"traced numerals {kind}", checks.count_matches,
                      ("numerals decoded", test.numerals, traced.decoded[kind])))
    digest = bench._sha256(run.eval_path(wl.kinds[0]))
    cases.append(("rerun eval.json", checks.rerun_identical,
                  ("eval.json", digest, digest)))
    for name, (good, bad) in PROPERTY_CASES.items():
        cases.append((f"(f) {name}", checks.workload_property,
                      (name, good), [(f"{k} -> {v}", (name, {**good, k: v}))
                                     for k, v in bad.items()]))

    problems = 0
    for case in cases:
        name, fn, args = case[:3]
        variants = case[3] if len(case) > 3 else perturbations(fn, args)
        try:
            fn(*args)
            print(f"pass     {name}")
        except checks.CheckFailed as exc:
            problems += 1
            print(f"FAILED   {name} on the real outputs: {exc}")
        for what, bad in variants:
            try:
                fn(*bad)
                problems += 1
                print(f"ACCEPTED {name} with {what}")
            except checks.CheckFailed:
                print(f"refused  {name} with {what}")
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
