"""Reproduce the ROADMAP re-anchor baseline: `numlm train` tokens per second
for each of the seven model kinds at dim 16 on the default synth spec with
150 training documents (corpus seed 0, 1357 tokens), one epoch plus dev
scoring.

Run from the repository root:

    python3 perfbench/reanchor.py

This is a reference figure for README.md, not a benchmark workload.
"""
from __future__ import annotations

import os
import sys

from run import ROOT, import_numlm

SEED = 0


def main() -> int:
    import_numlm()
    import bench
    from numlm.synth import default_spec
    from workloads import Workload

    wl = Workload("reanchor", bench.MODEL_KINDS, vocab_cap=1000,
                  spec=lambda: default_spec(n_train=150, n_dev=20, n_test=20))
    run = bench.Run(ROOT, wl, SEED)
    run.setup()
    r = run.round()
    train = bench.CorpusCounts.of(os.path.join(run.corpus_dir, "train.txt"))
    print(f"{train.tokens} training tokens, seed {SEED}")
    print("| kind | train tok/s |\n| --- | ---: |")
    for kind in wl.kinds:
        print(f"| {kind} | {train.tokens / r.train_s[kind]:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
