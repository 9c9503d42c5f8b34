"""numlm benchmark: seeded train-and-eval workloads driven through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload wide-vocab --seed 1 --seconds 20 --trace 0

The run generates its corpus from --seed with `numlm synth`, runs `prep`
and, when a kind needs the Gaussian bank, `fit-gmm` once, then repeats
rounds of `numlm train` and `numlm eval` for every model kind of the
workload until --seconds of rounds are measured. Outputs are checked after
the last round. With --trace 1 each round is followed by the same round with
timing spans installed, and the per-layer metrics are printed instead of the
end-to-end ones. The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread: the models are 16-wide, so threads only add contention
# and run-to-run noise. Must be set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_numlm():
    """Put the checkout's src/ first on sys.path and import numlm from it;
    refuse a numlm installed anywhere else."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "numlm", "__init__.py")):
        sys.exit(f"error: no numlm sources under {src}")
    sys.path.insert(0, src)
    import numlm
    if os.path.dirname(os.path.dirname(os.path.abspath(numlm.__file__))) != src:
        sys.exit(f"error: numlm imported from {numlm.__file__}, not {src}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_numlm()
    import bench

    try:
        result = bench.execute(ROOT, WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace))
    except bench.CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for refusal in result.pop("refusals"):
        print(f"REFUSED {refusal}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {result.pop('rounds')}  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
