#!/usr/bin/env python3
"""Regularization trend study on block-model graphs.

Trains the plain model and the validation-tuned regularized variant over a
seed sweep on two synthetic setups (an easy 2-block graph and the harder
4-block one, ``gnn.SBM_4BLOCK``) and prints per-seed test accuracies.  Each
seed is one ``gnn.sbm_trend`` call, the protocol that acceptance criterion 7a
also runs.
"""

import argparse
import sys
import time

import numpy as np

from distsig.cli import _positive
from distsig.gnn import SBM_4BLOCK, sbm_trend

# (blocks, p_in, p_out) of each setup
SETUPS = {
    "2block": ((100, 100), 0.2, 0.01),
    "4block": SBM_4BLOCK,
}


def run_setup(name, setup, seeds, variant):
    diffs = []
    blocks, p_in, p_out = setup
    print(f"--- {name}: blocks {blocks}, p_in {p_in}, p_out {p_out} ---")
    for seed in seeds:
        base, best = sbm_trend(setup, seed, variant)
        d = best.test_acc - base.test_acc
        diffs.append(d)
        print(f"seed {seed}: gcn {base.test_acc:.3f}  {variant} {best.test_acc:.3f} "
              f"(eta {best.config.eta})  diff {d:+.3f}")
    print(f"mean diff {np.mean(diffs):+.4f}, "
          f"nonnegative {sum(d >= 0 for d in diffs)}/{len(diffs)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=_positive, default=10)
    ap.add_argument("--variant", default="r", choices=("r", "r1", "r2", "r3"))
    ap.add_argument("--setup", default="all", choices=("all",) + tuple(SETUPS))
    args = ap.parse_args()

    t0 = time.perf_counter()
    names = tuple(SETUPS) if args.setup == "all" else (args.setup,)
    for name in names:
        run_setup(name, SETUPS[name], range(args.seeds), args.variant)
    print(f"total {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
