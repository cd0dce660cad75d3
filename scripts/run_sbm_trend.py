#!/usr/bin/env python3
"""Regularization trend study on block-model graphs.

Trains the plain model and the validation-tuned regularized variant over a
seed sweep on two synthetic setups (an easy 2-block graph and the harder
4-block one) and prints per-seed test accuracies.  Each seed is one stacked
``train`` call over eta 0 and the grid: the eta-0 member is bitwise the plain
model, and the tuned one is the best-validation member of the rest.
"""

import argparse
import sys
import time

import numpy as np

from distsig.gnn import SBM_ETA_GRID, TrainConfig, best_run, make_split, sbm_dataset, train

SETUPS = {
    "2block": dict(blocks=(100, 100), p_in=0.2, p_out=0.01),
    "4block": dict(blocks=(50, 50, 50, 50), p_in=0.1, p_out=0.01),
}


def run_setup(name, spec, seeds, variant):
    diffs = []
    print(f"--- {name}: blocks {spec['blocks']}, "
          f"p_in {spec['p_in']}, p_out {spec['p_out']} ---")
    for seed in seeds:
        g, f, y = sbm_dataset(spec["blocks"], spec["p_in"], spec["p_out"], seed=seed)
        split = make_split(y, 5, 50, 100, seed)
        base, *tuned = train(g, f, y, split, TrainConfig(variant=variant, seed=seed),
                             etas=(0.0,) + SBM_ETA_GRID, analysis=False)
        best = best_run(tuned)
        d = best.test_acc - base.test_acc
        diffs.append(d)
        print(f"seed {seed}: gcn {base.test_acc:.3f}  {variant} {best.test_acc:.3f} "
              f"(eta {best.config.eta})  diff {d:+.3f}")
    print(f"mean diff {np.mean(diffs):+.4f}, "
          f"nonnegative {sum(d >= 0 for d in diffs)}/{len(diffs)}")
    return diffs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--variant", default="r", choices=("r", "r1", "r2", "r3"))
    ap.add_argument("--setup", default="all", choices=("all",) + tuple(SETUPS))
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be >= 1, got {args.seeds}")

    t0 = time.perf_counter()
    names = tuple(SETUPS) if args.setup == "all" else (args.setup,)
    for name in names:
        run_setup(name, SETUPS[name], range(args.seeds), args.variant)
    print(f"total {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
