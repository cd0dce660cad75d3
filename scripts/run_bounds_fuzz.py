#!/usr/bin/env python3
"""Large-corpus fuzz of the total-variation inequality chains.

Runs batches of random instances, prints the worst margin seen per
inequality, and exits nonzero on any violation.  Bigger/longer than the
acceptance corpus; meant for overnight confidence runs.

    python3 scripts/run_bounds_fuzz.py --trials 5000
"""

import argparse
import json
import sys
import time

from distsig.distributional import run_bound_corpus


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--out", default=None, help="write the full JSON report here")
    args = ap.parse_args()

    t0 = time.perf_counter()
    report = run_bound_corpus(
        args.trials, args.seed, max_n=args.max_n, max_m=args.max_m,
        keep_instances=bool(args.out),
    )
    elapsed = time.perf_counter() - t0

    print(f"{args.trials} instances in {elapsed:.1f}s "
          f"(seed {args.seed}, n <= {args.max_n}, m <= {args.max_m})")
    print(f"{'inequality':<24} worst margin")
    for name, margin in report["worst_margins"].items():
        print(f"{name:<24} {margin:+.3e}")
    print(f"sqrt(|S|n) tail constant pass rate: {report['c3_paper_pass_rate']:.3f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")

    if report["violation_count"]:
        print(f"VIOLATIONS: {report['violations']}", file=sys.stderr)
        return 1
    print("no violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
