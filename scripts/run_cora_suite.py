#!/usr/bin/env python3
"""Full citation-network study: all variants, multiple seeds, tuned eta.

Needs the raw files (cora.content, cora.cites) under DISTSIG_DATA_DIR or
--data-dir.  The runs are one ``gnn.cora_study`` call, the protocol of
acceptance criteria 7b-9: for every variant (each named once) and seed, eta
is picked by validation accuracy over the standard grid, and one
main-component decomposition serves the output analysis of all runs.  Writes
one metrics JSON per (variant, seed) plus a summary CSV, and prints the
mean/std accuracy table alongside the column-1 high-frequency fractions and
the near-uniform/near-one entry counts of the final outputs.
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from distsig.cli import EXIT_IO, EXIT_USAGE, _path, _positive, _write_json
from distsig.gnn import (CORA_SPLIT, VARIANTS, cora_features, cora_files, cora_study, load_cora,
                         make_split)
from distsig.graph import GraphError


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--data-dir", type=_path, default=None, help="override DISTSIG_DATA_DIR")
    ap.add_argument("--seeds", type=_positive, default=5)
    ap.add_argument("--variants", default=",".join(VARIANTS))
    ap.add_argument("--out-dir", type=_path, default="cora_runs")
    args = ap.parse_args()
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants or set(variants) - set(VARIANTS) or len(set(variants)) < len(variants):
        ap.error(f"--variants must name some of {','.join(VARIANTS)}, each once, "
                 f"got {args.variants!r}")
    part = args.out_dir  # its nearest existing part: makedirs needs a directory there
    while not os.path.exists(part) and os.path.dirname(part) not in ("", part):
        part = os.path.dirname(part)
    if os.path.exists(part) and not os.path.isdir(part):
        where = "" if part == args.out_dir else f" {part}"
        ap.error(f"--out-dir {args.out_dir}:{where} exists and is not a directory")

    try:
        content, cites = cora_files(args.data_dir)
        g, labels = load_cora(content, cites)
        features = cora_features(content)
    except (FileNotFoundError, GraphError) as exc:  # no files, or malformed ones
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:  # the study draws these splits again, after the output directory is made
        for seed in range(args.seeds):
            make_split(labels, *CORA_SPLIT, seed)
    except ValueError as exc:  # the citation pair is too small for the split
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out_dir, exist_ok=True)

    t0 = time.perf_counter()
    runs = cora_study(g, features, labels, variants, range(args.seeds))

    rows = []
    for variant in variants:
        accs = []
        for seed in range(args.seeds):
            m = runs[variant, seed]
            accs.append(m.test_acc)
            [sweep] = [r for r in m.nonuniformity if r["epsilon"] == 0.01]
            near_u, near_one = sweep["near_uniform"], sweep["near_one"]
            rows.append({
                "variant": variant,
                "seed": seed,
                "eta": m.config.eta,
                "test_acc": m.test_acc,
                "hf_col1": m.hf_fraction_per_class[0],
                "near_uniform": near_u,
                "near_one": near_one,
            })
            _write_json(os.path.join(args.out_dir, f"{variant}_seed{seed}.json"),
                        m.to_json_dict())
            print(f"{variant} seed {seed}: acc {m.test_acc:.4f} (eta {m.config.eta}), "
                  f"hf {m.hf_fraction_per_class[0]:.4f}, "
                  f"near-uniform {near_u}, near-one {near_one}")
        print(f"== {variant}: {np.mean(accs):.4f} +/- {np.std(accs):.4f}")

    summary = os.path.join(args.out_dir, "summary.csv")
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    print(f"{len(rows)} runs in {time.perf_counter() - t0:.0f}s; summary at {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
