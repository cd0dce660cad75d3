#!/usr/bin/env python3
"""The accuracy study of acceptance criteria 7a-9 on one dataset.

The runs are one ``gnn.study`` call, the protocol the gate reads: for every
variant (each named once) and seed, eta is picked by validation accuracy over
the dataset's grid, and each graph's runs share one decomposition for the
output analysis.  The datasets are the raw citation network (cora.content and
cora.cites under DISTSIG_DATA_DIR or --data-dir) and two block models, a
fresh graph per seed: an easy 2-block one and criterion 7a's
``gnn.SBM_4BLOCK``.  Writes one metrics JSON per (variant, seed) and a
summary CSV, and prints each run's accuracy, column-1 high-frequency fraction
and near-uniform/near-one counts, then each variant's mean/std accuracy and,
when gcn runs too, its mean paired difference against gcn.  Exits 2 on a
usage error, 3 on missing or malformed data.
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from distsig.cli import EXIT_IO, EXIT_USAGE, _path, _positive, _write_json
from distsig.gnn import (CORA_SPLIT, ETA_GRID, SBM_4BLOCK, SBM_ETA_GRID, SBM_SPLIT, VARIANTS,
                         cora_features, cora_files, load_cora, sbm_dataset, study)
from distsig.graph import GraphError

# each dataset's make_split sizes, eta grid and seed count, as the gate runs them
PROTOCOLS = {"cora": (CORA_SPLIT, ETA_GRID, 5), "2block": (SBM_SPLIT, SBM_ETA_GRID, 10),
             "4block": (SBM_SPLIT, SBM_ETA_GRID, 10)}
# sbm_dataset's (blocks, p_in, p_out) of each block model
SBM_SETUPS = {"2block": ((100, 100), 0.2, 0.01), "4block": SBM_4BLOCK}


def load(args, seeds):
    """``study``'s data: a fresh block model per seed, or one citation network."""
    if args.dataset in SBM_SETUPS:
        return {s: sbm_dataset(*SBM_SETUPS[args.dataset], seed=s) for s in seeds}
    content, cites = cora_files(args.data_dir)
    g, labels = load_cora(content, cites)
    return dict.fromkeys(seeds, (g, cora_features(content), labels))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", required=True, choices=tuple(PROTOCOLS))
    ap.add_argument("--data-dir", type=_path, help="override DISTSIG_DATA_DIR (--dataset cora)")
    ap.add_argument("--seeds", type=_positive,
                    help="seeds 0..N-1 (default: the gate's, 5 for cora, 10 otherwise)")
    ap.add_argument("--variants", default=",".join(VARIANTS))
    ap.add_argument("--out-dir", type=_path, help="default study_runs/<dataset>")
    args = ap.parse_args()
    split, grid, gate_seeds = PROTOCOLS[args.dataset]
    if args.data_dir is not None and args.dataset != "cora":
        ap.error(f"--data-dir is read only by --dataset cora, not by --dataset {args.dataset}")
    seeds = range(args.seeds or gate_seeds)
    out_dir = args.out_dir or os.path.join("study_runs", args.dataset)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants or set(variants) - set(VARIANTS) or len(set(variants)) < len(variants):
        ap.error(f"--variants must name some of {','.join(VARIANTS)}, each once, "
                 f"got {args.variants!r}")
    part = out_dir  # its nearest existing part: makedirs needs a directory there
    while not os.path.exists(part) and os.path.dirname(part) not in ("", part):
        part = os.path.dirname(part)
    if os.path.exists(part) and not os.path.isdir(part):
        where = "" if part == out_dir else f" {part}"
        ap.error(f"--out-dir {out_dir}:{where} exists and is not a directory")

    try:
        data = load(args, seeds)
    except (FileNotFoundError, GraphError) as exc:  # no files, or malformed ones
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    t0 = time.perf_counter()
    try:
        runs = study(data, split, grid, variants)
    except ValueError as exc:  # the data is too small for the split, drawn before any training
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    for variant in variants:
        accs = []
        for seed in seeds:
            m = runs[variant, seed]
            accs.append(m.test_acc)
            [sweep] = [r for r in m.nonuniformity if r["epsilon"] == 0.01]
            near_u, near_one = sweep["near_uniform"], sweep["near_one"]
            rows.append({"variant": variant, "seed": seed, "eta": m.config.eta,
                         "test_acc": m.test_acc, "hf_col1": m.hf_fraction_per_class[0],
                         "near_uniform": near_u, "near_one": near_one})
            _write_json(os.path.join(out_dir, f"{variant}_seed{seed}.json"), m.to_json_dict())
            print(f"{variant} seed {seed}: acc {m.test_acc:.4f} (eta {m.config.eta}), "
                  f"hf {m.hf_fraction_per_class[0]:.4f}, "
                  f"near-uniform {near_u}, near-one {near_one}")
        line = f"== {variant}: {np.mean(accs):.4f} +/- {np.std(accs):.4f}"
        if variant != "gcn" and "gcn" in variants:  # criterion 7a's statistic
            diffs = [runs[variant, s].test_acc - runs["gcn", s].test_acc for s in seeds]
            line += (f", vs gcn mean diff {np.mean(diffs):+.4f}, "
                     f"nonnegative {sum(d >= 0 for d in diffs)}/{len(diffs)}")
        print(line)

    summary = os.path.join(out_dir, "summary.csv")
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    print(f"{len(rows)} runs in {time.perf_counter() - t0:.0f}s; summary at {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
