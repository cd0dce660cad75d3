#!/usr/bin/env python3
"""Build perfbench/corpus_pool.json, the instance pool of the corpus workload.

The workload's per-round profile is the list of instance classes
(n, m, |E|, spanning-tree count) of the first PROFILE_TRIALS instances of the
acceptance corpus (criterion 2: seed 0, max_n 6, max_m 3).  The pool holds,
for each class, corpus seeds ``cs`` whose instance ``(cs, 0)`` falls in that
class, with the margins and weak-constant flag that ``run_bound_corpus``
reported for it when the pool was built.  Those are the reference values the
benchmark checks every later run against, so rebuild the pool only at a
commit whose bound margins are trusted:

    python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from distsig.distributional import random_bound_instance, run_bound_corpus  # noqa: E402
from distsig.graph import spanning_tree_count  # noqa: E402

MAX_N, MAX_M = 6, 3
PROFILE_SEED, PROFILE_TRIALS = 0, 60
MIN_MEMBERS = 8
SCAN_LIMIT = 200_000


def instance_class(key) -> tuple[int, int, int, int]:
    g, nn = random_bound_instance(key, MAX_N, MAX_M)
    return g.n, nn.m, g.m, spanning_tree_count(g)


def class_name(cls) -> str:
    return ",".join(str(v) for v in cls)


def main() -> int:
    t0 = time.perf_counter()
    profile = [instance_class((PROFILE_SEED, i)) for i in range(PROFILE_TRIALS)]
    want = {cls: max(MIN_MEMBERS, 4 * k) for cls, k in Counter(profile).items()}
    members: dict[tuple, list[int]] = {cls: [] for cls in want}
    cs = 1
    while any(len(members[c]) < want[c] for c in want) and cs < SCAN_LIMIT:
        cls = instance_class((cs, 0))
        if cls in want and len(members[cls]) < want[cls]:
            members[cls].append(cs)
        cs += 1
    short = {class_name(c): len(v) for c, v in members.items()
             if len(v) < Counter(profile)[c]}
    if short:
        print(f"classes with too few pool members: {short}", file=sys.stderr)
        return 1

    pool = {}
    for cls, seeds in members.items():
        rows = []
        for s in seeds:
            rep = run_bound_corpus(1, s, max_n=MAX_N, max_m=MAX_M, keep_instances=False)
            if rep["violation_count"]:
                print(f"instance ({s}, 0) violates a bound: {rep['violations']}",
                      file=sys.stderr)
                return 1
            rows.append({"seed": s, "margins": rep["worst_margins"],
                         "c3_paper_holds": rep["c3_paper_pass_rate"] == 1.0})
        pool[class_name(cls)] = rows
        print(f"class {class_name(cls)}: {len(rows)} members", file=sys.stderr)

    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    out = {
        "captured_at_commit": commit,
        "max_n": MAX_N,
        "max_m": MAX_M,
        "profile_source": {"seed": PROFILE_SEED, "trials": PROFILE_TRIALS},
        "profile": [class_name(c) for c in profile],
        "pool": pool,
    }
    with open(os.path.join(HERE, "corpus_pool.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pool of {sum(len(v) for v in pool.values())} instances, "
          f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
