"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, then
runs in rounds.  ``run_round`` times only the calls into distsig (each call
is one op, wrapped in a ``bench.op`` span when a tracer is given) and checks
every op's output afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from distsig import cli, distributional, gnn, graph

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Round:
    wall_s: float = 0.0
    op_s: list[tuple[str, float]] = field(default_factory=list)  # (op class, seconds)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(what)


def _worst(margin_dicts) -> dict[str, float]:
    worst: dict[str, float] = {}
    for margins in margin_dicts:
        for k, v in margins.items():
            worst[k] = min(worst.get(k, math.inf), v)
    return worst


def _op(tracer, tag=None):
    return tracer.span("bench.op", tag) if tracer is not None else contextlib.nullcontext()


class Workload:
    min_rounds: int
    max_rounds: int

    def round_time(self, inputs, rounds: list[Round]) -> float:
        """Typical time of one round: the median over the rounds run."""
        return statistics.median(rd.wall_s for rd in rounds)


# --- corpus ---------------------------------------------------------------

class Corpus(Workload):
    """Bound-chain fuzz corpus, one ``run_bound_corpus`` call per instance.

    The instance-class profile of a round is fixed (see make_pool.py), so
    every seed does the same amount of work; the seed picks which pooled
    instance of each class runs.  Each op's margins must equal the pool's
    reference within 1e-12.
    """

    min_rounds, max_rounds = 1, 16
    margin_tol = 1e-12

    def setup(self, seed: int):
        with open(os.path.join(HERE, "corpus_pool.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        pool, profile = spec["pool"], spec["profile"]
        rounds = []
        for r in range(self.max_rounds):
            rng = np.random.default_rng((seed, r))
            picks = {c: [pool[c][i] for i in rng.choice(len(pool[c]), k, replace=False)]
                     for c, k in sorted(Counter(profile).items())}
            rounds.append([(c, picks[c].pop()) for c in profile])
        # rebuild every pooled instance: it must still be of its recorded class
        for c, rows in pool.items():
            for row in rows:
                g, nn = distributional.random_bound_instance(
                    (row["seed"], 0), spec["max_n"], spec["max_m"])
                got = f"{g.n},{nn.m},{g.m},{graph.spanning_tree_count(g)}"
                if got != c:
                    raise RuntimeError(f"pool instance ({row['seed']}, 0) is class {got}, "
                                       f"recorded as {c}")
        return {"rounds": rounds, "profile": profile,
                "max_n": spec["max_n"], "max_m": spec["max_m"]}

    def describe(self, inputs) -> dict:
        return {"instances_per_round": len(inputs["rounds"][0]),
                "max_n": inputs["max_n"], "max_m": inputs["max_m"]}

    def run_round(self, inputs, r: int, tracer=None) -> Round:
        out = Round()
        reports = []
        for cls, row in inputs["rounds"][r]:
            out.attempted += 1
            try:
                with _op(tracer, row["seed"]):
                    t0 = time.perf_counter()
                    rep = distributional.run_bound_corpus(
                        1, row["seed"], max_n=inputs["max_n"], max_m=inputs["max_m"],
                        keep_instances=False)
                    dt = time.perf_counter() - t0
                out.wall_s += dt
                out.op_s.append((cls, dt))
            except Exception as e:  # a crashing op is a failed op, the run goes on
                out.fail(f"instance ({row['seed']}, 0): {type(e).__name__}: {e}")
                continue
            reports.append(rep)
            self._check(rep, row, out)
        out.outputs = {
            "worst_margins": _worst(rep["worst_margins"] for rep in reports),
            "c3_paper_pass_rate": (sum(rep["c3_paper_pass_rate"] for rep in reports)
                                   / max(len(reports), 1)),
        }
        return out

    def round_time(self, inputs, rounds: list[Round]) -> float:
        """Sum over the profile's slots of the median time of the slot's class.

        Instances of one class do the same work, so per-class medians over
        every round filter out the machine's slow and fast spells better than
        a median of a few whole rounds.
        """
        by_class = defaultdict(list)
        for rd in rounds:
            for cls, dt in rd.op_s:
                by_class[cls].append(dt)
        return sum(statistics.median(v) for c in inputs["profile"] if (v := by_class[c]))

    def _check(self, rep, row, out: Round) -> None:
        key = f"instance ({row['seed']}, 0)"
        if rep["violation_count"]:
            out.fail(f"{key}: violations {rep['violations']}")
            return
        got, ref = rep["worst_margins"], row["margins"]
        if set(got) != set(ref):
            out.fail(f"{key}: margin names {sorted(got)} != reference {sorted(ref)}")
            return
        bad = {k: (got[k], ref[k]) for k in ref
               if not abs(got[k] - ref[k]) <= self.margin_tol}
        if bad:
            out.fail(f"{key}: margins differ from reference: {bad}")
        if (rep["c3_paper_pass_rate"] == 1.0) != row["c3_paper_holds"]:
            out.fail(f"{key}: c3_paper_holds differs from reference")

    @staticmethod
    def summarize(rounds: list[Round]) -> dict:
        return {"worst_margins": _worst(rd.outputs["worst_margins"] for rd in rounds),
                "c3_paper_pass_rate_per_round": [rd.outputs["c3_paper_pass_rate"]
                                                 for rd in rounds]}


# --- cora_tune ------------------------------------------------------------

class CoraTune(Workload):
    """``distsig train --tune`` on a Cora-shaped stand-in, in process.

    The stand-in matches Cora's shape only: a 7-block SBM on 2,708 nodes with
    ~5.5k edges and 1,433 binary features at ~1.3% density, row-normalized.
    Its features carry no label signal; it is not for accuracy claims.
    """

    min_rounds, max_rounds = 1, 8
    nodes, classes, feat_dim = 2708, 7, 1433
    p_in, p_out, density = 0.0084, 0.00035, 0.013
    epochs = 10

    def __init__(self, workdir: str):
        self.workdir = workdir

    def _path(self, suffix: str) -> str:
        return os.path.join(self.workdir, f"standin{suffix}")

    def setup(self, seed: int):
        blocks = [self.nodes // self.classes + (k < self.nodes % self.classes)
                  for k in range(self.classes)]
        g, y = graph.sbm_generate(blocks, self.p_in, self.p_out, seed)
        rng = np.random.default_rng((seed, 1))
        f = (rng.random((self.nodes, self.feat_dim)) < self.density).astype(float)
        rs = f.sum(axis=1)
        f[rs > 0] /= rs[rs > 0][:, None]
        graph.write_graph_file(self._path(".graph"), g)
        graph.write_labels_file(self._path(".labels"), y)
        np.save(self._path(".features.npy"), f)
        return {"seed": seed, "graph": g, "feature_nnz": int(np.count_nonzero(f))}

    def describe(self, inputs) -> dict:
        g = inputs["graph"]
        _, comp = graph.main_component(g)
        return {"n": g.n, "m": g.m, "main_component": len(comp),
                "feature_dim": self.feat_dim, "feature_nnz": inputs["feature_nnz"],
                "epochs": self.epochs,
                "note": "synthetic Cora-shaped stand-in; not for accuracy claims"}

    def argv(self, seed: int) -> list[str]:
        return ["train", "--dataset", "file", "--graph", self._path(".graph"),
                "--labels", self._path(".labels"), "--features", self._path(".features.npy"),
                "--variant", "r", "--tune", "--epochs", str(self.epochs),
                "--seed", str(seed), "--per-class", "20", "--val-size", "500",
                "--test-size", "1000", "--out", self._path(".run.json")]

    def run_round(self, inputs, r: int, tracer=None) -> Round:
        out = Round(attempted=1)
        argv = self.argv(inputs["seed"])
        for suffix in (".run.json", ".run.json.probs.npy"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._path(suffix))
        try:
            with _op(tracer), contextlib.redirect_stdout(sys.stderr):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                out.wall_s = time.perf_counter() - t0
        except Exception as e:
            out.fail(f"cli.main raised {type(e).__name__}: {e}")
            return out
        if rc != 0:
            out.fail(f"exit code {rc}")
            return out
        with open(self._path(".run.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        probs = np.load(self._path(".run.json.probs.npy"))
        self._check(report, probs, out)
        out.outputs = {"test_acc": report["test_acc"], "eta": report["config"]["eta"],
                       "hf_fraction_per_class": report["hf_fraction_per_class"]}
        return out

    def _check(self, report, probs, out: Round) -> None:
        if probs.shape != (self.nodes, self.classes):
            out.fail(f"probabilities have shape {probs.shape}")
        elif not np.all(np.isfinite(probs)):
            out.fail("non-finite probabilities")
        elif (probs.min() < 0.0 or probs.max() > 1.0
              or np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9):
            out.fail("probabilities are not row-stochastic")
        if report["config"]["eta"] not in gnn.ETA_GRID:
            out.fail(f"chosen eta {report['config']['eta']} not in {gnn.ETA_GRID}")
        hf = report["hf_fraction_per_class"]
        if (not isinstance(hf, list) or len(hf) != self.classes
                or not all(0.0 <= v <= 1.0 for v in hf)):
            out.fail(f"high-frequency fractions out of [0, 1]: {hf}")

    @staticmethod
    def summarize(rounds: list[Round]) -> dict:
        return {"test_acc": [rd.outputs.get("test_acc") for rd in rounds],
                "chosen_eta": [rd.outputs.get("eta") for rd in rounds]}


# --- sbm_trend ------------------------------------------------------------

class SbmTrend(Workload):
    """Acceptance criterion 7a's loop: plain vs eta-tuned ``r`` on 4-block SBMs.

    Round k trains on block-model seed 1000*seed + k, so benchmark seed 0
    repeats criterion 7a's seeds 0..9 in its first ten rounds.
    """

    min_rounds, max_rounds = 10, 32
    trend_rounds = 10
    eta_grid = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)

    def setup(self, seed: int):
        rounds = []
        for k in range(self.max_rounds):
            s = 1000 * seed + k
            g, f, y = gnn.sbm_dataset((50, 50, 50, 50), 0.1, 0.01, seed=s)
            rounds.append((s, g, f, y, gnn.make_split(y, 5, 50, 100, s)))
        return rounds

    def describe(self, inputs) -> dict:
        return {"blocks": [50, 50, 50, 50], "p_in": 0.1, "p_out": 0.01,
                "epochs": gnn.TrainConfig().epochs, "eta_grid": list(self.eta_grid)}

    def run_round(self, inputs, r: int, tracer=None) -> Round:
        s, g, f, y, split = inputs[r]
        out = Round(attempted=1 + len(self.eta_grid))
        runs = []
        try:
            with _op(tracer, s):
                t0 = time.perf_counter()
                base = gnn.train(g, f, y, split, gnn.TrainConfig(variant="gcn", seed=s),
                                 analysis=False)
                out.wall_s += time.perf_counter() - t0
            runs.append(base)
            with _op(tracer, s):
                t0 = time.perf_counter()
                best, tuned = gnn.tune_eta(g, f, y, split, gnn.TrainConfig(variant="r", seed=s),
                                           grid=self.eta_grid, analysis=False)
                out.wall_s += time.perf_counter() - t0
            runs += tuned
        except Exception as e:
            out.fail(f"block-model seed {s}: {type(e).__name__}: {e}", out.attempted - len(runs))
            return out
        for m in runs:
            if not (np.all(np.isfinite(m.train_loss)) and np.all(np.isfinite(m.final_probs))):
                out.fail(f"block-model seed {s}, {m.config.variant} eta {m.config.eta}: "
                         "non-finite loss or output")
        out.outputs = {"diff": best.test_acc - base.test_acc}
        return out

    def summarize(self, rounds: list[Round]) -> dict:
        diffs = [rd.outputs["diff"] for rd in rounds[:self.trend_rounds] if rd.outputs]
        return {"trend_rounds": len(diffs),
                "mean_diff": float(np.mean(diffs)) if diffs else None,
                "nonnegative": sum(d >= 0.0 for d in diffs)}
