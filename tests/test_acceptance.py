"""Acceptance gate.

Nine numbered end-to-end checks, each printing one ACCEPTANCE line with the
measured quantities and its tolerance so a verbose run leaves a scannable
record.  The dataset-dependent checks (7b, 7c, 8, 9) skip when the raw Cora
files are not available; everything else is self-contained and seeded.
"""

import time

import numpy as np
import pytest

from distsig.distributional import BOUND_CORPUS, optimal_coupling, run_bound_corpus, wasserstein_sq
from distsig.gnn import (
    CORA_SPLIT,
    ETA_GRID,
    SBM_4BLOCK,
    SBM_ETA_GRID,
    SBM_SPLIT,
    VARIANTS,
    GcnParams,
    laplacian_sparse,
    loss_and_grad,
    normalized_adjacency,
    sbm_dataset,
    study,
)
from distsig.graph import build_graph, sbm_generate
from distsig.regularizer import confidence_weights, nonuniformity_bound_check, nonuniformity_counts
from distsig.spectral import laplacian_spectrum, total_variation
from oracles import coupling_lp_oracle

CORPUS_TRIALS = 500
CORPUS_SEED = 0

# margin floor shared by the inequality-chain criteria
MARGIN_FLOOR = -1e-9


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def bound_corpus():
    t0 = time.perf_counter()
    max_n, max_m = BOUND_CORPUS
    out = run_bound_corpus(CORPUS_TRIALS, CORPUS_SEED, max_n=max_n, max_m=max_m,
                           keep_instances=False)
    out["_elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_1_transport_closed_form():
    rng = np.random.default_rng(31)
    t0 = time.perf_counter()
    worst = 0.0
    diagonals_exact = True
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        x = rng.dirichlet(np.ones(m))
        y = rng.dirichlet(np.ones(m))
        worst = max(worst, abs(wasserstein_sq(x, y) - coupling_lp_oracle(x, y)))
        c = optimal_coupling(x, y)
        if not np.array_equal(np.diag(c), np.minimum(x, y)):
            diagonals_exact = False
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and diagonals_exact and elapsed < 10.0
    _line(1, ok, f"half-l1 transport formula vs LP on 1000 pairs, max gap "
                 f"{worst:.2e} (tol 1e-09); coupling diagonals exact: "
                 f"{diagonals_exact}; {elapsed:.1f}s (budget 10s)")
    assert worst <= 1e-9
    assert diagonals_exact
    assert elapsed < 10.0


def test_criterion_2_tree_route_chain(bound_corpus):
    names = ("tg2_le_tg1", "tg1_le_2tg", "2tg_le_tghv_min")
    worst = min(bound_corpus["worst_margins"][n] for n in names)
    violations = bound_corpus["violation_count"]
    elapsed = bound_corpus["_elapsed"]
    ok = violations == 0 and worst >= MARGIN_FLOOR and elapsed < 120.0
    _line(2, ok, f"l2 <= l1 <= 2*exact <= every rooted-tree bound on "
                 f"{bound_corpus['trials']} instances, {violations} violations, "
                 f"worst margin {worst:+.2e} (floor -1e-09); {elapsed:.1f}s "
                 f"(budget 120s)")
    assert violations == 0
    assert worst >= MARGIN_FLOOR
    assert elapsed < 120.0


def test_criterion_3_cover_clique_chain(bound_corpus):
    names = ("tg2_le_tg1", "tg1_le_2tcov", "tg1_le_2tg", "2min_le_c1_tg1",
             "tg1_le_c3_sqrt_tg2")
    worst = min(bound_corpus["worst_margins"][n] for n in names)
    violations = bound_corpus["violation_count"]
    rate = bound_corpus["c3_paper_pass_rate"]
    ok = violations == 0 and worst >= MARGIN_FLOOR
    _line(3, ok, f"l2 <= l1 <= 2*min(cover, exact) <= c1*l1 <= c1*c3*sqrt(l2) "
                 f"on the same {bound_corpus['trials']} instances, {violations} "
                 f"violations, worst margin {worst:+.2e}; sqrt(|S|n) tail "
                 f"constant holds on {100.0 * rate:.1f}% (reported, not asserted)")
    assert violations == 0
    assert worst >= MARGIN_FLOOR


def test_criterion_4_confidence_trace_bound():
    rng = np.random.default_rng(47)
    worst = np.inf
    sandwich_all = True
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(2, 8))
        x = rng.dirichlet(np.ones(m), size=n)
        r = nonuniformity_bound_check(x, -rng.random(n) * 3.0)
        worst = min(worst, r["bound_margin"])
        sandwich_all = sandwich_all and r["sandwich_holds"]
    ok = worst >= MARGIN_FLOOR and sandwich_all
    _line(4, ok, f"trace lower bound vs transport-to-uniform on 1000 random "
                 f"matrices, worst margin {worst:+.2e} (floor -1e-09); "
                 f"one-hot/uniform sandwich always held: {sandwich_all}")
    assert worst >= MARGIN_FLOOR
    assert sandwich_all


def test_criterion_5_eigen_variation_identity():
    rng = np.random.default_rng(59)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        g, _ = sbm_generate([n], 0.6, 0.6, seed=int(rng.integers(1 << 31)))
        vals, vecs = laplacian_spectrum(g)
        for i in range(n):
            tv = total_variation(g, vecs[:, i])
            worst = max(worst, abs(tv - vals[i]))
    ok = worst <= 1e-8
    _line(5, ok, f"eigenvector variation equals its eigenvalue on 50 graphs "
                 f"(n <= 12), max gap {worst:.2e} (tol 1e-08)")
    assert worst <= 1e-8


def test_criterion_6_gradient_correctness():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    f = np.eye(6)
    y = np.array([0, 0, 1, 1, 2, 2])
    train_idx = np.array([0, 2, 4])
    ahat = normalized_adjacency(g)
    lap = laplacian_sparse(g)
    a_vec = confidence_weights(g)
    rng = np.random.default_rng(61)
    h = 1e-6
    eta = np.array([0.3])  # the training objective itself, with gnn.WEIGHT_DECAY
    worst = 0.0
    for variant in ("r", "r1", "r2", "r3"):
        w1, w2 = rng.standard_normal((6, 4)) * 0.5, rng.standard_normal((4, 3)) * 0.5
        params = GcnParams(w1, w2[None])  # a stack of one; w2[None] views the live w2
        _, _, (dw1, dw2) = loss_and_grad(params, ahat, f, y, train_idx, lap, a_vec, variant, eta)
        for w, dw in ((w1, dw1), (w2, dw2[0])):
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    orig = w[i, j]
                    w[i, j] = orig + h
                    fp = loss_and_grad(params, ahat, f, y, train_idx, lap, a_vec,
                                       variant, eta)[0][0]
                    w[i, j] = orig - h
                    fm = loss_and_grad(params, ahat, f, y, train_idx, lap, a_vec,
                                       variant, eta)[0][0]
                    w[i, j] = orig
                    num = (fp - fm) / (2.0 * h)
                    rel = abs(num - dw[i, j]) / max(1.0, abs(dw[i, j]))
                    worst = max(worst, rel)
    ok = worst <= 1e-4
    _line(6, ok, f"full-loss gradients vs central differences for variants "
                 f"r/r1/r2/r3 on a 6-node instance, every parameter entry, "
                 f"worst relative error {worst:.2e} (tol 1e-04)")
    assert worst <= 1e-4


# eta is a tunable knob with no pinned value; the trend checks select it per
# seed by validation accuracy over gnn.SBM_ETA_GRID.


def test_criterion_7a_block_model_trend():
    # the protocol (graphs, splits, tuned runs, analyses) lives in gnn.study,
    # which scripts/run_study.py also runs; the seeds, thresholds and time
    # budget are the gate's own
    t0 = time.perf_counter()
    runs = study({s: sbm_dataset(*SBM_4BLOCK, seed=s) for s in range(10)}, SBM_SPLIT,
                 SBM_ETA_GRID, ("gcn", "r"))
    diffs = [runs["r", s].test_acc - runs["gcn", s].test_acc for s in range(10)]
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(diffs))
    nonneg = sum(d >= 0.0 for d in diffs)
    ok = mean >= 0.0 and nonneg >= 8 and elapsed < 120.0
    _line("7a", ok, f"4-block trend with validation-tuned regularization, "
                    f"mean(r - gcn) {mean:+.4f} (need >= 0), nonnegative in "
                    f"{nonneg}/10 seeds (need >= 8); {elapsed:.1f}s (budget 120s)")
    assert mean >= 0.0
    assert nonneg >= 8
    assert elapsed < 120.0


CORA_SEEDS = range(5)


@pytest.fixture(scope="module")
def cora_runs(cora):
    # the protocol (splits, tuned runs, one analysis) lives in gnn.study,
    # which scripts/run_study.py also runs; _elapsed is its training and
    # analysis together
    t0 = time.perf_counter()
    runs = study(dict.fromkeys(CORA_SEEDS, cora), CORA_SPLIT, ETA_GRID, VARIANTS)
    runs["_elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_7b_cora_accuracy(cora_runs):
    base = [cora_runs["gcn", s].test_acc for s in CORA_SEEDS]
    reg = [cora_runs["r", s].test_acc for s in CORA_SEEDS]
    mean_base = float(np.mean(base))
    mean_gain = float(np.mean(reg) - mean_base)
    ok = 0.79 <= mean_base <= 0.83 and mean_gain >= 0.01
    _line("7b", ok, f"cora mean gcn accuracy {mean_base:.4f} (need [0.79, 0.83]), "
                    f"mean tuned-r gain {mean_gain:+.4f} (need >= +0.01) over 5 seeds")
    assert 0.79 <= mean_base <= 0.83
    assert mean_gain >= 0.01


def test_criterion_7c_cora_ablation(cora_runs):
    means = {
        v: float(np.mean([cora_runs[v, s].test_acc for s in CORA_SEEDS]))
        for v in ("r", "r1", "r2", "r3")
    }
    ok = (means["r"] >= means["r2"] and means["r"] >= means["r1"]
          and all(means["r3"] < means[v] for v in ("r", "r1", "r2")))
    elapsed = cora_runs["_elapsed"]
    _line("7c", ok, f"cora ablation means r {means['r']:.4f}, r1 {means['r1']:.4f}, "
                    f"r2 {means['r2']:.4f}, r3 {means['r3']:.4f}; need r >= r1, "
                    f"r >= r2, r3 strictly worst; cumulative training "
                    f"{elapsed:.0f}s (budget 900s)")
    assert means["r"] >= means["r2"]
    assert means["r"] >= means["r1"]
    assert all(means["r3"] < means[v] for v in ("r", "r1", "r2"))
    assert elapsed < 900.0


def test_criterion_8_cora_spectral_shrinkage(cora_runs):
    # first output column, on the main component, at the final epoch
    wins = 0
    pairs = []
    for s in CORA_SEEDS:
        hf_base = cora_runs["gcn", s].hf_fraction_per_class[0]
        hf_reg = cora_runs["r", s].hf_fraction_per_class[0]
        pairs.append((hf_base, hf_reg))
        if hf_reg < hf_base:
            wins += 1
    ok = wins >= 4
    detail = ", ".join(f"{b:.3f}->{r:.3f}" for b, r in pairs)
    _line(8, ok, f"high-frequency fraction of output column 1 shrinks under "
                 f"regularization in {wins}/5 seeds (need >= 4): {detail}")
    assert wins >= 4


def test_criterion_9_cora_nonuniformity(cora_runs):
    wins = 0
    total_entries = None
    for s in CORA_SEEDS:
        xb = cora_runs["gcn", s].final_probs
        xr = cora_runs["r", s].final_probs
        total_entries = xb.size
        ub, ob = nonuniformity_counts(xb, 0.01)
        ur, orr = nonuniformity_counts(xr, 0.01)
        if ur < ub and orr > ob:
            wins += 1
    ok = wins >= 4 and total_entries == 18956
    _line(9, ok, f"regularized outputs have fewer near-uniform and more "
                 f"near-one entries in {wins}/5 seeds (need >= 4); total "
                 f"entries {total_entries} (need 18956)")
    assert wins >= 4
    assert total_entries == 18956


# --- block-model analogues of the dataset-dependent trends -----------------
# These always run: same machinery as criteria 8/9 on a synthetic graph.
# Small dense graphs do not warrant the strict 4/5 vote, so the assertions
# are structural and the observed direction is printed for the record.

@pytest.fixture(scope="module")
def sbm_pair():
    runs = study({1: sbm_dataset((60, 60), 0.15, 0.01, seed=1)}, (5, 30, 60), SBM_ETA_GRID,
                 ("gcn", "r"))
    return runs["gcn", 1], runs["r", 1]


def test_sbm_shrinkage_sanity(sbm_pair):
    base, reg = sbm_pair
    assert len(base.hf_fraction_per_class) == 2
    assert all(0.0 <= h <= 1.0 for h in base.hf_fraction_per_class)
    print(f"block-model analogue of criterion 8: column-1 high-frequency "
          f"fraction gcn {base.hf_fraction_per_class[0]:.4f} vs r "
          f"{reg.hf_fraction_per_class[0]:.4f}")


def test_sbm_nonuniformity_sanity(sbm_pair):
    base, reg = sbm_pair
    ub, ob = nonuniformity_counts(base.final_probs, 0.01)
    ur, orr = nonuniformity_counts(reg.final_probs, 0.01)
    n_entries = base.final_probs.size
    assert 0 <= ub <= n_entries and 0 <= ob <= n_entries
    assert 0 <= ur <= n_entries and 0 <= orr <= n_entries
    print(f"block-model analogue of criterion 9: near-uniform {ub}->{ur}, "
          f"near-one {ob}->{orr} of {n_entries} entries")
