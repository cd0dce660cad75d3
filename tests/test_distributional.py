import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distsig
from distsig import distributional, graph, simplex
from distsig.distributional import (
    BOUND_CORPUS,
    Marginals,
    check_tv_bounds,
    optimal_coupling,
    random_bound_instance,
    run_bound_corpus,
    tv_cover,
    tv_exact,
    tv_l1_l2,
    tv_tree_rooted,
    wasserstein_sq,
)
from distsig.graph import (
    COVER_MAX_EDGES,
    GraphError,
    build_graph,
    clique_number_complement,
    cover_size_cap,
    enumerate_spanning_trees,
    laplacian_sparse,
)
from distsig.regularizer import check_prob_matrix
from distsig.simplex import ROW_SUM_TOL, solve_lp
from oracles import (
    coupling_lp_oracle,
    joint_lp_by_loops,
    recorded_lps,
    tree_edges,
    tv_exact_two_phase,
)


def _dirichlet_pair(rng, m):
    return rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))


# --- distribution / marginal types ---------------------------------------

def test_marginals_validation():
    nn = Marginals(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert nn.n == 2 and nn.m == 2
    with pytest.raises(ValueError, match="row 1"):
        Marginals(np.array([[0.5, 0.5], [0.9, 0.0]]))
    assert not nn.matrix.flags.writeable


def _rows_with(i, j, value):
    """The rows [[0.5, 0.5], [0.25, 0.75]] with entry (i, j) set to value(tol)."""
    def make(tol):
        x = np.array([[0.5, 0.5], [0.25, 0.75]])
        x[i, j] = value(tol)
        return x
    return make


# both entry points to the one row rule, each at its own tolerance
ROW_CHECKS = {"Marginals": (lambda x: Marginals(x).matrix, ROW_SUM_TOL),
              "check_prob_matrix": (check_prob_matrix, 1e-7)}


@pytest.mark.parametrize("entry", ROW_CHECKS)
@pytest.mark.parametrize("make, message", [
    (lambda tol: np.zeros((0, 3)), r"got shape \(0, 3\)$"),
    (lambda tol: np.zeros((3, 0)), r"got shape \(3, 0\)$"),
    (lambda tol: np.full(3, 1.0), r"got shape \(3,\)$"),
    (_rows_with(0, 0, lambda tol: np.nan), "^non-finite entries$"),
    (_rows_with(0, 0, lambda tol: -2 * tol), "^negative entry -"),
    (_rows_with(1, 1, lambda tol: 0.75 + 2 * tol), r"^row 1 sums to 1\.0+\d+, not 1$"),
], ids=["empty-rows", "empty-columns", "1-D", "nan", "below-minus-tol", "row-sum-off-by-2tol"])
def test_both_row_checks_refuse_the_same_matrices(entry, make, message):
    check, tol = ROW_CHECKS[entry]
    with pytest.raises(ValueError, match=message):
        check(make(tol))
    # an entry within tol below 0 passes, clipped to 0 in a new array
    x = np.array([[-tol / 2, 1.0 + tol / 2], [0.25, 0.75]])
    got = check(x)
    assert got[0, 0] == 0.0 and np.array_equal(got[1:], x[1:]) and got is not x


# --- pairwise transport ----------------------------------------------------

def test_wasserstein_delta_pair():
    assert wasserstein_sq([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_wasserstein_identical():
    mu = np.array([0.4, 0.35, 0.25])
    assert wasserstein_sq(mu, mu) == 0.0


def test_wasserstein_half_overlap():
    assert abs(wasserstein_sq([0.5, 0.5], [0.2, 0.8]) - 0.3) < 1e-15


def test_wasserstein_symmetric_and_bounded(rng):
    for _ in range(20):
        x, y = _dirichlet_pair(rng, 4)
        w = wasserstein_sq(x, y)
        assert 0.0 <= w <= 1.0
        assert w == wasserstein_sq(y, x)


def test_wasserstein_alphabet_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        wasserstein_sq([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="mismatch"):
        wasserstein_sq(np.full((3, 2), 0.5), np.full(3, 1.0 / 3.0))


def test_wasserstein_rowwise_equals_pairs(rng):
    # stacked rows give one distance per row, bitwise equal to the pair calls,
    # and a single row broadcasts against every row of a stack
    x = rng.dirichlet(np.ones(4), size=30)
    y = rng.dirichlet(np.ones(4), size=30)
    w = wasserstein_sq(x, y)
    assert w.shape == (30,)
    assert np.array_equal(w, [wasserstein_sq(a, b) for a, b in zip(x, y)])
    u = np.full(4, 0.25)
    assert np.array_equal(wasserstein_sq(x, u), [wasserstein_sq(a, u) for a in x])


def _off_diagonal(c):
    """Transport cost of a coupling under the discrete (0/1) ground metric."""
    return float(c.sum() - np.trace(c))


def test_optimal_coupling_worked_example():
    c = optimal_coupling([0.5, 0.5], [0.3, 0.7])
    assert np.allclose(c, [[0.3, 0.2], [0.0, 0.5]], atol=1e-15)
    assert abs(_off_diagonal(c) - 0.2) < 1e-15


def test_optimal_coupling_identical_is_diagonal():
    mu = np.array([0.1, 0.2, 0.7])
    c = optimal_coupling(mu, mu)
    assert np.allclose(c, np.diag(mu))
    assert _off_diagonal(c) == 0.0


def test_optimal_coupling_disjoint_deltas():
    c = optimal_coupling([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    expect = np.zeros((3, 3))
    expect[0, 1] = 1.0
    assert np.allclose(c, expect)
    assert abs(_off_diagonal(c) - 1.0) < 1e-15


def test_optimal_coupling_diagonal_is_exact_min(rng):
    for _ in range(50):
        x, y = _dirichlet_pair(rng, 5)
        c = optimal_coupling(x, y)
        # exact equality, not approximate: the diagonal is assigned directly
        assert np.array_equal(np.diag(c), np.minimum(x, y))
        assert abs(_off_diagonal(c) - wasserstein_sq(x, y)) < 1e-9


def test_optimal_coupling_is_a_coupling(rng):
    # marginals, nonnegativity and cost, on pairs of 2..8 labels with some
    # exact zeros so that empty rows and columns occur
    checked = 0
    for _ in range(300):
        m = int(rng.integers(2, 9))
        x, y = _dirichlet_pair(rng, m)
        x[rng.random(m) < 0.2] = 0.0
        y[rng.random(m) < 0.2] = 0.0
        if x.sum() == 0.0 or y.sum() == 0.0:
            continue
        x, y = x / x.sum(), y / y.sum()
        c = optimal_coupling(x, y)
        assert c.shape == (m, m)
        assert np.max(np.abs(c.sum(axis=1) - x)) <= 1e-9
        assert np.max(np.abs(c.sum(axis=0) - y)) <= 1e-9
        assert np.min(c) >= -1e-12
        assert abs(_off_diagonal(c) - wasserstein_sq(x, y)) <= 1e-9
        checked += 1
    assert checked >= 200


def test_lp_oracle_examples():
    assert abs(coupling_lp_oracle([1.0, 0.0], [0.0, 1.0]) - 1.0) < 1e-12
    assert coupling_lp_oracle([0.5, 0.5], [0.5, 0.5]) < 1e-12


def test_lp_oracle_rejects_large_alphabet():
    w = np.full(7, 1.0 / 7.0)
    with pytest.raises(ValueError, match="too large"):
        coupling_lp_oracle(w, w)


def test_closed_form_matches_lp_oracle(rng):
    # the two routes are independent: half-l1 formula vs transport LP
    for _ in range(200):
        m = int(rng.integers(2, 6))
        x, y = _dirichlet_pair(rng, m)
        assert abs(wasserstein_sq(x, y) - coupling_lp_oracle(x, y)) < 1e-9


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_wasserstein_triangle_inequality(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(np.ones(m))
    b = rng.dirichlet(np.ones(m))
    c = rng.dirichlet(np.ones(m))
    wa = np.sqrt(wasserstein_sq(a, c))
    wb = np.sqrt(wasserstein_sq(a, b)) + np.sqrt(wasserstein_sq(b, c))
    assert wa <= wb + 1e-9


# --- variation notions -----------------------------------------------------

DELTA_TRIANGLE = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_tv_l1_l2_edge_pair(p2):
    assert tv_l1_l2(p2, np.array([[1.0, 0.0], [0.0, 1.0]])) == (2.0, 2.0)


def test_tv_l1_l2_constant_rows(triangle):
    x = np.tile([0.3, 0.7], (3, 1))
    assert tv_l1_l2(triangle, x) == (0.0, 0.0)


def test_tv_l1_l2_triangle_deltas(triangle):
    l1, l2 = tv_l1_l2(triangle, DELTA_TRIANGLE)
    assert abs(l1 - 4.0) < 1e-12
    assert abs(l2 - 4.0) < 1e-12


def test_tv_l1_l2_bitwise_equal_to_edge_loop():
    # the edge-at-a-time loop it replaced, as the oracle: one float per edge,
    # added in g.edges order
    def edge_loop(g, x):
        l1 = l2 = 0.0
        for u, v in g.edges:
            diff = x[u] - x[v]
            l1 += float(np.abs(diff).sum())
            l2 += float((diff * diff).sum())
        return l1, l2

    cases = [(g, nn.matrix) for g, nn in
             (random_bound_instance((0, i), *BOUND_CORPUS) for i in range(100))]
    rng = np.random.default_rng(12)
    for m in (8, 9, 17, 100):  # alphabets long enough for pairwise row sums
        g = build_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12) if (i + j) % 3])
        cases.append((g, rng.dirichlet(np.full(m, 0.3), size=12)))
    cases.append((build_graph(1, []), np.ones((1, 3)) / 3.0))  # no edges
    for g, x in cases:
        assert tv_l1_l2(g, x) == edge_loop(g, x)


def test_tv_l1_l2_size_mismatch(triangle):
    with pytest.raises(ValueError, match="match"):
        tv_l1_l2(triangle, np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_tv_l2_le_l1_random(rng):
    for _ in range(20):
        g, nn = random_bound_instance(int(rng.integers(1 << 30)), *BOUND_CORPUS)
        l1, l2 = tv_l1_l2(g, nn)
        assert l2 <= l1 + 1e-9


def test_tv_l2_matches_laplacian_trace_on_corpus():
    # the squared-l2 variation equals Tr(X^T L X) on criterion 2's instances
    for i in range(500):
        g, nn = random_bound_instance((0, i), *BOUND_CORPUS)
        x = nn.matrix
        _, l2 = tv_l1_l2(g, nn)
        trace = float(np.sum(x * (laplacian_sparse(g).toarray() @ x)))
        assert abs(l2 - trace) <= 1e-9 * max(1.0, abs(l2)), i


def test_tv_exact_two_node_is_wasserstein(p2):
    assert abs(tv_exact(p2, np.array([[1.0, 0.0], [0.0, 1.0]])) - 1.0) < 1e-9


def test_tv_exact_two_node_matches_wasserstein_random(p2, rng):
    for _ in range(15):
        x, y = _dirichlet_pair(rng, 3)
        got = tv_exact(p2, np.vstack([x, y]))
        assert abs(got - wasserstein_sq(x, y)) < 1e-9


def test_tv_exact_identical_deltas(triangle):
    x = np.tile([0.0, 1.0, 0.0], (3, 1))
    assert tv_exact(triangle, x) < 1e-12


def test_tv_exact_triangle_deltas(triangle):
    # delta marginals admit exactly one joint; two edges disagree
    assert abs(tv_exact(triangle, DELTA_TRIANGLE) - 2.0) < 1e-9


def test_tv_exact_table_cap():
    g = build_graph(7, [(i, i + 1) for i in range(6)])
    x = np.tile([0.5, 0.25, 0.25], (7, 1))
    with pytest.raises(ValueError, match="too large"):
        tv_exact(g, x)


def test_tv_exact_lp_bitwise_equal_to_loop_build_on_corpus(monkeypatch):
    # the numpy build of the joint LP's cost, kept rows, right-hand side and
    # staircase start gives the loops' arrays, bit for bit, on criterion 2's
    # instances
    for i in range(500):
        g, nn = random_bound_instance((0, i), *BOUND_CORPUS)
        lps = recorded_lps(monkeypatch, lambda: tv_exact(g, nn))
        assert len(lps) == 1
        for got, want in zip(lps[0], joint_lp_by_loops(g, nn.matrix)):
            assert got.dtype == want.dtype and got.shape == want.shape, i
            assert got.tobytes() == want.tobytes(), i


def test_tv_exact_joint_reproduces_marginals(triangle, rng, monkeypatch):
    x = np.vstack([rng.dirichlet(np.ones(2)) for _ in range(3)])
    lps = recorded_lps(monkeypatch, lambda: tv_exact(triangle, x))
    assert len(lps) == 1
    joint, val = solve_lp(*lps[0])
    assert val >= -1e-12
    # one variable per label tuple, in itertools.product order: one axis per node
    table = joint.reshape((2,) * 3)
    assert np.min(table) >= -1e-9
    assert abs(float(table.sum()) - 1.0) <= 1e-7
    for i in range(3):
        w = table.sum(axis=tuple(a for a in range(3) if a != i))
        assert np.allclose(w / w.sum(), x[i], atol=1e-7)


_GAP = 9e-10  # a row-sum gap just inside Marginals' 1e-9
_PATH3 = [(0, 1), (1, 2)]
_TRIANGLE = [(0, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize("n, edges, x", [
    (1, [], [[0.2, 0.3, 0.5]]),
    (3, _TRIANGLE, [[1.0], [1.0], [1.0]]),
    (3, _TRIANGLE, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    (3, _PATH3, [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
    (3, _TRIANGLE, [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]]),
    (4, _PATH3 + [(2, 3)], [[0.0, 0.25, 0.0, 0.75], [0.0, 0.0, 1.0, 0.0],
                            [0.25, 0.0, 0.0, 0.75], [0.0, 0.5, 0.5, 0.0]]),
    (3, _TRIANGLE, [[0.2, 0.3, 0.5]] * 3),
    (4, _PATH3 + [(0, 3)], [[0.5, 0.5]] * 4),
    # node 0 short or over: its last cell starts at -_GAP or +_GAP
    (2, [(0, 1)], [[0.5, 0.5 - _GAP], [1.0, 0.0]]),
    (2, [(0, 1)], [[0.5, 0.5 + _GAP], [1.0, 0.0]]),
    # another node over or short, with a zero last label
    (2, [(0, 1)], [[0.5, 0.5], [1.0 + _GAP, 0.0]]),
    (2, [(0, 1)], [[0.5, 0.5], [1.0 - _GAP, 0.0]]),
    (2, [(0, 1)], [[1.0, 0.0], [0.5, 0.5 + _GAP]]),
    (2, [(0, 1)], [[1.0, 0.0], [0.5, 0.5 - _GAP]]),
    (3, _PATH3, [[0.3, 0.7], [1.0 + _GAP, 0.0], [1.0, 0.0]]),
    (3, _PATH3, [[0.3, 0.7], [0.6, 0.4 + _GAP], [1.0, 0.0]]),
], ids=["one-node", "one-label", "one-hot", "one-hot-m2", "zeros", "zeros-m4",
        "identical", "identical-m2", "node0-short", "node0-over", "node1-over",
        "node1-short", "node1-over-onehot0", "node1-short-onehot0", "path-node1-over",
        "path-node1-over-in-last-label"])
def test_tv_exact_staircase_edge_cases_equal_two_phase_reference(monkeypatch, n, edges, x):
    g = build_graph(n, edges)
    x = np.array(x)
    lps = recorded_lps(monkeypatch, lambda: tv_exact(g, x))
    _, a, _, basis = lps[0]
    assert basis.size == a.shape[0] == n * (x.shape[1] - 1) + 1
    # exact ties between the masses left pick the lowest node, as the loops do
    for got, want in zip(lps[0], joint_lp_by_loops(g, x)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert abs(tv_exact(g, x) - tv_exact_two_phase(g, x)) <= 1e-12


_EDGE_GAP = 0.999 * ROW_SUM_TOL  # a row-sum gap at the edge of what Marginals admits


@pytest.mark.parametrize("n, edges, x, lowest", [
    (2, [(0, 1)], [[0.5, 0.5 - _EDGE_GAP], [1.0 + _EDGE_GAP, 0.0]], -2 * _EDGE_GAP),
    (2, [(0, 1)], [[0.5, 0.5 + _EDGE_GAP], [1.0 - _EDGE_GAP, 0.0]], 2 * _EDGE_GAP),
    (3, _PATH3, [[0.5, 0.5 - _EDGE_GAP], [0.5, 0.5], [1.0 + _EDGE_GAP, 0.0]], -2 * _EDGE_GAP),
], ids=["node0-short", "node0-over", "path-node2-over"])
def test_tv_exact_solves_rows_at_the_row_sum_tolerance(monkeypatch, n, edges, x, lowest):
    # rows that Marginals admits, off 1 in opposite directions, with a zero
    # last label on the other node: the staircase's lowest start value is
    # node 0's row sum minus the other's, down to -2 * ROW_SUM_TOL, which
    # simplex.START_TOL admits
    g, x = build_graph(n, edges), np.array(x)
    Marginals(x)
    starts = []
    real = simplex._run_phase
    monkeypatch.setattr(simplex, "_run_phase",
                        lambda tab, *args: starts.append(tab[:-1, -1].min()) or real(tab, *args))
    assert abs(tv_exact(g, x) - 0.5) <= 1e-8
    assert abs(starts[0] - lowest) <= 1e-15


def test_tv_exact_reports_a_start_beyond_the_limit(monkeypatch, p2):
    # under a limit of one row-sum tolerance the same rows are refused, and
    # tv_exact names the solver's reason
    monkeypatch.setattr(simplex, "START_TOL", ROW_SUM_TOL)
    with pytest.raises(RuntimeError, match="joint coupling LP .* for valid marginals: "
                                           "basis start value -1.998e-09 is below -1e-09"):
        tv_exact(p2, [[0.5, 0.5 - _EDGE_GAP], [1.0 + _EDGE_GAP, 0.0]])


# the row of the triangle's tree table with edges (0, 1), (1, 2), over its
# edges (0, 1), (0, 2), (1, 2)
TRIANGLE_PATH = 1


def test_tv_tree_on_tree_equals_l1():
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    rng = np.random.default_rng(9)
    x = np.vstack([rng.dirichlet(np.ones(3)) for _ in range(4)])
    l1, _ = tv_l1_l2(g, x)
    got = tv_tree_rooted(g, x)  # g is its own one spanning tree
    assert got.shape == (1, 4)
    for v0 in range(4):
        assert abs(got[0, v0] - l1) < 1e-12


def test_tv_tree_triangle_worked_example(triangle):
    assert triangle.spanning_trees[TRIANGLE_PATH].tolist() == [True, False, True]
    got = tv_tree_rooted(triangle, DELTA_TRIANGLE)
    assert got.shape == (3, 3)
    assert abs(got[TRIANGLE_PATH, 0] - 4.0) < 1e-12


def test_tv_tree_identical_marginals(triangle):
    x = np.tile([0.6, 0.4], (3, 1))
    assert abs(tv_tree_rooted(triangle, x)[TRIANGLE_PATH, 2]) < 1e-12


def test_tree_notions_on_a_path_over_63_edges():
    # a path is its own one spanning tree, so its bound at any root is its
    # l1; the cover search refuses the host before it lists the trees
    for n in (64, 70):
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        x = np.vstack([np.linspace(0.1, 0.9, n), np.linspace(0.9, 0.1, n)]).T
        with pytest.raises(GraphError, match=rf"^cover search infeasible for {g.m} edges "
                                             rf"\(limit {COVER_MAX_EDGES}\)$"):
            tv_cover(g, x, 3)
        assert "spanning_trees" not in vars(g)  # not yet listed
        assert abs(tv_tree_rooted(g, x)[0, 0] - tv_l1_l2(g, x)[0]) < 1e-12


def test_tree_notions_refuse_a_disconnected_host():
    # both bounds read the host's own trees, so both refuse what the
    # enumeration refuses, edgeless hosts included
    x = np.full((4, 2), 0.5)
    for g in (build_graph(2, []), build_graph(4, [(0, 1), (2, 3)])):
        for notion in (lambda: tv_tree_rooted(g, x[:g.n]), lambda: tv_cover(g, x[:g.n], 3)):
            with pytest.raises(GraphError, match="^graph disconnected$"):
                notion()


def test_bounds_enumerate_each_host_once(monkeypatch):
    # the enumeration is the one caller of the spanning test: one call per
    # chunk of candidate subsets, and none from either bound
    calls = []
    real = graph._spans

    def counting(g, rows):
        calls.append(len(rows))
        return real(g, rows)

    monkeypatch.setattr(graph, "_spans", counting)
    monkeypatch.setattr(graph, "_TREE_CHUNK", 64)  # K5's 210 candidate subsets take 4 chunks
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    hosts = [build_graph(3, [(0, 1), (0, 2), (1, 2)]), k5]
    for g in hosts:
        calls.clear()
        r = check_tv_bounds(g, np.full((g.n, 2), 0.5))
        subsets = math.comb(g.m, g.n - 1)
        assert calls == [min(graph._TREE_CHUNK, subsets - lo)
                         for lo in range(0, subsets, graph._TREE_CHUNK)]
        trees = enumerate_spanning_trees(g)
        assert trees is g.spanning_trees and not trees.flags.writeable
        assert r["tree_count"] == len(trees)


def _cover_cap(g):
    """The cover-size cap that check_tv_bounds passes to tv_cover."""
    return cover_size_cap(clique_number_complement(g)[1])


def test_tv_cover_single_node():
    # no edge to cover: no tree is chosen
    g = build_graph(1, [])
    assert tv_cover(g, [[1.0]], _cover_cap(g)) == (0.0, [])
    assert check_tv_bounds(g, [[1.0]])["cover_size"] == 0


def test_tv_cover_tree_graph():
    g = build_graph(3, [(0, 1), (1, 2)])
    x = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    val, cover = tv_cover(g, x, _cover_cap(g))
    l1, _ = tv_l1_l2(g, x)
    assert abs(val - 0.5 * l1) < 1e-12
    assert cover == [0]
    assert set(tree_edges(g, g.spanning_trees[0])) == set(g.edges)


def test_tv_cover_triangle_worked_example(triangle):
    trees = triangle.spanning_trees
    val, cover = tv_cover(triangle, DELTA_TRIANGLE, 3)
    assert abs(val - 2.0) < 1e-12
    # witness: two trees that share the zero-variation edge (0,1)
    assert len(cover) == 2
    union = set()
    for t in cover:
        union |= set(tree_edges(triangle, trees[t]))
    assert union == set(triangle.edges)
    assert all((0, 1) in tree_edges(triangle, trees[t]) for t in cover)


def test_tv_cover_identical_marginals(triangle):
    x = np.tile([0.2, 0.8], (3, 1))
    val, _ = tv_cover(triangle, x, _cover_cap(triangle))
    assert val == 0.0


def test_tv_cover_monotone_in_cap():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    rng = np.random.default_rng(11)
    x = np.vstack([rng.dirichlet(np.ones(2)) for _ in range(4)])
    v1, _ = tv_cover(g, x, 1) if _cover_exists(g, x, 1) else (np.inf, None)
    v2, _ = tv_cover(g, x, 2)
    v3, _ = tv_cover(g, x, 3)
    assert v3 <= v2 + 1e-12
    assert v2 <= v1 + 1e-12


def _cover_exists(g, x, cap):
    try:
        tv_cover(g, x, cap)
        return True
    except GraphError:
        return False


# --- inequality chains -----------------------------------------------------

def test_bounds_triangle_worked_example(triangle):
    r = check_tv_bounds(triangle, DELTA_TRIANGLE)
    assert r["violations"] == []
    assert abs(r["tg1"] - 4.0) < 1e-12
    assert abs(r["tg2"] - 4.0) < 1e-12
    assert abs(r["tg_exact"] - 2.0) < 1e-9
    assert abs(r["tcov"] - 2.0) < 1e-12
    assert r["c1"] == 2
    # front of the chain is tight: tg2 = tg1 = 2*min(tcov, tg) = 4, c1*tg1 = 8
    assert abs(2.0 * min(r["tcov"], r["tg_exact"]) - 4.0) < 1e-9
    for key in ("graph", "marginals", "tg1", "tg2", "tg_exact", "tcov",
                "tghv_min", "c1", "c3", "violations"):
        assert key in r


def test_bounds_degenerate_zeros(triangle):
    x = np.tile([0.5, 0.5], (3, 1))
    r = check_tv_bounds(triangle, x)
    assert r["violations"] == []
    assert r["tg1"] == 0.0 and r["tg2"] == 0.0
    assert abs(r["tg_exact"]) < 1e-9
    assert abs(r["tcov"]) < 1e-12
    assert abs(r["tghv_min"]) < 1e-12


def test_bounds_compute_clique_constant_once(triangle, monkeypatch):
    calls = []
    real = distributional.clique_number_complement

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(distributional, "clique_number_complement", counting)
    r = check_tv_bounds(triangle, DELTA_TRIANGLE)
    assert len(calls) == 1
    assert r["c1"] == 2 and r["cover_size"] == 2


def test_bounds_same_report_for_plain_rows_checked_once(monkeypatch):
    g, nn = random_bound_instance((0, 3), *BOUND_CORPUS)
    want = json.dumps(check_tv_bounds(g, nn))
    checks = []
    real = Marginals.__post_init__

    def counting(self):
        checks.append(self)
        real(self)

    monkeypatch.setattr(Marginals, "__post_init__", counting)
    assert json.dumps(check_tv_bounds(g, nn.matrix.copy())) == want
    assert len(checks) == 1


def test_bound_check_leaves_scipy_optimize_unimported():
    # importing scipy.optimize adds about 26 MB of resident memory
    code = ("import sys, distsig\n"
            "from distsig.distributional import BOUND_CORPUS\n"
            "distsig.check_tv_bounds(*distsig.random_bound_instance((0, 0), *BOUND_CORPUS))\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n")
    src = str(Path(distsig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_random_instance_deterministic():
    g1, n1 = random_bound_instance((5, 17), *BOUND_CORPUS)
    g2, n2 = random_bound_instance((5, 17), *BOUND_CORPUS)
    assert g1.edges == g2.edges
    assert np.array_equal(n1.matrix, n2.matrix)


def test_corpus_small_clean():
    out = run_bound_corpus(30, seed=123, max_n=BOUND_CORPUS[0], max_m=BOUND_CORPUS[1],
                           keep_instances=False)
    assert out["violation_count"] == 0
    assert out["violations"] == []
    assert all(v >= -1e-9 for v in out["worst_margins"].values())
    assert 0.0 <= out["c3_paper_pass_rate"] <= 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_bound_chain_property(seed):
    g, nn = random_bound_instance(seed, max_n=5, max_m=3)
    r = check_tv_bounds(g, nn)
    assert r["violations"] == []
