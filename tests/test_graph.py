import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsig import graph
from distsig.distributional import BOUND_CORPUS, random_bound_instance, run_bound_corpus
from distsig.gnn import SBM_4BLOCK, sbm_dataset
from distsig.graph import (
    COVER_MAX_EDGES,
    TREE_CAP,
    TREE_SUBSET_CAP,
    Graph,
    GraphError,
    build_graph,
    clique_number_complement,
    connected_components,
    enumerate_spanning_trees,
    induced_subgraph,
    is_connected,
    laplacian_sparse,
    main_component,
    normalized_adjacency,
    read_graph_file,
    read_labels_file,
    sbm_generate,
    spanning_tree_count,
    write_graph_file,
    write_labels_file,
)
from oracles import (
    covers,
    induced_subgraph_by_dict,
    min_tree_cover,
    sbm_generate_all_pairs,
    tree_edges,
)


def test_build_triangle(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert list(triangle.degrees) == [2, 2, 2]


def test_build_p2(p2):
    assert list(p2.degrees) == [1, 1]
    assert p2.edges == ((0, 1),)


def test_build_normalizes_edge_order():
    g = build_graph(3, [(2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match="range"):
        build_graph(3, [(0, 3)])


def test_build_rejects_duplicate_edge():
    # the offending pair is reported as the caller wrote it
    with pytest.raises(GraphError, match=r"\(1, 0\)"):
        build_graph(3, [(0, 1), (1, 0)])


@pytest.mark.parametrize("edge", [(0, 1, 7), (0.0, 1.9), ("0", "2"), (np.True_, np.False_), (1,)],
                         ids=["three-values", "floats", "strings", "numpy-bools", "one-value"])
def test_build_rejects_edges_that_are_not_integer_pairs(edge):
    # int() would read the first four as edges and fail on the last with an IndexError
    message = f"edge {edge!r} is not a pair of integers"
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        build_graph(3, [(1, 2), edge])


def _build_both_ways(monkeypatch, n, edges):
    """build_graph's outcome with the edge loop only, and with numpy from any size.

    Each outcome is the Graph, or the type and message of what was raised.
    """
    out = []
    for cut in (1 << 62, 0):
        monkeypatch.setattr(graph, "_ARRAY_MIN_EDGES", cut)
        try:
            out.append(build_graph(n, edges))
        except (ValueError, TypeError, IndexError) as e:  # GraphError is a ValueError
            out.append((type(e), str(e)))
    return out


def _random_edges(rng, n, m):
    """m distinct non-loop pairs on n nodes, shuffled, each in a random orientation."""
    iu, ju = np.triu_indices(n, 1)
    pick = rng.choice(iu.size, m, replace=False)
    flip = rng.random(m) < 0.5
    return np.stack([np.where(flip, ju[pick], iu[pick]), np.where(flip, iu[pick], ju[pick])], 1)


def test_array_threshold_splits_the_benchmark_workloads(monkeypatch):
    # the bound corpus refuses sizes whose complete graph exceeds the cover
    # search's limit, so its graphs stay on the loop; the default 4x50 block
    # model takes the numpy path
    assert COVER_MAX_EDGES < graph._ARRAY_MIN_EDGES
    with pytest.raises(ValueError, match="cover-search"):
        run_bound_corpus(1, 0, max_n=7, max_m=BOUND_CORPUS[1], keep_instances=False)
    sizes = []
    real = graph._canonical_edges_array
    monkeypatch.setattr(graph, "_canonical_edges_array",
                        lambda n, edges: sizes.append(len(edges)) or real(n, edges))
    for i in range(40):
        random_bound_instance((0, i), *BOUND_CORPUS)
    assert sizes == []
    for seed in range(10):
        sbm_dataset(*SBM_4BLOCK, seed)
    assert len(sizes) == 10 and min(sizes) >= graph._ARRAY_MIN_EDGES


def test_array_path_equals_loop_on_valid_lists(monkeypatch):
    rng = np.random.default_rng(5)
    cases = [(1, np.zeros((0, 2), dtype=np.int64)), (1, []), (2, [(1, 0)]), (40, [])]
    for _ in range(30):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(0, min(n * (n - 1) // 2, 90) + 1))
        cases.append((n, _random_edges(rng, n, m)))
    for n, a in cases:
        a = np.asarray(a, dtype=np.int64).reshape(-1, 2)
        forms = [a, a.astype(np.int32), a.astype(np.uint32), a.tolist(),
                 [tuple(e) for e in a.tolist()], [tuple(e) for e in a], tuple(map(tuple, a))]
        want = None
        for edges in forms:
            loop, fast = _build_both_ways(monkeypatch, n, edges)
            assert isinstance(loop, Graph) and fast == loop
            assert all(type(u) is int and type(v) is int for u, v in fast.edges)
            want = want or loop
            assert loop == want
            if len(edges):
                assert graph._canonical_edges_array(n, edges) == want.edges
    monkeypatch.setattr(graph, "_ARRAY_MIN_EDGES", 1 << 62)
    g = sbm_generate(*SBM_4BLOCK, seed=3)[0]
    monkeypatch.undo()
    assert sbm_generate(*SBM_4BLOCK, seed=3)[0] == g


@pytest.mark.parametrize("fault", [(7, 7), (3, 30), (30, 3), (-1, 4), (4, -1),
                                   "repeat", "flipped"])
@pytest.mark.parametrize("where", [0, 20, -1])
def test_array_path_rejects_like_loop(monkeypatch, fault, where):
    rng = np.random.default_rng(11)
    base = [tuple(e) for e in _random_edges(rng, 30, 40).tolist()]
    edges = list(base)
    if fault == "repeat":
        bad = base[(where + 7) % len(base)]
    elif fault == "flipped":
        bad = base[(where + 7) % len(base)][::-1]
    else:
        bad = fault
    edges.insert(where if where >= 0 else len(edges), bad)
    loop, fast = _build_both_ways(monkeypatch, 30, edges)
    assert loop[0] is GraphError
    assert fast == loop
    assert graph._canonical_edges_array(30, edges) is None
    assert _build_both_ways(monkeypatch, 30, np.array(edges)) == [loop, loop]


def test_array_path_reports_first_of_several_faults(monkeypatch):
    edges = [(i, i + 1) for i in range(40)]
    edges[7] = (6, 5)        # repeats edge 5, (5, 6), flipped
    edges[12] = (12, 12)     # self-loop
    edges[-1] = (0, 99)      # out of range
    loop, fast = _build_both_ways(monkeypatch, 41, edges)
    assert loop == (GraphError, "duplicate edge (6, 5)")
    assert fast == loop


@pytest.mark.parametrize("edges", [
    [(float(i), i + 1.5) for i in range(40)],                 # floats
    np.array([(i, i + 1) for i in range(40)], dtype=float),
    [(i, i + 1) for i in range(39)] + [(2**70, 1)],            # beyond int64
    [(i, i + 1) for i in range(39)] + [(1, 2**63)],
    [(i, i + 1) for i in range(39)] + [(39, 40, 7)],           # ragged rows
    [(i, i + 1) for i in range(39)] + [(39,)],
    np.array([(i, i + 1, 0) for i in range(40)]),              # (m, 3)
    [(str(i), str(i + 1)) for i in range(40)],
    np.array([(i % 2 == 0, i % 2 == 1) for i in range(40)]),   # bools
])
def test_non_integer_pair_inputs_take_the_loop(monkeypatch, edges):
    loop, fast = _build_both_ways(monkeypatch, 41, edges)
    assert fast == loop
    assert graph._canonical_edges_array(41, edges) is None


def test_induced_subgraph_equals_dict_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        g = build_graph(n, _random_edges(rng, n, m))
        nodes = rng.choice(n, int(rng.integers(1, n + 5)), replace=True)
        assert induced_subgraph(g, nodes) == induced_subgraph_by_dict(g, nodes)


@pytest.mark.parametrize("nodes, message", [
    ([1, 2, 99, -5], "node 99 out of range for n=3"),
    ([1, -1], "node -1 out of range for n=3"),
    (np.array([0, 3]), "node 3 out of range for n=3"),
    ([0, 1.0], "node 1.0 is not an integer node id (n=3)"),
    ([np.True_], f"node {np.True_!r} is not an integer node id (n=3)"),
    (["1"], "node '1' is not an integer node id (n=3)"),
], ids=["first-of-two", "negative", "array", "float", "numpy-bool", "string"])
def test_induced_subgraph_refuses_ids_outside_the_graph(p3, nodes, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        induced_subgraph(p3, nodes)


def test_graph_and_labels_file_bytes(tmp_path):
    path = tmp_path / "g.graph"
    write_graph_file(path, build_graph(5, [(3, 4), (0, 2), (2, 1), (0, 1)]))
    assert path.read_bytes() == b"5 4\n0 1\n0 2\n1 2\n3 4\n"
    write_graph_file(path, build_graph(1, []))
    assert path.read_bytes() == b"1 0\n"
    path = tmp_path / "y.labels"
    write_labels_file(path, np.array([2, 0, 11, 1]))
    assert path.read_bytes() == b"2\n0\n11\n1\n"
    write_labels_file(path, [])
    assert path.read_bytes() == b""


def test_endpoints_follow_edge_order():
    g = build_graph(4, [(2, 3), (0, 2), (1, 0)])
    u, v = g.endpoints
    assert u.tolist() == [0, 0, 2] and v.tolist() == [1, 2, 3]
    assert list(g.degrees) == [2, 1, 2, 1]
    with pytest.raises(ValueError):
        u[0] = 5
    assert build_graph(3, []).endpoints[0].shape == (0,)


def test_laplacian_p2(p2):
    assert np.array_equal(laplacian_sparse(p2).toarray(), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_triangle(triangle):
    expect = np.full((3, 3), -1.0)
    np.fill_diagonal(expect, 2.0)
    assert np.array_equal(laplacian_sparse(triangle).toarray(), expect)


def test_laplacian_empty_graph():
    g = build_graph(3, [])
    assert np.array_equal(laplacian_sparse(g).toarray(), np.zeros((3, 3)))


def test_laplacian_psd_random_signals(rng):
    g = sbm_generate([6, 6], 0.6, 0.2, seed=3)[0]
    lap = laplacian_sparse(g).toarray()
    for _ in range(200):
        x = rng.standard_normal(g.n)
        assert x @ lap @ x >= -1e-12


def test_normalized_adjacency_single_node():
    g = build_graph(1, [])
    assert np.array_equal(normalized_adjacency(g).toarray(), [[1.0]])


def test_normalized_adjacency_p2(p2):
    assert np.allclose(normalized_adjacency(p2).toarray(), 0.5)


def test_normalized_adjacency_triangle(triangle):
    assert np.allclose(normalized_adjacency(triangle).toarray(), 1.0 / 3.0)


def test_normalized_adjacency_range(rng):
    g = sbm_generate([5, 5], 0.7, 0.2, seed=1)[0]
    ahat = normalized_adjacency(g).toarray()
    assert np.allclose(ahat, ahat.T)
    assert ahat.min() >= 0.0 and ahat.max() <= 1.0


def test_components_and_main():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    comps = connected_components(g)
    assert sorted(map(len, comps)) == [2, 3]
    assert not is_connected(g)
    sub, nodes = main_component(g)
    assert nodes == [0, 1, 2]
    assert sub.n == 3 and sub.m == 2


def test_induced_subgraph(triangle):
    sub = induced_subgraph(triangle, [0, 2])
    assert sub.n == 2 and sub.edges == ((0, 1),)


def test_spanning_tree_count_triangle(triangle):
    assert spanning_tree_count(triangle) == 3


def test_spanning_tree_count_k4(k4):
    assert spanning_tree_count(k4) == 16


def test_enumerate_triangle(triangle):
    trees = enumerate_spanning_trees(triangle)
    assert trees.shape == (3, 3) and trees.dtype == bool
    assert not trees.flags.writeable
    for t in trees:
        assert len(tree_edges(triangle, t)) == 2


def test_enumerate_path_is_itself(p3):
    trees = enumerate_spanning_trees(p3)
    assert len(trees) == 1
    assert tree_edges(p3, trees[0]) == p3.edges


def test_enumerate_cap_reports_count():
    k8 = build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    with pytest.raises(GraphError, match="262144"):
        enumerate_spanning_trees(k8)


def test_tree_count_beyond_float64_is_over_the_cap():
    # the matrix-tree determinant of this 200-node graph overflows float64
    g, _ = sbm_generate([50] * 4, 0.5, 0.2, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy's overflow warning stays quiet
        assert spanning_tree_count(g) == float("inf")
        with pytest.raises(GraphError, match=f"^tree count inf exceeds cap {TREE_CAP}$"):
            enumerate_spanning_trees(g)


def test_enumeration_refuses_too_many_candidate_subsets_at_once():
    # a 40-node path whose six chords close triangles: 3^6 = 729 trees, under
    # TREE_CAP, among C(45, 39) = 8,145,060 edge subsets to test
    g = build_graph(40, [(i, i + 1) for i in range(39)] + [(3 * j, 3 * j + 2) for j in range(6)])
    assert spanning_tree_count(g) == 729
    start = time.perf_counter()
    with pytest.raises(GraphError,
                       match=f"^8145060 candidate edge subsets exceed cap {TREE_SUBSET_CAP}$"):
        enumerate_spanning_trees(g)
    assert time.perf_counter() - start < 1.0
    # still enumerated: K6, whose C(15, 5) = 3,003 subsets are the most a
    # bound-corpus host can have, and a 70-node cycle
    k6 = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    cycle = build_graph(70, [(i, (i + 1) % 70) for i in range(70)])
    assert [len(enumerate_spanning_trees(h)) for h in (k6, cycle)] == [6 ** 4, 70]


def test_spanning_test_equals_component_search():
    # every edge subset of a few corpus hosts and of K6: _spans against the
    # depth-first component search of the subgraph that the subset keeps
    k6 = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    hosts = [random_bound_instance((0, i), *BOUND_CORPUS)[0] for i in range(20)] + [k6]
    for g in hosts:
        rows = np.arange(1 << g.m)[:, None] >> np.arange(g.m) & 1 == 1
        want = [is_connected(Graph(g.n, tree_edges(g, r))) for r in rows]
        assert graph._spans(g, rows).tolist() == want, g


def test_enumerate_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="disconnected"):
        enumerate_spanning_trees(g)


def test_enumerate_matches_kirchhoff(rng):
    for seed in range(5):
        g, _ = sbm_generate([5], 0.8, 0.8, seed=seed)
        if not is_connected(g):
            continue
        trees = enumerate_spanning_trees(g)
        assert len(trees) == spanning_tree_count(g)
        assert len(np.unique(trees, axis=0)) == len(trees)


def test_tree_cover_covers(triangle):
    t1 = [True, False, True]  # edges (0, 1), (1, 2)
    t2 = [True, True, False]  # edges (0, 1), (0, 2)
    assert covers([t1, t2], triangle)
    assert not covers([t1], triangle)


def test_min_cover_triangle(triangle):
    cover = min_tree_cover(triangle)
    assert len(cover) == 2
    union = set()
    for t in cover:
        union |= set(tree_edges(triangle, t))
    assert union == set(triangle.edges)


def test_min_cover_tree_graph(p3):
    cover = min_tree_cover(p3)
    assert len(cover) == 1
    assert tree_edges(p3, cover[0]) == p3.edges


def test_min_cover_c4(c4):
    cover = min_tree_cover(c4)
    assert len(cover) == 2


def test_min_cover_size_matches_c1_triangle(triangle):
    # exhaustive minimum and the complement-clique constant agree here
    _, c1 = clique_number_complement(triangle)
    cover = min_tree_cover(triangle)
    assert len(cover) == c1 == 2


def test_clique_complement_triangle(triangle):
    assert clique_number_complement(triangle) == (1, 2)


def test_clique_complement_p3(p3):
    assert clique_number_complement(p3) == (2, 1)


def test_clique_complement_single_node():
    assert clique_number_complement(build_graph(1, [])) == (1, 0)


def test_clique_complement_limit():
    g = build_graph(40, [(i, i + 1) for i in range(39)])
    with pytest.raises(GraphError, match="limit"):
        clique_number_complement(g)


def test_clique_complement_brute_force(rng):
    # cross-check against direct search over all vertex subsets
    from itertools import combinations

    for seed in range(5):
        g, _ = sbm_generate([6], 0.5, 0.5, seed=seed)
        present = set(g.edges)
        best = 1
        for size in range(2, 7):
            for sub in combinations(range(6), size):
                if all(e not in present for e in combinations(sub, 2)):
                    best = max(best, size)
        omega_bar, c1 = clique_number_complement(g)
        assert omega_bar == best
        assert c1 == 6 - best


def test_sbm_two_cliques():
    g, labels = sbm_generate([5, 5], 1.0, 0.0, seed=0)
    assert list(labels) == [0] * 5 + [1] * 5
    comps = connected_components(g)
    assert sorted(map(len, comps)) == [5, 5]
    assert g.m == 2 * 10  # two K5s


def test_sbm_empty():
    g, _ = sbm_generate([3], 0.0, 0.0, seed=0)
    assert g.m == 0


def test_sbm_edge_count_in_range():
    g, _ = sbm_generate(*SBM_4BLOCK, seed=7)
    # mean 640, std ~24.3; 4 sigma
    assert 543 <= g.m <= 737


def test_sbm_deterministic():
    a, _ = sbm_generate([10, 10], 0.4, 0.1, seed=11)
    b, _ = sbm_generate([10, 10], 0.4, 0.1, seed=11)
    c, _ = sbm_generate([10, 10], 0.4, 0.1, seed=12)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_sbm_rejects_bad_probs():
    with pytest.raises(GraphError):
        sbm_generate([5, 5], 0.1, 0.5, seed=0)
    with pytest.raises(GraphError):
        sbm_generate([5, 5], 1.2, 0.1, seed=0)


@pytest.mark.parametrize("chunk", [7, graph._SBM_CHUNK])
@pytest.mark.parametrize("blocks, p_in, p_out", [
    ([12], 0.3, 0.3),             # one block
    ([1, 1, 1, 1, 1], 0.6, 0.2),  # blocks of size 1
    ([1], 0.5, 0.5),              # n = 1: no pairs, no chunk
    ([6, 7], 0.4, 0.4),           # p_in = p_out
    ([5, 4, 3], 1.0, 0.0),
    ([5, 4], 0.0, 0.0),
    ([9, 1, 14, 6], 0.35, 0.08),
])
def test_sbm_equals_all_pairs_oracle(monkeypatch, chunk, blocks, p_in, p_out):
    # an odd chunk of 7 pairs cuts rows at changing offsets
    monkeypatch.setattr(graph, "_SBM_CHUNK", chunk)
    for seed in range(6):
        g, labels = sbm_generate(blocks, p_in, p_out, seed)
        want, want_labels = sbm_generate_all_pairs(blocks, p_in, p_out, seed)
        assert g.edges == want.edges
        assert labels.dtype == want_labels.dtype
        assert np.array_equal(labels, want_labels)


def test_sbm_peak_memory(run_python):
    # ~18M node pairs at ~8/n density: holding every pair's index, uniform
    # and probability grows the peak by about 700 MB, a chunk by about 25 MB
    out = run_python("""
        from distsig.graph import sbm_generate

        sbm_generate([10], 0.5, 0.5, seed=0)
        before = peak_rss()
        g, _ = sbm_generate([2000, 2000, 2000], 8 / 6000, 1 / 6000, seed=0)
        print(g.m, peak_rss() - before)
    """)
    m, grown = map(int, out.split())
    assert m > 6000
    assert grown < 64 << 20, f"peak RSS grew by {grown / 2**20:.0f} MB"


def test_graph_file_roundtrip(tmp_path, triangle):
    path = tmp_path / "tri.graph"
    write_graph_file(path, triangle)
    g = read_graph_file(path)
    assert g == triangle


def test_graph_file_comments(tmp_path):
    path = tmp_path / "in.graph"
    path.write_text("# a comment\n3 2\n0 1\n# another\n1 2\n")
    g = read_graph_file(path)
    assert g.edges == ((0, 1), (1, 2))


def test_graph_file_bad_line_number(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("2 1\n0 x\n")
    with pytest.raises(GraphError, match=":2:"):
        read_graph_file(path)


def test_labels_file_roundtrip(tmp_path):
    path = tmp_path / "y.labels"
    y = np.array([0, 1, 1, 2])
    write_labels_file(path, y)
    assert np.array_equal(read_labels_file(path), y)


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_laplacian_row_sums_zero(n, seed):
    g, _ = sbm_generate([n], 0.6, 0.6, seed=seed)
    lap = laplacian_sparse(g).toarray()
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.allclose(lap, lap.T)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_spanning_trees_are_valid_trees(seed):
    g, _ = sbm_generate([5], 0.7, 0.7, seed=seed)
    if not is_connected(g):
        return
    for t in enumerate_spanning_trees(g):
        assert len(tree_edges(g, t)) == g.n - 1
        sub = Graph(g.n, tree_edges(g, t))
        assert is_connected(sub)
