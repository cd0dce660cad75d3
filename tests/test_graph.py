import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsig import graph
from distsig.distributional import BOUND_CORPUS, random_bound_instance, run_bound_corpus
from distsig.gnn import SBM_4BLOCK, load_cora
from distsig.graph import (
    TREE_CAP,
    TREE_SUBSET_CAP,
    Graph,
    GraphError,
    build_graph,
    clique_number_complement,
    enumerate_spanning_trees,
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
    normalized_adjacency_by_row_sums,
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


def _outcome(n, edges):
    """build_graph's Graph, or the type and message of what it raised."""
    try:
        return build_graph(n, edges)
    except (ValueError, TypeError, IndexError) as e:  # GraphError is a ValueError
        return type(e), str(e)


def _random_edges(rng, n, m):
    """m distinct non-loop pairs on n nodes, shuffled, each in a random orientation."""
    iu, ju = np.triu_indices(n, 1)
    pick = rng.choice(iu.size, m, replace=False)
    flip = rng.random(m) < 0.5
    return np.stack([np.where(flip, ju[pick], iu[pick]), np.where(flip, iu[pick], ju[pick])], 1)


@pytest.mark.parametrize("max_n, max_m, limit", [
    (1, 3, "must be >= 2"),
    (6, 1, "must be >= 2"),
    (6, 4, "joint-table cap 729"),
    (7, 3, "cover-search limit 20"),
], ids=["n-1", "m-1", "n6-m4", "n-7"])
def test_bound_corpus_refuses_sizes_beyond_limits(max_n, max_m, limit):
    with pytest.raises(ValueError, match=re.escape(limit)):
        run_bound_corpus(1, 0, max_n=max_n, max_m=max_m, keep_instances=False)


def test_array_path_equals_loop_on_valid_lists():
    # an edge list given as an integer array of any width, a list or a tuple
    # builds one Graph, sorted, with Python-int endpoints
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
        want = Graph(n, tuple(sorted(map(tuple, np.sort(a, axis=1).tolist()))))
        for edges in forms:
            g = build_graph(n, edges)
            assert g == want
            assert all(type(u) is int and type(v) is int for u, v in g.edges)
    # the block-model sampler builds its graph directly, as build_graph would
    g = sbm_generate(*SBM_4BLOCK, seed=3)[0]
    assert build_graph(g.n, np.array(g.edges)[::-1]) == g


@pytest.mark.parametrize("fault", [(7, 7), (3, 30), (30, 3), (-1, 4), (4, -1),
                                   "repeat", "flipped"])
@pytest.mark.parametrize("where", [0, 20, -1])
def test_array_path_rejects_like_loop(fault, where):
    # a faulty list and its array raise the same GraphError
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
    got = _outcome(30, edges)
    assert got[0] is GraphError
    assert _outcome(30, np.array(edges)) == got


def test_array_path_reports_first_of_several_faults():
    edges = [(i, i + 1) for i in range(40)]
    edges[7] = (6, 5)        # repeats edge 5, (5, 6), flipped
    edges[12] = (12, 12)     # self-loop
    edges[-1] = (0, 99)      # out of range
    want = (GraphError, "duplicate edge (6, 5)")
    assert _outcome(41, edges) == want
    assert _outcome(41, np.array(edges)) == want


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
def test_non_integer_pair_inputs_take_the_loop(edges):
    assert _outcome(41, edges)[0] is GraphError


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


def test_producers_keep_no_per_edge_object(tmp_path):
    # each producer hands Graph its edges as one index array: a new graph
    # keeps them in one read-only array, and no tuple
    content, cites = tmp_path / "x.content", tmp_path / "x.cites"
    content.write_text("p0 1 0 a\np1 0 1 b\np2 1 1 a\np3 0 1 b\n")
    cites.write_text("p1 p0\np0 p1\np3 p1\np2 p0\n")
    producers = {
        "build_graph": lambda: build_graph(4, [(2, 3), (0, 2), (1, 0)]),
        "build_graph, array": lambda: build_graph(4, np.array([[3, 2], [1, 0]])),
        "sbm_generate": lambda: sbm_generate(*SBM_4BLOCK, seed=0)[0],
        "main_component": lambda: main_component(sbm_generate(*SBM_4BLOCK, seed=0)[0])[0],
        "load_cora": lambda: load_cora(content, cites)[0],
        "no edges": lambda: build_graph(3, []),
    }
    for name, make in producers.items():
        g = make()
        held = list(vars(g).values())
        assert not any(isinstance(v, tuple) for v in held), name
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and not arrays[0].flags.writeable, name
        assert arrays[0].nbytes == 2 * g.m * np.dtype(np.intp).itemsize, name


def test_sbm_graph_retained_memory():
    # 8 block-model graphs, about 5,000 edges, keep at most 24 bytes per
    # edge: the edge array's 16 and each graph's fixed cost.  A tuple of
    # Python-int pairs kept about 58
    sbm_generate(*SBM_4BLOCK, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graphs = [sbm_generate(*SBM_4BLOCK, seed=s)[0] for s in range(8)]
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    edges = sum(g.m for g in graphs)
    assert kept <= 24 * edges, f"{kept / edges:.1f} bytes per edge"


def test_build_graph_of_a_shuffled_copy_equals_the_graph():
    g = sbm_generate(*SBM_4BLOCK, seed=4)[0]
    rng = np.random.default_rng(0)
    pairs = np.column_stack(g.endpoints)[rng.permutation(g.m)]
    flip = rng.random(g.m) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    assert build_graph(g.n, pairs) == g
    assert build_graph(g.n, [tuple(e) for e in pairs.tolist()]) == g
    # equality reads the node count and every edge
    assert build_graph(g.n + 1, pairs) != g
    assert build_graph(g.n, pairs[1:]) != g


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
    assert g.components == ((0, 1, 2), (3, 4))
    sub, nodes = main_component(g)
    assert nodes == [0, 1, 2]
    assert sub.n == 3 and sub.m == 2


def _structure_graphs():
    """Seeded graphs for the structure oracles: one node, edgeless, isolated
    nodes, one component, many components, and block models of both kinds."""
    rng = np.random.default_rng(11)
    graphs = [build_graph(1, []), build_graph(5, []), build_graph(2, [(0, 1)]),
              build_graph(6, [(1, 4), (2, 4)]),
              build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])]
    for n, p in ((8, 0.1), (8, 0.3), (20, 0.05), (20, 0.2), (40, 0.04), (60, 0.1)):
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < p
        graphs.append(build_graph(n, np.stack([iu[keep], ju[keep]], axis=1)))
    graphs += [sbm_generate([5, 5, 5], 0.5, 0.0, seed=1)[0], sbm_generate([30], 0.3, 0.3, 2)[0]]
    return graphs


def test_components_match_scipy_labels():
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components as scipy_components
    for g in _structure_graphs():
        edges = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
        adj = sp.coo_array((np.ones(g.m), (edges[:, 0], edges[:, 1])), shape=(g.n, g.n))
        count, labels = scipy_components(adj, directed=False)
        groups = [tuple(np.flatnonzero(labels == c).tolist()) for c in range(count)]
        assert g.components == tuple(sorted(groups)), g
    assert len(build_graph(1, []).components) == 1
    assert len(build_graph(5, []).components) == 5


def test_main_component_nodes_are_a_list():
    # a list indexes signal[nodes] as one axis; a tuple would index several
    for g in _structure_graphs():
        sub, nodes = main_component(g)
        assert type(nodes) is list and nodes == list(max(g.components, key=len))
        assert sub.n == len(nodes)


def test_induced_subgraph_equals_dict_oracle():
    # main_component against the dict-lookup subgraph on its largest component
    rng = np.random.default_rng(2)
    graphs = _structure_graphs() + [
        build_graph(7, [(0, 1), (1, 2), (4, 5), (5, 6)]),  # two largest of equal size
        build_graph(8, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)]),
        # cora_tune's stand-in layout: 7 blocks over 2,708 nodes, p_in 0.0084, p_out 0.00035
        sbm_generate([387] * 6 + [386], 0.0084, 0.00035, seed=0)[0],
    ]
    for _ in range(40):
        n = int(rng.integers(1, 90))
        m = int(rng.integers(0, 2 * n))  # sparse, so most draws have several components
        graphs.append(build_graph(n, _random_edges(rng, n, min(m, n * (n - 1) // 2))))
    assert any(len(g.components) > 2 for g in graphs)
    for g in graphs:
        comp = max(g.components, key=len)
        got = main_component(g)
        want = (induced_subgraph_by_dict(g, comp), list(comp))
        assert got == want and repr(got) == repr(want), g


def _csr_bytes(a):
    return [(x.dtype.str, x.tobytes()) for x in (a.indptr, a.indices, a.data)]


def test_normalized_adjacency_bitwise_equal_to_row_sum_oracle():
    # cora_tune's stand-in layout: 7 blocks over 2,708 nodes, p_in 0.0084, p_out 0.00035
    cora_layout = sbm_generate([387] * 6 + [386], 0.0084, 0.00035, seed=0)[0]
    for g in _structure_graphs() + [cora_layout]:
        ahat, want = normalized_adjacency(g), normalized_adjacency_by_row_sums(g)
        assert ahat.shape == want.shape and _csr_bytes(ahat) == _csr_bytes(want), g
    assert any(g.degrees.min() == 0 for g in _structure_graphs())


def test_induced_subgraph():
    # the main component of a triangle on nodes 1..3 beside an isolated node 0
    sub, nodes = main_component(build_graph(4, [(1, 2), (1, 3), (2, 3)]))
    assert nodes == [1, 2, 3] and sub.n == 3 and sub.edges == ((0, 1), (0, 2), (1, 2))


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
        want = [len(Graph(g.n, tree_edges(g, r)).components) == 1 for r in rows]
        assert graph._spans(g, rows).tolist() == want, g


def test_enumerate_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="disconnected"):
        enumerate_spanning_trees(g)


def test_enumerate_matches_kirchhoff(rng):
    for seed in range(5):
        g, _ = sbm_generate([5], 0.8, 0.8, seed=seed)
        if len(g.components) > 1:
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
    assert g.components == (tuple(range(5)), tuple(range(5, 10)))
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
    with pytest.raises(GraphError, match=r"^node count must be positive, got 0$"):
        sbm_generate([], 0.1, 0.01, seed=0)


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
    if len(g.components) > 1:
        return
    for t in enumerate_spanning_trees(g):
        assert len(tree_edges(g, t)) == g.n - 1
        sub = Graph(g.n, tree_edges(g, t))
        assert len(sub.components) == 1
