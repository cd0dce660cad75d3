"""Tree enumeration, the batched rooted-tree bound and the cover search against oracles.

The oracles are the earlier straightforward implementations: a pruned
backtracking search for the spanning trees, a per-(tree, root) walk for the
rooted-tree bound, a DP over the whole subset lattice for the cover search
and one Python sum per tree for the cover's weights.  The library versions
must agree with them on the first 100 instances of acceptance criterion 2's
corpus.
"""

import numpy as np
import pytest

from distsig import distributional
from distsig.distributional import (
    BOUND_CORPUS,
    _rho,
    check_tv_bounds,
    random_bound_instance,
    tv_cover,
    tv_tree_rooted,
)
from distsig.graph import (
    _min_weight_cover,
    build_graph,
    clique_number_complement,
    cover_size_cap,
    enumerate_spanning_trees,
)
from oracles import covers, min_tree_cover, tree_edges, tree_masks, tv_cover_by_tree_sums

ORACLE_INSTANCES = 100


def spanning_trees_oracle(g):
    """Every spanning tree's sorted edge tuple, by backtracking over g.edges.

    An edge is taken only if it joins two components, and a branch is cut as
    soon as the undecided edges can no longer connect every node.
    """
    edges = list(g.edges)
    ne = len(edges)
    need = g.n - 1
    found = []

    def find(uf, x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def feasible(uf, pos):
        tmp = uf[:]
        for u, v in edges[pos:]:
            ru, rv = find(tmp, u), find(tmp, v)
            if ru != rv:
                tmp[ru] = rv
        root = find(tmp, 0)
        return all(find(tmp, x) == root for x in range(g.n))

    def backtrack(pos, chosen, uf):
        if len(chosen) == need:
            found.append(tuple(chosen))
            return
        if pos == ne or need - len(chosen) > ne - pos:
            return
        if not feasible(uf, pos):
            return
        u, v = edges[pos]
        ru, rv = find(uf, u), find(uf, v)
        if ru != rv:
            uf2 = uf[:]
            uf2[ru] = rv
            chosen.append(edges[pos])
            backtrack(pos + 1, chosen, uf2)
            chosen.pop()
        backtrack(pos + 1, chosen, uf)

    backtrack(0, [], list(range(g.n)))
    return sorted(found)


def bfs_parents(n, edges, v0):
    """Parent of every node of the tree on nodes 0..n-1 rooted at v0 (-1 at the root)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    seen = {v0}
    queue = [v0]
    while queue:
        u = queue.pop(0)
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                queue.append(w)
    return parent


def tree_rooted_oracle(g, tree, v0, x):
    """Rooted-tree bound of one tree (a boolean edge row) at one root, walking each root path."""
    edges = tree_edges(g, tree)
    parent = bfs_parents(g.n, edges, v0)
    paths = []
    for node in range(g.n):
        chain = []
        cur = node
        while cur != -1:
            chain.append(cur)
            cur = parent[cur]
        paths.append(chain[::-1])
    rho_step = {node: _rho(x[parent[node]], x[node])
                for node in range(g.n) if parent[node] != -1}
    in_tree = set(edges)
    total = 0.0
    for u, v in g.edges:
        if (u, v) in in_tree:
            total += float(np.abs(x[u] - x[v]).sum())
            continue
        pu, pv = paths[u], paths[v]
        k = pu[0]
        for a, b in zip(pu, pv):
            if a != b:
                break
            k = a
        rq_u = np.ones(x.shape[1])
        for node in pu[pu.index(k) + 1:]:
            rq_u = rq_u * rho_step[node]
        rq_v = np.ones(x.shape[1])
        for node in pv[pv.index(k) + 1:]:
            rq_v = rq_v * rho_step[node]
        total += float((x[u] + x[v] - 2.0 * x[k] * rq_u * rq_v).sum())
    return total


def cover_lattice_oracle(masks, weights, n_edges, size_cap):
    """Minimum cover cost by a DP over the full 2^n_edges lattice per level.

    Level k holds, for every edge set S, the cheapest k or fewer masks whose
    union is exactly S; each mask is folded in by a tensor min over its axes.
    """
    shape = (2,) * n_edges if n_edges else (1,)
    # axis k of the tensor corresponds to edge bit (n_edges - 1 - k)
    level = np.full(1 << n_edges, np.inf)
    level[0] = 0.0
    for _ in range(size_cap):
        cur = level.copy()
        tprev = level.reshape(shape)
        tcur = cur.reshape(shape)
        for mt, w in zip(masks, weights):
            ax = tuple(n_edges - 1 - b for b in range(n_edges) if mt >> b & 1)
            reduced = tprev.min(axis=ax) + w if ax else tprev + w
            idx = tuple(1 if a in ax else slice(None) for a in range(len(shape)))
            if len(ax) == len(shape):  # the mask holds every edge: one cell
                if reduced < tcur[idx]:
                    tcur[idx] = reduced
            else:
                np.minimum(tcur[idx], reduced, out=tcur[idx])
        level = cur
    best = level[-1]
    return float(best) if np.isfinite(best) else None


def _criterion_2_instance(i):
    g, nn = random_bound_instance((0, i), *BOUND_CORPUS)
    trees = enumerate_spanning_trees(g)
    return g, nn.matrix, trees


def _tree_weights(g, x, trees):
    edge_l1 = {(u, v): float(np.abs(x[u] - x[v]).sum()) for u, v in g.edges}
    return [0.5 * sum(edge_l1[e] for e in tree_edges(g, t)) for t in trees]


def _assert_witness(res, masks, weights, n_edges, size_cap, cost):
    got, idx = res
    assert abs(got - cost) <= 1e-12
    assert len(idx) <= size_cap
    assert idx == sorted(set(idx))
    union = 0
    for t in idx:
        union |= masks[t]
    assert union == (1 << n_edges) - 1
    assert abs(sum(weights[t] for t in idx) - got) <= 1e-12


# --- tree enumeration ------------------------------------------------------

def _edge_tuples(g, trees):
    return [tree_edges(g, t) for t in trees]


def test_tree_enumeration_equals_oracle_on_corpus():
    for i in range(ORACLE_INSTANCES):
        g, _, trees = _criterion_2_instance(i)
        assert trees.dtype == bool and trees.shape[1] == g.m and not trees.flags.writeable
        assert _edge_tuples(g, trees) == spanning_trees_oracle(g), i


def test_tree_enumeration_equals_oracle_on_k6():
    g = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    trees = enumerate_spanning_trees(g)
    assert len(trees) == 1296
    assert _edge_tuples(g, trees) == spanning_trees_oracle(g)


def test_tree_enumeration_single_node():
    g = build_graph(1, [])
    trees = enumerate_spanning_trees(g)
    assert _edge_tuples(g, trees) == [()] == spanning_trees_oracle(g)
    assert trees.shape == (1, 0)


# --- rooted-tree bound -----------------------------------------------------

def test_tree_bound_bitwise_equal_to_oracle_on_corpus():
    for i in range(ORACLE_INSTANCES):
        g, x, trees = _criterion_2_instance(i)
        got = tv_tree_rooted(g, x)
        assert got.shape == (len(trees), g.n)
        want = np.array([[tree_rooted_oracle(g, t, r, x) for r in range(g.n)]
                         for t in trees])
        assert np.array_equal(got, want), i


def test_tree_bound_batches_agree_on_k6(monkeypatch):
    # 1,296 trees span many batches; every row must equal its own oracle
    g = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    x = np.random.default_rng(5).dirichlet(np.ones(4), size=6)
    trees = enumerate_spanning_trees(g)
    got = tv_tree_rooted(g, x)
    for t in range(0, len(trees), 97):
        want = [tree_rooted_oracle(g, trees[t], r, x) for r in range(6)]
        assert np.array_equal(got[t], want), t
    # the batch size splits the work, not the values
    for batch in (7, len(trees)):
        monkeypatch.setattr(distributional, "_TREE_BATCH", batch)
        assert np.array_equal(tv_tree_rooted(g, x), got), batch


def test_tree_bound_single_node():
    g = build_graph(1, [])
    assert np.array_equal(tv_tree_rooted(g, [[1.0]]), np.zeros((1, 1)))


def test_tree_bound_tree_host_and_single_edge_equal_oracle():
    # no edge is left out of the tree: every term is the plain l1 difference
    x = np.random.default_rng(4).dirichlet(np.ones(3), size=6)
    for g in (build_graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]),
              build_graph(2, [(0, 1)])):
        trees = enumerate_spanning_trees(g)
        assert trees.tolist() == [[True] * g.m]
        got = tv_tree_rooted(g, x[:g.n])
        want = [[tree_rooted_oracle(g, trees[0], r, x[:g.n]) for r in range(g.n)]]
        assert np.array_equal(got, want)


def test_tree_bound_over_63_edges_equals_oracle():
    # a 70-node cycle has 70 edges and 70 trees, each leaving one edge out
    g = build_graph(70, [(i, (i + 1) % 70) for i in range(70)])
    x = np.random.default_rng(6).dirichlet(np.ones(2), size=70)
    trees = enumerate_spanning_trees(g)
    assert trees.shape == (70, 70)
    got = tv_tree_rooted(g, x)
    for t in range(0, 70, 9):
        want = [tree_rooted_oracle(g, trees[t], r, x) for r in range(0, 70, 5)]
        assert np.array_equal(got[t, ::5], want), t


# --- cover search ----------------------------------------------------------

def test_cover_search_matches_lattice_oracle_on_corpus():
    for i in range(ORACLE_INSTANCES):
        g, x, trees = _criterion_2_instance(i)
        masks = tree_masks(trees)
        weights = _tree_weights(g, x, trees)
        cap = max(clique_number_complement(g)[1], 3)
        want = cover_lattice_oracle(masks, weights, g.m, cap)
        res = _min_weight_cover(masks, weights, g.m, cap)
        _assert_witness(res, masks, weights, g.m, cap, want)


def test_cover_search_k6():
    g = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    x = np.random.default_rng(8).dirichlet(np.ones(3), size=6)
    trees = enumerate_spanning_trees(g)
    assert trees.shape == (1296, 15)
    masks = tree_masks(trees)
    weights = _tree_weights(g, x, trees)
    want = cover_lattice_oracle(masks, weights, g.m, 5)
    _assert_witness(_min_weight_cover(masks, weights, g.m, 5),
                    masks, weights, g.m, 5, want)


def test_tv_cover_bitwise_equal_to_tree_sums_on_corpus_and_k6(monkeypatch):
    # the masks and weights tv_cover hands to the cover search, and its value
    # and chosen rows
    handed = []
    search = distributional._min_weight_cover

    def record(masks, weights, n_edges, size_cap):
        handed.append((masks.tolist(), np.array(weights)))
        return search(masks, weights, n_edges, size_cap)

    monkeypatch.setattr(distributional, "_min_weight_cover", record)
    k6 = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    cases = [_criterion_2_instance(i) for i in range(ORACLE_INSTANCES)]
    cases.append((k6, np.random.default_rng(8).dirichlet(np.ones(3), size=6),
                   enumerate_spanning_trees(k6)))
    for i, (g, x, trees) in enumerate(cases):
        cap = cover_size_cap(clique_number_complement(g)[1])
        val, chosen, weights = tv_cover_by_tree_sums(g, x, cap, trees)
        assert tv_cover(g, x, cap) == (val, chosen), i
        assert handed[-1][0] == tree_masks(trees), i
        assert np.array_equal(handed[-1][1], weights), i
    assert len(handed) == len(cases)


def test_cover_search_cap_without_cover():
    # a 4-cycle needs two spanning trees
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    masks = tree_masks(enumerate_spanning_trees(g))
    assert _min_weight_cover(masks, [1.0] * len(masks), g.m, 1) is None
    assert cover_lattice_oracle(masks, [1.0] * len(masks), g.m, 1) is None
    assert _min_weight_cover(masks, [1.0] * len(masks), g.m, 2)[0] == 2.0


def test_cover_search_no_edges():
    assert _min_weight_cover([0], [0.5], 0, 3) == (0.0, [])


@pytest.mark.parametrize("n, edges, size", [
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2),
    (4, [(i, j) for i in range(4) for j in range(i + 1, 4)], 2),
    (5, [(i, j) for i in range(5) for j in range(i + 1, 5)], 3),
])
def test_min_tree_cover_unit_weights(n, edges, size):
    g = build_graph(n, edges)
    cover = min_tree_cover(g)
    assert covers(cover, g)
    assert len(cover) == size
    masks = tree_masks(enumerate_spanning_trees(g))
    cap = max(clique_number_complement(g)[1], 3)
    assert cover_lattice_oracle(masks, [1.0] * len(masks), g.m, cap) == size


# --- what the bound report names -------------------------------------------

REPORT_INSTANCES = 20


def _tree_row(g, tree):
    """The boolean row over ``g.edges`` of a tree given as its edge tuple."""
    return np.array([e in tree for e in g.edges])


def test_report_names_the_argmin_tree_and_the_cover_trees():
    # the (tree, root) of tghv_min is the first minimum of the per-(tree,
    # root) oracle in row-major order, and the cover's trees are spanning
    # trees that cover the host at the reported cost
    for i in range(REPORT_INSTANCES):
        g, x, _ = _criterion_2_instance(i)
        report = check_tv_bounds(g, x)
        oracle_trees = spanning_trees_oracle(g)
        bounds = [tree_rooted_oracle(g, _tree_row(g, t), r, x)
                  for t in oracle_trees for r in range(g.n)]
        best = bounds.index(min(bounds))
        assert report["tghv_min"] == bounds[best], i
        named = tuple(map(tuple, report["tghv_tree"]))
        assert (named, report["tghv_root"]) == (oracle_trees[best // g.n], best % g.n), i
        cover = [tuple(map(tuple, t)) for t in report["cover_trees"]]
        assert len(cover) == report["cover_size"] and cover == sorted(set(cover)), i
        assert set(cover) <= set(oracle_trees), i
        assert set().union(*cover) == set(g.edges), i
        weights = _tree_weights(g, x, [_tree_row(g, t) for t in cover])
        assert abs(sum(weights) - report["tcov"]) <= 1e-12, i


def test_report_names_the_first_of_tied_rooted_bounds():
    # identical rows: every (tree, root) bound is exactly 0, and the report
    # names the first tree, rooted at node 0
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    x = np.full((4, 2), 0.5)
    assert not tv_tree_rooted(k4, x).any()
    report = check_tv_bounds(k4, x)
    first = tree_edges(k4, enumerate_spanning_trees(k4)[0])
    assert (report["tghv_tree"], report["tghv_root"]) == ([list(e) for e in first], 0)
