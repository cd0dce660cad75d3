"""Distributional signals on graphs: transport distance and total variation.

A distributional signal assigns each node a probability distribution over a
shared finite label alphabet.  This module provides the squared Wasserstein
distance under the discrete metric (closed form, row-wise), the variation
notions built on it, and the inequality chains relating them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    COVER_MAX_EDGES,
    Graph,
    GraphError,
    _min_weight_cover,
    build_graph,
    clique_number_complement,
    cover_size_cap,
    enumerate_spanning_trees,
    is_connected,
)
from .simplex import InfeasibleError, solve_lp

JOINT_TABLE_CAP = 729  # 3^6 table entries


@dataclass(frozen=True)
class Marginals:
    """One distribution per node, stacked as a row-stochastic n x m matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.matrix, dtype=float)
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValueError(f"need an n x m matrix, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite entries")
        if np.min(x) < -1e-12:
            raise ValueError(f"negative entry {np.min(x):.3e}")
        rs = x.sum(axis=1)
        bad = np.argmax(np.abs(rs - 1.0))
        if abs(rs[bad] - 1.0) > 1e-9:
            raise ValueError(f"row {bad} sums to {rs[bad]!r}, not 1")
        x = np.maximum(x, 0.0)
        x.flags.writeable = False
        object.__setattr__(self, "matrix", x)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


def as_marginals(x) -> Marginals:
    return x if isinstance(x, Marginals) else Marginals(np.asarray(x, dtype=float))


# --- pairwise transport ---------------------------------------------------

def wasserstein_sq(mu, nu):
    """Squared Wasserstein distance under the discrete metric: half the l1 gap.

    Row-wise over the last axis, so stacked distributions give one distance
    per row; the alphabet (last-axis) sizes must match.
    """
    x, y = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    if x.shape[-1:] != y.shape[-1:]:
        raise ValueError(f"alphabet size mismatch: {x.shape} vs {y.shape}")
    return 0.5 * np.abs(x - y).sum(axis=-1)


def optimal_coupling(mu, nu) -> np.ndarray:
    """A minimum-cost m x m coupling whose diagonal is exactly the elementwise min.

    Mass min(x_i, y_i) stays in place; row and column surpluses (which have
    disjoint supports) are matched greedily in index order.
    """
    x, y = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"alphabet size mismatch: {x.shape} vs {y.shape}")
    m = x.shape[0]
    z = np.zeros((m, m))
    d = np.minimum(x, y)
    np.fill_diagonal(z, d)
    r = x - d
    c = y - d
    ri = [k for k in range(m) if r[k] > 0.0]
    cj = [k for k in range(m) if c[k] > 0.0]
    i = j = 0
    while i < len(ri) and j < len(cj):
        a, b = ri[i], cj[j]
        t = min(r[a], c[b])
        z[a, b] += t
        r[a] -= t
        c[b] -= t
        if r[a] <= 1e-15:
            i += 1
        if c[b] <= 1e-15:
            j += 1
    return z


# --- total variation notions ---------------------------------------------

def tv_l1_l2(g: Graph, marginals) -> tuple[float, float]:
    """Edgewise l1 and squared-l2 variation of the marginal columns.

    The squared form equals the Laplacian trace Tr(X^T L X).
    """
    nn = as_marginals(marginals)
    x = nn.matrix
    if nn.n != g.n:
        raise ValueError(f"marginal count {nn.n} does not match n={g.n}")
    if g.m == 0:
        return 0.0, 0.0
    eu, ev = g.endpoints
    d = x[eu] - x[ev]
    # running sums in edge order: the same additions as one edge at a time
    l1 = np.cumsum(2.0 * wasserstein_sq(x[eu], x[ev]))[-1]
    l2 = np.cumsum((d * d).sum(axis=-1))[-1]
    return float(l1), float(l2)


def tv_exact(g: Graph, marginals) -> float:
    """Smallest expected edgewise disagreement over all joint couplings.

    Solves the exact linear program on the full joint table; only feasible for
    m^n within the table cap.
    """
    nn = as_marginals(marginals)
    if nn.n != g.n:
        raise ValueError(f"marginal count {nn.n} does not match n={g.n}")
    n, m = nn.n, nn.m
    if m ** n > JOINT_TABLE_CAP:
        raise ValueError(f"state space too large: m^n = {m ** n} exceeds cap {JOINT_TABLE_CAP}")
    states = np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int64)
    cost = np.zeros(states.shape[0])
    for u, v in g.edges:
        cost += (states[:, u] != states[:, v]).astype(float)
    a = np.zeros((n * m, states.shape[0]))
    for i in range(n):
        for s in range(m):
            a[i * m + s] = (states[:, i] == s).astype(float)
    b = nn.matrix.ravel()
    try:
        _, val = solve_lp(cost, a, b)
    except InfeasibleError as e:
        raise RuntimeError(f"joint coupling LP infeasible for valid marginals: {e}") from e
    return max(val, 0.0)


def _rho(mu_a: np.ndarray, mu_b: np.ndarray) -> np.ndarray:
    """Per-label retention ratio along a directed step a -> b.

    min(mu_b/mu_a, 1), with the 0/0 branch defined as 1; broadcasts.
    """
    mu_a, mu_b = np.broadcast_arrays(mu_a, mu_b)
    pos = (mu_b <= mu_a) & (mu_a > 0.0)
    return np.divide(mu_b, mu_a, out=np.ones(mu_a.shape), where=pos)


_TREE_BATCH = 64  # trees per vectorized step of tv_tree_rooted
_MAX_TREE_EDGES = 63  # edge indices of an int64 bitmask


def tv_tree_rooted(g: Graph, trees, marginals) -> np.ndarray:
    """Upper-bound variation induced by each rooted spanning tree.

    ``trees`` are edge bitmasks over ``g.edges``, as ``enumerate_spanning_trees``
    lists them.  Returns a ``(len(trees), g.n)`` array whose entry ``[t, r]``
    is tree t rooted at node r.  Each graph edge contributes the mass that
    provably must move between its endpoints once transport is routed through
    the tree from the root: the endpoint masses minus twice the mass retained
    from their deepest common ancestor.  On tree edges this collapses to the
    plain l1 difference.  Trees are processed in batches of ``_TREE_BATCH``.
    The masks are int64, so the host may have at most 63 edges.
    """
    if g.m > _MAX_TREE_EDGES:
        raise GraphError(f"tree bounds take at most {_MAX_TREE_EDGES} edges "
                         f"(int64 edge masks), got {g.m}")
    nn = as_marginals(marginals)
    x = nn.matrix
    if nn.n != g.n:
        raise ValueError(f"marginal count {nn.n} does not match n={g.n}")
    for t in map(int, trees):
        if t >> g.m:
            raise GraphError(f"tree mask {t:#x} uses edges absent from the host's {g.m} edges")
        if t.bit_count() != g.n - 1:
            raise GraphError(f"spanning tree needs {g.n - 1} edges, got {t.bit_count()}")
    masks = np.array(trees, dtype=np.int64)
    eu, ev = g.endpoints
    in_tree = (masks[:, None] >> np.arange(g.m)) & 1 == 1
    l1 = 2.0 * wasserstein_sq(x[eu], x[ev])
    rho = _rho(x[:, None, :], x[None, :, :])  # rho[a, b]: the step a -> b
    out = np.empty((len(trees), g.n))
    for lo in range(0, len(trees), _TREE_BATCH):
        out[lo:lo + _TREE_BATCH] = _tree_bound_batch(
            x, eu, ev, l1, rho, in_tree[lo:lo + _TREE_BATCH])
    return out


def _tree_bound_batch(x, eu, ev, l1, rho, in_tree) -> np.ndarray:
    """``tv_tree_rooted`` for the trees whose edge sets are the rows of in_tree."""
    b, n = in_tree.shape[0], x.shape[0]
    adj = np.zeros((b, n, n), dtype=bool)
    adj[:, eu, ev] = in_tree
    adj[:, ev, eu] = in_tree
    # dist[t, a, c] is the tree distance; keep[t, a, c] the retention along
    # the path a -> c, one step at a time from a, filled in BFS depth order
    dist = np.full((b, n, n), n, dtype=np.intp)
    keep = np.ones((b, n, n, x.shape[1]))
    front = np.broadcast_to(np.eye(n, dtype=bool), (b, n, n)).copy()
    dist[front] = 0
    for d in range(1, n):
        step = front[:, :, :, None] & adj[:, None, :, :]  # [t, a, c, w]: c -> w
        front = step.any(axis=2) & (dist == n)
        t, a, w = np.nonzero(front)
        if t.size == 0:
            break
        c = step[t, a, :, w].argmax(axis=1)
        dist[t, a, w] = d
        keep[t, a, w] = keep[t, a, c] * rho[c, w]
    if (dist == n).any():
        raise GraphError("tree does not span its host")
    # the deepest common ancestor of u and v under root r is the node on the
    # u-v path nearest r: the median of r, u and v
    k = (dist[:, :, None, :] + dist[:, eu][:, None] + dist[:, ev][:, None]).argmin(axis=-1)
    tb = np.arange(b)[:, None, None]
    via = (x[eu] + x[ev] - 2.0 * x[k] * keep[tb, k, eu] * keep[tb, k, ev]).sum(axis=-1)
    term = np.where(in_tree[:, None, :], l1, via)
    total = np.zeros((b, n))
    for e in range(eu.size):  # in g.edges order: the same running sum as one edge at a time
        total += term[:, :, e]
    return total


def tv_cover(g: Graph, marginals, size_cap: int | None = None,
             trees: list[int] | None = None) -> tuple[float, list[int]]:
    """Cheapest spanning-tree cover variation within a cover-size cap.

    Per-tree variation is the sum of its edges' transport distances (exact on
    trees); the search over covers is exact within the cap.  Trees are edge
    bitmasks over ``g.edges``; returns the value and the chosen trees.
    """
    nn = as_marginals(marginals)
    x = nn.matrix
    if nn.n != g.n:
        raise ValueError(f"marginal count {nn.n} does not match n={g.n}")
    if g.n == 1:
        return 0.0, [0]
    if trees is None:
        trees = enumerate_spanning_trees(g)
    if size_cap is None:
        size_cap = cover_size_cap(clique_number_complement(g)[1])
    eu, ev = g.endpoints
    w = wasserstein_sq(x[eu], x[ev]).tolist()
    weights = [sum(w[i] for i in range(g.m) if t >> i & 1) for t in trees]
    res = _min_weight_cover(trees, weights, g.m, size_cap)
    if res is None:
        raise GraphError(f"no cover within cap {size_cap}")
    val, idx = res
    return val, [trees[i] for i in idx]


# --- inequality chains ----------------------------------------------------

def check_tv_bounds(g: Graph, marginals) -> dict:
    """Evaluate every variation notion and verify the inequality chains.

    Returns a JSON-ready report with all values, per-inequality margins, any
    violations, and whether the weaker sqrt(|S|*n) tail constant also holds.
    """
    tol = 1e-9
    nn = as_marginals(marginals)
    tg1, tg2 = tv_l1_l2(g, nn)
    tg = tv_exact(g, nn)
    trees = enumerate_spanning_trees(g)
    tghv_min = float(tv_tree_rooted(g, trees, nn).min())
    _, c1 = clique_number_complement(g)
    tcov, cover = tv_cover(g, nn, size_cap=cover_size_cap(c1), trees=trees)
    c3 = math.sqrt(nn.m * g.m)
    checks = [
        ("tg2_le_tg1", tg2, tg1),
        ("tg1_le_2tg", tg1, 2.0 * tg),
        ("2tg_le_tghv_min", 2.0 * tg, tghv_min),
        ("tg1_le_2tcov", tg1, 2.0 * tcov),
        ("2min_le_c1_tg1", 2.0 * min(tcov, tg), c1 * tg1),
        ("tg1_le_c3_sqrt_tg2", tg1, c3 * math.sqrt(tg2)),
    ]
    margins = {name: float(rhs - lhs) for name, lhs, rhs in checks}
    violations = [name for name, lhs, rhs in checks if lhs > rhs + tol]
    c3_paper = math.sqrt(nn.m * g.n)
    return {
        "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
        "marginals": nn.matrix.tolist(),
        "tg1": tg1,
        "tg2": tg2,
        "tg_exact": tg,
        "tcov": tcov,
        "tghv_min": tghv_min,
        "c1": c1,
        "c3": c3,
        "violations": violations,
        "margins": margins,
        "cover_size": len(cover),
        "tree_count": len(trees),
        "c3_paper_holds": bool(tg1 <= c3_paper * math.sqrt(tg2) + tol),
    }


def random_bound_instance(key, max_n: int = 6, max_m: int = 3) -> tuple[Graph, Marginals]:
    """Seeded random connected graph plus Dirichlet(1,...,1) marginals."""
    rng = np.random.default_rng(key)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, max_m + 1))
    p = float(rng.uniform(0.3, 0.9))
    while True:
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < p
        g = build_graph(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))
        if is_connected(g):
            break
    x = rng.dirichlet(np.ones(m), size=n)
    return g, Marginals(x)


def run_bound_corpus(trials: int, seed: int, *, max_n: int = 6, max_m: int = 3,
                     keep_instances: bool = True) -> dict:
    """Fuzz the inequality chains over ``trials`` seeded instances, in order.

    Sizes that some instance could not be checked at are refused up front:
    every instance draws n <= max_n nodes and m <= max_m labels, so the
    largest possible joint table and cover search must fit their caps.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if max_n < 2 or max_m < 2:
        raise ValueError(f"max_n and max_m must be >= 2, got {max_n} and {max_m}")
    max_edges = max_n * (max_n - 1) // 2
    if max_edges > COVER_MAX_EDGES:
        raise ValueError(f"max_n = {max_n} allows {max_edges} edges, over the cover-search "
                         f"limit {COVER_MAX_EDGES}")
    if max_m ** max_n > JOINT_TABLE_CAP:
        raise ValueError(f"max_m^max_n = {max_m ** max_n} exceeds the joint-table cap "
                         f"{JOINT_TABLE_CAP}")
    reports = [check_tv_bounds(*random_bound_instance((seed, i), max_n, max_m))
               for i in range(trials)]
    violations = [
        {"instance": i, "violations": r["violations"]}
        for i, r in enumerate(reports) if r["violations"]
    ]
    worst = {}
    for r in reports:
        for name, m in r["margins"].items():
            worst[name] = min(worst.get(name, np.inf), m)
    out = {
        "trials": trials,
        "seed": seed,
        "max_n": max_n,
        "max_m": max_m,
        "violation_count": len(violations),
        "violations": violations,
        "worst_margins": {k: float(v) for k, v in sorted(worst.items())},
        "c3_paper_pass_rate": sum(r["c3_paper_holds"] for r in reports) / trials,
    }
    if keep_instances:
        out["instances"] = reports
    return out
