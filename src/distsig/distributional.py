"""Distributional signals on graphs: transport distance and total variation.

A distributional signal assigns each node a probability distribution over a
shared finite label alphabet.  This module provides the squared Wasserstein
distance under the discrete metric (closed form, row-wise), the variation
notions built on it, and the inequality chains relating them.
"""

from __future__ import annotations

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
from .simplex import ROW_SUM_TOL, solve_lp

JOINT_TABLE_CAP = 729  # 3^6 table entries
# the fuzz corpus's protocol: graphs of at most 6 nodes, at most 3 labels
BOUND_CORPUS = (6, 3)


def _prob_rows(x, tol: float) -> np.ndarray:
    """``x`` as a new float n x m matrix, n, m >= 1, of probability rows: entries
    finite and none below -tol, clipped to 0, then every row summing to 1 within tol."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"need an n x m matrix with n, m >= 1, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite entries")
    if np.min(x) < -tol:
        raise ValueError(f"negative entry {np.min(x):.3e}")
    x = np.maximum(x, 0.0)
    rs = x.sum(axis=1)
    bad = int(np.argmax(np.abs(rs - 1.0)))
    if abs(rs[bad] - 1.0) > tol:
        raise ValueError(f"row {bad} sums to {float(rs[bad])!r}, not 1")
    return x


@dataclass(frozen=True)
class Marginals:
    """One distribution per node, stacked as a row-stochastic n x m matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        # the joint LP's start limit rests on this tolerance: see simplex.START_TOL
        x = _prob_rows(self.matrix, ROW_SUM_TOL)
        x.flags.writeable = False
        object.__setattr__(self, "matrix", x)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


def _checked_marginals(g: Graph, marginals) -> Marginals:
    """``marginals`` as a checked ``Marginals`` with one row per node of ``g``.

    A ``Marginals`` is already checked and passes as it is, so a caller that
    hands one on to several notions checks its rows once.
    """
    if not isinstance(marginals, Marginals):
        marginals = Marginals(marginals)
    if marginals.n != g.n:
        raise ValueError(f"marginal count {marginals.n} does not match n={g.n}")
    return marginals


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
    x = _checked_marginals(g, marginals).matrix
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

    Solves the exact linear program on the full joint table, from its
    north-west-corner staircase; only feasible for m^n within the table cap.
    """
    x = _checked_marginals(g, marginals).matrix
    n, m = x.shape
    if m ** n > JOINT_TABLE_CAP:
        raise ValueError(f"state space too large: m^n = {m ** n} exceeds cap {JOINT_TABLE_CAP}")
    states = np.indices((m,) * n).reshape(n, -1)  # column j: node labels of joint state j
    eu, ev = g.endpoints
    cost = (states[eu] != states[ev]).sum(axis=0, dtype=float)
    # a row per (node, label): all labels of node 0, all but the last of the
    # others, whose last-label rows follow from the joint table's total
    nodes = np.concatenate([np.zeros(m, dtype=np.intp), np.repeat(np.arange(1, n), m - 1)])
    labels = np.concatenate([np.arange(m), np.tile(np.arange(m - 1), n - 1)])
    a = (states[nodes] == labels[:, None]).astype(float)
    # the north-west-corner staircase: each state the pointers name, from all
    # at label 0, is a cell; each step takes the least mass left at the pointers
    # from every node, then moves on the pointer below label m - 1 with the
    # least mass left (lowest node on ties)
    mass = x.tolist()
    at, left, cells = [0] * n, [row[0] for row in mass], [0]
    for _ in range(n * (m - 1)):
        t = min(left)
        left = [r - t for r in left]
        i = min((r, i) for i, r in enumerate(left) if at[i] < m - 1)[1]
        at[i] += 1
        left[i] = mass[i][at[i]]
        cells.append(cells[-1] + m ** (n - 1 - i))
    try:
        return solve_lp(cost, a, x[nodes, labels], cells)[1]
    except ValueError as e:
        raise RuntimeError(f"joint coupling LP has no start for valid marginals: {e}") from e


def _rho(mu_a: np.ndarray, mu_b: np.ndarray) -> np.ndarray:
    """Per-label retention ratio along a directed step a -> b.

    min(mu_b/mu_a, 1), with the 0/0 branch defined as 1; broadcasts.
    """
    mu_a, mu_b = np.broadcast_arrays(mu_a, mu_b)
    pos = (mu_b <= mu_a) & (mu_a > 0.0)
    return np.divide(mu_b, mu_a, out=np.ones(mu_a.shape), where=pos)


_TREE_BATCH = 64  # trees per vectorized step of tv_tree_rooted


def tv_tree_rooted(g: Graph, marginals) -> np.ndarray:
    """Upper-bound variation induced by each rooted spanning tree.

    Returns a ``(trees, g.n)`` array whose entry ``[t, r]`` is row t of
    ``g.spanning_trees`` rooted at node r.  Each graph edge contributes the
    mass that provably must move between its endpoints once transport is
    routed through the tree from the root: the endpoint masses minus twice
    the mass retained from their deepest common ancestor.  On tree edges this
    collapses to the plain l1 difference.  Trees are processed in batches of
    ``_TREE_BATCH``.
    """
    x = _checked_marginals(g, marginals).matrix
    in_tree = g.spanning_trees
    eu, ev = g.endpoints
    l1 = 2.0 * wasserstein_sq(x[eu], x[ev])
    rho = _rho(x[:, None, :], x[None, :, :])  # rho[a, b]: the step a -> b
    out = np.empty((len(in_tree), g.n))
    for lo in range(0, len(in_tree), _TREE_BATCH):
        out[lo:lo + _TREE_BATCH] = _tree_bound_batch(
            x, eu, ev, l1, rho, in_tree[lo:lo + _TREE_BATCH])
    return out


def _tree_bound_batch(x, eu, ev, l1, rho, in_tree) -> np.ndarray:
    """``tv_tree_rooted`` for the trees whose edge sets are the rows of in_tree."""
    b, n = in_tree.shape[0], x.shape[0]
    adj = np.zeros((b, n, n))
    adj[:, eu, ev] = in_tree
    adj[:, ev, eu] = in_tree
    # dist[t, w, a] is the tree distance; keep[t, w, a] the retention along
    # the path a -> w, one step at a time from a, filled in BFS depth order
    dist = np.full((b, n, n), n, dtype=np.int16)
    dist[:, np.arange(n), np.arange(n)] = 0
    keep = np.ones((b * n * n, x.shape[1]))  # flat [t, w, a]
    rho = rho.reshape(n * n, -1)
    # front[t, c, a] is n + c for the nodes c at depth d - 1 from a, else 0, so
    # adj @ front is n + c at a new node w, c its one tree neighbour (exact)
    weights = np.arange(n, 2 * n, dtype=float)[:, None]
    front = np.broadcast_to(np.diag(weights[:, 0]), (b, n, n))
    for d in range(1, n):
        hit = adj @ front
        new = np.flatnonzero((hit > 0.0) & (dist == n))
        if new.size == 0:
            break
        c = hit.ravel()[new].astype(np.intp) - n  # the predecessor of w on the path from a
        w = new // n % n
        dist.ravel()[new] = d
        keep[new] = keep[new + (c - w) * n] * rho[c * n + w]
        front = (dist == d) * weights
    keep = keep.reshape(b, n, n, -1)
    # tree edges keep l1; every tree leaves out the same number of host
    # edges, and off[t, j] is the j-th edge (u, v) that tree t leaves out
    off = np.nonzero(~in_tree)[1].reshape(b, -1)
    ou, ov = eu[off], ev[off]
    tb = np.arange(b)[:, None]
    # the deepest common ancestor of u and v under root r is the node on the
    # u-v path nearest r: the median k[t, j, r] of r, u and v
    k = (dist[:, None] + (dist[tb, ou] + dist[tb, ov])[:, :, None]).argmin(axis=-1)
    # the transport term depends on r only through k: take it at every node
    at = (x[ou] + x[ov])[:, :, None] - 2.0 * x * keep[tb, ou] * keep[tb, ov]
    term = np.empty((b, eu.size, n))  # [t, e, r]
    term[:] = l1[:, None]
    term[tb, off] = np.take_along_axis(at.sum(axis=-1), k, axis=-1)
    total = np.zeros((b, n))
    for e in range(eu.size):  # in g.edges order: the same running sum as one edge at a time
        total += term[:, e]
    return total


def tv_cover(g: Graph, marginals, size_cap: int) -> tuple[float, list[int]]:
    """Cheapest spanning-tree cover variation within a cover-size cap.

    Per-tree variation is the sum of its edges' transport distances (exact on
    trees); the search over covers of ``g.spanning_trees`` is exact within
    the cap.  A host over ``COVER_MAX_EDGES`` edges is refused before its
    trees are listed.  Returns the value and the sorted indices of the chosen
    rows (none on a single node).
    """
    x = _checked_marginals(g, marginals).matrix
    if g.m > COVER_MAX_EDGES:
        raise GraphError(f"cover search infeasible for {g.m} edges (limit {COVER_MAX_EDGES})")
    in_tree = g.spanning_trees
    if g.m == 0:  # one node: no edge to cover
        return 0.0, []
    eu, ev = g.endpoints
    w = wasserstein_sq(x[eu], x[ev])
    # a running sum in edge order: the additions of a per-tree sum, since
    # adding a left-out edge's 0.0 to a sum of terms >= 0 changes no bit
    weights = np.where(in_tree, w, 0.0).cumsum(axis=1)[:, -1]
    masks = in_tree @ (1 << np.arange(g.m, dtype=np.int64))  # bit i of row t: edge i
    res = _min_weight_cover(masks, weights, g.m, size_cap)
    if res is None:
        raise GraphError(f"no cover within cap {size_cap}")
    return res


# --- inequality chains ----------------------------------------------------

def check_tv_bounds(g: Graph, marginals) -> dict:
    """Evaluate every variation notion and verify the inequality chains.

    Returns a JSON-ready report with all values, per-inequality margins, any
    violations, and whether the weaker sqrt(|S|*n) tail constant also holds.
    """
    tol = 1e-9
    nn = _checked_marginals(g, marginals)
    tg1, tg2 = tv_l1_l2(g, nn)
    tg = tv_exact(g, nn)
    # enumerated here, before the bounds read the cached table, so that a
    # traced run times the enumeration and counts its trees under its own name
    trees = enumerate_spanning_trees(g)
    tghv_min = float(tv_tree_rooted(g, nn).min())
    _, c1 = clique_number_complement(g)
    tcov, cover = tv_cover(g, nn, size_cap=cover_size_cap(c1))
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


def random_bound_instance(key, max_n: int, max_m: int) -> tuple[Graph, Marginals]:
    """Seeded random connected graph plus Dirichlet(1,...,1) marginals.

    Draws 2..max_n nodes and 2..max_m labels; the fuzz corpus draws with
    ``BOUND_CORPUS``.
    """
    rng = np.random.default_rng(key)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, max_m + 1))
    p = float(rng.uniform(0.3, 0.9))
    iu, ju = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < p
        g = build_graph(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))
        if is_connected(g):
            break
    x = rng.dirichlet(np.ones(m), size=n)
    return g, Marginals(x)


def run_bound_corpus(trials: int, seed: int, *, max_n: int, max_m: int,
                     keep_instances: bool) -> dict:
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
