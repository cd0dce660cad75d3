"""Undirected simple graphs and the combinatorial machinery built on them.

Everything here treats a graph as an immutable value: a node count plus a
canonically sorted tuple of (u, v) edges with u < v.  Matrix views are dense
numpy arrays; callers that need sparse propagation matrices build their own
from ``edges``.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

log = logging.getLogger(__name__)

COVER_MAX_EDGES = 20  # the cover DP holds 2^|E| states per level


class GraphError(ValueError):
    """Invalid graph construction or an infeasible graph query."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1.0
        a.flags.writeable = False
        return a

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n)
        for u, v in self.edges:
            d[u] += 1.0
            d[v] += 1.0
        d.flags.writeable = False
        return d

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Rejects self-loops, out-of-range endpoints and duplicate edges, naming the
    offending edge in the error.
    """
    if n < 1:
        raise GraphError(f"node count must be positive, got {n}")
    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        canon.append(key)
    return Graph(n, tuple(sorted(canon)))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian D - A (symmetric, PSD)."""
    return np.diag(g.degrees) - g.adjacency


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Self-loop-augmented symmetric normalization: D~^{-1/2} (A + I) D~^{-1/2}."""
    a = g.adjacency + np.eye(g.n)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return a * dinv[:, None] * dinv[None, :]


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted node lists, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def main_component(g: Graph) -> tuple[Graph, list[int]]:
    """Largest component as an induced subgraph plus its (sorted) node list."""
    comps = connected_components(g)
    nodes = max(comps, key=len)
    return induced_subgraph(g, nodes), nodes


def induced_subgraph(g: Graph, nodes) -> Graph:
    nodes = sorted(set(int(v) for v in nodes))
    index = {v: i for i, v in enumerate(nodes)}
    sub = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return build_graph(len(nodes), sub)


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees via the matrix-tree determinant."""
    if g.n == 1:
        return 1
    minor = laplacian(g)[1:, 1:]
    det = np.linalg.det(minor)
    return int(round(det))


@dataclass(frozen=True)
class SpanningTree:
    """Spanning tree of a host graph; optionally rooted with parent pointers."""

    host_n: int
    edges: tuple[tuple[int, int], ...]
    root: int | None = None
    parent: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.host_n >= 1 and len(self.edges) != self.host_n - 1:
            raise GraphError(
                f"spanning tree needs {self.host_n - 1} edges, got {len(self.edges)}"
            )

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.host_n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def rooted(self, v0: int) -> "SpanningTree":
        """Return a copy rooted at v0 with BFS parent pointers."""
        if not (0 <= v0 < self.host_n):
            raise GraphError(f"root {v0} out of range")
        parent = [-1] * self.host_n
        seen = [False] * self.host_n
        seen[v0] = True
        queue = [v0]
        while queue:
            u = queue.pop(0)
            for w in self.neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    queue.append(w)
        if not all(seen):
            raise GraphError("tree does not span its host")
        return SpanningTree(self.host_n, self.edges, root=v0, parent=tuple(parent))


@dataclass(frozen=True)
class TreeCover:
    """Set of spanning trees whose edge union covers the host graph."""

    trees: tuple[SpanningTree, ...]

    def __post_init__(self):
        if not self.trees:
            raise GraphError("empty tree cover")

    def covers(self, g: Graph) -> bool:
        covered = set()
        for t in self.trees:
            covered.update(t.edges)
        return covered.issuperset(set(g.edges))


def enumerate_spanning_trees(g: Graph, cap: int = 10000) -> list[SpanningTree]:
    """All spanning trees, canonically sorted.

    A matrix-tree count runs first so a combinatorial explosion is refused
    before any enumeration work happens.
    """
    if not is_connected(g):
        raise GraphError("graph disconnected")
    count = spanning_tree_count(g)
    if count > cap:
        raise GraphError(f"tree count {count} exceeds cap {cap}")
    if g.n == 1:
        return [SpanningTree(1, ())]

    edges = list(g.edges)
    ne = len(edges)
    need = g.n - 1
    found: list[tuple[tuple[int, int], ...]] = []

    def find(uf: list[int], x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def feasible(uf: list[int], pos: int) -> bool:
        # can the remaining undecided edges still connect everything?
        tmp = uf[:]
        for u, v in edges[pos:]:
            ru, rv = find(tmp, u), find(tmp, v)
            if ru != rv:
                tmp[ru] = rv
        root = find(tmp, 0)
        return all(find(tmp, x) == root for x in range(g.n))

    def backtrack(pos: int, chosen: list[tuple[int, int]], uf: list[int]):
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
    assert len(found) == count, f"enumeration found {len(found)}, Kirchhoff says {count}"
    return [SpanningTree(g.n, t) for t in sorted(found)]


def clique_number_complement(g: Graph, limit: int = 32) -> tuple[int, int]:
    """Exact clique number of the complement graph, and the derived constant.

    Returns (omega_bar, n - omega_bar).  Bron-Kerbosch with pivoting; refuses
    graphs beyond the exact-search limit.
    """
    if g.n > limit:
        raise GraphError(f"n={g.n} exceeds exact limit {limit}")
    present = set(g.edges)
    neigh = [set() for _ in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (u, v) not in present:
                neigh[u].add(v)
                neigh[v].add(u)

    best = 0

    def expand(rsize: int, p: set, x: set):
        nonlocal best
        if not p and not x:
            best = max(best, rsize)
            return
        if rsize + len(p) <= best:
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & neigh[u]))
        for v in sorted(p - neigh[pivot]):
            expand(rsize + 1, p & neigh[v], x & neigh[v])
            p.remove(v)
            x.add(v)

    expand(0, set(range(g.n)), set())
    return best, g.n - best


def tree_edge_masks(g: Graph, trees) -> list[int]:
    """Each tree's edge set as a bitmask over ``g.edges`` (bit i is edge i)."""
    eidx = {e: i for i, e in enumerate(g.edges)}
    return [sum(1 << eidx[e] for e in t.edges) for t in trees]


def _min_weight_cover(masks, weights, n_edges, size_cap):
    """Exact minimum-weight cover of the full edge set by at most size_cap masks.

    DP over the subset lattice of edges; value-equivalent to exhaustive subset
    search but polynomial in 2^n_edges instead of C(#masks, cap).  Returns
    (cost, indices) or None when no cover fits the cap.
    """
    if n_edges > COVER_MAX_EDGES:
        raise GraphError(
            f"cover search infeasible for {n_edges} edges (limit {COVER_MAX_EDGES})")
    full = (1 << n_edges) - 1
    shape = (2,) * n_edges if n_edges else (1,)
    size = 1 << n_edges
    # axis k of the tensor corresponds to edge bit (n_edges - 1 - k)
    weights = [float(w) for w in weights]

    def axes_of(mask: int) -> tuple[int, ...]:
        return tuple(n_edges - 1 - b for b in range(n_edges) if mask >> b & 1)

    levels = [np.full(size, np.inf)]
    levels[0][0] = 0.0
    for _ in range(size_cap):
        prev = levels[-1]
        cur = prev.copy()
        tprev = prev.reshape(shape)
        tcur = cur.reshape(shape)
        for t, mt in enumerate(masks):
            ax = axes_of(mt)
            reduced = tprev.min(axis=ax) + weights[t] if ax else tprev + weights[t]
            idx = tuple(1 if a in ax else slice(None) for a in range(len(shape)))
            if len(ax) == len(shape):  # tree covers every edge: single cell
                if reduced < tcur[idx]:
                    tcur[idx] = reduced
            else:
                np.minimum(tcur[idx], reduced, out=tcur[idx])
        levels.append(cur)

    best = levels[size_cap][full]
    if not np.isfinite(best):
        return None

    # walk the DP back to recover one witnessing cover
    chosen: list[int] = []
    target, k = full, size_cap
    while k > 0:
        if levels[k - 1][target] <= levels[k][target] + 1e-12:
            k -= 1
            continue
        hit = False
        for t, mt in enumerate(masks):
            base = target & ~mt
            # predecessors differ from target only inside mt
            sub = mt
            cands = []
            s = sub
            while True:
                cands.append(base | s)
                if s == 0:
                    break
                s = (s - 1) & sub
            vals = levels[k - 1][cands]
            j = int(np.argmin(vals))
            if vals[j] + weights[t] <= levels[k][target] + 1e-9:
                chosen.append(t)
                target, k = cands[j], k - 1
                hit = True
                break
        assert hit, "cover DP reconstruction failed"
        if target == 0:
            break
    return float(best), sorted(chosen)


def min_tree_cover(g: Graph, size_cap: int | None = None) -> TreeCover:
    """Smallest set of spanning trees covering every edge, within a size cap."""
    trees = enumerate_spanning_trees(g)
    omega_bar, c1 = (None, None)
    if g.n <= 32:
        omega_bar, c1 = clique_number_complement(g)
    if size_cap is None:
        size_cap = max(c1 if c1 is not None else 3, 3)
    # unit weights: minimum total weight == minimum cover size
    res = _min_weight_cover(tree_edge_masks(g, trees), [1.0] * len(trees), g.m, size_cap)
    if res is None:
        raise GraphError(f"no cover within cap {size_cap}")
    _, idx = res
    cover = TreeCover(tuple(trees[i] for i in idx))
    assert cover.covers(g)
    if c1 is not None and c1 <= size_cap and c1 >= 1:
        assert len(cover.trees) <= c1, f"cover size {len(cover.trees)} > c1 {c1}"
    return cover


def sbm_generate(block_sizes, p_in: float, p_out: float, seed: int) -> tuple[Graph, np.ndarray]:
    """Stochastic block model draw: one Bernoulli per (i < j) pair, seeded.

    Deterministic for a fixed seed; labels are block indices.
    """
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise GraphError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    block_sizes = [int(b) for b in block_sizes]
    if any(b <= 0 for b in block_sizes):
        raise GraphError("block sizes must be positive")
    n = sum(block_sizes)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)  # row-major == (i < j) lexicographic order
    u = rng.random(iu.size)
    p = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = u < p
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    return build_graph(n, edges), labels


# --- file formats ---------------------------------------------------------

def write_graph_file(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def read_graph_file(path) -> Graph:
    """Parse the "n m" header + edge-line format; '#' lines are comments."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rows.append((lineno, line))
    if not rows:
        raise GraphError(f"{path}: empty graph file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphError(f"{path}:{lineno}: expected 'n m' header, got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"{path}:{lineno}: non-integer header {header!r}") from None
    if len(rows) - 1 != m:
        raise GraphError(f"{path}: header declares {m} edges, file has {len(rows) - 1}")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"{path}:{lineno}: non-integer edge {line!r}") from None
    try:
        return build_graph(n, edges)
    except GraphError as e:
        raise GraphError(f"{path}: {e}") from None


def write_labels_file(path, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for y in labels:
            fh.write(f"{int(y)}\n")


def read_labels_file(path) -> np.ndarray:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append(int(line))
            except ValueError:
                raise GraphError(f"{path}:{lineno}: non-integer label {line!r}") from None
    return np.array(out, dtype=np.int64)
