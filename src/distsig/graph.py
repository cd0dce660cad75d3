"""Undirected simple graphs and the combinatorial machinery built on them.

Everything here treats a graph as an immutable value: a node count plus a
canonically sorted tuple of (u, v) edges with u < v.  This module is the one
place where edges become index arrays (``Graph.endpoints`` and the numpy path
of ``build_graph``) and matrices: the sparse Laplacian (densified for
eigendecompositions), the dense Laplacian minor of the matrix-tree count, and
the sparse propagation matrix for training.  A spanning tree is a row of a
boolean ``(trees, |E|)`` edge table (entry i is edge i); a graph lists its
own trees once, as ``Graph.spanning_trees``, and ``_spans`` is the one
spanning test, the enumeration's filter.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

COVER_MAX_EDGES = 20  # the cover search holds 2^|E| sets per level
# Edge lists this long are checked and sorted in numpy.  Measured on a 2-core
# Xeon (Python 3.11, numpy 2.4): a 10-edge bound-corpus graph builds in 11 us
# by the loop and 30 us in numpy; the two break even at about 36 edges for a
# list of tuples and about 20 for an array; a 4x50 block model (643 edges)
# builds in 1.03 ms by the loop and 0.09 ms in numpy.  Above COVER_MAX_EDGES,
# so the bound corpus always takes the loop.
_ARRAY_MIN_EDGES = 32
_ARRAY_MAX_N = 1 << 31  # edge keys min·n + max stay below 2^62
TREE_CAP = 10000  # most spanning trees enumerate_spanning_trees lists
# most candidate edge subsets, C(|E|, n - 1), that enumerate_spanning_trees
# tests: measured on a 2-core Xeon (Python 3.11, numpy 2.4), 2^20 of them
# take about 11 s at n = 30 and 20 s at n = 40, whatever the tree count
TREE_SUBSET_CAP = 1 << 20
_TREE_CHUNK = 1 << 12  # candidate edge subsets per spanning test of enumerate_spanning_trees
CLIQUE_MAX_N = 32  # most nodes clique_number_complement searches
_COVER_CHUNK = 1 << 14  # (set, candidate mask) cells per vectorized cover-search step
_SBM_CHUNK = 1 << 20  # node pairs per uniform draw of sbm_generate


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
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (u, v) of the edges, in ``edges`` order."""
        uv = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T.copy()
        uv.flags.writeable = False
        return uv[0], uv[1]

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.bincount(np.concatenate(self.endpoints), minlength=self.n).astype(float)
        d.flags.writeable = False
        return d

    @cached_property
    def spanning_trees(self) -> np.ndarray:
        """All spanning trees, as the read-only ``(trees, m)`` boolean edge table.

        A matrix-tree count runs first so that more than ``TREE_CAP`` trees,
        or more than ``TREE_SUBSET_CAP`` candidate subsets, are refused before
        any enumeration work happens; a disconnected graph is refused before
        that.  The trees are the (n - 1)-edge subsets of
        ``edges`` that pass ``_spans``; all C(|E|, n - 1) subsets are tested,
        ``_TREE_CHUNK`` at a time, in combination order, which on the sorted
        edge tuple is the order of the trees' sorted edge tuples.
        """
        if not is_connected(self):
            raise GraphError("graph disconnected")
        count = spanning_tree_count(self)
        if count > TREE_CAP:
            raise GraphError(f"tree count {count} exceeds cap {TREE_CAP}")
        candidates = math.comb(self.m, self.n - 1)
        if candidates > TREE_SUBSET_CAP:
            raise GraphError(f"{candidates} candidate edge subsets exceed cap {TREE_SUBSET_CAP}")
        subsets = itertools.combinations(range(self.m), self.n - 1)
        found = []
        while chunk := list(itertools.islice(subsets, _TREE_CHUNK)):
            rows = np.zeros((len(chunk), self.m), dtype=bool)
            rows[np.arange(len(chunk))[:, None], np.array(chunk, dtype=np.intp)] = True
            found.append(rows[_spans(self, rows)])
        trees = np.concatenate(found)
        trees.flags.writeable = False
        assert len(trees) == count, f"enumeration found {len(trees)}, Kirchhoff says {count}"
        return trees

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Rejects an edge that is not a pair of integers, self-loops, out-of-range
    endpoints and duplicate edges, naming the offending edge in the error.  A
    list, tuple or array of at least ``_ARRAY_MIN_EDGES`` integer pairs is
    checked and sorted in numpy; every other input, and any input with a
    fault, goes through the edge loop, so the loop is the reference for the
    result and for every error message.
    """
    if n < 1:
        raise GraphError(f"node count must be positive, got {n}")
    sized = isinstance(edges, (list, tuple)) or isinstance(edges, np.ndarray) and edges.ndim > 0
    if sized and len(edges) >= _ARRAY_MIN_EDGES:
        fast = _canonical_edges_array(n, edges)
        if fast is not None:
            return Graph(n, fast)
    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for e in edges:
        try:  # operator.index refuses floats, strings and numpy bools
            u, v = map(operator.index, e)
        except (TypeError, ValueError):
            raise GraphError(f"edge {e!r} is not a pair of integers") from None
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


def _canonical_edges_array(n, edges) -> tuple[tuple[int, int], ...] | None:
    """``build_graph``'s sorted edge tuple, computed in numpy, or None.

    None when ``edges`` is not an integer (m, 2) array (floats, objects,
    ragged rows, ints beyond int64) or holds a self-loop, an out-of-range
    endpoint or a repeat: the loop then handles it.  Each edge becomes the key
    min·n + max, and the sorted keys are the sorted (min, max) pairs.
    """
    if not isinstance(n, (int, np.integer)) or n > _ARRAY_MAX_N:
        return None
    try:
        a = np.asarray(edges)
    except (ValueError, TypeError, OverflowError):
        return None
    if (a.ndim != 2 or a.shape[1] != 2 or a.dtype.kind not in "iu"
            or not np.can_cast(a.dtype, np.int64)):
        return None
    u, v = a[:, 0].astype(np.int64), a[:, 1].astype(np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if (lo == hi).any() or (lo < 0).any() or (hi >= n).any():
        return None
    keys = lo * n + hi
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    lo, hi = np.divmod(keys, n)
    return tuple(zip(lo.tolist(), hi.tolist()))


def _symmetric_csr(g: Graph, off: float, diag: np.ndarray) -> sp.csr_array:
    """CSR array with ``off`` on both entries of every edge and ``diag`` on the diagonal."""
    import scipy.sparse as sp  # loads on the first sparse matrix, not on import
    u, v = g.endpoints
    nodes = np.arange(g.n)
    rows = np.concatenate([u, v, nodes])
    cols = np.concatenate([v, u, nodes])
    data = np.concatenate([np.full(2 * g.m, off), diag])
    return sp.csr_array((data, (rows, cols)), shape=(g.n, g.n))


def laplacian_sparse(g: Graph) -> sp.csr_array:
    """Sparse combinatorial Laplacian D - A (symmetric, PSD)."""
    return _symmetric_csr(g, -1.0, g.degrees)


def normalized_adjacency(g: Graph) -> sp.csr_array:
    """Sparse self-loop-augmented normalization D~^{-1/2} (A + I) D~^{-1/2}."""
    import scipy.sparse as sp  # loads on the first sparse matrix, not on import
    at = _symmetric_csr(g, 1.0, np.ones(g.n))
    dinv = 1.0 / np.sqrt(at.sum(axis=1))
    return sp.csr_array(at.multiply(dinv[:, None]).multiply(dinv[None, :]))


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
    """The subgraph on ``nodes`` in increasing order; refuses the first bad id."""
    ids = []
    for v in nodes:
        try:  # operator.index refuses floats, strings and numpy bools
            ids.append(operator.index(v))
        except TypeError:
            raise GraphError(f"node {v!r} is not an integer node id (n={g.n})") from None
        if not 0 <= ids[-1] < g.n:
            raise GraphError(f"node {v} out of range for n={g.n}")
    nodes = sorted(set(ids))
    # nodes of g get their position in ``nodes``, the others -1
    index = np.full(g.n, -1)
    index[nodes] = np.arange(len(nodes))
    u, v = g.endpoints
    iu, iv = index[u], index[v]
    inside = (iu >= 0) & (iv >= 0)
    return build_graph(len(nodes), np.stack([iu[inside], iv[inside]], axis=1))


def spanning_tree_count(g: Graph) -> int | float:
    """Number of spanning trees via the matrix-tree determinant.

    A count beyond float64's range is ``math.inf``.  The Laplacian is written
    straight into a dense array: this count runs once per bound-corpus
    instance (a few nodes), where building the CSR ``laplacian_sparse`` first
    costs about 20 times as much.  One node's empty minor has determinant 1.
    """
    u, v = g.endpoints
    lap = np.diag(g.degrees)
    lap[u, v] = lap[v, u] = -1.0
    with np.errstate(over="ignore"):
        det = np.linalg.det(lap[1:, 1:])
    return int(round(det)) if np.isfinite(det) else math.inf


def enumerate_spanning_trees(g: Graph) -> np.ndarray:
    """``g.spanning_trees``: all spanning trees of ``g`` as one edge table."""
    return g.spanning_trees


def _spans(g: Graph, rows: np.ndarray) -> np.ndarray:
    """Whether each row's edges (a boolean ``(k, g.m)`` table) reach every node.

    Each of n - 1 passes spreads the reach from node 0 by one step: the row's
    edges that touch a reached node, then the nodes they touch, two batched
    products of small integers, so exact.
    """
    inc = np.zeros((g.m, g.n))  # the edge-node incidence matrix
    inc[np.arange(g.m)[:, None], np.stack(g.endpoints, axis=1)] = 1.0
    reach = np.repeat(np.eye(1, g.n), len(rows), axis=0)  # node 0 only
    for _ in range(g.n - 1):
        reach = np.minimum(reach + (rows * (reach @ inc.T)) @ inc, 1.0)
    return reach.all(axis=1)


def clique_number_complement(g: Graph) -> tuple[int, int]:
    """Exact clique number of the complement graph, and the derived constant.

    Returns (omega_bar, n - omega_bar).  omega_bar is the size of a largest
    independent set of ``g``, found by branching on the lowest node left over
    neighbour bitmasks; refuses graphs over ``CLIQUE_MAX_N`` nodes.
    """
    if g.n > CLIQUE_MAX_N:
        raise GraphError(f"n={g.n} exceeds exact limit {CLIQUE_MAX_N}")
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    def largest(left: int) -> int:
        if not left:
            return 0
        v = (left & -left).bit_length() - 1
        rest = left & ~(1 << v)
        with_v = 1 + largest(rest & ~nbr[v])
        # a node with at most one neighbour left is in some largest independent set
        if (nbr[v] & left).bit_count() <= 1:
            return with_v
        return max(with_v, largest(rest))

    best = largest((1 << g.n) - 1)
    return best, g.n - best


def _min_weight_cover(masks, weights, n_edges, size_cap):
    """Exact minimum-weight cover of the full edge set by at most size_cap masks.

    Top-down search over the uncovered edge set S: ``best[k][S]`` is the
    cheapest way to cover at least S with at most k masks.  Every cover of S
    holds S's lowest edge, so ``best[k][S]`` is the minimum, over the masks t
    holding that edge, of ``w_t + best[k-1][S & ~t]``.  ``best[1]`` is a
    superset-minimum table over all 2^n_edges sets; the higher levels are
    evaluated only at the sets reachable from the full edge set, level by
    level, in chunks of at most ``_COVER_CHUNK`` cells.  Exact because weights
    are >= 0.  Returns (cost, sorted indices) or None when no cover fits the
    cap.
    """
    if n_edges > COVER_MAX_EDGES:
        raise GraphError(
            f"cover search infeasible for {n_edges} edges (limit {COVER_MAX_EDGES})")
    full = (1 << n_edges) - 1
    if full == 0:
        return 0.0, []
    if size_cap < 1:
        return None
    masks = np.asarray(masks, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    size = 1 << n_edges
    holders = [np.flatnonzero(masks >> e & 1) for e in range(n_edges)]

    best1 = np.full(size, np.inf)
    np.minimum.at(best1, masks, weights)
    for b in range(n_edges):
        view = best1.reshape(-1, 2, 1 << b)
        np.minimum(view[:, 0], view[:, 1], out=view[:, 0])
    best1[0] = 0.0

    # sets left uncovered with k masks still to place, from the full set
    # down; each level is sorted, so the witness walk can search it
    states = {size_cap: np.array([full], dtype=np.int64)}
    for k in range(size_cap, 2, -1):
        seen = np.zeros(size, dtype=bool)
        for _, _, rest in _cover_cells(states[k], holders, masks):
            seen[rest] = True
        seen[0] = False
        states[k - 1] = np.flatnonzero(seen)

    prev = best1
    picks = {}
    for k in range(2, size_cap + 1):
        cur = np.full(size, np.inf)
        cur[0] = 0.0
        pick = np.full(states[k].size, -1, dtype=np.int64)  # aligned with states[k]
        for idx, hold, rest in _cover_cells(states[k], holders, masks):
            cand = prev[rest] + weights[hold]
            j = cand.argmin(axis=1)
            cur[states[k][idx]] = cand[np.arange(idx.size), j]
            pick[idx] = hold[j]
        prev, picks[k] = cur, pick
    cost = float(prev[full])
    if not np.isfinite(cost):
        return None

    chosen: list[int] = []
    s, k = full, size_cap
    while s:
        if k == 1:
            inside = np.where(masks & s == s, weights, np.inf)
            t = int(np.argmin(inside))
        else:
            t = int(picks[k][np.searchsorted(states[k], s)])
        chosen.append(t)
        s, k = s & ~int(masks[t]), k - 1
    return cost, sorted(chosen)


def _cover_cells(states, holders, masks):
    """Yield (positions in states, candidate masks, sets left) blocks.

    The sets are grouped by their lowest edge, and each block pairs up to
    ``_COVER_CHUNK`` (set, mask holding that edge) cells.
    """
    low = np.log2(states & -states).astype(np.int64)
    for e in np.unique(low):
        hold = holders[e]
        if hold.size == 0:
            continue
        pos = np.flatnonzero(low == e)
        off = ~masks[hold]
        step = max(1, _COVER_CHUNK // hold.size)
        for i in range(0, pos.size, step):
            idx = pos[i:i + step]
            yield idx, hold, states[idx][:, None] & off


def cover_size_cap(c1: int) -> int:
    """Default cap on a tree cover's size: the clique constant c1, at least 3."""
    return max(c1, 3)


def sbm_generate(block_sizes, p_in: float, p_out: float, seed: int) -> tuple[Graph, np.ndarray]:
    """Stochastic block model draw: one Bernoulli per (i < j) pair, seeded.

    Pair k of the row-major (i < j) order takes the k-th uniform of
    ``default_rng(seed)`` and is an edge when that uniform is below p_in
    (same block) or p_out (different blocks).  The uniforms are read in
    chunks of ``_SBM_CHUNK``, which give the same doubles as one call for all
    n(n-1)/2 pairs, so the time is O(n^2) draws and the memory O(chunk +
    edges).  Deterministic for a fixed seed; labels are block indices.
    """
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise GraphError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    block_sizes = [int(b) for b in block_sizes]
    if any(b <= 0 for b in block_sizes):
        raise GraphError("block sizes must be positive")
    n = sum(block_sizes)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(seed)
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2  # flat index of pair (i, i + 1)
    total = n * (n - 1) // 2
    heads, tails = [rows[:0]], [rows[:0]]  # n = 1 has no pairs and no chunk
    for lo in range(0, total, _SBM_CHUNK):
        u = rng.random(min(_SBM_CHUNK, total - lo))
        # p_out <= p_in: every edge is a candidate, and a cross-block
        # candidate stays only below p_out
        cand = np.flatnonzero(u < p_in)
        k = cand + lo
        i = np.searchsorted(starts, k, side="right") - 1
        j = k - starts[i] + i + 1
        keep = (labels[i] == labels[j]) | (u[cand] < p_out)
        heads.append(i[keep])
        tails.append(j[keep])
    edges = np.stack([np.concatenate(heads), np.concatenate(tails)], axis=1)
    return build_graph(n, edges), labels


# --- file formats ---------------------------------------------------------

def write_graph_file(path, g: Graph) -> None:
    text = f"{g.n} {g.m}\n" + "".join([f"{u} {v}\n" for u, v in g.edges])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped text) of each nonblank line of a UTF-8 text file.

    A file that is not UTF-8 is a GraphError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return [(lineno, line) for lineno, raw in enumerate(fh, 1) if (line := raw.strip())]
    except UnicodeDecodeError as e:
        raise GraphError(f"{path}: not UTF-8 text: {e}") from None


def read_graph_file(path) -> Graph:
    """Parse the "n m" header + edge-line format; '#' lines are comments."""
    rows = [(lineno, line) for lineno, line in read_lines(path) if not line.startswith("#")]
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
    text = "".join([f"{int(y)}\n" for y in labels])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_labels_file(path) -> np.ndarray:
    """One nonnegative integer (class index) per line; '#' lines are comments."""
    out = []
    for lineno, line in read_lines(path):
        if line.startswith("#"):
            continue
        try:
            y = int(line)
        except ValueError:
            raise GraphError(f"{path}:{lineno}: non-integer label {line!r}") from None
        if y < 0:
            raise GraphError(f"{path}:{lineno}: negative label {y}; labels are class indices")
        out.append(y)
    return np.array(out, dtype=np.int64)
