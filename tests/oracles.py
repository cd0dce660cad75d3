"""Independent routes that the tests compare the library against.

Nothing under ``src/`` calls these: the transport LP over all couplings, the
edge tuple of a tree bitmask, the unit-weight minimum tree cover, the inverse
graph Fourier transform, a recorder for the LPs that ``distributional``
hands to the simplex solver, and the one-model-at-a-time training loop.
"""

import numpy as np

from distsig import distributional, gnn
from distsig.graph import (
    GraphError,
    _min_weight_cover,
    clique_number_complement,
    cover_size_cap,
    enumerate_spanning_trees,
    laplacian_sparse,
    normalized_adjacency,
)
from distsig.regularizer import WeightDiag
from distsig.simplex import InfeasibleError, solve_lp

ORACLE_MAX_M = 6


def transport_lp(mu, nu):
    """(cost, A, b) of the transport LP over all m x m couplings of mu and nu."""
    x, y = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"alphabet size mismatch: {x.shape} vs {y.shape}")
    m = x.shape[0]
    if m > ORACLE_MAX_M:
        raise ValueError(f"alphabet size {m} too large for the LP oracle (max {ORACLE_MAX_M})")
    cost = (1.0 - np.eye(m)).ravel()
    a = np.zeros((2 * m, m * m))
    for i in range(m):
        a[i, i * m:(i + 1) * m] = 1.0  # row sums
        a[m + i, i::m] = 1.0           # column sums
    return cost, a, np.concatenate([x, y])


def coupling_lp_oracle(mu, nu) -> float:
    """Exact transport LP over all couplings; the independent check route."""
    try:
        _, val = solve_lp(*transport_lp(mu, nu))
    except InfeasibleError as e:  # pragma: no cover - valid inputs are feasible
        raise RuntimeError(f"coupling LP infeasible: {e}") from e
    return max(val, 0.0)


def tree_edges(g, mask: int) -> tuple:
    """The sorted edge tuple of a tree given as a bitmask over ``g.edges``."""
    return tuple(e for i, e in enumerate(g.edges) if mask >> i & 1)


def covers(cover, g) -> bool:
    """Whether the union of the cover's tree edges holds every edge of g."""
    covered = set()
    for t in cover:
        covered.update(tree_edges(g, t))
    return covered.issuperset(set(g.edges))


def min_tree_cover(g) -> list[int]:
    """Smallest set of spanning trees covering every edge, within the default cap."""
    trees = enumerate_spanning_trees(g)
    _, c1 = clique_number_complement(g)
    size_cap = cover_size_cap(c1)
    # unit weights: minimum total weight == minimum cover size
    res = _min_weight_cover(trees, [1.0] * len(trees), g.m, size_cap)
    if res is None:
        raise GraphError(f"no cover within cap {size_cap}")
    _, idx = res
    cover = [trees[i] for i in idx]
    assert covers(cover, g)
    if 1 <= c1 <= size_cap:
        assert len(cover) <= c1, f"cover size {len(cover)} > c1 {c1}"
    return cover


def igft(spec, xhat) -> np.ndarray:
    """Inverse graph Fourier transform: the signal with coefficients xhat."""
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (spec.n,):
        raise ValueError(f"coefficient length {xhat.shape} does not match n={spec.n}")
    return spec.eigenvectors @ xhat


def recorded_lps(monkeypatch, run):
    """Every (c, A, b) that ``run()`` hands to the library's solve_lp."""
    lps = []

    def record(c, a, b):
        lps.append((np.array(c), np.array(a), np.array(b)))
        return solve_lp(c, a, b)

    monkeypatch.setattr(distributional, "solve_lp", record)
    run()
    monkeypatch.undo()
    return lps


def train_one(g, features, labels, split, cfg):
    """One model trained alone, epoch by epoch, without the output analysis.

    This is the per-run loop that ``gnn.train`` generalizes to a stack of
    models; the stack must reproduce it bit for bit, model by model.
    """
    inp = gnn._SparseInput(features)
    labels = np.asarray(labels, dtype=np.int64)
    ahat = normalized_adjacency(g)
    lap = laplacian_sparse(g)
    a_vec = WeightDiag.default_for(g).a
    classes = int(labels.max()) + 1
    params = gnn.init_params(inp.f.shape[1], cfg.hidden, classes, cfg.seed)
    drop_rng = np.random.default_rng((cfg.seed, 1))
    opt = gnn._Adam([params.w1.shape, params.w2.shape], cfg.lr)

    tl, ta, vl, va, rv = [], [], [], [], []
    best_acc, best_epoch, test_acc = -1.0, 0, 0.0
    for epoch in range(1, cfg.epochs + 1):
        loss, _, _, grads, _ = gnn.loss_and_grad(
            params, ahat, inp, labels, split.train, lap, a_vec, cfg, rng=drop_rng
        )
        if not np.isfinite(loss):
            raise RuntimeError(f"divergence (non-finite loss) at epoch {epoch}")
        opt.step([params.w1, params.w2], grads)

        o_eval, x_eval, _ = gnn.gcn_forward(params, ahat, inp)
        p_val = x_eval[split.val, labels[split.val]]
        val_loss = -float(np.mean(np.log(np.maximum(p_val, 1e-12))))
        val_acc = gnn.accuracy(x_eval, labels, split.val)
        tl.append(loss)
        ta.append(gnn.accuracy(x_eval, labels, split.train))
        vl.append(val_loss)
        va.append(val_acc)
        rv.append(gnn._reg_value_and_grad(cfg.variant, o_eval, x_eval, lap, a_vec)[0])
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            test_acc = gnn.accuracy(x_eval, labels, split.test)
    return gnn.Metrics(cfg, tl, ta, vl, va, rv, best_epoch, test_acc, x_eval)
