"""Independent routes that the tests compare the library against.

Nothing under ``src/`` calls these: the transport LP over all couplings, the
edge tuple of a tree bitmask, the unit-weight minimum tree cover, the inverse
graph Fourier transform, a recorder for the LPs that ``distributional``
hands to the simplex solver, one branch per regularizer variant, one model's
forward pass and loss gradient on plain n x C arrays, the one-model-at-a-time
training loop, the all-pairs block-model sampler, the dict-lookup induced
subgraph and the per-token ``float()`` parse of Cora features.
"""

import numpy as np

from distsig import distributional, gnn
from distsig.graph import (
    GraphError,
    _min_weight_cover,
    build_graph,
    clique_number_complement,
    cover_size_cap,
    enumerate_spanning_trees,
    laplacian_sparse,
    normalized_adjacency,
    read_lines,
)
from distsig.regularizer import confidence_weights, softmax_rows, softmax_vjp
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


def reg_one(variant, o, x, lap, a_vec):
    """One model's regularizer value and logit gradient on n x C logits and
    probabilities, each variant on its own branch."""
    if variant == "gcn":
        return 0.0, None
    a = a_vec[:, None]
    if variant == "r3":
        lo = lap @ o
        return float(np.sum(o * lo)), 2.0 * lo
    xl = lap @ x
    l1 = float(np.sum(x * xl))
    l2 = float(np.sum((x * x) * a))
    if variant == "r":
        return l1 + l2, softmax_vjp(x, 2.0 * (xl + a * x))
    if variant == "r1":
        return l1, softmax_vjp(x, 2.0 * xl)
    if variant == "r2":
        return l2, softmax_vjp(x, 2.0 * a * x)
    raise ValueError(f"unknown variant {variant!r}")


def reg_value_and_grad(variant, o, x, lap, a_vec):
    """Regularizer values and logit gradients of a K x n x C stack, model by model.

    The library computes r, r1 and r2 as one weighted trace over the whole
    stack; this is the per-variant, per-model form it must match bit for bit.
    """
    per_model = [reg_one(variant, om, xm, lap, a_vec) for om, xm in zip(o, x)]
    values = np.array([v for v, _ in per_model])
    if variant == "gcn":
        return values, None
    return values, np.stack([grad for _, grad in per_model])


def forward_one(w1, w2, ahat, inp, dropout=0.0, rng=None):
    """One model's forward pass on a ``gnn._SparseInput``, weights d x H and H x C.

    Returns (logits, probabilities, hidden layer, hidden mask or None, the
    transposed input as dropped).  Draws the same uniforms as the library.
    """
    if rng is not None and dropout > 0.0:
        f, f_t = inp.drop(rng, dropout)
    else:
        f, f_t = inp.f, inp.f_t
    hd = ahat @ (f @ w1)
    np.maximum(hd, 0.0, out=hd)
    mask1 = None
    if rng is not None and dropout > 0.0:
        mask1 = (rng.random(hd.shape) >= dropout) / (1.0 - dropout)
        hd *= mask1
    o = ahat @ (hd @ w2)
    return o, softmax_rows(o), hd, mask1, f_t


def loss_and_grad_one(w1, w2, ahat, inp, labels, train_idx, lap, a_vec, cfg, rng=None):
    """One model's training loss, cross-entropy, weight gradients and
    probabilities, step by step on n x C arrays.

    The library trains every model as a member of a stack; this is the
    single-model objective and backward pass it must reproduce bit for bit.
    """
    o, x, hd, mask1, f_t = forward_one(w1, w2, ahat, inp, cfg.dropout, rng)
    n = o.shape[0]
    ce = -float(np.mean(np.log(np.maximum(x[train_idx, labels[train_idx]], 1e-12))))
    d_o = np.zeros_like(o)
    d_o[train_idx] = x[train_idx]
    d_o[train_idx, labels[train_idx]] -= 1.0
    d_o /= train_idx.shape[0]
    reg, reg_grad = reg_one(cfg.variant, o, x, lap, a_vec)
    if reg_grad is not None:
        d_o = d_o + (cfg.eta / n) * reg_grad
    loss = ce + cfg.eta * (reg / n) + 0.5 * cfg.weight_decay * float(np.sum(w1 ** 2))
    dz2 = ahat @ d_o
    dw2 = hd.T @ dz2
    da1 = dz2 @ w2.T
    if mask1 is not None:
        da1 *= mask1
    da1 *= hd > 0.0
    dw1 = f_t @ (ahat @ da1) + cfg.weight_decay * w1
    return loss, ce, (dw1, dw2), x


def _accuracy(x, labels, idx):
    return float(np.mean(np.argmax(x[idx], axis=1) == labels[idx]))


def train_one(g, features, labels, split, cfg):
    """One model trained alone, epoch by epoch, without the output analysis.

    This is the per-run loop that ``gnn.train`` generalizes to a stack of
    models; the stack must reproduce it bit for bit, model by model.  It
    shares only the input, the weight initialization and Adam with it.
    """
    inp = gnn._SparseInput(features)
    labels = np.asarray(labels, dtype=np.int64)
    ahat = normalized_adjacency(g)
    lap = laplacian_sparse(g)
    a_vec = confidence_weights(g)
    classes = int(labels.max()) + 1
    params = gnn.init_params(inp.f.shape[1], cfg.hidden, classes, cfg.seed)
    w1, w2 = params.w1, params.w2[0]
    drop_rng = np.random.default_rng((cfg.seed, 1))
    opt = gnn._Adam([w1.shape, w2.shape], cfg.lr)

    tl, tc, ta, vl, va, rv = [], [], [], [], [], []
    best_acc, best_epoch, test_acc = -1.0, 0, 0.0
    for epoch in range(1, cfg.epochs + 1):
        loss, ce, grads, _ = loss_and_grad_one(
            w1, w2, ahat, inp, labels, split.train, lap, a_vec, cfg, rng=drop_rng
        )
        if not np.isfinite(loss):
            raise RuntimeError(f"divergence (non-finite loss) at epoch {epoch}")
        opt.step([w1, w2], grads)

        o_eval, x_eval, *_ = forward_one(w1, w2, ahat, inp)
        p_val = x_eval[split.val, labels[split.val]]
        val_loss = -float(np.mean(np.log(np.maximum(p_val, 1e-12))))
        val_acc = _accuracy(x_eval, labels, split.val)
        tl.append(loss)
        tc.append(ce)
        ta.append(_accuracy(x_eval, labels, split.train))
        vl.append(val_loss)
        va.append(val_acc)
        rv.append(reg_one(cfg.variant, o_eval, x_eval, lap, a_vec)[0])
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            test_acc = _accuracy(x_eval, labels, split.test)
    return gnn.Metrics(cfg, tl, tc, ta, vl, va, rv, best_epoch, test_acc, x_eval)


def sbm_generate_all_pairs(block_sizes, p_in, p_out, seed):
    """``graph.sbm_generate`` with every node pair's index, uniform and
    probability held at once: about 50 bytes per pair."""
    n = sum(block_sizes)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)  # row-major == (i < j) lexicographic order
    u = rng.random(iu.size)
    p = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = u < p
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    return build_graph(n, edges), labels


def induced_subgraph_by_dict(g, nodes):
    """``graph.induced_subgraph`` with a dict lookup per edge."""
    nodes = sorted(set(int(v) for v in nodes))
    index = {v: i for i, v in enumerate(nodes)}
    sub = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return build_graph(len(nodes), sub)


def cora_features_by_float(content_path):
    """``gnn.load_cora``'s row-normalized features, parsed one ``float()`` per
    token into Python lists; the file must be well formed."""
    feats = [[float(c) for c in line.split()[1:-1]]
             for _, line in read_lines(content_path)]
    f = np.array(feats, dtype=float)
    rs = f.sum(axis=1)
    nz = rs > 0
    f[nz] = f[nz] / rs[nz][:, None]
    return f
