"""Independent routes that the tests compare the library against.

Nothing under ``src/`` calls these: the two-phase simplex that needs no
starting basis, the transport LP over all couplings, the edge tuple of a
row of the boolean tree edge table, the Python-int bitmask of each row, the
tree cover weighted by one Python sum per tree, the unit-weight minimum tree
cover, the inverse graph Fourier transform, a recorder for the LPs that
``distributional`` hands to the simplex solver, the per-edge and
per-(node, label) loop build of the joint-coupling LP and its staircase
start, the joint LP on every marginal row through the two-phase simplex, one
branch per regularizer variant, one model's forward pass and loss gradient
on plain n x C arrays (at ``gnn.DROPOUT`` and ``gnn.WEIGHT_DECAY`` as read
at call time, so a test may patch them), the one-model-at-a-time training
loop, the all-pairs block-model sampler, the dict-lookup induced subgraph,
the propagation matrix scaled by its CSR row sums, the per-token
``float()`` parse of Cora features, the fuzz-instance draw that lists
its candidate pairs with ``np.triu_indices`` and the split whose val/test
pool is ``np.setdiff1d`` of the training nodes.
"""

import itertools

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
from distsig.simplex import PIVOT_TOL, _pivot, _run_phase, solve_lp

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


class InfeasibleError(RuntimeError):
    pass


def solve_lp_two_phase(c, a_eq, b_eq):
    """Return (x, value) minimizing c.x over {x >= 0 : A x = b}, with no
    starting basis: phase 1 drives artificial columns out, then phase 2
    optimizes.  A (near) zero row left after phase 1 is a redundant
    constraint and is dropped.  Each phase is capped at 200 * (rows +
    columns + 10) pivots.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_eq, dtype=float).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("LP dimension mismatch")
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    max_iter = 200 * (m + n + 10)

    # phase 1: artificial basis, drive the artificials to zero
    tab = np.hstack([a, np.eye(m), b[:, None]])
    tab = np.vstack([tab, np.zeros(n + m + 1)])  # room for the reduced costs
    basis = list(range(n, n + m))
    red = _run_phase(tab, basis, np.concatenate([np.zeros(n), np.ones(m)]), max_iter)
    phase1_val = -red[-1]
    if phase1_val > 1e-9:
        raise InfeasibleError(f"no feasible point (phase-1 value {phase1_val:.3e})")

    # kick residual artificials out of the basis; a row with no real pivot
    # is a redundant constraint and gets dropped
    tab = tab[:m]  # phase 2 sets up its own reduced costs
    keep = []
    for i in range(m):
        if basis[i] >= n:
            cols = (np.abs(tab[i, :n]) > PIVOT_TOL).nonzero()[0]
            if cols.size == 0:
                continue
            basis[i] = int(cols[0])
            _pivot(tab, i, basis[i])
        keep.append(i)
    tab = np.hstack([tab[keep][:, :n], tab[keep][:, -1:]])
    tab = np.vstack([tab, np.zeros(n + 1)])
    basis = [basis[i] for i in keep]

    _run_phase(tab, basis, c, max_iter)
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = tab[i, -1]
    if np.min(x) < -1e-7:
        raise RuntimeError(f"negative component {np.min(x):.3e} in solution")
    x = np.maximum(x, 0.0)
    return x, float(c @ x)


def coupling_lp_oracle(mu, nu) -> float:
    """Exact transport LP over all couplings; the independent check route."""
    try:
        _, val = solve_lp_two_phase(*transport_lp(mu, nu))
    except InfeasibleError as e:  # pragma: no cover - valid inputs are feasible
        raise RuntimeError(f"coupling LP infeasible: {e}") from e
    return max(val, 0.0)


def tree_edges(g, row) -> tuple:
    """The sorted edge tuple of a tree given as a boolean row over ``g.edges``."""
    return tuple(e for e, held in zip(g.edges, row, strict=True) if held)


def tree_masks(trees) -> list[int]:
    """Each row of a boolean tree edge table as a Python int, bit i for entry i."""
    return [sum(1 << i for i, held in enumerate(row) if held) for row in trees]


def tv_cover_by_tree_sums(g, x, size_cap, trees):
    """``tv_cover``'s value, chosen row indices and per-tree weights, each
    weight one Python sum over the tree's edges in ``g.edges`` order; ``x`` is
    n x m."""
    eu, ev = g.endpoints
    w = distributional.wasserstein_sq(x[eu], x[ev]).tolist()
    weights = [sum(w[i] for i in range(g.m) if t[i]) for t in trees]
    val, idx = _min_weight_cover(tree_masks(trees), weights, g.m, size_cap)
    return val, idx, weights


def covers(cover, g) -> bool:
    """Whether the union of the cover's tree edges holds every edge of g."""
    covered = set()
    for t in cover:
        covered.update(tree_edges(g, t))
    return covered.issuperset(set(g.edges))


def min_tree_cover(g) -> np.ndarray:
    """Smallest set of spanning trees covering every edge, within the default
    cap, as rows of the tree edge table."""
    trees = enumerate_spanning_trees(g)
    _, c1 = clique_number_complement(g)
    size_cap = cover_size_cap(c1)
    # unit weights: minimum total weight == minimum cover size
    res = _min_weight_cover(tree_masks(trees), [1.0] * len(trees), g.m, size_cap)
    if res is None:
        raise GraphError(f"no cover within cap {size_cap}")
    _, idx = res
    cover = trees[idx]
    assert covers(cover, g)
    if 1 <= c1 <= size_cap:
        assert len(cover) <= c1, f"cover size {len(cover)} > c1 {c1}"
    return cover


def igft(vecs, xhat) -> np.ndarray:
    """Inverse graph Fourier transform: the signal with coefficients xhat in
    the basis of the columns of ``vecs``."""
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (vecs.shape[1],):
        raise ValueError(f"coefficient length {xhat.shape} does not match n={vecs.shape[1]}")
    return vecs @ xhat


def recorded_lps(monkeypatch, run):
    """Every (c, A, b, basis) that ``run()`` hands to the library's solve_lp."""
    lps = []

    def record(c, a, b, basis):
        lps.append((np.array(c), np.array(a), np.array(b), np.array(basis)))
        return solve_lp(c, a, b, basis)

    monkeypatch.setattr(distributional, "solve_lp", record)
    run()
    monkeypatch.undo()
    return lps


def _joint_states(n, m):
    """The joint states in ``itertools.product`` order, one row each."""
    return np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int64)


def _joint_cost(g, states):
    cost = np.zeros(states.shape[0])
    for u, v in g.edges:
        cost += (states[:, u] != states[:, v]).astype(float)
    return cost


def joint_lp_by_loops(g, x):
    """``tv_exact``'s (cost, A, b, basis): one variable per joint state in
    ``itertools.product`` order; one marginal row per label of node 0, then
    per label but the last of each other node; and the staircase cells."""
    n, m = x.shape
    states = _joint_states(n, m)
    rows = [(0, s) for s in range(m)] + [(i, s) for i in range(1, n) for s in range(m - 1)]
    a = np.zeros((len(rows), states.shape[0]))
    for k, (i, s) in enumerate(rows):
        a[k] = (states[:, i] == s).astype(float)
    b = np.array([x[i, s] for i, s in rows])
    index = {tuple(st): j for j, st in enumerate(states.tolist())}
    at = [0] * n
    left = [float(x[i, 0]) for i in range(n)]
    cells = [index[tuple(at)]]
    while any(s < m - 1 for s in at):
        t = min(left)
        left = [r - t for r in left]
        movable = [i for i in range(n) if at[i] < m - 1]
        i = min(movable, key=lambda i: (left[i], i))
        at[i] += 1
        left[i] = float(x[i, at[i]])
        cells.append(index[tuple(at)])
    return _joint_cost(g, states), a, b, np.array(cells)


def tv_exact_two_phase(g, x) -> float:
    """The joint-coupling LP on every (node, label) marginal row, through
    the two-phase simplex: ``tv_exact`` with no staircase and no dropped
    rows."""
    x = x.matrix if isinstance(x, distributional.Marginals) else np.asarray(x, dtype=float)
    n, m = x.shape
    states = _joint_states(n, m)
    a = np.zeros((n * m, states.shape[0]))
    for i in range(n):
        for s in range(m):
            a[i * m + s] = (states[:, i] == s).astype(float)
    _, val = solve_lp_two_phase(_joint_cost(g, states), a, x.ravel())
    return max(val, 0.0)


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


def forward_one(w1, w2, ahat, inp, rng=None):
    """One model's forward pass on a ``gnn._SparseInput``, weights d x H and H x C.

    Returns (logits, probabilities, hidden layer, hidden mask or None, the
    transposed input as dropped).  With ``rng``, drops at ``gnn.DROPOUT`` as
    read at call time, with the same uniforms as the library.
    """
    dropout = gnn.DROPOUT if rng is not None else 0.0
    if dropout > 0.0:
        f, f_t = inp.drop(rng, dropout)
    else:
        f, f_t = inp.f, inp.f_t
    hd = ahat @ (f @ w1)
    np.maximum(hd, 0.0, out=hd)
    mask1 = None
    if dropout > 0.0:
        mask1 = (rng.random(hd.shape) >= dropout) / (1.0 - dropout)
        hd *= mask1
    o = ahat @ (hd @ w2)
    return o, softmax_rows(o), hd, mask1, f_t


def loss_and_grad_one(w1, w2, ahat, inp, labels, train_idx, lap, a_vec, cfg, rng=None):
    """One model's training loss, cross-entropy, weight gradients and
    probabilities, step by step on n x C arrays.

    The library trains every model as a member of a stack; this is the
    single-model objective and backward pass it must reproduce bit for bit.
    ``cfg`` gives the variant and eta; dropout and weight decay are
    ``gnn.DROPOUT`` and ``gnn.WEIGHT_DECAY`` as read at call time.
    """
    o, x, hd, mask1, f_t = forward_one(w1, w2, ahat, inp, rng)
    n = o.shape[0]
    ce = -float(np.mean(np.log(np.maximum(x[train_idx, labels[train_idx]], 1e-12))))
    d_o = np.zeros_like(o)
    d_o[train_idx] = x[train_idx]
    d_o[train_idx, labels[train_idx]] -= 1.0
    d_o /= train_idx.shape[0]
    reg, reg_grad = reg_one(cfg.variant, o, x, lap, a_vec)
    if reg_grad is not None:
        d_o = d_o + (cfg.eta / n) * reg_grad
    loss = ce + cfg.eta * (reg / n) + 0.5 * gnn.WEIGHT_DECAY * float(np.sum(w1 ** 2))
    dz2 = ahat @ d_o
    dw2 = hd.T @ dz2
    da1 = dz2 @ w2.T
    if mask1 is not None:
        da1 *= mask1
    da1 *= hd > 0.0
    dw1 = f_t @ (ahat @ da1) + gnn.WEIGHT_DECAY * w1
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
    params = gnn.init_params(inp.f.shape[1], classes, cfg.seed)
    w1, w2 = params.w1, params.w2[0]
    drop_rng = np.random.default_rng((cfg.seed, 1))
    opt = gnn._Adam([w1.shape, w2.shape])

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


def random_bound_instance_by_triu(key, max_n, max_m):
    """``distributional.random_bound_instance`` with the candidate pairs as the two
    ``np.triu_indices`` index arrays, zipped per try: the reference for its draw."""
    rng = np.random.default_rng(key)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, max_m + 1))
    p = float(rng.uniform(0.3, 0.9))
    iu, ju = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < p
        g = build_graph(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))
        if len(g.components) == 1:
            break
    x = rng.dirichlet(np.ones(m), size=n)
    return g, distributional.Marginals(x)


def induced_subgraph_by_dict(g, nodes):
    """The subgraph on ``nodes``, relabelled in increasing order, with a dict lookup
    per edge: the reference for ``graph.main_component``."""
    nodes = sorted(set(int(v) for v in nodes))
    index = {v: i for i, v in enumerate(nodes)}
    sub = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return build_graph(len(nodes), sub)


def normalized_adjacency_by_row_sums(g):
    """``graph.normalized_adjacency`` from the CSR array of A + I: its row
    sums are the degrees plus one, and two ``multiply`` calls scale rows and
    columns by their inverse square roots."""
    import scipy.sparse as sp
    u, v = g.endpoints
    nodes = np.arange(g.n)
    at = sp.csr_array((np.ones(2 * g.m + g.n),
                       (np.concatenate([u, v, nodes]), np.concatenate([v, u, nodes]))),
                      shape=(g.n, g.n))
    dinv = 1.0 / np.sqrt(at.sum(axis=1))
    return sp.csr_array(at.multiply(dinv[:, None]).multiply(dinv[None, :]))


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


def make_split_by_setdiff(labels, per_class, val_size, test_size, seed):
    """``gnn.make_split`` with its val/test pool taken by ``np.setdiff1d``."""
    labels = np.asarray(labels)
    rng = np.random.default_rng((seed, 17))
    train = []
    for cls in np.unique(labels):
        train.extend(rng.permutation(np.flatnonzero(labels == cls))[:per_class].tolist())
    train_arr = np.array(sorted(train), dtype=np.int64)
    perm = rng.permutation(np.setdiff1d(np.arange(labels.shape[0]), train_arr))
    return gnn.Split(train_arr, np.sort(perm[:val_size]),
                     np.sort(perm[val_size:val_size + test_size]))
