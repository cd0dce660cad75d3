"""Two-layer graph convolutional network with hand-written backprop.

Forward pass O = A_hat relu(A_hat F W1) W2 with row-softmax readout, trained
by Adam on masked cross-entropy plus an optional distributional regularizer
evaluated over every node.  Variants:

  gcn  no regularizer
  r    smoothness + confidence traces of the softmax outputs, weights (1, 1)
  r1   smoothness trace only, weights (1, 0)
  r2   confidence trace only, weights (0, 1)
  r3   smoothness trace of the raw logits

At eta 0 every variant trains the plain model bit for bit.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .graph import (
    Graph,
    GraphError,
    laplacian_sparse,
    main_component,
    normalized_adjacency,
    read_lines,
    sbm_generate,
)
from .regularizer import confidence_weights, nonuniformity_sweep, softmax_rows, softmax_vjp
from .spectral import high_freq_fraction, laplacian_coefficients, normalize_unless_constant
# not called here: perfbench/tracing.py patches these two names in this module
from .spectral import gft, laplacian_spectrum  # noqa: F401

log = logging.getLogger(__name__)

VARIANTS = ("gcn", "r", "r1", "r2", "r3")
HIDDEN = 16  # hidden-layer width
LR = 0.01  # Adam's learning rate
DROPOUT = 0.5  # training's input and hidden dropout rate
WEIGHT_DECAY = 5e-4  # L2 weight on W1
# (smoothness, confidence) weights of the softmax-output traces
TRACE_WEIGHTS = {"r": (1.0, 1.0), "r1": (1.0, 0.0), "r2": (0.0, 1.0)}


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "gcn"
    eta: float = 0.5
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class GcnParams:
    """Weights of a stack of K models; one model is a stack of one.

    A stack shares its input, so w1 is d x KH with model k in columns
    [kH, (k+1)H), and w2 is K x H x C.  Its outputs and logit gradients are
    K x n x C views of n x KC arrays that hold the models side by side.
    """

    w1: np.ndarray
    w2: np.ndarray


@dataclass
class Metrics:
    config: TrainConfig
    train_loss: list[float]
    train_ce: list[float]
    train_acc: list[float]
    val_loss: list[float]
    val_acc: list[float]
    reg_values: list[float]
    best_epoch: int
    test_acc: float
    final_probs: np.ndarray
    hf_fraction_per_class: list[float] | None = None
    nonuniformity: list[dict] | None = None

    def to_json_dict(self) -> dict:
        from dataclasses import asdict

        return {
            "config": {**asdict(self.config), "dropout": DROPOUT,
                       "weight_decay": WEIGHT_DECAY, "hidden": HIDDEN, "lr": LR},
            "per_epoch": [
                {"loss": l, "ce": ce, "acc_train": at, "loss_val": lv, "acc_val": av,
                 "reg": r}
                for l, ce, at, lv, av, r in zip(self.train_loss, self.train_ce, self.train_acc,
                                                self.val_loss, self.val_acc, self.reg_values)
            ],
            "best_epoch": self.best_epoch,
            "test_acc": self.test_acc,
            "hf_fraction_per_class": self.hf_fraction_per_class,
            "nonuniformity_sweep": self.nonuniformity,
        }


# --- datasets -------------------------------------------------------------

def load_cora(content_path, cites_path):
    """Parse the graph and labels of the raw citation-network format.

    Content lines: id, features (which ``cora_features`` reads), class label.
    Cites lines: "cited citing" id pairs, mapped to undirected simple edges.
    Returns (graph, integer labels), the labels numbered in sorted class-name order.
    """
    ids: dict[str, int] = {}
    labels_raw: list[str] = []
    for lineno, line in read_lines(content_path):
        parts = line.split(None, 2)  # the id and two more fields; no feature is parsed
        if len(parts) < 3:
            raise GraphError(f"{content_path}:{lineno}: malformed content line")
        if parts[0] in ids:
            raise GraphError(f"{content_path}:{lineno}: duplicate id {parts[0]!r}")
        ids[parts[0]] = len(ids)
        labels_raw.append(parts[2].rsplit(None, 1)[-1])
    if not ids:
        raise GraphError(f"{content_path}: no content lines")

    classes = sorted(set(labels_raw))
    cindex = {c: k for k, c in enumerate(classes)}
    y = np.array([cindex[c] for c in labels_raw], dtype=np.int64)

    heads: list[int] = []
    tails: list[int] = []
    cites = read_lines(cites_path)
    if not cites:
        log.warning("%s: empty cites file, graph has no edges", cites_path)
    for lineno, line in cites:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"{cites_path}:{lineno}: malformed citation line")
        a, b = parts
        for pid in (a, b):
            if pid not in ids:
                raise GraphError(f"{cites_path}:{lineno}: dangling citation id {pid!r}")
        if a == b:
            log.warning("%s:%d: self-citation %r skipped", cites_path, lineno, a)
            continue
        u, v = ids[a], ids[b]
        heads.append(min(u, v))
        tails.append(max(u, v))

    # one key per (min, max) pair: unique keys, sorted, are the canonical edges
    n = len(ids)
    keys = np.unique(np.array(heads, dtype=np.intp) * n + np.array(tails, dtype=np.intp))
    return Graph(n, np.stack(np.divmod(keys, n))), y


def cora_features(content_path):
    """The features of a content file that ``load_cora`` accepts, rows divided by
    positive sums, as a ``csr_array`` storing no zero (-0 and underflows too)."""
    import scipy.sparse as sp  # loads on the first sparse matrix, not on import
    data, cols, indptr, fdim = [], [], [0], None
    for lineno, line in read_lines(content_path):
        fv = line.split()[1:-1]
        fdim = len(fv) if fdim is None else fdim
        if len(fv) != fdim:
            raise GraphError(f"{content_path}:{lineno}: expected {fdim} features, got {len(fv)}")
        try:  # numpy parses each token as float() does
            row = np.array(fv, dtype=float)
        except ValueError:
            raise GraphError(f"{content_path}:{lineno}: non-numeric feature value") from None
        if not np.isfinite(row).all():  # nan, inf, or beyond float range (1e400)
            raise GraphError(f"{content_path}:{lineno}: non-finite feature value")
        total = row.sum()
        row /= total if total > 0 else 1.0  # other rows stay as read: x / 1.0 is x
        nz = np.flatnonzero(row)
        data.append(row[nz])
        cols.append(nz)
        indptr.append(indptr[-1] + nz.size)
    return sp.csr_array((np.concatenate(data), np.concatenate(cols), indptr),
                        shape=(len(indptr) - 1, fdim))


def cora_files(data_dir: str | None) -> tuple[str, str]:
    """The paths of cora.content and cora.cites in ``data_dir``, or in
    ``DISTSIG_DATA_DIR`` when it is None: ``load_cora``'s two arguments.

    FileNotFoundError when no directory is given, or when either file is
    missing from it; the message names the directory and the missing files.
    """
    d = data_dir if data_dir is not None else os.environ.get("DISTSIG_DATA_DIR")
    if not d:
        raise FileNotFoundError(
            "raw Cora files not found: set DISTSIG_DATA_DIR, or pass --data-dir, to a "
            "directory containing cora.content and cora.cites"
        )
    names = ("cora.content", "cora.cites")
    missing = [f for f in names if not os.path.isfile(os.path.join(d, f))]
    if missing:
        raise FileNotFoundError(f"raw Cora files not found: no {' and no '.join(missing)} "
                                f"in {d}")
    return tuple(os.path.join(d, f) for f in names)


SBM_FEAT_DIM = 64


def sbm_features(n: int) -> np.ndarray:
    """Bool one-hot of node id modulo ``SBM_FEAT_DIM``; training reads it as float CSR."""
    f = np.zeros((n, SBM_FEAT_DIM), dtype=bool)
    f[np.arange(n), np.arange(n) % SBM_FEAT_DIM] = True
    return f


def sbm_dataset(blocks, p_in: float, p_out: float, seed: int):
    g, y = sbm_generate(blocks, p_in, p_out, seed)
    return g, sbm_features(g.n), y


def make_split(labels, per_class: int, val_size: int, test_size: int, seed: int) -> Split:
    """Per-class training nodes, then a shuffled val/test pool; deterministic."""
    for name, size in (("per_class", per_class), ("val_size", val_size), ("test_size", test_size)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    labels = np.asarray(labels)
    rng = np.random.default_rng((seed, 17))
    train: list[int] = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < per_class:
            raise ValueError(
                f"class {cls} has {idx.size} nodes, fewer than per_class={per_class}"
            )
        train.extend(rng.permutation(idx)[:per_class].tolist())
    train_arr = np.array(sorted(train), dtype=np.int64)
    in_pool = np.ones(labels.shape[0], dtype=bool)
    in_pool[train_arr] = False
    pool = np.flatnonzero(in_pool)
    if pool.size < val_size + test_size:
        raise ValueError(
            f"pool of {pool.size} nodes cannot supply val={val_size} + test={test_size}"
        )
    perm = rng.permutation(pool)
    val = np.sort(perm[:val_size])
    test = np.sort(perm[val_size:val_size + test_size])
    return Split(train_arr, val, test)


# --- model ----------------------------------------------------------------

def init_params(feat_dim: int, classes: int, seed: int) -> GcnParams:
    """Glorot-uniform weights of one model, as a stack of one."""
    rng = np.random.default_rng((seed, 0))

    def glorot(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out))

    return GcnParams(glorot(feat_dim, HIDDEN), glorot(HIDDEN, classes)[None])


class _SparseInput:
    """CSR features plus one reusable input-dropout copy, each with its transpose.

    The dropped copy shares ``indices``/``indptr`` with the features and owns
    a ``data`` buffer that every dropout draw rewrites in place; the
    transposes are views of the same arrays.  So a training run builds its
    sparse matrices once, not once per epoch.
    """

    def __init__(self, features):
        import scipy.sparse as sp  # loads on the first sparse matrix, not on import
        f = features if isinstance(features, sp.csr_array) else sp.csr_array(features, dtype=float)
        self.f, self.f_t = f, f.T
        self.dropped = sp.csr_array((f.data.copy(), f.indices, f.indptr), shape=f.shape)
        self.dropped_t = self.dropped.T

    def drop(self, rng, p: float):
        """Draw one uniform per stored entry, in CSR order; zeros stay zero."""
        keep = rng.random(self.f.nnz) >= p
        np.multiply(self.f.data, keep, out=self.dropped.data)
        self.dropped.data /= 1.0 - p
        return self.dropped, self.dropped_t


def _blocks(y, k):
    """An n x Kc array as a K x n x c view of its column blocks."""
    return y.reshape(y.shape[0], k, -1).transpose(1, 0, 2)


def _matmul_side_by_side(a, b, k):
    """The batched product a @ b of k models, laid out n x kc with model i's
    block in columns [ic, (i+1)c), so ``_blocks`` of it is a @ b."""
    out = np.empty((a.shape[1], k * b.shape[-1]))
    np.matmul(a, b, out=_blocks(out, k))
    return out


def _spmm(a, y):
    """a @ y for each block of a K x n x c stack.

    The blocks go side by side into one sparse call, and each output column
    keeps the sum order of its own product.  For a ``_blocks`` view, as every
    stack in training is, neither layout change copies.
    """
    k, n = y.shape[:2]
    return _blocks(a @ y.transpose(1, 0, 2).reshape(n, -1), k)


def _block_sums(y):
    """np.sum of each block of a K x n x c stack, as a (K,) array.

    The reshape is a view of a C-order stack and copies any other stack in
    row-major order, so each row of the (K, ·) result sums in the order
    np.sum takes over that block alone.
    """
    return y.reshape(y.shape[0], -1).sum(axis=1)


def gcn_forward(params: GcnParams, ahat, features, *, dropout: float = 0.0, rng=None):
    """Returns (logits, probabilities, cache).  Dropout only when rng given.

    Features are held as CSR: a dense or CSR input is wrapped per call, and
    ``train`` passes one ``_SparseInput`` for the whole run.  Input dropout
    draws one uniform per stored entry, in CSR order, and then one per hidden
    unit; zeros stay zero under any mask, so only the stored entries are drawn.
    The models of a stack share both draws.
    """
    inp = features if isinstance(features, _SparseInput) else _SparseInput(features)
    k = params.w2.shape[0]
    cache: dict = {}
    if rng is not None and dropout > 0.0:
        f, f_t = inp.drop(rng, dropout)
    else:
        f, f_t = inp.f, inp.f_t
    # relu and the hidden mask act in place: a stack's hidden layer is K
    # times one model's, and fewer temporaries keep the allocator's heap small
    hd = ahat @ (f @ params.w1)
    np.maximum(hd, 0.0, out=hd)
    if rng is not None and dropout > 0.0:
        mask1 = (rng.random((hd.shape[0], params.w2.shape[-2])) >= dropout) / (1.0 - dropout)
        hd_blocks = _blocks(hd, k)
        hd_blocks *= mask1  # one mask, shared by the models of a stack
        cache["mask1"] = mask1
    o = _blocks(ahat @ _matmul_side_by_side(_blocks(hd, k), params.w2, k), k)
    if not np.all(np.isfinite(o)):
        raise RuntimeError("non-finite activations in forward pass")
    x = softmax_rows(o)
    cache.update(f=f, f_t=f_t, hd=hd)
    return o, x, cache


def gcn_backward(params: GcnParams, ahat, cache: dict, d_o: np.ndarray):
    k = params.w2.shape[0]
    dz2 = _spmm(ahat, d_o)
    dw2 = _blocks(cache["hd"], k).swapaxes(-1, -2) @ dz2
    da1 = _matmul_side_by_side(dz2, params.w2.swapaxes(-1, -2), k)
    del dz2  # each array goes at its last reader: a stack's are K times one model's
    if "mask1" in cache:
        da1_blocks = _blocks(da1, k)
        da1_blocks *= cache.pop("mask1")
    # hd > 0 exactly where the pre-activation is > 0 and the mask keeps the
    # unit (a kept unit is scaled by 1/(1-p) >= 1); where the mask drops it,
    # da1 is already a signed zero, which a factor of 0 or 1 leaves as it is
    da1 *= cache.pop("hd") > 0.0
    dw1 = cache["f_t"] @ (ahat @ da1)
    return dw1, dw2


def _reg_value_and_grad(variant: str, o, x, lap, a_vec, with_grad: bool):
    """Regularizer value and, with ``with_grad``, its gradient in the logits.

    ``o`` and ``x`` are K x n x C stacks; the value is a (K,) array.  The
    gradient is None without ``with_grad`` and for ``gcn``.
    """
    if variant == "gcn":
        return np.zeros(o.shape[0]), None
    # each product that _block_sums reads goes into a C-order K x n x C
    # buffer, which it reshapes without a copy
    if variant == "r3":
        lo = _spmm(lap, o)
        value = _block_sums(np.multiply(o, lo, out=np.empty(o.shape)))
        return value, (2.0 * lo if with_grad else None)
    w_s, w_c = TRACE_WEIGHTS[variant]
    a = a_vec[:, None]
    xl = _spmm(lap, x)
    buf = np.multiply(x, xl, out=np.empty(x.shape))
    value = w_s * _block_sums(buf)
    value += w_c * _block_sums(np.multiply(np.multiply(x, x, out=buf), a, out=buf))
    del buf
    if not with_grad:
        return value, None
    grad = w_c * (a * x)  # 2 (w_s xl + w_c (a x)), the sum and its scaling in place
    grad += np.multiply(w_s, xl, out=xl)
    del xl
    grad *= 2.0
    return value, softmax_vjp(x, grad)


def _masked_nll(x, labels, idx):
    """Mean negative log-likelihood of the labels of nodes ``idx``, one per model."""
    # advanced indexing may lay the (K, len(idx)) result out column-major
    p = np.ascontiguousarray(x[:, idx, labels[idx]])
    # np.mean's sum and division, without its per-call overhead
    return -(np.log(np.maximum(p, 1e-12)).sum(axis=-1) / idx.shape[0])


def loss_and_grad(params: GcnParams, ahat, features, labels, train_idx, lap, a_vec,
                  variant: str, eta, rng=None):
    """Full training objective and its parameter gradients: (loss, ce, grads).

    Cross-entropy is averaged over the training nodes and the regularizer trace
    over all nodes, so eta trades off comparable per-node quantities.  Weight
    decay acts on W1 only.  ``eta`` is a (K,) array, one weight per model of
    the stack, and the loss and cross-entropy are (K,) arrays.
    """
    k = params.w2.shape[0]
    o, x, cache = gcn_forward(params, ahat, features, dropout=DROPOUT, rng=rng)
    n = o.shape[-2]
    ce = _masked_nll(x, labels, train_idx)
    # the cross-entropy gradient is (x - onehot) / |train| on the training
    # rows and 0 elsewhere, so only the gathered rows are divided
    d_train = x[:, train_idx, :]
    d_train[:, np.arange(train_idx.shape[0]), labels[train_idx]] -= 1.0
    d_train /= train_idx.shape[0]
    d_o = np.zeros_like(o)
    d_o[:, train_idx, :] = d_train

    reg, reg_grad = _reg_value_and_grad(variant, o, x, lap, a_vec, True)
    if reg_grad is not None:
        d_o += np.multiply(reg_grad, (eta / n)[:, None, None], out=reg_grad)
    del o, x, reg_grad
    w1_sq = _block_sums(_blocks(params.w1 ** 2, k))
    with np.errstate(over="ignore", invalid="ignore"):  # train reports a non-finite loss
        loss = ce + eta * (reg / n) + 0.5 * WEIGHT_DECAY * w1_sq
    dw1, dw2 = gcn_backward(params, ahat, cache, d_o)
    dw1 = dw1 + WEIGHT_DECAY * params.w1
    return loss, ce, (dw1, dw2)


def accuracy(probs, labels, idx):
    """Argmax accuracy of each model; argmax resolves ties toward the lowest class index."""
    pred = np.argmax(probs[..., idx, :], axis=-1)
    # np.mean's exact count and division, without its per-call overhead
    return np.count_nonzero(pred == labels[idx], axis=-1) / len(idx)


class _Adam:
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shapes):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, weights, grads):
        self.t += 1
        # an overflow leaves non-finite moments quietly, for train's divergence check
        with np.errstate(over="ignore", invalid="ignore"):
            for w, g, m, v in zip(weights, grads, self.m, self.v):
                m *= self.b1
                m += (1 - self.b1) * g
                v *= self.b2
                v += (1 - self.b2) * (g * g)
                mh = m / (1 - self.b1 ** self.t)
                vh = v / (1 - self.b2 ** self.t)
                w -= LR * mh / (np.sqrt(vh) + self.eps)


def train(g: Graph, features, labels, split: Split, cfg: TrainConfig, *, etas=None,
          analysis: bool = True):
    """Train one model per eta of ``etas`` as one stack; deterministic.

    The models share the initial weights and every dropout draw and differ
    only in eta, and each is bitwise the model that ``train`` returns for its
    eta alone.  Returns a list of ``Metrics`` in the order of ``etas``; without
    ``etas``, the stack is ``(cfg.eta,)`` and its one ``Metrics`` is returned.

    Model selection is best validation accuracy (earliest epoch on ties) and
    decides the reported test accuracy; the spectral / non-uniformity analysis
    summarizes the final-epoch outputs, with one decomposition for the stack.
    """
    one = etas is None
    cfgs = [replace(cfg, eta=eta) for eta in ((cfg.eta,) if one else etas)]
    if not cfgs:
        raise ValueError("etas must not be empty")
    labels = np.asarray(labels, dtype=np.int64)
    _check_sizes(g, np.shape(features)[0], labels, split)
    inp = _SparseInput(features)
    ahat = normalized_adjacency(g)
    lap = laplacian_sparse(g)
    a_vec = confidence_weights(g)
    classes = int(labels.max()) + 1
    params = init_params(inp.f.shape[1], classes, cfg.seed)
    params = GcnParams(np.tile(params.w1, len(cfgs)), np.tile(params.w2, (len(cfgs), 1, 1)))
    drop_rng = np.random.default_rng((cfg.seed, 1))
    opt = _Adam([params.w1.shape, params.w2.shape])
    eta = np.array([c.eta for c in cfgs])

    history = []  # per epoch: loss, ce, train acc, val loss, val acc, reg; one column per model
    best_acc = np.full(len(cfgs), -1.0)
    best_epoch, test_acc = np.zeros(len(cfgs), dtype=int), np.zeros(len(cfgs))
    for epoch in range(1, cfg.epochs + 1):
        loss, ce, grads = loss_and_grad(
            params, ahat, inp, labels, split.train, lap, a_vec, cfg.variant, eta, rng=drop_rng
        )
        opt.step([params.w1, params.w2], grads)
        # v holds g * g, so it leaves float range no later than m; each model
        # owns one HIDDEN-column block of w1 and one slice of w2, and each
        # reduction runs along contiguous memory
        finite = (np.isfinite(loss) & np.isfinite(opt.v[1]).reshape(len(cfgs), -1).all(axis=1)
                  & np.isfinite(opt.v[0]).all(axis=0).reshape(len(cfgs), HIDDEN).all(axis=1))
        if not finite.all():
            first = cfgs[int(np.argmin(finite))]
            raise RuntimeError(f"divergence (non-finite loss or Adam moment) at epoch {epoch}, "
                               f"eta {first.eta}")

        o_eval, x_eval = gcn_forward(params, ahat, inp)[:2]
        val_loss = _masked_nll(x_eval, labels, split.val)
        val_acc = accuracy(x_eval, labels, split.val)
        train_acc = accuracy(x_eval, labels, split.train)
        # recorded regularizer is the raw trace on the clean post-update output
        reg = _reg_value_and_grad(cfg.variant, o_eval, x_eval, lap, a_vec, False)[0]
        del grads, o_eval  # nothing of an epoch outlives it into the next one's peak
        row = np.array((loss, ce, train_acc, val_loss, val_acc, reg))
        history.append(row)
        better = row[4] > best_acc  # row 4: each model's validation accuracy
        if better.any():
            best_acc[better], best_epoch[better] = row[4][better], epoch
            test_acc[better] = accuracy(x_eval, labels, split.test)[better]

    curves = np.array(history).transpose(2, 1, 0).tolist()  # [model][quantity][epoch]
    runs = [Metrics(c, *curves[i], int(best_epoch[i]), float(test_acc[i]), x_eval[i].copy())
            for i, c in enumerate(cfgs)]
    if analysis:
        attach_analysis(g, runs)
    return runs[0] if one else runs


def _check_sizes(g: Graph, feature_rows: int, labels, split: Split) -> None:
    """Reject features, labels or split indices that do not fit the graph's
    nodes, a negative label, which the loss would read as the last class, and
    an empty split part, whose mean loss or accuracy is NaN."""
    for what, size in (("feature rows", feature_rows), ("labels", labels.shape[0])):
        if size != g.n:
            raise ValueError(f"{size} {what} for a graph of {g.n} nodes")
    negative = labels < 0
    if negative.any():
        node = int(np.argmax(negative))
        raise ValueError(f"node {node} has negative label {labels[node]}")
    for name in ("train", "val", "test"):
        idx = np.asarray(getattr(split, name))
        if idx.size == 0:
            raise ValueError(f"split.{name} is empty")
        if idx.min() < 0 or idx.max() >= g.n:
            bad = idx.min() if idx.min() < 0 else idx.max()
            raise ValueError(f"split.{name} index {bad} outside a graph of {g.n} nodes")


def component_coefficients(g: Graph, signals) -> tuple[np.ndarray, np.ndarray]:
    """The main component's Laplacian eigenvalues and the coefficients of each
    column of ``signals`` in its eigenbasis, from one decomposition.

    ``signals`` has one row per node of ``g``; the main-component part of each
    column is normalized by ``normalize_unless_constant`` before the transform.
    """
    sub, nodes = main_component(g)
    columns = np.asarray(signals, dtype=float)[nodes].T.copy()
    return laplacian_coefficients(
        sub, np.column_stack([normalize_unless_constant(c) for c in columns]))


def output_analysis(g: Graph, *probs) -> list[dict]:
    """Spectral profile per class column (on the main component) and count
    sweep of each probability matrix; one decomposition serves all of them."""
    probs = [np.asarray(p, dtype=float) for p in probs]
    vals, coefs = component_coefficients(g, np.hstack(probs))
    hf = iter([high_freq_fraction(vals, c) for c in coefs.T])
    return [{"hf_fraction_per_class": list(itertools.islice(hf, p.shape[1])),
             "nonuniformity_sweep": nonuniformity_sweep(p)} for p in probs]


def attach_analysis(g: Graph, runs: list[Metrics]) -> None:
    """Attach ``output_analysis`` of each run's final outputs, from one call."""
    for m, an in zip(runs, output_analysis(g, *(m.final_probs for m in runs))):
        m.hf_fraction_per_class = an["hf_fraction_per_class"]
        m.nonuniformity = an["nonuniformity_sweep"]


ETA_GRID = (0.1, 0.2, 0.5, 1.0)
# block-model graphs are about an order denser than citation networks, which
# scales the stable eta range down by the same factor, so their grid reaches
# one decade below ETA_GRID
SBM_ETA_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
# the two accuracy protocols: the 4-block model as sbm_dataset's (blocks,
# p_in, p_out), and make_split's (per_class, val_size, test_size) for block
# models and for the citation network
SBM_4BLOCK = ((50, 50, 50, 50), 0.1, 0.01)
SBM_SPLIT = (5, 50, 100)
CORA_SPLIT = (20, 500, 1000)


def best_run(runs: list[Metrics]) -> Metrics:
    """The run with the best validation accuracy; the first of equal maxima."""
    return max(runs, key=lambda m: max(m.val_acc))


def study(data, split, grid, variants) -> dict[tuple[str, int], Metrics]:
    """The accuracy study of both datasets: ``{(variant, seed): tuned run}``.

    ``data`` maps each seed to its ``(graph, features, labels)``: a fresh block
    model per seed, or one citation network for every seed.  Every seed's
    ``make_split(labels, *split, seed)`` is drawn before any training, so data
    too small for the split fails before any work.  Each run is ``tune_eta``'s
    pick over ``grid`` for ``TrainConfig(variant=variant, seed=seed)``; for
    ``gcn`` that is the one model at the default eta.  Then one
    ``attach_analysis`` call per distinct graph, in run order, analyses that
    graph's runs from one decomposition.
    """
    splits = {seed: make_split(labels, *split, seed) for seed, (_, _, labels) in data.items()}
    runs = {(v, seed): tune_eta(*data[seed], splits[seed], TrainConfig(variant=v, seed=seed),
                                grid, analysis=False)[0]
            for v in variants for seed in data}
    for g in {id(g): g for g, _, _ in data.values()}.values():
        attach_analysis(g, [m for (_, seed), m in runs.items() if data[seed][0] is g])
    return runs


def tune_eta(g, features, labels, split, cfg: TrainConfig, grid=ETA_GRID, *,
             analysis: bool = True):
    """Grid-search eta by best validation accuracy; first grid entry wins ties.

    The grid trains as one stack (``train`` with ``etas``) without the output
    analysis; with ``analysis`` it then runs once, on the chosen run only.
    The other runs in ``results`` carry no analysis.  eta never enters the
    plain ``gcn`` loss, so a ``gcn`` config trains the one model ``cfg.eta``.
    """
    if cfg.variant == "gcn":
        grid = (cfg.eta,)
    results = train(g, features, labels, split, cfg, etas=grid, analysis=False)
    best = best_run(results)
    if analysis:
        attach_analysis(g, [best])
    return best, results
