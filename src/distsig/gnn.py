"""Two-layer graph convolutional network with hand-written backprop.

Forward pass O = A_hat relu(A_hat F W1) W2 with row-softmax readout, trained
by Adam on masked cross-entropy plus an optional distributional regularizer
evaluated over every node.  Variants:

  gcn  no regularizer
  r    smoothness + confidence traces of the softmax outputs
  r1   smoothness trace only
  r2   confidence trace only
  r3   smoothness trace of the raw logits
  lap  combined trace of the one-hot argmax labels (logged, no gradient)
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .graph import (
    Graph,
    GraphError,
    build_graph,
    laplacian_sparse,
    main_component,
    normalized_adjacency,
    read_lines,
    sbm_generate,
)
from .regularizer import WeightDiag, nonuniformity_sweep, softmax_rows, softmax_vjp
from .spectral import gft, high_freq_fraction, laplacian_spectrum, normalize_unless_constant

log = logging.getLogger(__name__)

VARIANTS = ("gcn", "r", "r1", "r2", "r3", "lap")


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "gcn"
    eta: float = 0.5
    hidden: int = 16
    epochs: int = 200
    lr: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 1 or self.hidden < 1:
            raise ValueError("epochs and hidden width must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int


@dataclass
class GcnParams:
    w1: np.ndarray
    w2: np.ndarray


@dataclass
class Metrics:
    config: TrainConfig
    train_loss: list[float]
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
            "config": asdict(self.config),
            "per_epoch": [
                {"loss": l, "acc_train": at, "loss_val": lv, "acc_val": av, "reg": r}
                for l, at, lv, av, r in zip(self.train_loss, self.train_acc, self.val_loss,
                                            self.val_acc, self.reg_values)
            ],
            "best_epoch": self.best_epoch,
            "test_acc": self.test_acc,
            "hf_fraction_per_class": self.hf_fraction_per_class,
            "nonuniformity_sweep": self.nonuniformity,
        }


# --- datasets -------------------------------------------------------------

def cora_data_dir(data_dir: str | None = None) -> str | None:
    return data_dir if data_dir is not None else os.environ.get("DISTSIG_DATA_DIR")


def cora_available(data_dir: str | None = None) -> bool:
    d = cora_data_dir(data_dir)
    if not d:
        return False
    return all(
        os.path.isfile(os.path.join(d, f)) for f in ("cora.content", "cora.cites")
    )


def load_cora(content_path, cites_path):
    """Parse the raw citation-network format.

    Content lines: id, whitespace-separated binary features, class label.
    Cites lines: "cited citing" id pairs, mapped to undirected simple edges.
    Returns (graph, row-normalized features, integer labels, class names).
    """
    ids: dict[str, int] = {}
    feats: list[list[float]] = []
    labels_raw: list[str] = []
    fdim = None
    for lineno, line in read_lines(content_path):
        parts = line.split()
        if len(parts) < 3:
            raise GraphError(f"{content_path}:{lineno}: malformed content line")
        pid, label = parts[0], parts[-1]
        fv = parts[1:-1]
        if fdim is None:
            fdim = len(fv)
        elif len(fv) != fdim:
            raise GraphError(f"{content_path}:{lineno}: expected {fdim} features, got {len(fv)}")
        if pid in ids:
            raise GraphError(f"{content_path}:{lineno}: duplicate id {pid!r}")
        try:
            feats.append([float(c) for c in fv])
        except ValueError:
            raise GraphError(f"{content_path}:{lineno}: non-numeric feature value") from None
        ids[pid] = len(ids)
        labels_raw.append(label)
    if not ids:
        raise GraphError(f"{content_path}: no content lines")

    classes = sorted(set(labels_raw))
    cindex = {c: k for k, c in enumerate(classes)}
    y = np.array([cindex[c] for c in labels_raw], dtype=np.int64)

    edges: set[tuple[int, int]] = set()
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
        edges.add((min(u, v), max(u, v)))

    f = np.array(feats, dtype=float)
    rs = f.sum(axis=1)
    nz = rs > 0
    f[nz] = f[nz] / rs[nz][:, None]
    g = build_graph(len(ids), sorted(edges))
    return g, f, y, classes


def load_cora_dir(data_dir: str | None = None):
    d = cora_data_dir(data_dir)
    if not d or not cora_available(d):
        raise FileNotFoundError(
            "raw Cora files not found; set DISTSIG_DATA_DIR to a directory "
            "containing cora.content and cora.cites"
        )
    return load_cora(os.path.join(d, "cora.content"), os.path.join(d, "cora.cites"))


SBM_FEAT_DIM = 64


def sbm_features(n: int) -> np.ndarray:
    """One-hot of node id modulo ``SBM_FEAT_DIM``."""
    f = np.zeros((n, SBM_FEAT_DIM))
    f[np.arange(n), np.arange(n) % SBM_FEAT_DIM] = 1.0
    return f


def sbm_dataset(blocks=(50, 50, 50, 50), p_in: float = 0.1, p_out: float = 0.01,
                seed: int = 0):
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
    pool = np.setdiff1d(np.arange(labels.shape[0]), train_arr)
    if pool.size < val_size + test_size:
        raise ValueError(
            f"pool of {pool.size} nodes cannot supply val={val_size} + test={test_size}"
        )
    perm = rng.permutation(pool)
    val = np.sort(perm[:val_size])
    test = np.sort(perm[val_size:val_size + test_size])
    return Split(train_arr, val, test, seed)


# --- model ----------------------------------------------------------------

def init_params(feat_dim: int, hidden: int, classes: int, seed: int) -> GcnParams:
    rng = np.random.default_rng((seed, 0))

    def glorot(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out))

    return GcnParams(glorot(feat_dim, hidden), glorot(hidden, classes))


class _SparseInput:
    """CSR features plus one reusable input-dropout copy, each with its transpose.

    The dropped copy shares ``indices``/``indptr`` with the features and owns
    a ``data`` buffer that every dropout draw rewrites in place; the
    transposes are views of the same arrays.  So a training run builds its
    sparse matrices once, not once per epoch.
    """

    def __init__(self, features):
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


def gcn_forward(params: GcnParams, ahat, features, *, dropout: float = 0.0, rng=None):
    """Returns (logits, probabilities, cache).  Dropout only when rng given.

    Features are held as CSR: a dense or CSR input is wrapped per call, and
    ``train`` passes one ``_SparseInput`` for the whole run.  Input dropout
    draws one uniform per stored entry, in CSR order, and then one per hidden
    unit; zeros stay zero under any mask, so only the stored entries are drawn.
    """
    inp = features if isinstance(features, _SparseInput) else _SparseInput(features)
    cache: dict = {}
    if rng is not None and dropout > 0.0:
        f, f_t = inp.drop(rng, dropout)
    else:
        f, f_t = inp.f, inp.f_t
    z1 = f @ params.w1
    a1 = ahat @ z1
    h = np.maximum(a1, 0.0)
    hd = h
    if rng is not None and dropout > 0.0:
        mask1 = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
        hd = h * mask1
        cache["mask1"] = mask1
    o = ahat @ (hd @ params.w2)
    if not np.all(np.isfinite(o)):
        raise RuntimeError("non-finite activations in forward pass")
    x = softmax_rows(o)
    cache.update(f=f, f_t=f_t, a1=a1, hd=hd)
    return o, x, cache


def gcn_backward(params: GcnParams, ahat, cache: dict, d_o: np.ndarray):
    dz2 = ahat @ d_o
    dw2 = cache["hd"].T @ dz2
    dhd = dz2 @ params.w2.T
    if "mask1" in cache:
        dhd = dhd * cache["mask1"]
    da1 = dhd * (cache["a1"] > 0.0)
    dz1 = ahat @ da1
    dw1 = cache["f_t"] @ dz1
    return dw1, dw2


def _reg_value_and_grad(variant: str, o, x, lap, a_vec):
    """Regularizer value and its gradient in the logits (None for no gradient)."""
    if variant == "gcn":
        return 0.0, None
    if variant == "r3":
        lo = lap @ o
        return float(np.sum(o * lo)), 2.0 * lo
    if variant == "lap":
        onehot = np.zeros_like(x)
        onehot[np.arange(x.shape[0]), np.argmax(x, axis=1)] = 1.0
        ll = lap @ onehot
        val = float(np.sum(onehot * ll)) + float(np.sum((onehot * onehot) * a_vec[:, None]))
        return val, None
    xl = lap @ x
    l1 = float(np.sum(x * xl))
    l2 = float(np.sum((x * x) * a_vec[:, None]))
    if variant == "r":
        gx = 2.0 * (xl + a_vec[:, None] * x)
        return l1 + l2, softmax_vjp(x, gx)
    if variant == "r1":
        return l1, softmax_vjp(x, 2.0 * xl)
    if variant == "r2":
        return l2, softmax_vjp(x, 2.0 * a_vec[:, None] * x)
    raise ValueError(f"unknown variant {variant!r}")


def loss_and_grad(params: GcnParams, ahat, features, labels, train_idx, lap, a_vec,
                  cfg: TrainConfig, rng=None):
    """Full training objective and its parameter gradients.

    Cross-entropy is averaged over the training nodes and the regularizer trace
    over all nodes, so eta trades off comparable per-node quantities; the raw
    (unaveraged) trace is still returned for logging.  Weight decay acts on W1
    only.
    """
    o, x, cache = gcn_forward(params, ahat, features, dropout=cfg.dropout, rng=rng)
    k = train_idx.shape[0]
    n = o.shape[0]
    p = x[train_idx, labels[train_idx]]
    ce = -float(np.mean(np.log(np.maximum(p, 1e-12))))
    d_o = np.zeros_like(o)
    d_o[train_idx] = x[train_idx]
    d_o[train_idx, labels[train_idx]] -= 1.0
    d_o /= k

    reg, reg_grad = _reg_value_and_grad(cfg.variant, o, x, lap, a_vec)
    if reg_grad is not None:
        d_o = d_o + (cfg.eta / n) * reg_grad

    loss = ce + cfg.eta * (reg / n) + 0.5 * cfg.weight_decay * float(np.sum(params.w1 ** 2))
    dw1, dw2 = gcn_backward(params, ahat, cache, d_o)
    dw1 = dw1 + cfg.weight_decay * params.w1
    return loss, ce, reg, (dw1, dw2), x


def accuracy(probs, labels, idx) -> float:
    """Argmax accuracy; argmax resolves ties toward the lowest class index."""
    pred = np.argmax(probs[idx], axis=1)
    return float(np.mean(pred == labels[idx]))


class _Adam:
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shapes, lr):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.lr = lr
        self.t = 0

    def step(self, weights, grads):
        self.t += 1
        for w, g, m, v in zip(weights, grads, self.m, self.v):
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * (g * g)
            mh = m / (1 - self.b1 ** self.t)
            vh = v / (1 - self.b2 ** self.t)
            w -= self.lr * mh / (np.sqrt(vh) + self.eps)


def train(g: Graph, features, labels, split: Split, cfg: TrainConfig, *,
          analysis: bool = True, component_spectrum=None) -> Metrics:
    """Train one model; deterministic for a fixed config.

    Model selection is best validation accuracy (earliest epoch on ties) and
    decides the reported test accuracy; the spectral / non-uniformity analysis
    summarizes the final-epoch outputs.
    """
    inp = _SparseInput(features)
    labels = np.asarray(labels, dtype=np.int64)
    ahat = normalized_adjacency(g)
    lap = laplacian_sparse(g)
    a_vec = WeightDiag.default_for(g).a
    classes = int(labels.max()) + 1
    params = init_params(inp.f.shape[1], cfg.hidden, classes, cfg.seed)
    drop_rng = np.random.default_rng((cfg.seed, 1))
    opt = _Adam([params.w1.shape, params.w2.shape], cfg.lr)

    tl, ta, vl, va, rv = [], [], [], [], []
    best_acc, best_epoch, test_acc = -1.0, 0, 0.0
    for epoch in range(1, cfg.epochs + 1):
        loss, _, _, grads, _ = loss_and_grad(
            params, ahat, inp, labels, split.train, lap, a_vec, cfg, rng=drop_rng
        )
        if not np.isfinite(loss):
            raise RuntimeError(f"divergence (non-finite loss) at epoch {epoch}")
        opt.step([params.w1, params.w2], grads)

        o_eval, x_eval, _ = gcn_forward(params, ahat, inp)
        p_val = x_eval[split.val, labels[split.val]]
        val_loss = -float(np.mean(np.log(np.maximum(p_val, 1e-12))))
        val_acc = accuracy(x_eval, labels, split.val)
        tl.append(loss)
        ta.append(accuracy(x_eval, labels, split.train))
        vl.append(val_loss)
        va.append(val_acc)
        # recorded regularizer is the raw trace on the clean post-update output
        rv.append(_reg_value_and_grad(cfg.variant, o_eval, x_eval, lap, a_vec)[0])
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            test_acc = accuracy(x_eval, labels, split.test)

    metrics = Metrics(cfg, tl, ta, vl, va, rv, best_epoch, test_acc, x_eval)
    if analysis:
        _attach_analysis(metrics, g, component_spectrum)
    return metrics


def _attach_analysis(metrics: Metrics, g: Graph, component_spectrum) -> None:
    an = output_analysis(g, metrics.final_probs, component_spectrum=component_spectrum)
    metrics.hf_fraction_per_class = an["hf_fraction_per_class"]
    metrics.nonuniformity = an["nonuniformity_sweep"]


def output_analysis(g: Graph, probs, *, component_spectrum=None) -> dict:
    """Spectral profile per class column (on the main component) + count sweep."""
    probs = np.asarray(probs, dtype=float)
    if component_spectrum is None:
        sub, nodes = main_component(g)
        spectrum = laplacian_spectrum(sub)
    else:
        nodes, spectrum = component_spectrum
    hf = []
    for s in range(probs.shape[1]):
        col = normalize_unless_constant(probs[nodes, s])
        hf.append(high_freq_fraction(gft(spectrum, col)))
    return {
        "hf_fraction_per_class": hf,
        "nonuniformity_sweep": nonuniformity_sweep(probs),
        "entries_total": int(probs.size),
    }


ETA_GRID = (0.1, 0.2, 0.5, 1.0)
# block-model graphs are about an order denser than citation networks, which
# scales the stable eta range down by the same factor, so their grid reaches
# one decade below ETA_GRID
SBM_ETA_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


def tune_eta(g, features, labels, split, cfg: TrainConfig, grid=ETA_GRID, *,
             analysis: bool = True, component_spectrum=None):
    """Grid-search eta by best validation accuracy; first grid entry wins ties.

    Every eta trains without the output analysis; with ``analysis`` it then
    runs once, on the chosen run only.  The other runs in ``results`` carry
    no analysis.
    """
    best = None
    results = []
    for eta in grid:
        m = train(g, features, labels, split, replace(cfg, eta=eta), analysis=False)
        results.append(m)
        if best is None or max(m.val_acc) > max(best.val_acc):
            best = m
    if analysis:
        _attach_analysis(best, g, component_spectrum)
    return best, results
