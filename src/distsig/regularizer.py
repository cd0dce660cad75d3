"""Smoothness + non-uniformity losses on row-stochastic prediction matrices.

The combined loss couples the Laplacian quadratic form (smoothness across
edges) with a nonpositive diagonal reweighting that rewards confident rows,
justified by a transport lower bound against the uniform distribution.  The
traces and their logit gradients are computed on a sparse Laplacian by
``gnn._reg_value_and_grad``; this module holds the weights, the softmax
pieces, the transport bound and the entry-count statistics.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .distributional import _prob_rows, wasserstein_sq
from .graph import Graph

log = logging.getLogger(__name__)

EPS_SWEEP = (0.005, 0.01, 0.02, 0.05)


def check_prob_matrix(x) -> np.ndarray:
    """A clipped copy of a row-stochastic matrix, checked by ``Marginals``' rule within 1e-7."""
    # 1e-7, not Marginals' 1e-9: float32 softmax rows cast to float64 miss a sum of 1 by more
    return _prob_rows(x, 1e-7)


def confidence_weights(g: Graph) -> np.ndarray:
    """Read-only diagonal min(0, 1 - deg) of the confidence term.

    Isolated nodes would get +1, so they clamp to 0.
    """
    isolated = int(np.sum(g.degrees == 0))
    if isolated:
        log.info("clamping %d isolated node weight(s) to 0", isolated)
    a = np.minimum(1.0 - g.degrees, 0.0)
    a.flags.writeable = False
    return a


def softmax_rows(o: np.ndarray) -> np.ndarray:
    """Rowwise softmax with max subtraction; rejects non-finite input."""
    o = np.asarray(o, dtype=float)
    if not np.all(np.isfinite(o)):
        raise ValueError("non-finite logits")
    # a maximum is exact in any order (a tie of -0.0 and 0.0 only flips the
    # sign of a zero in z, and exp maps both to 1), so a running maximum over
    # the columns gives the same output without a reduction's per-row cost
    # on a short last axis
    z = o - functools.reduce(np.maximum, [o[..., j] for j in range(o.shape[-1])])[..., None]
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Pull a gradient in softmax outputs back to logits, row by row."""
    inner = np.sum(x * grad, axis=-1, keepdims=True)
    return x * (grad - inner)


def nonuniformity_bound_check(x, a) -> dict:
    """Transport lower bound on the confidence trace, plus its sandwich.

    ``a`` is the diagonal D, such as ``confidence_weights`` returns: n
    entries, none above 1e-12, and those in (0, 1e-12] count as 0.
    Tr(X^T D X) - Tr(D)/m must dominate twice the weighted squared transport
    distances of the rows to uniform; one-hot and uniform rows bound the trace
    itself from below and above.  Both checks allow a slack of 1e-9.
    """
    tol = 1e-9
    x = check_prob_matrix(x)
    n, m = x.shape
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValueError("weights must be a vector")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite weights")
    if a.shape[0] != n:
        raise ValueError("weight length does not match X")
    if np.max(a, initial=-np.inf) > 1e-12:
        raise ValueError(f"positive weight {np.max(a):.3e}; all entries must be <= 0")
    a = np.minimum(a, 0.0)
    trace = float(np.sum((x * x) * a[:, None]))
    c = -float(a.sum()) / m
    lhs = trace + c
    w_sq = wasserstein_sq(x, np.full(m, 1.0 / m))
    rhs = 2.0 * float(np.sum(a * w_sq))
    trace_onehot = float(a.sum())
    trace_uniform = float(a.sum()) / m
    return {
        "lhs": lhs,
        "rhs": rhs,
        "trace": trace,
        "trace_onehot": trace_onehot,
        "trace_uniform": trace_uniform,
        "bound_margin": lhs - rhs,
        "holds": bool(lhs >= rhs - tol),
        "sandwich_holds": bool(
            trace_onehot - tol <= trace <= trace_uniform + tol
        ),
    }


def nonuniformity_counts(x, eps: float) -> tuple[int, int]:
    """Count entries within eps of 1/m (indecision) and within eps of 1 (confidence)."""
    x = check_prob_matrix(x)
    if not (0.0 < eps < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {eps}")
    m = x.shape[1]
    near_uniform = int(np.sum(np.abs(x - 1.0 / m) <= eps))
    near_one = int(np.sum(x >= 1.0 - eps))
    return near_uniform, near_one


def nonuniformity_sweep(x) -> list[dict]:
    """Near-uniform and near-one entry counts at every epsilon of ``EPS_SWEEP``."""
    out = []
    for e in EPS_SWEEP:
        nu, no = nonuniformity_counts(x, e)
        out.append({"epsilon": float(e), "near_uniform": nu, "near_one": no})
    return out


def write_nonuniformity_csv(path, records: list[dict], model_tag: str) -> None:
    """CSV rows "epsilon,kind,count,model_tag", one pair of kinds per epsilon."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epsilon,kind,count,model_tag\n")
        for r in records:
            fh.write(f"{r['epsilon']!r},near_uniform,{r['near_uniform']},{model_tag}\n")
            fh.write(f"{r['epsilon']!r},near_one,{r['near_one']},{model_tag}\n")
