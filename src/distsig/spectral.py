"""Graph Fourier analysis: eigendecomposition, transforms, total variation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, laplacian_sparse


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _canonical_signs(u: np.ndarray) -> None:
    """Flip, in place, each column so its largest-magnitude entry (first on ties) is positive."""
    # |u|^T in C order turns each column's argmax into a contiguous row scan
    k = np.abs(u.T, order="C").argmax(axis=1)
    u *= np.where(u[k, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def eig_sym(mat: np.ndarray) -> Spectrum:
    """Full symmetric eigendecomposition with a deterministic sign convention.

    Ascending eigenvalues and checked orthonormal eigenvector columns.  The
    eigenpair residual is the caller's check, against whatever form of the
    operator is cheapest to apply (``laplacian_spectrum`` uses the sparse
    Laplacian).
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"need a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite entries")
    asym = np.max(np.abs(mat - mat.T)) if mat.size else 0.0
    if asym > 1e-10:
        raise ValueError(f"matrix not symmetric (max asymmetry {asym:.3e})")
    n = mat.shape[0]
    vals, vecs = np.linalg.eigh(mat)  # ascending eigenvalues
    _canonical_signs(vecs)
    gram = vecs.T @ vecs
    gram.flat[:: n + 1] -= 1.0
    ortho = np.max(np.abs(gram, out=gram))
    if ortho > 1e-8:
        raise RuntimeError(f"eigenvectors not orthonormal (err {ortho:.3e})")
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return Spectrum(vals, vecs)


def laplacian_spectrum(g: Graph) -> Spectrum:
    """Checked spectrum of the combinatorial Laplacian of ``g``.

    ``eig_sym`` decomposes the densified sparse Laplacian; the eigenpair
    residual is taken against the sparse one, which costs O(nnz * n) instead
    of O(n^3).
    """
    lap = laplacian_sparse(g)
    spec = eig_sym(lap.toarray())
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    scale = max(1.0, float(np.max(np.abs(lap.data))))
    diff = lap @ vecs
    diff -= vecs * vals[None, :]
    resid = np.max(np.abs(diff, out=diff))
    if resid > 1e-8 * scale:
        raise RuntimeError(f"eigenpair residual {resid:.3e} too large")
    if vals[0] < -1e-10:
        raise RuntimeError(f"negative Laplacian eigenvalue {vals[0]:.3e}")
    return spec


def gft(spec: Spectrum, x) -> np.ndarray:
    """Forward transform: coefficients of x in the eigenvector basis."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n,):
        raise ValueError(f"signal length {x.shape} does not match n={spec.n}")
    return spec.eigenvectors.T @ x


def total_variation(g: Graph, x) -> float:
    """Sum of squared differences across edges, equal to x^T L x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"signal length {x.shape} does not match n={g.n}")
    if g.m == 0:
        return 0.0
    eu, ev = g.endpoints
    d = x[eu] - x[ev]
    # a running sum in edge order: the same additions as one edge at a time
    return float(np.cumsum(d * d)[-1])


def high_freq_fraction(xhat) -> float:
    """Share of spectral energy strictly above position n/2 (1-based index)."""
    xhat = np.asarray(xhat, dtype=float)
    total = float(xhat @ xhat)
    if total == 0.0:
        raise ValueError("zero vector has no spectral profile")
    n = xhat.shape[0]
    high = xhat[np.arange(1, n + 1) > 0.5 * n]
    return float(high @ high) / total


def normalize_signal(x) -> np.ndarray:
    """Mean-center and scale to unit l2 norm."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean()
    nrm = float(np.linalg.norm(centered))
    # the rounded mean of a constant need not equal it: centering can leave a
    # tiny constant, which must not be scaled up to norm 1
    if nrm == 0.0 or x.min() == x.max():
        raise ValueError("cannot normalize a constant/zero signal")
    return centered / nrm


def normalize_unless_constant(x) -> np.ndarray:
    """``normalize_signal``, but a constant signal keeps its raw values.

    Such a signal has all its energy at frequency zero, and centering it
    leaves nothing to scale.
    """
    try:
        return normalize_signal(x)
    except ValueError:
        return np.asarray(x, dtype=float)


def matched_random_signal(labels, seed: int) -> np.ndarray:
    """i.i.d. draw per node from the empirical distribution of the label signal."""
    labels = np.asarray(labels)
    values, counts = np.unique(labels, return_counts=True)
    rng = np.random.default_rng(seed)
    return rng.choice(values, size=labels.shape[0], p=counts / counts.sum()).astype(float)


def export_spectrum_csv(path, eigenvalues, coefficients) -> None:
    """Write "index,eigenvalue,coefficient" rows, index 1-based."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    if eigenvalues.shape != coefficients.shape:
        raise ValueError("eigenvalue/coefficient length mismatch")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,eigenvalue,coefficient\n")
        for i, (lam, c) in enumerate(zip(eigenvalues, coefficients), 1):
            # python float repr: shortest round-trip form, no numpy scalar noise
            fh.write(f"{i},{float(lam)!r},{float(c)!r}\n")
