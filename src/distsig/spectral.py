"""Graph Fourier analysis: eigendecomposition, transforms, total variation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, edge_sum, laplacian_sparse


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


# eigenpair residual bound per unit of operator scale; eigenvalues closer
# than this (scaled) are one eigenspace as far as the checks can tell
_RESID_TOL = 1e-8
# rows per block of eig_sym's input checks: slices of 256 x n, not n x n
_CHECK_ROWS = 256


def _column_signs(u: np.ndarray) -> np.ndarray:
    """The +-1 per column that makes its largest-magnitude entry (first on ties) positive."""
    # |u|^T in C order turns each column's argmax into a contiguous row scan;
    # LAPACK's u is in Fortran order, so this needs no transposing copy
    k = np.abs(u.T, order="C").argmax(axis=1)
    return np.where(u[k, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def eig_sym(mat: np.ndarray) -> Spectrum:
    """Full symmetric eigendecomposition with a deterministic sign convention.

    Ascending eigenvalues and checked orthonormal eigenvector columns, in C
    order.  The eigenpair residual is the caller's check, against whatever
    form of the operator is cheapest to apply (``laplacian_spectrum`` uses the
    sparse Laplacian).  ``mat`` is never written: LAPACK works on one Fortran
    copy and writes the eigenvectors into it.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    blocks = range(0, n, _CHECK_ROWS)
    if not all(np.isfinite(mat[i:i + _CHECK_ROWS]).all() for i in blocks):
        raise ValueError("non-finite entries")
    # row block i against column block i transposed covers every (j, k) pair
    asym = max(np.max(np.abs(mat[i:i + _CHECK_ROWS] - mat[:, i:i + _CHECK_ROWS].T))
               for i in blocks)
    if asym > 1e-10:
        raise ValueError(f"matrix not symmetric (max asymmetry {asym:.3e})")
    import scipy.linalg  # loads LAPACK on the first decomposition, not on import

    a = np.array(mat, order="F")
    del mat  # a temporary argument (laplacian_spectrum's) is freed before LAPACK runs
    # dsyevd on the lower triangle, as np.linalg.eigh; the eigenvectors overwrite a
    vals, a = scipy.linalg.eigh(a, driver="evd", overwrite_a=True, check_finite=False)
    vecs = np.multiply(a, _column_signs(a), order="C")  # times +-1: exact
    del a
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
    if resid > _RESID_TOL * scale:
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
    eu, ev = g.endpoints
    d = x[eu] - x[ev]
    return float(edge_sum(d * d))


def high_freq_fraction(eigenvalues, xhat) -> float:
    """Share of spectral energy strictly above position n/2 (1-based index).

    ``eigenvalues`` ascend, one per coefficient of ``xhat``.  Neighbours
    closer than the eigenpair residual bound form one cluster.  A cluster
    that straddles the cut counts by the share of its positions above it:
    the expected split of its energy over uniformly random bases of the
    cluster, so the result does not depend on the basis LAPACK returns.
    With n = 1 the fraction is 0: the only coefficient sits at eigenvalue 0.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    if xhat.ndim != 1 or vals.shape != xhat.shape:
        raise ValueError(f"eigenvalues {vals.shape} do not match coefficients {xhat.shape}")
    total = float(xhat @ xhat)
    if total == 0.0:
        raise ValueError("zero vector has no spectral profile")
    n = xhat.shape[0]
    if n == 1:
        return 0.0
    cut = n // 2  # 0-based index of the first position above n/2
    tol = _RESID_TOL * max(1.0, float(np.max(np.abs(vals))))
    starts = np.flatnonzero(np.diff(vals) > tol) + 1  # cluster starts, bar the first
    lo = int(starts[starts <= cut].max(initial=0))
    hi = cut if lo == cut else int(starts[starts > cut].min(initial=n))
    high = xhat[hi:]
    energy = float(high @ high)
    if hi > cut:  # the cluster [lo, hi) straddles the cut
        mid = xhat[lo:hi]
        energy += (hi - cut) / (hi - lo) * float(mid @ mid)
    return energy / total


def normalize_unless_constant(x) -> np.ndarray:
    """Mean-center and scale to unit l2 norm, unless the signal is constant.

    A constant signal keeps its raw values: all its energy is at frequency
    zero, and centering it leaves nothing to scale.
    """
    x = np.asarray(x, dtype=float)
    centered = x - x.mean()
    nrm = float(np.linalg.norm(centered))
    # the rounded mean of a constant need not equal it: centering can leave a
    # tiny constant, which must not be scaled up to norm 1
    if nrm == 0.0 or x.min() == x.max():
        return x
    return centered / nrm


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
