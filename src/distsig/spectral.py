"""Graph Fourier analysis: eigendecomposition, transforms, total variation."""

from __future__ import annotations

import numpy as np

from .graph import Graph, edge_sum, laplacian_sparse


# eigenpair residual bound per unit of operator scale; eigenvalues closer
# than this (scaled) are one eigenspace as far as the checks can tell
_RESID_TOL = 1e-8
# rows and columns per tile of the input check, which takes tile (i, j) with
# tile (j, i) in one pass over the pair, and no n x n temporary, which the
# allocator may keep after it is freed
_SCALE_TILE = 256
# columns of Z per block of the coefficient and residual pass
_COEF_COLS = 16
# columns per panel of the check Z^T Z = I, so no n x n Gram sits beside Z
_GRAM_COLS = 512


def _column_signs(u: np.ndarray) -> np.ndarray:
    """The +-1 per column that makes its largest-magnitude entry (first on ties) positive."""
    # |u|^T in C order turns each column's argmax into a contiguous row scan;
    # LAPACK's u is in Fortran order, so this needs no transposing copy
    k = np.abs(u.T, order="C").argmax(axis=1)
    return np.where(u[k, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def _check_orthonormal(z: np.ndarray) -> None:
    """Check Z^T Z = I by column panels of ``_GRAM_COLS``: no n x n Gram sits beside Z."""
    from scipy.linalg import blas

    ortho = 0.0  # np.maximum keeps a NaN, which the builtin max may drop
    for j in range(0, z.shape[1], _GRAM_COLS):  # the panel's columns, on and above the diagonal
        zp = z[:, j:j + _GRAM_COLS]
        gram = blas.dsyrk(1.0, zp, trans=1)  # its diagonal block's upper triangle, zeros below
        gram.ravel(order="K")[:: gram.shape[0] + 1] -= 1.0
        ortho = np.maximum(ortho, np.max(np.abs(gram, out=gram)))
        if j:
            gram = blas.dgemm(1.0, z[:, :j], zp, trans_a=1)  # the blocks above it
            ortho = np.maximum(ortho, np.max(np.abs(gram, out=gram)))
        del gram
    if not ortho <= 1e-8:
        raise RuntimeError(f"eigenvectors not orthonormal (err {ortho:.3e})")


def _checked_scale(mat: np.ndarray) -> float:
    """max(1, largest |entry|) of ``mat``, which must be a non-empty, square,
    finite and symmetric matrix (ValueError otherwise).

    Reads tiles of ``_SCALE_TILE`` x ``_SCALE_TILE``, never an n x n temporary.
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {mat.shape}")
    top = asym = 0.0  # np.maximum keeps a NaN, which the builtin max may drop
    for i in range(0, mat.shape[0], _SCALE_TILE):
        for j in range(i, mat.shape[0], _SCALE_TILE):  # tile (i, j) against (j, i) transposed
            upper = mat[i:i + _SCALE_TILE, j:j + _SCALE_TILE]
            lower = mat[j:j + _SCALE_TILE, i:i + _SCALE_TILE]
            for tile in (upper, lower):
                top = np.maximum(top, np.maximum(np.max(tile), -np.min(tile)))
            diff = upper - lower.T
            asym = np.maximum(asym, np.max(np.abs(diff, out=diff)))
    if not np.isfinite(top):
        raise ValueError("non-finite entries")
    if asym > 1e-10:
        raise ValueError(f"matrix not symmetric (max asymmetry {asym:.3e})")
    return max(1.0, float(top))


def _check_nonnegative(vals: np.ndarray) -> None:
    """A Laplacian's ascending eigenvalues start at 0, up to rounding."""
    if not vals[0] >= -1e-10:  # a NaN fails too
        raise RuntimeError(f"negative Laplacian eigenvalue {vals[0]:.3e}")


def eig_sym(mat: np.ndarray, signals=None):
    """Symmetric eigendecomposition with a deterministic sign convention.

    Both routes return a pair of read-only arrays, ascending eigenvalues
    first, and check Z^T Z = I by column panels for their eigenvectors Z,
    each signed so that its largest-magnitude entry (first on ties) is positive.

    Without ``signals``: ``(eigenvalues, eigenvectors)``, the columns in C
    order, by ``dsyevd``.  The eigenpair residual is the caller's check,
    against whatever form of the operator is cheapest to apply
    (``laplacian_spectrum`` uses the sparse Laplacian).

    With ``signals``, an n x k array: ``(eigenvalues, coefficients)``, where
    column j of the n x k coefficients is V^T y_j for signal column y_j, and
    no eigenvector is formed.  ``dsytrd`` reduces ``mat`` to T = Q^T mat Q,
    ``dormqr`` applies Q^T to each signal in a call of its own, ``dstevd``
    gives T = Z diag(eigenvalues) Z^T, and the coefficients are Z^T (Q^T y_j).
    The peak is 2 n^2 doubles, not dsyevd's 3 n^2: Z beside dstevd's
    workspace is the only such moment, as there is no n x n back-transform
    Q Z.  The eigenvalues are bitwise dsyevd's, and a signal's coefficients
    do not depend on the other signals of the call.  The checks, on the
    factors that this route computes: T keeps the trace and Frobenius norm of
    ``mat``; Q^T keeps each signal's norm, and T (Q^T y) = Q^T (mat y) for
    each signal y; Z^T Z = I and T Z = Z diag(eigenvalues).

    ``mat`` is never written: LAPACK works on one Fortran copy, and ``dsymm``
    takes each mat y from that copy's lower triangle, the one ``dsytrd``
    reduces.  A Fortran ``mat`` is copied without a transpose; either layout
    gives the same bits.
    """
    mat = np.asarray(mat, dtype=float)
    scale = _checked_scale(mat)
    n = mat.shape[0]
    if signals is not None:
        y = np.asarray(signals, dtype=float)
        if y.ndim != 2 or y.shape[0] != n or y.shape[1] == 0 or not np.isfinite(y).all():
            raise ValueError(f"need finite signals of shape ({n}, k), got shape {y.shape}")
        norms = np.linalg.norm(y, axis=0)
        form = (float(np.trace(mat)), float(np.linalg.norm(mat)))  # what T must keep
    import scipy.linalg  # loads LAPACK on the first decomposition, not on import

    a = np.array(mat, order="F")
    del mat  # a temporary argument (a caller's dense Laplacian) is freed before LAPACK runs
    if signals is None:
        # dsyevd on the lower triangle, as np.linalg.eigh; the eigenvectors overwrite a
        vals, a = scipy.linalg.eigh(a, driver="evd", overwrite_a=True, check_finite=False)
        _check_orthonormal(a)  # a column times +-1 leaves each |Z^T Z - I| entry as it is
        vecs = np.multiply(a, _column_signs(a), order="C")  # times +-1: exact
        del a
        vals.flags.writeable = False
        vecs.flags.writeable = False
        return vals, vecs

    # mat y by the BLAS that runs LAPACK: numpy's matmul would touch its own
    # library's GEMM buffers, which stay resident under dstevd's peak.
    # Per signal y, the pair (y, mat y) that Q^T goes onto: k x 2 x n
    ly = scipy.linalg.blas.dsymm(1.0, a, y, lower=1)
    pairs = np.stack([y.T, ly.T], axis=1)
    del ly
    lapack = scipy.linalg.lapack
    # the default workspace of n runs dsytrd's unblocked code, about twice as slow
    lwork = _lwork("dsytrd_lwork", lapack.dsytrd_lwork(n, lower=1)[0])
    a, d, e, tau, info = lapack.dsytrd(a, lower=1, lwork=lwork, overwrite_a=1)
    _check_info("dsytrd", info)
    if n > 1:
        # Q = H(1) ... H(n-1) leaves the first coordinate alone.  The
        # reflectors lie below the subdiagonal: A(2:n, 1:n-1) with leading
        # dimension n, which is a contiguous n x (n-1) view of a's buffer
        refl = a.ravel(order="F")[1:1 + n * (n - 1)].reshape(n, n - 1, order="F")
        lwork = _lwork("dormqr", lapack.dormqr("L", "T", refl, tau, pairs[0, :, 1:].T, -1)[1][0])
        for pair in pairs:  # a call per signal: each result sees no other signal
            c, _, info = lapack.dormqr("L", "T", refl, tau, pair[:, 1:].T, lwork)
            _check_info("dormqr", info)
            pair[:, 1:] = c.T
        del refl
    del a  # the reflectors go before dstevd's n^2 workspace is taken
    _check_tridiagonal(d, e, pairs, norms, *form, scale)
    return _tridiagonal_coefficients(d, e, pairs[:, 0], scale)


def _check_tridiagonal(d, e, pairs, norms, trace: float, frobenius: float,
                       scale: float) -> None:
    """Check T = tridiag(e, d, e) and the reflectors against what they keep.

    T keeps the trace and the Frobenius norm of the matrix; Q^T keeps each
    signal's norm; and T (Q^T y) = Q^T (mat y), with ``pairs`` holding Q^T y
    and Q^T (mat y) of each signal y, of norm ``norms``.
    """
    # each check asks "not off <= bound", which a NaN fails
    tol = _RESID_TOL * max(1.0, frobenius)  # rounding moves both by about n eps of it
    drift = abs(d.sum() - trace)
    if not drift <= tol:
        raise RuntimeError(f"tridiagonal trace off by {drift:.3e}")
    drift = abs(float(np.sqrt(d @ d + 2.0 * (e @ e))) - frobenius)
    if not drift <= tol:
        raise RuntimeError(f"tridiagonal Frobenius norm off by {drift:.3e}")
    qy, qly = pairs[:, 0], pairs[:, 1]
    unit = np.maximum(norms, 1e-300)  # a zero signal stays exactly zero
    drift = np.max(np.abs(np.linalg.norm(qy, axis=1) - norms) / unit)
    if not drift <= _RESID_TOL:
        raise RuntimeError(f"reflectors change a signal's norm by {drift:.3e} of it")
    tqy = d * qy
    tqy[:, 1:] += e * qy[:, :-1]
    tqy[:, :-1] += e * qy[:, 1:]
    off = np.max(np.max(np.abs(tqy - qly), axis=1) / unit)
    if not off <= _RESID_TOL * scale:
        raise RuntimeError(f"tridiagonal form off along a signal by {off:.3e} per unit norm")


def _check_info(routine: str, info: int) -> None:
    """LAPACK's ``info`` is 0 on success."""
    if info != 0:
        raise RuntimeError(f"{routine} failed (info {info})")


def _lwork(routine: str, size) -> int:
    """A workspace query's size as an int; a NaN or negative size fails."""
    if not size >= 0:
        raise RuntimeError(f"{routine} workspace query returned size {size}")
    return int(size)


def _tridiagonal_coefficients(d, e, w, scale: float):
    """Ascending eigenvalues of T = tridiag(e, d, e) and the n x k
    coefficients Z^T w_j of the rows w_j of ``w`` (k x n), where
    T = Z diag(eigenvalues) Z^T is checked and Z's columns are signed by
    ``_column_signs``."""
    from scipy.linalg import lapack

    n = d.shape[0]
    # dstevd wants one off-diagonal entry even when n = 1
    vals, z, info = lapack.dstevd(d, e if n > 1 else np.zeros(1))
    _check_info("dstevd", info)
    _check_orthonormal(z)
    # each signal's coefficients are numpy's pairwise sums of its products
    # with Z's columns: the order of BLAS's sums, and of einsum's, can follow
    # the number of signals, their alignment and the thread count
    coefs = np.empty(w.shape)
    resid = 0.0  # np.maximum keeps a NaN, which the builtin max may drop
    for j in range(0, n, _COEF_COLS):  # column blocks of Z
        zb = z[:, j:j + _COEF_COLS]
        r = np.subtract.outer(vals[j:j + _COEF_COLS], d).T  # Z diag(vals) - T Z
        r *= zb
        r[1:] -= e[:, None] * zb[:-1]
        r[:-1] -= e[:, None] * zb[1:]
        resid = np.maximum(resid, np.maximum(np.max(r), -np.min(r)))
        for i, y in enumerate(w):
            np.sum(zb * y[:, None], axis=0, out=coefs[i, j:j + _COEF_COLS])
        coefs[:, j:j + _COEF_COLS] *= _column_signs(zb)  # times +-1: exact
    if not resid <= _RESID_TOL * scale:
        raise RuntimeError(f"eigenpair residual {resid:.3e} too large")
    coefs = coefs.T
    vals.flags.writeable = False
    coefs.flags.writeable = False
    return vals, coefs


def laplacian_spectrum(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Checked eigenvalues and eigenvectors of the combinatorial Laplacian of ``g``.

    ``eig_sym`` decomposes the densified sparse Laplacian; the eigenpair
    residual is taken against the sparse one, which costs O(nnz * n) instead
    of O(n^3).
    """
    lap = laplacian_sparse(g)
    vals, vecs = eig_sym(lap.toarray(order="F"))
    scale = max(1.0, float(np.max(np.abs(lap.data))))
    diff = lap @ vecs
    diff -= vecs * vals[None, :]
    resid = np.max(np.abs(diff, out=diff))
    if not resid <= _RESID_TOL * scale:
        raise RuntimeError(f"eigenpair residual {resid:.3e} too large")
    _check_nonnegative(vals)
    return vals, vecs


def laplacian_coefficients(g: Graph, signals) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Laplacian eigenvalues of ``g`` and the n x k coefficients of
    the columns of ``signals`` in its eigenbasis, by ``eig_sym``'s route
    without eigenvectors.  Each coefficient equals ``gft``'s up to rounding
    and the sign of its eigenvector."""
    vals, coefs = eig_sym(laplacian_sparse(g).toarray(order="F"), signals)
    _check_nonnegative(vals)
    return vals, coefs


def gft(vecs: np.ndarray, x) -> np.ndarray:
    """Forward transform: coefficients of x in the basis of the columns of ``vecs``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (vecs.shape[0],):
        raise ValueError(f"signal length {x.shape} does not match n={vecs.shape[0]}")
    return vecs.T @ x


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
