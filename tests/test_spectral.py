import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from distsig import spectral
from distsig.graph import build_graph, laplacian_sparse, main_component, sbm_generate
from distsig.spectral import (
    eig_sym,
    export_spectrum_csv,
    gft,
    high_freq_fraction,
    laplacian_coefficients,
    laplacian_spectrum,
    matched_random_signal,
    normalize_unless_constant,
    total_variation,
)
from oracles import igft


def test_eig_p2(p2):
    vals, vecs = laplacian_spectrum(p2)
    assert np.allclose(vals, [0.0, 2.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(vecs[:, 0], [r, r])
    # sign convention: first of the tied largest-magnitude entries is positive
    assert np.allclose(vecs[:, 1], [r, -r])


def test_eig_zero_matrix():
    vals, vecs = eig_sym(np.zeros((3, 3)))
    assert np.allclose(vals, 0.0)
    assert np.allclose(vecs @ vecs.T, np.eye(3))


def test_eig_triangle(triangle):
    vals, _ = laplacian_spectrum(triangle)
    assert np.allclose(vals, [0.0, 3.0, 3.0], atol=1e-10)


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eig_rejects_nonsquare():
    with pytest.raises(ValueError):
        eig_sym(np.zeros((2, 3)))


def test_eig_rejects_empty_matrix():
    with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
        eig_sym(np.zeros((0, 0)))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("writeable", [True, False])
def test_eig_leaves_callers_matrix_unchanged(rng, writeable, order):
    # a Fortran-order argument is LAPACK's own layout: it still gets copied
    a = rng.standard_normal((300, 300))  # more rows than one check block
    a = np.array(a + a.T, order=order)
    a.flags.writeable = writeable
    before = a.copy()
    eig_sym(a)
    assert np.array_equal(a, before)
    assert a.flags.writeable is writeable


def test_eig_symmetry_check_reads_every_block(rng):
    # the blockwise maximum is the whole-matrix maximum, wherever the asymmetry is
    for i, j in ((0, 299), (299, 0), (260, 255), (270, 290), (1, 2)):
        a = rng.standard_normal((300, 300))
        a = a + a.T
        a[i, j] += 3e-10
        with pytest.raises(ValueError, match=r"max asymmetry 3\.000e-10"):
            eig_sym(a)
        a[i, j] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            eig_sym(a)


def test_eig_matches_lapack(rng):
    # sign canonicalization must leave LAPACK's eigenvalues untouched
    for _ in range(10):
        a = rng.standard_normal((12, 12))
        a = (a + a.T) / 2.0
        vals, _ = eig_sym(a)
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(vals, ref, atol=1e-8)


def test_eig_sign_deterministic(rng):
    a = rng.standard_normal((8, 8))
    a = a + a.T
    _, vecs = eig_sym(a)
    assert np.array_equal(vecs, eig_sym(a.copy())[1])
    for i in range(8):
        col = vecs[:, i]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_eig_large_path_uses_lapack(rng):
    # a graph-sized input satisfies the ordering and eigenpair contract
    g, _ = sbm_generate([40, 40], 0.2, 0.05, seed=2)
    vals, vecs = laplacian_spectrum(g)
    lap = laplacian_sparse(g).toarray()
    assert vals[0] >= -1e-10
    assert np.all(np.diff(vals) >= 0.0)
    assert np.allclose(vecs.T @ vecs, np.eye(g.n), atol=1e-8)
    assert np.allclose(lap @ vecs, vecs * vals, atol=1e-8)


def eig_sym_oracle(mat):
    """The earlier eig_sym: dense residual, a copied and column-looped sign pass."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    vals, vecs = np.linalg.eigh(mat)
    vecs = vecs.copy()
    for j in range(n):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0:
            vecs[:, j] = -vecs[:, j]
    scale = max(1.0, float(np.max(np.abs(mat))))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-8
    assert np.max(np.abs(mat @ vecs - vecs * vals[None, :])) <= 1e-8 * scale
    return vals, vecs


def _criterion_5_graphs():
    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        yield sbm_generate([n], 0.6, 0.6, seed=int(rng.integers(1 << 31)))[0]


def test_laplacian_spectrum_bitwise_equal_to_oracle():
    block_model, _ = sbm_generate([100, 100, 100], 0.08, 0.01, seed=4)
    for g in [*_criterion_5_graphs(), block_model]:
        vals, vecs = laplacian_spectrum(g)
        ref_vals, ref_vecs = eig_sym_oracle(laplacian_sparse(g).toarray())
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)
        assert np.array_equal(np.signbit(vecs), np.signbit(ref_vecs))


def _swap_two_columns(vals, vecs):
    vecs = vecs.copy()
    vecs[:, [1, -1]] = vecs[:, [-1, 1]]
    return vals, vecs


def _stretch_one_column(vals, vecs):
    vecs = vecs.copy()
    vecs[:, 1] *= 1.5
    return vals, vecs


def _nan_in_one_column(vals, vecs):
    vecs = vecs.copy()
    vecs[:, 1] = np.nan
    return vals, vecs


@pytest.mark.parametrize("corrupt, message", [
    (_swap_two_columns, "eigenpair residual"),  # still orthonormal
    (_stretch_one_column, "not orthonormal"),
    (_nan_in_one_column, r"not orthonormal \(err nan\)"),
])
def test_laplacian_spectrum_rejects_wrong_eigenpairs(monkeypatch, corrupt, message):
    g, _ = sbm_generate([30, 30], 0.3, 0.05, seed=6)
    real_eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh",
                        lambda a, **kw: corrupt(*real_eigh(a, **kw)))
    with pytest.raises(RuntimeError, match=message):
        laplacian_spectrum(g)


def _repeat_first_eigenpair(vals, z):
    """Column 0 of Z and its eigenvalue copied into the last column: a true
    eigenpair, so a residual passes, whose product with column 0 lies in a
    Gram panel above the diagonal once Z has more columns than one panel."""
    vals, z = vals.copy(), z.copy(order="F")
    vals[-1], z[:, -1] = vals[0], z[:, 0]
    return vals, z


def _graph_wider_than_a_panel():
    g, _ = main_component(sbm_generate([300, 300], 0.05, 0.005, seed=2)[0])
    assert g.n > spectral._GRAM_COLS
    return g


def test_laplacian_spectrum_rejects_a_repeated_eigenvector_across_panels(monkeypatch):
    g = _graph_wider_than_a_panel()
    real_eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh",
                        lambda a, **kw: _repeat_first_eigenpair(*real_eigh(a, **kw)))
    with pytest.raises(RuntimeError, match="not orthonormal"):
        laplacian_spectrum(g)


def test_laplacian_spectrum_peak_memory(run_python):
    # README's working set: one Fortran working copy plus dsyevd's 2n^2
    # workspace, 3 n^2 doubles.  The dense Laplacian and any second copy
    # must be gone before LAPACK runs.  The allocator's slack reads about
    # 0.4 n^2 above the working set; keeping one more dense copy reads 4.4.
    out = run_python("""
        from distsig.graph import main_component, sbm_generate
        from distsig.spectral import laplacian_spectrum

        laplacian_spectrum(sbm_generate([10, 10], 0.5, 0.1, seed=0)[0])  # loads LAPACK
        g, _ = sbm_generate([400, 400, 400], 0.02, 0.002, seed=0)
        sub, _ = main_component(g)
        before = peak_rss()
        laplacian_spectrum(sub)
        print(sub.n, peak_rss() - before)
    """)
    n, grown = map(int, out.split())
    assert n >= 1100
    working_set = 3 * n * n * 8
    assert grown < working_set + n * n * 8, (
        f"peak RSS grew by {grown / (n * n * 8):.2f} n^2 doubles")


def _unit_signals(n, seed):
    """Three random unit-norm columns and a constant one, as an n x 4 array."""
    y = np.random.default_rng(seed).standard_normal((n, 4))
    y[:, 3] = 0.3
    return y / np.linalg.norm(y, axis=0)


def test_laplacian_coefficients_match_the_eigenvector_route():
    # the oracle graphs, two tiny ones and a main component of about 1,000
    # nodes: the same eigenvalues bit for bit, and coefficients that match
    # V^T y up to rounding and each eigenvector's sign
    block_model, _ = sbm_generate([100, 100, 100], 0.08, 0.01, seed=4)
    large, _ = main_component(sbm_generate([1000], 0.006, 0.006, seed=3)[0])
    assert 950 <= large.n <= 1000
    graphs = [*_criterion_5_graphs(), block_model, build_graph(1, []),
              build_graph(2, [(0, 1)]), large]
    for seed, g in enumerate(graphs):
        y = _unit_signals(g.n, seed)
        vals, coefs = laplacian_coefficients(g, y)
        ref_vals, vecs = laplacian_spectrum(g)
        assert np.array_equal(vals, ref_vals), g.n
        assert coefs.shape == (g.n, 4)
        assert np.max(np.abs(np.abs(coefs) - np.abs(vecs.T @ y))) <= 1e-14, g.n


def test_coefficients_of_a_signal_do_not_depend_on_the_others():
    for g in (sbm_generate([9, 8, 7], 0.5, 0.1, seed=11)[0],
              sbm_generate([100, 100, 100], 0.08, 0.01, seed=4)[0]):
        y = _unit_signals(g.n, 0)
        vals, coefs = laplacian_coefficients(g, y)
        for j in range(4):
            alone = laplacian_coefficients(g, y[:, j:j + 1])
            assert np.array_equal(alone[0], vals)
            assert np.array_equal(alone[1][:, 0], coefs[:, j])
        assert np.array_equal(laplacian_coefficients(g, y[:, [2, 0]])[1], coefs[:, [2, 0]])


def test_coefficient_signs_follow_the_tridiagonal_eigenvectors(monkeypatch):
    # the coefficients are Z^T (Q^T y), with each column of Z signed so that
    # its largest-magnitude entry (first on ties) is positive
    g, _ = sbm_generate([30, 30], 0.3, 0.05, seed=6)
    y = _unit_signals(g.n, 1)
    seen = []
    _patch_result(monkeypatch, "dstevd", lambda *out: seen.append(out) or out)
    real = spectral._tridiagonal_coefficients
    monkeypatch.setattr(spectral, "_tridiagonal_coefficients",
                        lambda d, e, w, scale: seen.append(w) or real(d, e, w, scale))
    _, coefs = laplacian_coefficients(g, y)
    [w, (_, z, _)] = seen
    signed = z * np.where(z[np.abs(z).argmax(axis=0), np.arange(g.n)] < 0, -1.0, 1.0)
    assert np.max(np.abs(coefs - signed.T @ w.T)) < 1e-14
    assert np.max(np.abs(coefs + signed.T @ w.T)) > 0.1  # the signs matter


@pytest.mark.parametrize("signals, message", [
    (np.ones(6), r"shape \(6,\)"),
    (np.ones((5, 2)), r"shape \(5, 2\)"),
    (np.ones((6, 0)), r"shape \(6, 0\)"),
    (np.full((6, 1), np.nan), "finite signals"),
], ids=["1-D", "short", "no-columns", "nan"])
def test_eig_sym_rejects_bad_signals(signals, message):
    lap = laplacian_sparse(sbm_generate([6], 0.9, 0.9, seed=0)[0]).toarray()
    with pytest.raises(ValueError, match=message):
        eig_sym(lap, signals)


def _patch_result(monkeypatch, routine, corrupt):
    """Make scipy's ``routine`` return ``corrupt`` of its result tuple."""
    real = getattr(scipy.linalg.lapack, routine)
    monkeypatch.setattr(scipy.linalg.lapack, routine, lambda *a, **kw: corrupt(*real(*a, **kw)))


def _tau_scaled(c, d, e, tau, info):
    tau = tau.copy()
    tau[0] *= 1.5  # H(1) is no longer orthogonal
    return c, d, e, tau, info


def _d_shifted(c, d, e, tau, info):
    d = d.copy()
    d[3] += 0.5
    return c, d, e, tau, info


def _e_shifted(c, d, e, tau, info):
    e = e.copy()
    e[3] += 0.5  # the trace stays
    return c, d, e, tau, info


@pytest.mark.parametrize("routine, corrupt, message", [
    ("dsytrd", _tau_scaled, "change a signal's norm"),
    ("dsytrd", _d_shifted, "tridiagonal trace"),
    ("dsytrd", _e_shifted, "tridiagonal Frobenius norm"),
    ("dstevd", lambda vals, z, info: _swap_two_columns(vals, z) + (info,), "eigenpair residual"),
    ("dstevd", lambda vals, z, info: _stretch_one_column(vals, z) + (info,), "not orthonormal"),
    ("dstevd", lambda vals, z, info: _nan_in_one_column(vals, z) + (info,),
     r"not orthonormal \(err nan\)"),
], ids=["tau", "d", "e", "z-swapped", "z-stretched", "z-nan"])
def test_laplacian_coefficients_reject_wrong_factors(monkeypatch, routine, corrupt, message):
    g, _ = sbm_generate([30, 30], 0.3, 0.05, seed=6)
    _patch_result(monkeypatch, routine, corrupt)
    with pytest.raises(RuntimeError, match=message):
        laplacian_coefficients(g, _unit_signals(g.n, 0))


def test_laplacian_coefficients_reject_a_repeated_eigenvector_across_panels(monkeypatch):
    g = _graph_wider_than_a_panel()
    _patch_result(monkeypatch, "dstevd",
                  lambda vals, z, info: _repeat_first_eigenpair(vals, z) + (info,))
    with pytest.raises(RuntimeError, match="not orthonormal"):
        laplacian_coefficients(g, _unit_signals(g.n, 0))


def test_laplacian_coefficients_reject_reflectors_of_another_matrix(monkeypatch):
    # a symmetric permutation keeps the trace, the Frobenius norm and the
    # eigenvalues, and its reflectors are orthogonal: only the check along
    # each signal tells that they reduce another matrix
    g, _ = sbm_generate([30, 30], 0.3, 0.05, seed=6)
    perm = np.random.default_rng(0).permutation(g.n)
    real = scipy.linalg.lapack.dsytrd
    monkeypatch.setattr(scipy.linalg.lapack, "dsytrd",
                        lambda a, **kw: real(np.asfortranarray(a[perm][:, perm]), **kw))
    with pytest.raises(RuntimeError, match="tridiagonal form off along a signal"):
        laplacian_coefficients(g, _unit_signals(g.n, 0))


def test_laplacian_coefficients_reject_a_negative_eigenvalue(monkeypatch):
    # past eig_sym's own checks, so a NaN must fail this one
    real = spectral.eig_sym
    for shift in (-1e-9, np.nan):
        monkeypatch.setattr(spectral, "eig_sym",
                            lambda mat, signals, shift=shift: (real(mat, signals)[0] + shift, None))
        with pytest.raises(RuntimeError, match="negative Laplacian eigenvalue"):
            laplacian_coefficients(sbm_generate([10, 10], 0.5, 0.1, seed=0)[0], np.ones((20, 1)))


@pytest.mark.parametrize("module, routine, out", [
    ("linalg", "eigh", 0), ("linalg", "eigh", 1),
    ("lapack", "dsytrd", 0), ("lapack", "dsytrd", 1), ("lapack", "dsytrd", 2),
    ("lapack", "dsytrd", 3),
    ("lapack", "dormqr", 0), ("lapack", "dormqr", 1),
    ("lapack", "dstevd", 0), ("lapack", "dstevd", 1),
    ("blas", "dsymm", None),
], ids=["eigh-w", "eigh-v", "dsytrd-a", "dsytrd-d", "dsytrd-e", "dsytrd-tau",
        "dormqr-c", "dormqr-work", "dstevd-w", "dstevd-z", "dsymm-c"])
def test_a_nan_in_any_factor_fails_a_check(monkeypatch, module, routine, out):
    # each float output of each LAPACK and BLAS call of both routes in turn
    # gets a NaN at its third entry in memory order (dsytrd's a(3, 1) holds a
    # reflector, and dormqr's workspace query returns one entry); the check
    # that fails names the NaN it saw
    lib = {"linalg": scipy.linalg, "lapack": scipy.linalg.lapack, "blas": scipy.linalg.blas}
    real = getattr(lib[module], routine)

    def with_nan(*args, **kw):
        result = real(*args, **kw)
        outs = [result] if out is None else list(result)
        x = np.array(outs[out or 0], order="A")  # a copy in the same layout
        x.ravel(order="A")[min(2, x.size - 1)] = np.nan
        outs[out or 0] = x
        return x if out is None else tuple(outs)

    monkeypatch.setattr(lib[module], routine, with_nan)
    g, _ = sbm_generate([30, 30], 0.3, 0.05, seed=6)
    with pytest.raises((RuntimeError, ValueError), match=r"(?i)\bnan\b"):
        if routine == "eigh":
            laplacian_spectrum(g)
        else:
            laplacian_coefficients(g, _unit_signals(g.n, 0))


@pytest.mark.parametrize("signals", [False, True], ids=["eigenvectors", "coefficients"])
def test_eig_sym_layout_changes_no_bit(signals):
    # a C and a Fortran copy of one symmetric matrix give the same bits on
    # both routes: LAPACK works on a Fortran copy of either
    g, _ = sbm_generate([100, 100, 100], 0.08, 0.01, seed=4)
    lap = laplacian_sparse(g).toarray()
    args = (_unit_signals(g.n, 3),) if signals else ()
    for c_out, f_out in zip(eig_sym(np.ascontiguousarray(lap), *args),
                            eig_sym(np.asfortranarray(lap), *args)):
        assert c_out.shape == f_out.shape
        assert c_out.tobytes() == f_out.tobytes()


def test_laplacian_coefficients_peak_memory(run_python):
    # README's working set for the route without eigenvectors: the dense
    # matrix and its Fortran copy, then Z with dstevd's workspace, 2 n^2
    # doubles each time, where the eigenvector route needs 3 n^2 (the test
    # above); Z^T Z = I is checked by n x 512 panels.  The first run on 300
    # nodes loads LAPACK and touches its OpenBLAS buffers, a few MB whatever
    # n is.  This reads 1.77-1.79 n^2.  Forming mat y by numpy's matmul,
    # whose GEMM buffers stay resident under dstevd's peak, read 2.11 under
    # two OpenBLAS threads (1.73 under one); an n x n Gram beside Z adds
    # about 0.13, and keeping one more dense copy about 1.2
    out = run_python("""
        import numpy as np
        from distsig.graph import main_component, sbm_generate
        from distsig.spectral import laplacian_coefficients

        small, _ = main_component(sbm_generate([150, 150], 0.1, 0.01, seed=0)[0])
        laplacian_coefficients(small, np.ones((small.n, 7)))
        g, _ = sbm_generate([400, 400, 400], 0.02, 0.002, seed=0)
        sub, _ = main_component(g)
        signals = np.random.default_rng(0).standard_normal((sub.n, 7))
        before = peak_rss()
        laplacian_coefficients(sub, signals)
        print(sub.n, peak_rss() - before)
    """)
    n, grown = map(int, out.split())
    assert n >= 1100
    assert grown < 1.95 * n * n * 8, f"peak RSS grew by {grown / (n * n * 8):.2f} n^2 doubles"


def test_no_lapack_load_on_import(run_python):
    # the processes that never decompose anything do not pay for scipy.linalg
    out = run_python("""
        import sys
        import distsig.cli, distsig.distributional, distsig.gnn
        print("scipy.linalg" in sys.modules)
    """)
    assert out.strip() == "False"


def test_no_scipy_load_off_the_training_path(run_python):
    # bounds, analyze and gen-sbm never build a sparse matrix, so they pay for
    # no scipy; training loads scipy.sparse with its first sparse matrix, and
    # without --out it analyses nothing, so it decomposes nothing
    out = run_python("""
        import os, sys, tempfile
        import numpy as np
        import distsig.cli, distsig.distributional, distsig.gnn
        import distsig.regularizer, distsig.spectral
        from distsig.cli import main

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        decompositions = []
        real_eig_sym = distsig.spectral.eig_sym
        distsig.spectral.eig_sym = lambda mat: decompositions.append(1) or real_eig_sym(mat)
        with tempfile.TemporaryDirectory() as d:
            probs = os.path.join(d, "p.npy")
            np.save(probs, np.full((5, 2), 0.5))
            assert main(["bounds", "--trials", "3"]) == 0
            assert main(["gen-sbm", "--blocks", "5,5", "--out", os.path.join(d, "g")]) == 0
            assert main(["analyze", "--probs", probs, "--out", os.path.join(d, "a.csv")]) == 0
            untrained = scipy_modules()
            for extra in ([], ["--tune"]):
                assert main(["train", "--dataset", "sbm", "--epochs", "1", *extra]) == 0
            print(untrained, "scipy.sparse" in sys.modules, "scipy.linalg" in sys.modules,
                  len(decompositions))
    """)
    assert out.splitlines()[-1] == "[] True False 0"


def test_known_small_spectra(p3, c4, k4):
    # closed forms: path 2-x, cycle 2-2cos, complete n
    assert np.allclose(laplacian_spectrum(p3)[0], [0.0, 1.0, 3.0], atol=1e-10)
    assert np.allclose(laplacian_spectrum(c4)[0], [0.0, 2.0, 2.0, 4.0], atol=1e-10)
    assert np.allclose(laplacian_spectrum(k4)[0], [0.0, 4.0, 4.0, 4.0], atol=1e-10)


def test_gft_constant_signal(triangle):
    _, vecs = laplacian_spectrum(triangle)
    xhat = gft(vecs, np.ones(3))
    assert abs(xhat[0]) > 1.0
    assert np.allclose(xhat[1:], 0.0, atol=1e-10)


def test_gft_eigenvector_is_delta(p2):
    _, vecs = laplacian_spectrum(p2)
    xhat = gft(vecs, vecs[:, 1])
    assert np.allclose(xhat, [0.0, 1.0], atol=1e-12)


def test_gft_roundtrip(triangle, rng):
    _, vecs = laplacian_spectrum(triangle)
    x = rng.standard_normal(3)
    assert np.allclose(igft(vecs, gft(vecs, x)), x, atol=1e-10)


def test_gft_parseval(rng):
    g, _ = sbm_generate([8, 8], 0.4, 0.1, seed=5)
    _, vecs = laplacian_spectrum(g)
    x = rng.standard_normal(g.n)
    assert abs(np.linalg.norm(gft(vecs, x)) - np.linalg.norm(x)) < 1e-8


def test_gft_dimension_mismatch(p2):
    _, vecs = laplacian_spectrum(p2)
    with pytest.raises(ValueError):
        gft(vecs, np.ones(3))


def test_tv_eigenvector_eigenvalue(p2):
    _, vecs = laplacian_spectrum(p2)
    assert abs(total_variation(p2, vecs[:, 1]) - 2.0) < 1e-12


def test_tv_constant_zero(triangle):
    assert total_variation(triangle, np.full(3, 2.5)) == 0.0


def test_tv_triangle_delta(triangle):
    assert abs(total_variation(triangle, np.array([1.0, 0.0, 0.0])) - 2.0) < 1e-12


def test_tv_matches_quadratic_form_on_criterion_5_graphs():
    # the edge sum equals x^T L x on criterion 5's graphs and eigenvectors
    for g in _criterion_5_graphs():
        lap = laplacian_sparse(g).toarray()
        for x in laplacian_spectrum(g)[1].T:
            tv = total_variation(g, x)
            assert abs(tv - float(x @ lap @ x)) <= 1e-10 * max(1.0, abs(tv))


def test_tv_bitwise_equal_to_edge_loop():
    # the edge-at-a-time loop it replaced, as the oracle
    def edge_loop(g, x):
        total = 0.0
        for u, v in g.edges:
            d = x[u] - x[v]
            total += d * d
        return total

    rng = np.random.default_rng(3)
    graphs = list(_criterion_5_graphs()) + [build_graph(1, []), build_graph(3, [])]
    for g in graphs:
        for x in (rng.standard_normal(g.n), *laplacian_spectrum(g)[1].T):
            assert total_variation(g, x) == edge_loop(g, x)


def test_tv_dimension_mismatch(triangle):
    with pytest.raises(ValueError):
        total_variation(triangle, np.ones(4))


def test_hff_constant(triangle):
    vals, vecs = laplacian_spectrum(triangle)
    assert high_freq_fraction(vals, gft(vecs, np.ones(3))) < 1e-12


def test_hff_top_eigenvector():
    g, _ = sbm_generate([4, 4], 0.9, 0.3, seed=1)
    vals, vecs = laplacian_spectrum(g)
    xhat = gft(vecs, vecs[:, -1])
    assert abs(high_freq_fraction(vals, xhat) - 1.0) < 1e-12


def test_hff_block_labels_low_frequency():
    g, labels = sbm_generate([5, 5], 1.0, 0.0, seed=0)
    vals, vecs = laplacian_spectrum(g)
    xhat = gft(vecs, labels.astype(float))
    assert high_freq_fraction(vals, xhat) < 1e-12


def test_hff_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        high_freq_fraction(np.arange(4.0), np.zeros(4))


def test_hff_strict_index_boundary():
    # 1-based index must be strictly above n/2: for n=4 that keeps i=3,4
    xhat = np.array([0.0, 1.0, 1.0, 0.0])
    assert abs(high_freq_fraction(np.arange(4.0), xhat) - 0.5) < 1e-12


def test_hff_one_node_is_all_low_frequency():
    # the only coefficient sits at eigenvalue 0, below any cut
    assert high_freq_fraction([0.0], [1.0]) == 0.0
    vals, vecs = laplacian_spectrum(build_graph(1, []))
    assert high_freq_fraction(vals, gft(vecs, np.array([0.7]))) == 0.0


def test_hff_rejects_length_mismatch():
    with pytest.raises(ValueError, match="do not match"):
        high_freq_fraction(np.arange(3.0), np.ones(4))


def test_hff_simple_cut_is_the_plain_tail_sum():
    # a simple cut eigenvalue: the same additions as the sum above n/2
    g, _ = sbm_generate([30, 30], 0.3, 0.05, seed=6)
    vals, vecs = laplacian_spectrum(g)
    cut = g.n // 2
    assert vals[cut] - vals[cut - 1] > 1e-6
    for x in np.random.default_rng(2).standard_normal((5, g.n)):
        xhat = gft(vecs, x)
        high = xhat[np.arange(1, g.n + 1) > 0.5 * g.n]
        assert high_freq_fraction(vals, xhat) == float(high @ high) / float(xhat @ xhat)


def test_hff_star_does_not_depend_on_the_eigenbasis():
    # the 10-node star: eigenvalues 0, 1 (8 times), 10; the cut lies inside
    # the lambda = 1 eigenspace, whose basis LAPACK picks freely
    star = build_graph(10, [(0, i) for i in range(1, 10)])
    vals, vecs = laplacian_spectrum(star)
    assert np.allclose(vals, [0.0] + [1.0] * 8 + [10.0], atol=1e-12)
    lap = laplacian_sparse(star).toarray()
    x = normalize_unless_constant(np.arange(10.0) ** 2)
    xhat = gft(vecs, x)
    ref = high_freq_fraction(vals, xhat)
    # the straddling cluster's expected share: half its energy, plus the top coefficient
    assert abs(ref - (xhat[9] ** 2 + 0.5 * xhat[1:9] @ xhat[1:9])) < 1e-12
    tails = [float(xhat[5:] @ xhat[5:])]
    rng = np.random.default_rng(0)
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        u = vecs.copy()
        u[:, 1:9] = u[:, 1:9] @ q
        assert np.max(np.abs(lap @ u - u * vals)) < 1e-12
        assert abs(high_freq_fraction(vals, u.T @ x) - ref) < 1e-12
        tails.append(float((u.T @ x)[5:] @ (u.T @ x)[5:]))
    # the plain sum above n/2 follows the basis (0.965, 0.733, 0.850, 0.723 here)
    assert max(tails) - min(tails) > 0.2


def test_normalize_signal(rng):
    x = rng.standard_normal(10) + 3.0
    z = normalize_unless_constant(x)
    assert abs(z.mean()) < 1e-12
    assert abs(np.linalg.norm(z) - 1.0) < 1e-12


def test_normalize_unless_constant_keeps_constant_raw():
    # 7.0 is zero after centering; 0.1 x 38 is constant, though its rounded
    # mean is not 0.1, so centering leaves a tiny constant
    for c in (np.full(5, 7.0), np.full(38, 0.1), np.zeros(4)):
        assert np.array_equal(normalize_unless_constant(c), c)
    assert np.full(38, 0.1).mean() != 0.1


def test_matched_random_signal():
    labels = np.array([0, 0, 0, 1, 1, 2])
    r1 = matched_random_signal(labels, seed=4)
    r2 = matched_random_signal(labels, seed=4)
    assert np.array_equal(r1, r2)
    assert set(np.unique(r1)) <= {0, 1, 2}
    big = matched_random_signal(np.repeat([0, 1], 5000), seed=1)
    assert abs(np.mean(big == 0) - 0.5) < 0.05


def test_export_spectrum_csv(tmp_path):
    path = tmp_path / "spec.csv"
    export_spectrum_csv(path, [0.0, 2.0], np.array([1.5, -0.25]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue,coefficient"
    assert lines[1].startswith("1,0.0,")
    assert len(lines) == 3


@given(st.integers(2, 12), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_eigen_tv_identity_property(n, seed):
    g, _ = sbm_generate([n], 0.7, 0.7, seed=seed)
    vals, vecs = laplacian_spectrum(g)
    for i in range(n):
        tv = total_variation(g, vecs[:, i])
        assert abs(tv - vals[i]) < 1e-8


@given(st.integers(2, 10), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_gft_roundtrip_property(n, seed):
    g, _ = sbm_generate([n], 0.5, 0.5, seed=seed)
    _, vecs = laplacian_spectrum(g)
    x = np.random.default_rng(seed).standard_normal(n)
    assert np.allclose(igft(vecs, gft(vecs, x)), x, atol=1e-10)
