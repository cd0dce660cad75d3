import inspect
import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from distsig import cli, gnn, spectral
from distsig.gnn import (
    CORA_SPLIT,
    ETA_GRID,
    SBM_4BLOCK,
    SBM_ETA_GRID,
    SBM_SPLIT,
    _SparseInput,
    GcnParams,
    Metrics,
    Split,
    TrainConfig,
    VARIANTS,
    accuracy,
    best_run,
    component_coefficients,
    cora_features,
    gcn_forward,
    init_params,
    load_cora,
    loss_and_grad,
    make_split,
    output_analysis,
    sbm_dataset,
    sbm_features,
    train,
    tune_eta,
)
from distsig.graph import (
    GraphError,
    build_graph,
    laplacian_sparse,
    normalized_adjacency,
)
from distsig.regularizer import confidence_weights


# --- splits ----------------------------------------------------------------

def _balanced_labels(classes, per):
    return np.repeat(np.arange(classes), per)


def test_split_sizes():
    labels = _balanced_labels(7, 100)
    s = make_split(labels, 20, 200, 300, seed=3)
    assert s.train.shape == (140,)
    assert s.val.shape == (200,)
    assert s.test.shape == (300,)
    for cls in range(7):
        assert np.sum(labels[s.train] == cls) == 20


def test_split_disjoint():
    s = make_split(_balanced_labels(3, 50), 10, 40, 50, seed=0)
    all_idx = np.concatenate([s.train, s.val, s.test])
    assert all_idx.size == np.unique(all_idx).size


def test_split_insufficient_class():
    labels = np.array([0, 0, 0, 1])
    with pytest.raises(ValueError, match="class 1"):
        make_split(labels, 2, 1, 1, seed=0)


def test_split_insufficient_pool():
    with pytest.raises(ValueError, match="pool"):
        make_split(_balanced_labels(2, 10), 5, 8, 8, seed=0)


@pytest.mark.parametrize("labels, sizes", [
    (_balanced_labels(4, 50), SBM_SPLIT),  # the 4-block model's labels
    (np.random.default_rng(0).integers(0, 7, 2709), CORA_SPLIT),
], ids=["4-block", "7-block"])
def test_split_equals_setdiff_oracle(labels, sizes):
    # the pool is a boolean mask over the nodes: the same sorted int64 nodes
    # as np.setdiff1d, so the same permutation draws the same val and test
    for seed in range(50):
        got = make_split(labels, *sizes, seed)
        want = oracles.make_split_by_setdiff(labels, *sizes, seed)
        for name in ("train", "val", "test"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), (seed, name)


def test_split_deterministic():
    labels = _balanced_labels(4, 60)
    a = make_split(labels, 15, 50, 80, seed=9)
    b = make_split(labels, 15, 50, 80, seed=9)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.test, b.test)
    c = make_split(labels, 15, 50, 80, seed=10)
    assert not np.array_equal(a.val, c.val)


# --- raw dataset loader ----------------------------------------------------

CONTENT = """\
n1 1 0 1 theory
n2 0 1 1 systems
n3 1 1 0 theory
"""

CITES = """\
n1 n2
n2 n3
"""


def _write(tmp_path, content=CONTENT, cites=CITES):
    cp = tmp_path / "x.content"
    qp = tmp_path / "x.cites"
    cp.write_text(content)
    qp.write_text(cites)
    return cp, qp


def test_load_tiny_dataset(tmp_path):
    cp, qp = _write(tmp_path)
    g, y, classes = load_cora(cp, qp)
    assert g.n == 3 and g.m == 2
    assert g.edges == ((0, 1), (1, 2))
    assert classes == ["systems", "theory"]
    assert np.array_equal(y, [1, 0, 1])
    f = cora_features(cp)
    assert isinstance(f, sp.csr_array) and f.shape == (3, 3)
    # rows normalized to sum 1
    assert np.allclose(f.sum(axis=1), 1.0)
    assert np.allclose(f.toarray()[0], [0.5, 0.0, 0.5])


def test_load_cora_reads_no_feature_value(tmp_path):
    # the graph and labels stand without the feature columns: a malformed
    # value or a short row stops cora_features, not load_cora
    cp, qp = _write(tmp_path, content="n1 1 0 1 a\nn2 0 zebra b\nn3 nan 1e400 1 1 a\n")
    g, y, classes = load_cora(cp, qp)
    assert g.edges == ((0, 1), (1, 2)) and np.array_equal(y, [0, 1, 0]) and classes == ["a", "b"]
    with pytest.raises(GraphError) as err:
        cora_features(cp)
    assert str(err.value) == f"{cp}:2: expected 3 features, got 2"


def test_load_feature_count_mismatch(tmp_path):
    cp, _ = _write(tmp_path, content="n1 1 0 1 a\nn2 0 1 b\n")
    with pytest.raises(GraphError) as err:
        cora_features(cp)
    assert str(err.value) == f"{cp}:2: expected 3 features, got 2"


def test_load_dangling_citation(tmp_path):
    cp, qp = _write(tmp_path, cites="n1 n9\n")
    with pytest.raises(GraphError, match="dangling"):
        load_cora(cp, qp)


def test_load_duplicate_id(tmp_path):
    cp, qp = _write(tmp_path, content="n1 1 0 1 a\nn1 0 1 1 b\n", cites="")
    with pytest.raises(GraphError, match="duplicate"):
        load_cora(cp, qp)


def test_load_non_numeric_feature(tmp_path):
    cp, _ = _write(tmp_path, content="n1 1 zebra 1 a\n", cites="")
    with pytest.raises(GraphError) as err:
        cora_features(cp)
    assert str(err.value) == f"{cp}:1: non-numeric feature value"


def test_load_features_bitwise_equal_to_float_parse(tmp_path):
    # numpy parses the tokens: the same values, bit for bit, as float() per
    # token, including the normalization of weighted rows and zero rows; the
    # CSR stores what csr_array of that dense matrix stores, and no zero, for
    # input dropout draws one uniform per stored entry
    rng = np.random.default_rng(4)
    rows = []
    for i in range(60):
        vals = (rng.random(25) < 0.2) * rng.choice([1.0, 0.3, 2.5, 1e-3], 25)
        rows.append(" ".join([f"p{i}", *map(repr, vals.tolist()), f"c{i % 3}"]))
    rows.append("zero " + " ".join(["0"] * 25) + " c0")
    rows.append("odd 1_0 １ -0 .5 1. +1 1e5 0_0.5 ١ " + " ".join(["0"] * 16) + " c1")
    rows.append("negs 1e-400 -0 " + " ".join(["0"] * 23) + " c2")
    # 5e-324 / 2 rounds to 0, and -0 / 2 is -0: neither is stored
    rows.append("under 5e-324 -0 1 1 " + " ".join(["0"] * 21) + " c0")
    cp, qp = _write(tmp_path, content="\n".join(rows) + "\n", cites="p0 p1\n")
    f = cora_features(cp)
    want = oracles.cora_features_by_float(cp)
    assert want.shape == (64, 25) and want[-1, 0] == 0.0
    oracle = sp.csr_array(want)
    assert isinstance(f, sp.csr_array) and f.shape == oracle.shape
    assert np.all(f.data != 0.0) and f.nnz == oracle.nnz
    assert f.data.tobytes() == oracle.data.tobytes()
    assert np.array_equal(f.indices, oracle.indices)
    assert np.array_equal(f.indptr, oracle.indptr)
    assert f.toarray().tobytes() == np.where(want == 0.0, 0.0, want).tobytes()


@pytest.mark.parametrize("token", ["0x1", "1__0", "_1", "1d0", "True", "1,0", "0b1", "1j"])
def test_load_rejects_the_tokens_float_rejects(tmp_path, token):
    with pytest.raises(ValueError):
        float(token)
    cp, _ = _write(tmp_path, content=f"n1 1 0 1 a\nn2 0 {token} 1 b\n", cites="")
    with pytest.raises(GraphError) as err:
        cora_features(cp)
    assert str(err.value) == f"{cp}:2: non-numeric feature value"


@pytest.mark.parametrize("token", ["nan", "inf", "1e400", "-inf"])
def test_load_rejects_non_finite_tokens(tmp_path, token):
    # float() parses these (1e400 overflows to inf), but no feature may be
    # non-finite: training would fail on its first forward pass
    cp, _ = _write(tmp_path, content=f"n1 1 0 1 a\nn2 0 {token} 1 b\n", cites="")
    with pytest.raises(GraphError) as err:
        cora_features(cp)
    assert str(err.value) == f"{cp}:2: non-finite feature value"


def test_cora_loaders_peak_memory(tmp_path, run_python):
    # a Cora-shaped pair: 2,708 nodes, 1,433 features at about 1.3% density.
    # Its dense feature matrix is 31 MB; the graph, the labels and the CSR
    # features together must grow the peak by less than that one matrix
    n, d = 2708, 1433
    rng = np.random.default_rng(0)
    content = tmp_path / "cora.content"
    with open(content, "w") as fh:
        for i in range(n):
            bits = np.where(rng.random(d) < 0.013, "1", "0")
            fh.write(f"p{i} {' '.join(bits)} c{i % 7}\n")
    cites = tmp_path / "cora.cites"
    cites.write_text("".join(f"p{i % n} p{(i * 7 + 1) % n}\n" for i in range(2 * n)))
    tiny, tiny_cites = _write(tmp_path)
    out = run_python(f"""
        from distsig.gnn import cora_features, load_cora

        load_cora({str(tiny)!r}, {str(tiny_cites)!r})
        cora_features({str(tiny)!r})  # loads scipy.sparse
        before = peak_rss()
        g, y, _ = load_cora({str(content)!r}, {str(cites)!r})
        f = cora_features({str(content)!r})
        print(g.n, f.shape[1], f.nnz, peak_rss() - before)
    """)
    nodes, dim, nnz, grown = map(int, out.split())
    assert (nodes, dim) == (n, d) and 0.012 < nnz / (n * d) < 0.014
    assert grown < n * d * 8, f"peak RSS grew by {grown / 2**20:.1f} MB"


def test_load_empty_cites_warns(tmp_path, caplog):
    cp, qp = _write(tmp_path, cites="")
    with caplog.at_level("WARNING", logger="distsig.gnn"):
        g, _, _ = load_cora(cp, qp)
    assert g.m == 0
    assert any("empty cites" in r.message for r in caplog.records)


def test_load_self_citation_skipped(tmp_path, caplog):
    cp, qp = _write(tmp_path, cites="n1 n1\nn1 n2\n")
    with caplog.at_level("WARNING", logger="distsig.gnn"):
        g, _, _ = load_cora(cp, qp)
    assert g.edges == ((0, 1),)
    assert any("self-citation" in r.message for r in caplog.records)


@pytest.mark.parametrize("which", ["content", "cites"])
def test_load_non_utf8_file(tmp_path, which):
    cp, qp = _write(tmp_path)
    bad = cp if which == "content" else qp
    bad.write_bytes(bad.read_bytes().replace(b"n2", b"n\xff2"))
    with pytest.raises(GraphError, match=f"x.{which}: not UTF-8"):
        load_cora(cp, qp)


def test_load_repeated_citation_collapses(tmp_path):
    cp, qp = _write(tmp_path, cites="n1 n2\nn2 n1\n")
    g, _, _ = load_cora(cp, qp)
    assert g.edges == ((0, 1),)


def test_load_builds_the_graph_build_graph_builds(tmp_path):
    # the loader builds its Graph directly; over citations in both
    # directions, repeats and a self-citation it must be build_graph's
    # canonical graph of the distinct pairs, as written
    rng = np.random.default_rng(2)
    n = 20
    names = [f"p{k}" for k in rng.permutation(n)]  # node i is content line i
    pairs = [tuple(rng.integers(0, n, 2).tolist()) for _ in range(40)]
    pairs += [pairs[0], pairs[1][::-1], (3, 3)]
    content = "".join(f"{name} 1 0 c{i % 2}\n" for i, name in enumerate(names))
    cp, qp = _write(tmp_path, content=content,
                    cites="".join(f"{names[a]} {names[b]}\n" for a, b in pairs))
    g, _, _ = load_cora(cp, qp)
    first = {}
    for a, b in pairs:
        if a != b:
            first.setdefault(frozenset((a, b)), (a, b))
    assert len(first) >= 32
    assert g == build_graph(n, list(first.values()))
    assert all(type(u) is int and type(v) is int for u, v in g.edges)


def test_sbm_features_wrap():
    f = sbm_features(70)
    assert f.shape == (70, 64)
    assert f.dtype == bool and f.nbytes == 70 * 64  # one byte per indicator
    assert np.array_equal(f[65], f[1])
    assert np.all(f.sum(axis=1) == 1.0)


def test_sbm_dataset_shapes():
    g, f, y = sbm_dataset((30, 30), 0.2, 0.02, seed=1)
    assert g.n == 60 and f.shape == (60, 64) and y.shape == (60,)


# --- propagation operator --------------------------------------------------

def _oracle_graphs():
    return [sbm_dataset((20, 20), 0.3, 0.05, seed=4)[0], build_graph(1, []),
            build_graph(4, [(0, 3), (1, 2)]), build_graph(3, [(0, 1), (1, 2), (0, 2)])]


def test_propagation_matches_dense():
    for g in _oracle_graphs():
        a = np.eye(g.n)
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
        dinv = 1.0 / np.sqrt(a.sum(axis=1))
        ahat = normalized_adjacency(g)
        assert ahat.has_canonical_format
        assert np.array_equal(ahat.toarray(), a * dinv[:, None] * dinv[None, :])


def test_laplacian_sparse_matches_dense():
    for g in _oracle_graphs():
        dense = np.zeros((g.n, g.n))
        for u, v in g.edges:
            dense[u, v] = dense[v, u] = -1.0
            dense[u, u] += 1.0
            dense[v, v] += 1.0
        lap = laplacian_sparse(g)
        assert lap.has_canonical_format
        assert np.array_equal(lap.toarray(), dense)


# --- forward pass ----------------------------------------------------------

def test_forward_zero_params_uniform():
    g = build_graph(3, [(0, 1), (1, 2)])
    ahat = normalized_adjacency(g)
    params = GcnParams(np.zeros((4, 5)), np.zeros((5, 2))[None])
    o, x, _ = gcn_forward(params, ahat, np.eye(3, 4))
    assert np.array_equal(o[0], np.zeros((3, 2)))
    assert np.allclose(x[0], 0.5)


def test_forward_single_node_identity():
    params = GcnParams(np.array([[1.0]]), np.array([[1.0]])[None])
    o, x, _ = gcn_forward(params, np.array([[1.0]]), np.array([[1.0]]))
    assert np.array_equal(o[0], [[1.0]])
    assert np.array_equal(x[0], [[1.0]])


def test_forward_permutation_equivariance():
    g, f, _ = sbm_dataset((10, 10), 0.4, 0.1, seed=6)
    params = init_params(f.shape[1], 3, seed=2)
    o, _, _ = gcn_forward(params, normalized_adjacency(g), f)

    perm = np.random.default_rng(0).permutation(g.n)
    inv = np.argsort(perm)
    # relabel node i -> inv[i] so row perm[j] of the original becomes row j
    edges = [tuple(sorted((int(inv[u]), int(inv[v])))) for u, v in g.edges]
    gp = build_graph(g.n, edges)
    op, _, _ = gcn_forward(params, normalized_adjacency(gp), f[perm])
    assert np.allclose(op[0], o[0][perm], atol=1e-12)


def test_forward_nonfinite_error():
    params = GcnParams(np.full((2, 2), 1e200), np.full((2, 2), 1e200)[None])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            gcn_forward(params, np.eye(2), np.full((2, 2), 1e200))


def test_forward_dropout_only_with_rng():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    ahat = normalized_adjacency(g)
    f = np.eye(4)
    params = init_params(4, 2, seed=0)
    o1, _, _ = gcn_forward(params, ahat, f, dropout=gnn.DROPOUT)
    o2, _, _ = gcn_forward(params, ahat, f, dropout=gnn.DROPOUT)
    assert np.array_equal(o1, o2)  # no rng handed in: dropout inert
    o3, _, c3 = gcn_forward(params, ahat, f, dropout=gnn.DROPOUT,
                            rng=np.random.default_rng(1))
    assert "mask1" in c3


def _sparse_features(n=30, d=12, seed=5):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, d)) < 0.2, rng.random((n, d)) + 0.5, 0.0)


def test_input_dropout_draws_one_uniform_per_stored_entry():
    g, _, _ = sbm_dataset((15, 15), 0.3, 0.05, seed=2)
    ahat = normalized_adjacency(g)
    f = _sparse_features()
    nnz = np.count_nonzero(f)
    params = init_params(f.shape[1], 3, seed=1)
    p = 0.4
    rng = np.random.default_rng(11)
    _, _, cache = gcn_forward(params, ahat, f, dropout=p, rng=rng)

    ref = np.random.default_rng(11)
    keep0 = ref.random(nnz) >= p  # stored entries in CSR (row-major) order
    keep1 = ref.random((g.n, gnn.HIDDEN)) >= p
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(cache["mask1"], keep1 / (1.0 - p))

    dropped = cache["f"].toarray()
    assert np.all(dropped[f == 0.0] == 0.0)
    kept = np.zeros(f.shape, dtype=bool)
    kept[f != 0.0] = keep0
    assert np.array_equal(dropped[kept], f[kept] / (1.0 - p))
    assert np.all(dropped[~kept] == 0.0)


def test_forward_dense_and_csr_inputs_agree_bitwise():
    g, _, _ = sbm_dataset((15, 15), 0.3, 0.05, seed=2)
    ahat = normalized_adjacency(g)
    f = _sparse_features()
    params = init_params(f.shape[1], 3, seed=1)
    for kw in ({}, {"dropout": 0.5}):
        o_d, x_d, _ = gcn_forward(params, ahat, f, rng=np.random.default_rng(3), **kw)
        o_s, x_s, _ = gcn_forward(params, ahat, sp.csr_array(f),
                                  rng=np.random.default_rng(3), **kw)
        assert np.array_equal(o_d, o_s) and np.array_equal(x_d, x_s)


def test_shared_dropout_buffer_matches_fresh_input():
    # train hands every epoch one _SparseInput whose dropped copy is rewritten
    # in place; each step must equal a fresh conversion of the dense features
    g, _, _ = sbm_dataset((15, 15), 0.3, 0.05, seed=2)
    f = _sparse_features()
    y = np.arange(g.n) % 3
    train_idx = np.arange(0, g.n, 4)
    ahat = normalized_adjacency(g)
    lap = laplacian_sparse(g)
    a_vec = confidence_weights(g)
    eta = np.array([0.3])
    params = init_params(f.shape[1], 3, seed=1)
    inp = _SparseInput(f)
    rng_shared, rng_fresh = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):
        got = loss_and_grad(params, ahat, inp, y, train_idx, lap, a_vec, "r", eta, rng=rng_shared)
        want = loss_and_grad(params, ahat, f, y, train_idx, lap, a_vec, "r", eta, rng=rng_fresh)
        assert got[0][0] == want[0][0]
        assert all(np.array_equal(a, b) for a, b in zip(got[2], want[2]))
        assert np.array_equal(inp.f.toarray(), f)


# --- training --------------------------------------------------------------

def _toy_setup(seed=0):
    g, f, y = sbm_dataset((20, 20), 0.3, 0.02, seed=seed)
    split = make_split(y, 5, 10, 20, seed=seed)
    return g, f, y, split


def _without_reg(m):
    """A run's JSON without its config and recorded trace, as exact text."""
    d = m.to_json_dict()
    del d["config"]
    for e in d["per_epoch"]:
        del e["reg"]
    return json.dumps(d)


def test_eta_zero_equals_plain_gcn():
    # a regularized model at eta 0, alone or as member 0 of a stack, is the
    # plain model bit for bit; only the recorded trace differs.  The other
    # members then give tune_eta's pick.
    g, f, y, split = _toy_setup()
    plain = train(g, f, y, split, TrainConfig(variant="gcn", eta=0.0, epochs=30), analysis=False)
    for variant in ("r", "r1", "r2", "r3"):
        cfg = TrainConfig(variant=variant, eta=0.0, epochs=30)
        alone = train(g, f, y, split, cfg, analysis=False)
        base, *tuned = train(g, f, y, split, cfg, etas=(0.0,) + ETA_GRID, analysis=False)
        for m in (alone, base):
            assert _without_reg(m) == _without_reg(plain), variant
            assert m.final_probs.tobytes() == plain.final_probs.tobytes(), variant
        best, _ = tune_eta(g, f, y, split, cfg, analysis=False)
        assert best_run(tuned).to_json_dict() == best.to_json_dict(), variant


def test_bool_one_hot_trains_as_its_float_copy():
    # _SparseInput reads the bool one-hot as the float CSR of its float copy,
    # so every curve and output is the same, alone and in a stack
    g, f, y, split = _toy_setup()
    assert f.dtype == bool
    cfg = TrainConfig(variant="r", epochs=5)
    for etas in (None, (0.0, 0.1, 1.0)):
        got = train(g, f, y, split, cfg, etas=etas, analysis=False)
        want = train(g, f.astype(float), y, split, cfg, etas=etas, analysis=False)
        if etas is None:
            got, want = [got], [want]
        for a, b in zip(got, want, strict=True):
            assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
            assert a.final_probs.tobytes() == b.final_probs.tobytes()


def test_train_deterministic():
    g, f, y, split = _toy_setup()
    cfg = TrainConfig(variant="r", eta=0.2, epochs=25)
    m1 = train(g, f, y, split, cfg, analysis=False)
    m2 = train(g, f, y, split, cfg, analysis=False)
    assert m1.train_loss == m2.train_loss
    assert np.array_equal(m1.final_probs, m2.final_probs)
    assert m1.test_acc == m2.test_acc


@pytest.mark.parametrize("field, value, message", [
    ("epochs", 0, "epochs must be >= 1, got 0"),
], ids=["epochs-zero"])
def test_train_config_rejects_bad_optimiser_values(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrainConfig(**{field: value})


def test_train_divergence_reports_epoch(monkeypatch):
    g, f, y, split = _toy_setup()
    monkeypatch.setattr(gnn, "WEIGHT_DECAY", 1e308)
    cfg = TrainConfig(variant="gcn", epochs=5)
    with pytest.raises(RuntimeError, match="epoch 1"):
        train(g, f, y, split, cfg, analysis=False)


@pytest.mark.parametrize("case, message", [
    ("features", "39 feature rows for a graph of 40 nodes"),
    ("labels", "39 labels for a graph of 40 nodes"),
    ("train-index", "split.train index 40 outside a graph of 40 nodes"),
    ("test-index", "split.test index -1 outside a graph of 40 nodes"),
    ("empty-val", "split.val is empty"),
    ("negative-label", "node 0 has negative label -1"),
], ids=["features", "labels", "train-index", "test-index", "empty-val", "negative-label"])
def test_train_rejects_inputs_that_do_not_fit_the_graph(monkeypatch, case, message):
    g, f, y, split = _toy_setup()
    if case == "features":
        f = f[:-1]
    elif case == "labels":
        y = y[:-1]
    elif case == "train-index":
        split = replace(split, train=np.append(split.train, g.n))
    elif case == "test-index":
        split = replace(split, test=np.insert(split.test, 0, -1))
    elif case == "negative-label":  # class 0 relabelled -1
        y = np.where(y == 0, -1, y)
    else:
        split = replace(split, val=split.val[:0])

    def no_work(*args):
        raise AssertionError("training started before its inputs were checked")

    monkeypatch.setattr("distsig.gnn._SparseInput", no_work)
    for etas in (None, ETA_GRID):
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(g, f, y, split, TrainConfig(epochs=2), etas=etas, analysis=False)


def test_final_loss_below_initial_all_variants():
    g, f, y, split = _toy_setup(seed=3)
    for variant in VARIANTS:
        m = train(g, f, y, split, TrainConfig(variant=variant, eta=0.1, epochs=60),
                  analysis=False)
        assert m.train_loss[-1] < m.train_loss[0], variant


def test_recorded_ce_is_the_loss_without_reg_and_decay(monkeypatch):
    g, f, y, split = _toy_setup(seed=4)
    with monkeypatch.context() as mp:
        mp.setattr(gnn, "WEIGHT_DECAY", 0.0)
        m = train(g, f, y, split, TrainConfig(epochs=10), analysis=False)
    assert m.train_ce == m.train_loss
    m = train(g, f, y, split, TrainConfig(variant="r", eta=0.3, epochs=10), analysis=False)
    assert all(ce != loss for ce, loss in zip(m.train_ce, m.train_loss))


def test_recorded_reg_matches_dense_oracle():
    g, f, y, split = _toy_setup(seed=5)
    m = train(g, f, y, split, TrainConfig(variant="r", eta=0.1, epochs=20), analysis=False)
    x = m.final_probs
    a = confidence_weights(g)
    l1 = float(np.sum(x * (laplacian_sparse(g).toarray() @ x)))
    l2 = float(np.sum((x * x) * a[:, None]))
    assert abs(m.reg_values[-1] - (l1 + l2)) < 1e-9


def test_full_gradient_finite_differences():
    # all variants on a fixed 6-node instance, dropout off
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    f = np.eye(6)
    y = np.array([0, 0, 1, 1, 2, 2])
    train_idx = np.array([0, 2, 4])
    ahat = normalized_adjacency(g)
    lap = laplacian_sparse(g)
    a_vec = confidence_weights(g)
    rng = np.random.default_rng(8)
    eta = np.array([0.3])
    for variant in VARIANTS:
        w1, w2 = rng.standard_normal((6, 4)) * 0.5, rng.standard_normal((4, 3)) * 0.5
        params = GcnParams(w1, w2[None])  # a stack of one; w2[None] views the live w2
        _, _, (dw1, dw2) = loss_and_grad(params, ahat, f, y, train_idx, lap, a_vec, variant, eta)
        h = 1e-6
        for w, dw in ((w1, dw1), (w2, dw2[0])):
            i = int(rng.integers(w.shape[0]))
            j = int(rng.integers(w.shape[1]))
            orig = w[i, j]
            w[i, j] = orig + h
            fp = loss_and_grad(params, ahat, f, y, train_idx, lap, a_vec, variant, eta)[0][0]
            w[i, j] = orig - h
            fm = loss_and_grad(params, ahat, f, y, train_idx, lap, a_vec, variant, eta)[0][0]
            w[i, j] = orig
            num = (fp - fm) / (2.0 * h)
            assert abs(num - dw[i, j]) < 1e-4 * max(1.0, abs(dw[i, j])), variant


def test_gradient_finite_differences_with_dropout():
    # every loss evaluation gets a fresh generator with one seed, so all see
    # the same input and hidden masks; covers X^T dZ1 through a dropped CSR
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    f = _sparse_features(n=6, d=5, seed=2)
    assert 0 < np.count_nonzero(f) < f.size
    y = np.array([0, 0, 1, 1, 2, 2])
    train_idx = np.array([0, 2, 4])
    ahat = normalized_adjacency(g)
    lap = laplacian_sparse(g)
    a_vec = confidence_weights(g)
    rng = np.random.default_rng(8)
    w1, w2 = rng.standard_normal((5, 4)) * 0.5, rng.standard_normal((4, 3)) * 0.5
    params = GcnParams(w1, w2[None])  # a stack of one; w2[None] views the live w2

    def loss(p):
        return loss_and_grad(p, ahat, f, y, train_idx, lap, a_vec, "r", np.array([0.3]),
                             rng=np.random.default_rng(21))

    _, _, (dw1, dw2) = loss(params)
    assert np.any(dw1 != 0.0)
    h = 1e-6
    for w, dw in ((w1, dw1), (w2, dw2[0])):
        for i, j in np.ndindex(w.shape):
            orig = w[i, j]
            w[i, j] = orig + h
            fp = loss(params)[0][0]
            w[i, j] = orig - h
            fm = loss(params)[0][0]
            w[i, j] = orig
            num = (fp - fm) / (2.0 * h)
            assert abs(num - dw[i, j]) < 1e-4 * max(1.0, abs(dw[i, j])), (i, j)


def test_accuracy_tie_break_lowest_class():
    probs = np.full((4, 3), 1.0 / 3.0)
    labels = np.array([0, 1, 2, 0])
    # uniform rows all predict class 0
    assert accuracy(probs, labels, np.arange(4)) == 0.5


def test_best_epoch_tracks_max_val_acc():
    g, f, y, split = _toy_setup(seed=7)
    m = train(g, f, y, split, TrainConfig(epochs=40), analysis=False)
    assert m.val_acc[m.best_epoch - 1] == max(m.val_acc)
    assert m.val_acc.index(max(m.val_acc)) == m.best_epoch - 1  # earliest tie wins


def test_test_acc_is_the_best_epoch_output():
    # a run cut at the best epoch follows the same trajectory, so its final
    # outputs are the best epoch's outputs of the longer run
    g, f, y, split = _toy_setup(seed=7)
    cfg = TrainConfig(variant="r", eta=0.2, epochs=40)
    m = train(g, f, y, split, cfg, analysis=False)
    assert 1 < m.best_epoch < 40
    cut = train(g, f, y, split, replace(cfg, epochs=m.best_epoch), analysis=False)
    assert cut.val_acc == m.val_acc[:m.best_epoch]
    assert accuracy(cut.final_probs, y, split.test) == m.test_acc
    assert cut.test_acc == m.test_acc


def _stack_cases():
    g, f, y = sbm_dataset(*SBM_4BLOCK, seed=0)
    yield g, f, y, make_split(y, *SBM_SPLIT, seed=0), SBM_ETA_GRID
    g, _, y = sbm_dataset((20, 20, 20), 0.3, 0.05, seed=1)
    yield g, _sparse_features(n=60, d=40, seed=3), y, make_split(y, 5, 15, 20, seed=1), ETA_GRID


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_train_equals_one_run_per_eta(monkeypatch, variant):
    # the stack shares the initial weights and every dropout draw, and each
    # per-model sum runs over one contiguous block, so the bits are the same;
    # at dropout 0 the stack runs without masks
    for g, f, y, split, grid in _stack_cases():
        for dropout in (0.5, 0.0):
            monkeypatch.setattr(gnn, "DROPOUT", dropout)
            cfg = TrainConfig(variant=variant, epochs=30, seed=2)
            runs = train(g, f, y, split, cfg, etas=grid, analysis=False)
            assert [m.config for m in runs] == [replace(cfg, eta=eta) for eta in grid]
            runs.append(train(g, f, y, split, cfg, analysis=False))  # no stack
            for m in runs:
                want = oracles.train_one(g, f, y, split, m.config)
                assert json.dumps(m.to_json_dict()) == json.dumps(want.to_json_dict())
                assert m.final_probs.tobytes() == want.final_probs.tobytes()
                assert m.final_probs.flags.c_contiguous and m.final_probs.base is None


def _traced_stacked_train():
    """The traced peak of a 10-epoch, 4-eta run on 800 nodes in 4 classes,
    and the node count."""
    g, _, y = sbm_dataset((200,) * 4, 0.02, 0.002, seed=0)
    f = (np.random.default_rng(0).random((g.n, 400)) < 0.013).astype(float)
    split = make_split(y, 20, 100, 200, seed=0)
    cfg = TrainConfig(variant="r", epochs=10, seed=0)
    tracemalloc.start()
    try:
        train(g, f, y, split, cfg, etas=ETA_GRID, analysis=False)
        return tracemalloc.get_traced_memory()[1], g.n
    finally:
        tracemalloc.stop()


def test_stacked_train_peak_memory():
    # each per-epoch array of a stacked run goes at its last reader: the
    # traced peak of the whole run, set-up included, reads 5.5-5.6 of the
    # stack's n x 64 hidden arrays here, and 9.3-9.4 when the forward's and
    # backward's arrays, the regularizer's temporaries and the previous
    # epoch's evaluation and gradients outlive their use
    peak, n = _traced_stacked_train()
    hidden = n * len(ETA_GRID) * gnn.HIDDEN * 8
    assert peak < 7 * hidden, f"peak {peak / hidden:.2f} hidden arrays"


def test_regularizer_peak_memory(monkeypatch):
    # the regularizer's products go into one C-order K x n x C buffer, which
    # _block_sums reshapes without a copy: the traced peak inside a call,
    # above what it is handed, reads 3.02 of the stack's n x KC output arrays
    # here, and 3.66 when each product is copied again for its sums
    real = gnn._reg_value_and_grad
    peaks = []

    def traced(*args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(gnn, "_reg_value_and_grad", traced)
    n = _traced_stacked_train()[1]
    outputs = n * len(ETA_GRID) * 4 * 8
    assert len(peaks) == 20  # a training and an evaluation call per epoch
    assert max(peaks) < 3.4 * outputs, f"peak {max(peaks) / outputs:.2f} output arrays"


def test_stacked_divergence_names_epoch_and_first_eta():
    g, f, y, split = _toy_setup()
    with pytest.raises(RuntimeError, match=r"at epoch 1, eta 1e\+308$"):
        train(g, f, y, split, TrainConfig(variant="r", epochs=5), etas=(0.1, 1e308),
              analysis=False)


def test_adam_moment_overflow_is_divergence_without_a_numpy_warning():
    # eta 1e300 keeps the loss finite, but the gradient's square overflows in Adam
    g, f, y, split = _toy_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"Adam moment\) at epoch 1, eta 1e\+300$"):
            train(g, f, y, split, TrainConfig(variant="r", eta=1e300, epochs=3), analysis=False)


def test_tune_eta_tie_prefers_first():
    g, f, y, split = _toy_setup(seed=1)
    # equal grid points train equal models, so every run ties
    best, results = tune_eta(g, f, y, split, TrainConfig(variant="r", epochs=10),
                             grid=(0.2, 0.2, 0.2), analysis=False)
    assert len(results) == 3
    assert best is results[0]


def test_tune_eta_trains_plain_gcn_once():
    # eta never enters the plain model's loss: one run at the given eta
    g, f, y, split = _toy_setup(seed=1)
    cfg = TrainConfig(variant="gcn", eta=0.3, epochs=10)
    best, results = tune_eta(g, f, y, split, cfg, analysis=False)
    assert len(results) == 1 and results[0] is best
    assert best.to_json_dict() == train(g, f, y, split, cfg, analysis=False).to_json_dict()


def test_tune_eta_analyses_the_chosen_run_only():
    g, f, y, split = _toy_setup(seed=3)
    cfg = TrainConfig(variant="r", epochs=10)
    best, results = tune_eta(g, f, y, split, cfg)
    assert sum(m.hf_fraction_per_class is not None for m in results) == 1
    alone = train(g, f, y, split, replace(cfg, eta=best.config.eta))
    assert best.to_json_dict() == alone.to_json_dict()


def test_metrics_json_shape():
    g, f, y, split = _toy_setup(seed=2)
    m = train(g, f, y, split, TrainConfig(variant="r", eta=0.1, epochs=8))
    d = m.to_json_dict()
    assert set(d) == {"config", "per_epoch", "best_epoch", "test_acc",
                      "hf_fraction_per_class", "nonuniformity_sweep"}
    assert len(d["per_epoch"]) == 8
    assert set(d["per_epoch"][0]) == {"loss", "ce", "acc_train", "loss_val", "acc_val", "reg"}
    assert [e["ce"] for e in d["per_epoch"]] == m.train_ce
    assert [e["acc_train"] for e in d["per_epoch"]] == m.train_acc
    assert [e["loss_val"] for e in d["per_epoch"]] == m.val_loss
    assert [e["reg"] for e in d["per_epoch"]] == m.reg_values
    assert d["best_epoch"] == m.best_epoch
    assert d["per_epoch"][m.best_epoch - 1]["acc_val"] == max(m.val_acc)
    assert d["config"]["variant"] == "r"
    assert len(d["hf_fraction_per_class"]) == int(y.max()) + 1


def test_output_analysis_uniform_probs():
    g, _, _ = sbm_dataset((10, 10), 0.5, 0.1, seed=0)
    probs = np.full((20, 4), 0.25)
    [an] = output_analysis(g, probs)
    # constant columns carry no high-frequency content
    assert all(h < 1e-12 for h in an["hf_fraction_per_class"])
    assert an["nonuniformity_sweep"][0]["near_uniform"] == 80


def test_output_analysis_hf_range():
    g, f, y, split = _toy_setup(seed=9)
    m = train(g, f, y, split, TrainConfig(epochs=15))
    assert all(0.0 <= h <= 1.0 for h in m.hf_fraction_per_class)


def test_output_analysis_one_node_main_component():
    # an edgeless graph's main component is node 0 alone: no high frequencies
    n = 30
    labels = np.arange(n) % 2
    split = make_split(labels, 5, 5, 10, seed=0)
    m = train(build_graph(n, []), np.eye(n), labels, split, TrainConfig(epochs=3))
    assert m.hf_fraction_per_class == [0.0, 0.0]


def _count_eig_sym(monkeypatch):
    """The sizes of the matrices ``spectral.eig_sym`` decomposes from now on."""
    calls = []
    real = spectral.eig_sym

    def spy(mat, *args, **kwargs):
        calls.append(mat.shape[0])
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spectral, "eig_sym", spy)
    return calls


def test_output_analysis_decomposes_once_for_all_its_matrices(monkeypatch):
    # one decomposition serves every matrix of the call, and each matrix's
    # analysis is bitwise what a call of its own gives
    g = sbm_dataset((9, 8, 7), 0.5, 0.1, seed=11)[0]
    rng = np.random.default_rng(3)
    probs = [rng.dirichlet(np.ones(c), size=g.n) for c in (3, 1, 2)]
    calls = _count_eig_sym(monkeypatch)
    together = output_analysis(g, *probs)
    assert len(calls) == 1
    assert together == [an for p in probs for an in output_analysis(g, p)]
    assert len(calls) == 4
    assert [len(an["hf_fraction_per_class"]) for an in together] == [3, 1, 2]


def test_stacked_train_decomposes_once(monkeypatch):
    g, f, y, split = _toy_setup(seed=5)
    calls = _count_eig_sym(monkeypatch)
    runs = train(g, f, y, split, TrainConfig(variant="r", epochs=10), etas=(0.1, 0.2, 0.5))
    assert len(calls) == 1
    del g
    for m in runs:
        # a new, equal graph for each plain run: each derives its own spectrum
        g, f, y, split = _toy_setup(seed=5)
        alone = train(g, f, y, split, m.config)
        assert m.to_json_dict() == alone.to_json_dict()  # hf_fraction_per_class included
    assert len(calls) == 4


def test_cli_runs_decompose_their_own_graphs(tmp_path, monkeypatch, capsys):
    # each run reads or builds its graph afresh, and the spectrum dies with
    # it: a run never reuses an earlier run's eigendecomposition
    calls = _count_eig_sym(monkeypatch)
    outs = []
    for k in range(2):
        out = tmp_path / f"run{k}.json"
        assert cli.main(["train", "--blocks", "20,20", "--variant", "r", "--epochs", "2",
                         "--val-size", "10", "--test-size", "10", "--tune",
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert len(calls) == 2
    assert outs[0] == outs[1]


def test_keyword_parameters_of_the_training_entry_points():
    # the library's option surface: a new keyword shows up here as a test edit
    def keywords(fn):
        return {p.name: p.default for p in inspect.signature(fn).parameters.values()
                if p.kind is p.KEYWORD_ONLY or p.default is not p.empty}

    assert keywords(train) == {"etas": None, "analysis": True}
    assert keywords(tune_eta) == {"grid": ETA_GRID, "analysis": True}
    assert keywords(output_analysis) == {}
    assert keywords(component_coefficients) == {}
