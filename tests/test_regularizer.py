import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from distsig.distributional import tv_l1_l2
from distsig.gnn import VARIANTS, _blocks, _reg_value_and_grad
from distsig.graph import build_graph, laplacian_sparse
from distsig.regularizer import (
    _class_sum,
    confidence_weights,
    nonuniformity_bound_check,
    nonuniformity_counts,
    nonuniformity_sweep,
    softmax_rows,
    softmax_vjp,
    write_nonuniformity_csv,
)


def _random_prob_rows(rng, n, m):
    return rng.dirichlet(np.ones(m), size=n)


# --- softmax ---------------------------------------------------------------

def test_softmax_symmetric_row():
    assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])


def test_softmax_log_two():
    out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
    assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_softmax_saturation():
    out = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_softmax_rows_sum_to_one(rng):
    o = rng.standard_normal((6, 4)) * 50.0
    x = softmax_rows(o)
    assert np.allclose(x.sum(axis=1), 1.0, atol=1e-12)
    assert np.min(x) >= 0.0


def _class_stacks(rng, c, k=3, n=50):
    """A C-order k x n x c stack and a ``_blocks`` view of an n x kc array."""
    return (3.0 * rng.standard_normal((k, n, c)),
            _blocks(3.0 * rng.standard_normal((n, k * c)), k))


@pytest.mark.parametrize("c", range(2, 13))
def test_class_sums_equal_np_sum_bitwise(c):
    # the running sums below 8 classes and numpy's own from 8 up must both
    # give np.sum's bits, in either layout that training hands them
    rng = np.random.default_rng(c)
    for o in _class_stacks(rng, c):
        got, want = _class_sum(o), o.sum(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        x = softmax_rows(o)
        assert x.tobytes() == oracles.softmax_rows(o).tobytes()
        grad = rng.standard_normal(o.shape)
        want = oracles.softmax_vjp(x, grad)
        assert softmax_vjp(x, grad.copy()).tobytes() == want.tobytes()
    zeros = np.full((2, 3, c), -0.0)  # np.sum adds onto +0.0, so these rows sum to +0.0
    assert _class_sum(zeros).tobytes() == zeros.sum(axis=-1, keepdims=True).tobytes()


def test_running_class_sum_is_not_np_sum_from_8_classes():
    # why _class_sum switches to np.sum at 8: numpy sums 8 or more entries
    # pairwise, and a running sum then loses its bits
    rng = np.random.default_rng(8)
    for o in _class_stacks(rng, 8):
        running = functools.reduce(np.add, [o[..., j] for j in range(8)], 0.0)
        assert running.tobytes() != o.sum(axis=-1).tobytes()


# --- weight diagonal -------------------------------------------------------

def test_weightdiag_default_triangle(triangle):
    a = confidence_weights(triangle)
    assert np.array_equal(a, [-1.0, -1.0, -1.0])
    assert not a.flags.writeable


def test_weightdiag_isolated_clamp(caplog):
    g = build_graph(3, [(0, 1)])  # node 2 isolated: raw rule gives +1
    with caplog.at_level("INFO", logger="distsig.regularizer"):
        a = confidence_weights(g)
    assert np.array_equal(a, [0.0, 0.0, 0.0])
    assert not a.flags.writeable
    assert any("clamping 1 isolated" in r.message for r in caplog.records)


def test_weightdiag_default_mixed_degrees():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])  # star: deg 3,1,1,1
    assert np.array_equal(confidence_weights(g), [-2.0, 0.0, 0.0, 0.0])


# --- losses ----------------------------------------------------------------
# The traces are computed once, on a sparse Laplacian, by the training code's
# regularizer; the dense (L + D) quadratic form below is the test oracle.

def _reg(variant, x, g, a):
    """Regularizer value and logit gradient at probabilities x (logits feed r3 only),
    as member 0 of a stack of one."""
    val, grad = _reg_value_and_grad(variant, None, np.asarray(x, dtype=float)[None],
                                    laplacian_sparse(g), a, True)
    return val[0], grad[0]


def _raw_l0(x, g, a):
    m = laplacian_sparse(g).toarray() + np.diag(a)
    return float(np.sum(x * (m @ x)))


def test_loss_p2_one_hot(p2):
    a = confidence_weights(p2)  # degrees are 1 so a = 0
    assert np.array_equal(a, [0.0, 0.0])
    x = np.eye(2)
    l1, l2, l0 = (_reg(v, x, p2, a)[0] for v in ("r1", "r2", "r"))
    assert (l1, l2, l0) == (2.0, 0.0, 2.0)


def test_loss_constant_onehot_rows(triangle):
    x = np.tile([0.0, 1.0, 0.0], (3, 1))
    l1, _ = _reg("r1", x, triangle, confidence_weights(triangle))
    assert abs(l1) < 1e-12


def test_loss_p2_uniform_rows(p2):
    x = np.full((2, 2), 0.5)
    l0, _ = _reg("r", x, p2, confidence_weights(p2))
    assert abs(l0) < 1e-12


def test_loss_dimension_mismatch(triangle):
    with pytest.raises(ValueError, match="mismatch"):
        _reg("r", np.eye(2), triangle, np.zeros(3))


def test_loss_decomposition_random(rng):
    # the combined trace equals the sum of its two terms and the dense oracle
    for _ in range(20):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        x = _random_prob_rows(rng, 5, 3)
        a = -rng.random(5)
        l1, l2, l0 = (_reg(v, x, g, a)[0] for v in ("r1", "r2", "r"))
        assert l1 >= -1e-12
        assert l2 <= 1e-12
        assert abs(l0 - (l1 + l2)) < 1e-9
        oracle = _raw_l0(x, g, a)
        assert abs(l0 - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_smoothness_matches_distributional_tv(rng, triangle):
    # same quadratic form computed by two modules from different definitions
    x = _random_prob_rows(rng, 3, 4)
    l1_term, _ = _reg("r1", x, triangle, np.zeros(3))
    _, tg2 = tv_l1_l2(triangle, x)
    assert abs(l1_term - tg2) < 1e-9


# --- gradients -------------------------------------------------------------

def test_grad_identical_rows_regular_graph(c4):
    # identical rows are perfectly smooth and a regular graph weighs every
    # node alike, so every logit row gets the same gradient
    x = softmax_rows(np.tile([0.3, 0.7], (4, 1)))
    _, grad = _reg("r", x, c4, confidence_weights(c4))
    assert np.allclose(grad, np.tile(grad[0], (4, 1)))


def test_grad_empty_graph_default_weights():
    # raw default weight on an isolated node is +1, which the nonpositivity
    # rule forbids; the clamped default zeroes it, so the whole objective
    # vanishes on an edgeless graph
    g = build_graph(3, [])
    a = confidence_weights(g)
    assert np.array_equal(a, np.zeros(3))
    x = _random_prob_rows(np.random.default_rng(0), 3, 2)
    val, grad = _reg("r", x, g, a)
    assert val == 0.0
    assert np.array_equal(grad, np.zeros((3, 2)))


def test_logit_grad_matches_finite_differences(rng):
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    a = confidence_weights(g)
    for _ in range(10):
        o = rng.standard_normal((5, 3))
        _, grad = _reg("r", softmax_rows(o), g, a)
        h = 1e-5
        i, j = int(rng.integers(5)), int(rng.integers(3))
        op, om = o.copy(), o.copy()
        op[i, j] += h
        om[i, j] -= h
        fp = _raw_l0(softmax_rows(op), g, a)
        fm = _raw_l0(softmax_rows(om), g, a)
        num = (fp - fm) / (2.0 * h)
        assert abs(num - grad[i, j]) < 1e-4 * max(1.0, abs(grad[i, j]))


def _graph_with_pendants(rng, n=200, pendants=10):
    # a random graph plus pendant nodes, whose degree 1 gives them weight a = 0
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < 0.03
    edges = list(zip(iu[keep].tolist(), iv[keep].tolist()))
    edges += [(int(rng.integers(n)), n + i) for i in range(pendants)]
    return build_graph(n + pendants, edges)


@pytest.mark.parametrize("variant", VARIANTS)
def test_reg_equals_per_variant_oracle_bitwise(variant):
    # r, r1 and r2 are one trace with weight pairs; the oracle keeps one
    # branch per variant, and both must agree bit for bit, value and logit
    # gradient, for a stack of one and a stack of three laid out as training
    # lays them
    rng = np.random.default_rng(7)
    g = _graph_with_pendants(rng)
    lap, a_vec = laplacian_sparse(g), confidence_weights(g)
    assert np.any(a_vec == 0.0) and np.any(a_vec < 0.0)
    k, c = 3, 4
    for _ in range(50):
        for o in (_blocks(3.0 * rng.standard_normal((g.n, c)), 1),
                  _blocks(3.0 * rng.standard_normal((g.n, k * c)), k)):
            x = softmax_rows(o)
            val, grad = _reg_value_and_grad(variant, o, x, lap, a_vec, True)
            want_val, want_grad = oracles.reg_value_and_grad(variant, o, x, lap, a_vec)
            assert np.asarray(val).tobytes() == np.asarray(want_val).tobytes()
            if want_grad is None:
                assert grad is None
            else:
                assert grad.shape == want_grad.shape
                assert grad.tobytes() == want_grad.tobytes()
            val_only, no_grad = _reg_value_and_grad(variant, o, x, lap, a_vec, False)
            assert np.asarray(val_only).tobytes() == np.asarray(want_val).tobytes()
            assert no_grad is None


def test_softmax_vjp_zero_mean_rows(rng):
    # pulled-back gradients live in the tangent of the simplex
    x = softmax_rows(rng.standard_normal((4, 5)))
    vjp = softmax_vjp(x, rng.standard_normal((4, 5)))
    assert np.allclose(vjp.sum(axis=1), 0.0, atol=1e-12)


# --- confidence bound ------------------------------------------------------

def test_bound_single_confident_row():
    r = nonuniformity_bound_check(np.array([[1.0, 0.0]]), np.array([-1.0]))
    assert abs(r["lhs"] - (-0.5)) < 1e-12
    assert abs(r["rhs"] - (-1.0)) < 1e-12
    assert r["holds"] and r["sandwich_holds"]


def test_bound_uniform_equality():
    x = np.full((4, 3), 1.0 / 3.0)
    r = nonuniformity_bound_check(x, -np.arange(1.0, 5.0))
    assert abs(r["lhs"]) < 1e-12
    assert abs(r["rhs"]) < 1e-12
    assert abs(r["trace"] - r["trace_uniform"]) < 1e-12


def test_bound_zero_weights():
    x = np.array([[0.2, 0.8], [0.6, 0.4]])
    r = nonuniformity_bound_check(x, np.zeros(2))
    assert r["lhs"] == 0.0 and r["rhs"] == 0.0 and r["holds"]


@pytest.mark.parametrize("a, message", [
    (np.array([0.5, -1.0]), "positive weight 5.000e-01; all entries must be <= 0"),
    (np.array([-1.0, -1.0, -1.0]), "weight length does not match X"),
    (np.array([np.nan, -1.0]), "non-finite weights"),
    (-np.ones((2, 1)), "weights must be a vector"),
], ids=["positive", "length", "non-finite", "2-D"])
def test_bound_rejects_bad_weights(a, message):
    x = np.array([[0.2, 0.8], [0.6, 0.4]])
    with pytest.raises(ValueError, match=message):
        nonuniformity_bound_check(x, a)


def test_bound_counts_roundoff_positive_weight_as_zero():
    x = np.array([[0.2, 0.8], [0.6, 0.4]])
    got = nonuniformity_bound_check(x, np.array([1e-12, -1.0]))
    assert got == nonuniformity_bound_check(x, np.array([0.0, -1.0]))


@given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_bound_property(n, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.ones(m), size=n)
    r = nonuniformity_bound_check(x, -rng.random(n) * 3.0)
    assert r["bound_margin"] >= -1e-9
    assert r["sandwich_holds"]


# --- entry statistics ------------------------------------------------------

def test_counts_uniform_matrix():
    x = np.full((5, 7), 1.0 / 7.0)
    assert nonuniformity_counts(x, 0.01) == (35, 0)


def test_counts_one_hot():
    x = np.zeros((4, 7))
    x[np.arange(4), [0, 2, 5, 6]] = 1.0
    near_u, near_one = nonuniformity_counts(x, 0.01)
    assert near_one == 4
    assert near_u == 0  # 0 and 1 are both far from 1/7


def test_counts_eps_validation():
    x = np.full((2, 2), 0.5)
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError, match=f"epsilon must be in \\(0, 1\\), got {eps}"):
            nonuniformity_counts(x, eps)


def test_sweep_and_csv(tmp_path, rng):
    x = rng.dirichlet(np.ones(3), size=6)
    records = nonuniformity_sweep(x)
    assert [r["epsilon"] for r in records] == [0.005, 0.01, 0.02, 0.05]
    # counts can only grow as the window widens
    nu = [r["near_uniform"] for r in records]
    no = [r["near_one"] for r in records]
    assert nu == sorted(nu) and no == sorted(no)

    path = tmp_path / "nu.csv"
    write_nonuniformity_csv(path, records, "gcn-r")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,kind,count,model_tag"
    assert len(lines) == 1 + 2 * len(records)
    assert lines[1] == f"0.005,near_uniform,{records[0]['near_uniform']},gcn-r"
    assert lines[2] == f"0.005,near_one,{records[0]['near_one']},gcn-r"
