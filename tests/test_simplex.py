import numpy as np
import pytest
from scipy.optimize import linprog

from distsig.distributional import Marginals, random_bound_instance, tv_exact
from distsig.simplex import PIVOT_TOL, InfeasibleError, UnboundedError, solve_lp
from oracles import recorded_lps, transport_lp

ORACLE_INSTANCES = 100


def test_single_variable():
    x, val = solve_lp([3.0], [[1.0]], [2.0])
    assert np.allclose(x, [2.0])
    assert abs(val - 6.0) < 1e-12


def test_two_var_pick_cheaper():
    # x1 + x2 = 1, minimize 2 x1 + x2 -> all mass on x2
    x, val = solve_lp([2.0, 1.0], [[1.0, 1.0]], [1.0])
    assert np.allclose(x, [0.0, 1.0], atol=1e-12)
    assert abs(val - 1.0) < 1e-12


def test_known_transport_lp():
    # 2x2 transportation: supplies (0.5, 0.5), demands (0.3, 0.7),
    # cost 1 off-diagonal.  Optimum ships 0.2 across: value 0.2.
    c = np.array([0.0, 1.0, 1.0, 0.0])
    a = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.5, 0.5, 0.3, 0.7])
    x, val = solve_lp(c, a, b)
    assert abs(val - 0.2) < 1e-12
    assert np.allclose(a @ x, b, atol=1e-12)


def test_negative_rhs_normalized():
    # -x1 = -3 must be flipped internally, not declared infeasible
    x, val = solve_lp([1.0], [[-1.0]], [-3.0])
    assert np.allclose(x, [3.0])
    assert abs(val - 3.0) < 1e-12


def test_infeasible():
    # x1 = 1 and x1 = 2 cannot both hold
    with pytest.raises(InfeasibleError):
        solve_lp([1.0], [[1.0], [1.0]], [1.0, 2.0])


def test_infeasible_negative_demand():
    # x1 + x2 = -1 with x >= 0
    with pytest.raises(InfeasibleError):
        solve_lp([1.0, 1.0], [[-1.0, -1.0]], [1.0])


def test_unbounded():
    # x1 - x2 = 0, minimize -x1: grow both without limit
    with pytest.raises(UnboundedError):
        solve_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        solve_lp([1.0, 2.0], [[1.0]], [1.0])


def test_redundant_row_dropped():
    # second row is twice the first; solver must not choke on the
    # rank-deficient system
    x, val = solve_lp([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
    assert abs(np.sum(x) - 1.0) < 1e-12
    assert abs(val - 1.0) < 1e-12


def test_degenerate_vertex():
    # multiple constraints active at the optimum; Bland's rule must terminate
    c = np.array([1.0, 1.0, 0.0])
    a = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    b = np.array([1.0, 1.0])
    x, val = solve_lp(c, a, b)
    assert np.allclose(a @ x, b, atol=1e-12)
    assert abs(val - 1.0) < 1e-12


def test_matches_scipy_on_random_transport():
    rng = np.random.default_rng(42)
    for _ in range(25):
        p, q = rng.integers(2, 6), rng.integers(2, 6)
        supply = rng.random(p) + 0.1
        supply /= supply.sum()
        demand = rng.random(q) + 0.1
        demand /= demand.sum()
        cost = rng.random((p, q))
        # marginal constraints, one per row and column
        a = np.zeros((p + q, p * q))
        for i in range(p):
            a[i, i * q : (i + 1) * q] = 1.0
        for j in range(q):
            a[p + j, j::q] = 1.0
        b = np.concatenate([supply, demand])
        x, val = solve_lp(cost.ravel(), a, b)
        ref = linprog(cost.ravel(), A_eq=a, b_eq=b, method="highs")
        assert ref.status == 0
        assert abs(val - ref.fun) < 1e-8
        assert np.allclose(a @ x, b, atol=1e-9)


def test_matches_scipy_on_random_general():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 15:
        m, n = rng.integers(1, 5), rng.integers(2, 8)
        a = rng.standard_normal((m, n))
        b = a @ rng.random(n)  # feasible by construction
        c = rng.standard_normal(n)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:
            with pytest.raises(UnboundedError):
                solve_lp(c, a, b)
            checked += 1
            continue
        assert ref.status == 0
        x, val = solve_lp(c, a, b)
        assert abs(val - ref.fun) < 1e-7
        checked += 1


def test_solution_exactly_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 6
        a = rng.standard_normal((3, n))
        b = a @ rng.random(n)
        c = rng.standard_normal(n)
        try:
            x, _ = solve_lp(c, a, b)
        except UnboundedError:
            continue
        assert np.min(x) >= 0.0


# --- the row-by-row simplex as an oracle ------------------------------------

def _run_phase_oracle(tab, basis, cost, tol, max_iter):
    """Bland's-rule phase with Python loops over columns and rows."""
    m, width = tab.shape
    ncols = width - 1
    red = np.zeros(width)
    red[:ncols] = cost
    for i in range(m):
        if red[basis[i]] != 0.0:
            red -= red[basis[i]] * tab[i]
    for _ in range(max_iter):
        enter = -1
        for j in range(ncols):
            if red[j] < -tol:
                enter = j
                break
        if enter < 0:
            return red
        leave, best, best_var = -1, np.inf, None
        for i in range(m):
            a = tab[i, enter]
            if a > tol:
                r = tab[i, -1] / a
                if r < best - tol or (abs(r - best) <= tol and (best_var is None or basis[i] < best_var)):
                    leave, best, best_var = i, r, basis[i]
        if leave < 0:
            raise UnboundedError("unbounded objective")
        piv = tab[leave, enter]
        tab[leave] /= piv
        for i in range(m):
            if i != leave and tab[i, enter] != 0.0:
                tab[i] -= tab[i, enter] * tab[leave]
        red -= red[enter] * tab[leave]
        basis[leave] = enter
    raise RuntimeError("simplex iteration cap exceeded")


def solve_lp_oracle(c, a_eq, b_eq, tol=PIVOT_TOL):
    """Two-phase simplex with a column-scanning, row-looping artificial kick-out.

    Also returns how many redundant rows the kick-out dropped.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_eq, dtype=float).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    m, n = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    max_iter = 200 * (m + n + 10)
    tab = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    red = _run_phase_oracle(tab, basis, np.concatenate([np.zeros(n), np.ones(m)]), tol, max_iter)
    if -red[-1] > 1e-9:
        raise InfeasibleError("no feasible point")
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv_col = -1
            for j in range(n):
                if abs(tab[i, j]) > tol:
                    piv_col = j
                    break
            if piv_col < 0:
                continue
            piv = tab[i, piv_col]
            tab[i] /= piv
            for r in range(m):
                if r != i and tab[r, piv_col] != 0.0:
                    tab[r] -= tab[r, piv_col] * tab[i]
            basis[i] = piv_col
        keep.append(i)
    tab = np.hstack([tab[keep][:, :n], tab[keep][:, -1:]])
    basis = [basis[i] for i in keep]
    _run_phase_oracle(tab, basis, c, tol, max_iter)
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = tab[i, -1]
    x = np.maximum(x, 0.0)
    return x, float(c @ x), m - len(keep)


def _assert_bitwise_equal_to_oracle(lps):
    dropped = 0
    for c, a, b in lps:
        x, val = solve_lp(c, a, b)
        x_ref, val_ref, n_dropped = solve_lp_oracle(c, a, b)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(np.signbit(x), np.signbit(x_ref))
        assert val == val_ref
        dropped += n_dropped
    return dropped


def _quarter_marginals(x):
    """Marginals rounded to multiples of 1/4, or None if rounding leaves the simplex."""
    q = np.round(x * 4.0) / 4.0
    q[:, -1] = 1.0 - q[:, :-1].sum(axis=1)
    return None if np.any(q < 0.0) else Marginals(q)


def test_bitwise_equal_to_oracle_on_joint_coupling_lps(monkeypatch):
    # the joint LP of criterion 2's corpus; its marginal rows are redundant
    # (each node's rows sum to 1), so the row-dropping kick-out runs too.
    # Quarter-rounded marginals add degenerate vertices, where tied ratios
    # exercise Bland's tie rule.
    def run():
        for i in range(ORACLE_INSTANCES):
            g, nn = random_bound_instance((0, i))
            tv_exact(g, nn)
            quarters = _quarter_marginals(nn.matrix)
            if quarters is not None:
                tv_exact(g, quarters)

    lps = recorded_lps(monkeypatch, run)
    assert len(lps) > 1.5 * ORACLE_INSTANCES
    assert _assert_bitwise_equal_to_oracle(lps) > 0


def test_bitwise_equal_to_oracle_on_transport_lps():
    rng = np.random.default_rng(31)
    lps = []
    for _ in range(200):
        m = int(rng.integers(2, 7))
        lps.append(transport_lp(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))))
    lps.append(transport_lp([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]))
    assert _assert_bitwise_equal_to_oracle(lps) > 0

