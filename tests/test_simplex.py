import numpy as np
import pytest
from scipy.optimize import linprog

from distsig.distributional import BOUND_CORPUS, Marginals, random_bound_instance, tv_exact
from distsig.graph import build_graph
from distsig.simplex import PIVOT_TOL, UnboundedError, solve_lp
from oracles import InfeasibleError, recorded_lps, solve_lp_two_phase, tv_exact_two_phase

ORACLE_INSTANCES = 100


def test_single_variable():
    x, val = solve_lp([3.0], [[1.0]], [2.0], [0])
    assert np.allclose(x, [2.0])
    assert abs(val - 6.0) < 1e-12


def test_two_var_pick_cheaper():
    # x1 + x2 = 1, minimize 2 x1 + x2 -> all mass on x2, from the start x1 = 1
    x, val = solve_lp([2.0, 1.0], [[1.0, 1.0]], [1.0], [0])
    assert np.allclose(x, [0.0, 1.0], atol=1e-12)
    assert abs(val - 1.0) < 1e-12


def _north_west_corner(supply, demand):
    """The transportation problem's north-west-corner cells, as indices of
    the row-major p x q plan: p + q - 1 of them."""
    s, d = list(supply), list(demand)
    i = j = 0
    cells = [0]
    while i < len(s) - 1 or j < len(d) - 1:
        t = min(s[i], d[j])
        s[i] -= t
        d[j] -= t
        if j == len(d) - 1 or (i < len(s) - 1 and s[i] <= d[j]):
            i += 1
        else:
            j += 1
        cells.append(i * len(d) + j)
    return cells


def test_known_transport_lp():
    # 2x2 transportation: supplies (0.5, 0.5), demands (0.3, 0.7),
    # cost 1 off-diagonal.  Optimum ships 0.2 across: value 0.2.  The last
    # demand row follows from the others and is left out.
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
    basis = _north_west_corner([0.5, 0.5], [0.3, 0.7])
    assert basis == [0, 1, 3]
    x, val = solve_lp(c, a[:3], b[:3], basis)
    assert abs(val - 0.2) < 1e-12
    assert np.allclose(a @ x, b, atol=1e-12)


def test_negative_rhs_normalized():
    # -x1 = -3 must be flipped internally, not declared infeasible
    x, val = solve_lp_two_phase([1.0], [[-1.0]], [-3.0])
    assert np.allclose(x, [3.0])
    assert abs(val - 3.0) < 1e-12


def test_infeasible():
    # x1 = 1 and x1 = 2 cannot both hold
    with pytest.raises(InfeasibleError):
        solve_lp_two_phase([1.0], [[1.0], [1.0]], [1.0, 2.0])


def test_infeasible_negative_demand():
    # x1 + x2 = -1 with x >= 0
    with pytest.raises(InfeasibleError):
        solve_lp_two_phase([1.0, 1.0], [[-1.0, -1.0]], [1.0])


def test_unbounded():
    # x1 - x2 = 0, minimize -x1: grow both without limit
    with pytest.raises(UnboundedError):
        solve_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0], [0])


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        solve_lp([1.0, 2.0], [[1.0]], [1.0], [0])


@pytest.mark.parametrize("a, b, basis, match", [
    ([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], [0], r"2 distinct columns in \[0, 2\), got \[0\]"),
    ([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], [0, 1, 1], "basis must be 2 distinct columns"),
    ([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], [1, 1], "basis must be 2 distinct columns"),
    ([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], [0, 2], r"distinct columns in \[0, 2\)"),
    ([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], [-1, 0], r"distinct columns in \[0, 2\)"),
    # column 2 repeats column 0, so nothing is left to pivot it on
    ([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]], [1.0, 0.0], [0, 2], "column 2 has no pivot above 1e-12"),
    ([[1.0, 1.0, 0.0], [0.0, 0.0, 1e-13]], [1.0, 0.0], [0, 2], "column 2 has no pivot above 1e-12"),
    # x1 = -3e-9 at the start, beyond the -2.001e-9 that row-sum gaps can give
    ([[1.0, 1.0], [0.0, 1.0]], [1.0, 1.0 + 3e-9], [0, 1], "start value -3.000e-09 is below -2.001e-09"),
])
def test_bad_basis_refused_before_any_optimization(monkeypatch, a, b, basis, match):
    ran = []
    monkeypatch.setattr("distsig.simplex._run_phase", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=match):
        solve_lp(np.zeros(len(a[0])), a, b, basis)
    assert not ran


def test_redundant_row_dropped():
    # second row is twice the first; solver must not choke on the
    # rank-deficient system
    x, val = solve_lp_two_phase([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
    assert abs(np.sum(x) - 1.0) < 1e-12
    assert abs(val - 1.0) < 1e-12


def test_degenerate_vertex():
    # multiple constraints active at the optimum; Bland's rule must terminate
    c = np.array([1.0, 1.0, 0.0])
    a = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    b = np.array([1.0, 1.0])
    x, val = solve_lp(c, a, b, [2, 1])
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
        basis = _north_west_corner(supply, demand)
        x, val = solve_lp(cost.ravel(), a[:-1], b[:-1], basis)
        ref = linprog(cost.ravel(), A_eq=a, b_eq=b, method="highs")
        assert ref.status == 0
        assert abs(val - ref.fun) < 1e-8
        assert np.allclose(a @ x, b, atol=1e-9)


def _general_lp(rng, m, n):
    """A random LP whose first basic solution is feasible by construction:
    b puts positive values on a random basis."""
    a = rng.standard_normal((m, n))
    basis = rng.choice(n, m, replace=False).tolist()
    b = a[:, basis] @ (rng.random(m) + 0.1)
    return rng.standard_normal(n), a, b, basis


def test_matches_scipy_on_random_general():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 15:
        m, n = rng.integers(1, 5), rng.integers(5, 8)
        c, a, b, basis = _general_lp(rng, m, n)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:
            with pytest.raises(UnboundedError):
                solve_lp(c, a, b, basis)
            checked += 1
            continue
        assert ref.status == 0
        x, val = solve_lp(c, a, b, basis)
        assert abs(val - ref.fun) < 1e-7
        checked += 1


def test_solution_exactly_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        c, a, b, basis = _general_lp(rng, 3, 6)
        try:
            x, _ = solve_lp(c, a, b, basis)
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


def solve_lp_oracle(c, a_eq, b_eq, basis, tol=PIVOT_TOL):
    """The simplex from a basis, with row loops to set it up and to pivot."""
    c = np.asarray(c, dtype=float)
    tab = np.hstack([np.asarray(a_eq, dtype=float), np.asarray(b_eq, dtype=float)[:, None]])
    m, n = tab.shape[0], tab.shape[1] - 1
    by_row = [-1] * m
    for j in basis:
        row, size = -1, tol
        for i in range(m):  # the unused row with the largest |entry|, first on ties
            if by_row[i] < 0 and abs(tab[i, j]) > size:
                row, size = i, abs(tab[i, j])
        assert row >= 0, f"column {j} has no pivot"
        tab[row] /= tab[row, j]
        for i in range(m):
            if i != row and tab[i, j] != 0.0:
                tab[i] -= tab[i, j] * tab[row]
        by_row[row] = j
    _run_phase_oracle(tab, by_row, c, tol, 200 * (m + n + 10))
    x = np.zeros(n)
    for i, bi in enumerate(by_row):
        x[bi] = tab[i, -1]
    x = np.maximum(x, 0.0)
    return x, float(c @ x)


def _assert_bitwise_equal_to_oracle(lps):
    for c, a, b, basis in lps:
        x, val = solve_lp(c, a, b, basis)
        x_ref, val_ref = solve_lp_oracle(c, a, b, basis)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(np.signbit(x), np.signbit(x_ref))
        assert val == val_ref


def _quarter_marginals(x):
    """Marginals rounded to multiples of 1/4, or None if rounding leaves the simplex."""
    q = np.round(x * 4.0) / 4.0
    q[:, -1] = 1.0 - q[:, :-1].sum(axis=1)
    return None if np.any(q < 0.0) else Marginals(q)


def _corpus_with_quarters(count):
    """Criterion 2's first ``count`` instances, each followed by its
    quarter-rounded marginals where those stay on the simplex."""
    for i in range(count):
        g, nn = random_bound_instance((0, i), *BOUND_CORPUS)
        yield g, nn
        quarters = _quarter_marginals(nn.matrix)
        if quarters is not None:
            yield g, quarters


def test_bitwise_equal_to_oracle_on_joint_coupling_lps(monkeypatch):
    # the joint LP of criterion 2's corpus, from its staircase start.
    # Quarter-rounded marginals add degenerate vertices, where tied ratios
    # exercise Bland's tie rule.
    def run():
        for g, nn in _corpus_with_quarters(ORACLE_INSTANCES):
            tv_exact(g, nn)

    lps = recorded_lps(monkeypatch, run)
    assert len(lps) > 1.5 * ORACLE_INSTANCES
    _assert_bitwise_equal_to_oracle(lps)


def test_bitwise_equal_to_oracle_on_general_lps():
    # dense random columns, where the set-up's choice of pivot row changes bits
    rng = np.random.default_rng(5)
    lps = [_general_lp(rng, int(rng.integers(2, 6)), 8) for _ in range(60)]
    bounded = []
    for c, a, b, basis in lps:
        try:
            solve_lp_oracle(c, a, b, basis)
        except UnboundedError:
            with pytest.raises(UnboundedError):
                solve_lp(c, a, b, basis)
            continue
        bounded.append((c, a, b, basis))
    assert len(bounded) >= 20
    _assert_bitwise_equal_to_oracle(bounded)


def test_bitwise_equal_to_oracle_on_transport_lps(monkeypatch):
    # on one edge the joint LP is the transport LP of the two marginals,
    # less its last column-sum row
    rng = np.random.default_rng(31)
    edge = build_graph(2, [(0, 1)])
    pairs = []
    for _ in range(200):
        m = int(rng.integers(2, 7))
        pairs.append(np.vstack([rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))]))
    pairs.append(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    lps = recorded_lps(monkeypatch, lambda: [tv_exact(edge, x) for x in pairs])
    assert len(lps) == len(pairs)
    _assert_bitwise_equal_to_oracle(lps)


def test_staircase_value_equals_two_phase_reference_on_corpus():
    # criterion 2's 500 instances and their quarter-rounded marginals: the
    # staircase start and phase 1 reach the same optimum up to rounding
    count = 0
    for g, nn in _corpus_with_quarters(500):
        assert abs(tv_exact(g, nn) - tv_exact_two_phase(g, nn)) <= 1e-12
        count += 1
    assert count > 750
