"""Dense primal simplex with Bland's rule, from a feasible basis the caller gives.

Solves min c.x subject to A x = b, x >= 0.  Sized for the tiny exact
transport programs in this package (hundreds of variables, tens of rows);
Bland's anti-cycling rule keeps it deterministic and finite.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-12
# START_TOL is the most negative start value a basis may give.  tv_exact's
# staircase start is negative only in its last cell, by at most the gap
# between two row sums that ``Marginals`` admits, each within ROW_SUM_TOL
# of 1, plus the rounding of the start's few additions of masses <= 1.
ROW_SUM_TOL = 1e-9
START_TOL = 2 * ROW_SUM_TOL + 1e-12


class UnboundedError(RuntimeError):
    pass


def _pivot(tab, row, col):
    """Scale ``row`` so its ``col`` entry is 1, then clear ``col`` elsewhere.

    One subtraction over the whole tableau gives each row with a nonzero
    ``col`` entry the same ``row_i -= a_i * row`` as a row-by-row loop: one
    rounded product, then one rounded difference.  The other rows, which the
    loop skips, subtract a product row of +0.0, and x - (+0.0) is x for every
    x, so results (zero signs included) are bitwise equal to the loop.
    """
    pivot_row = tab[row]
    pivot_row /= pivot_row[col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    prod = factors[:, None] * pivot_row
    prod[factors == 0.0] = 0.0
    tab -= prod


def _run_phase(tab, basis, cost, max_iter):
    """Optimize the tableau in place for the given cost vector.

    tab rows are the constraint rows [coeffs | rhs], then a zero row that
    this fills with the reduced costs of ``cost``; basis maps row -> basic
    column.  Returns the reduced-cost row at optimality.
    """
    tol = PIVOT_TOL
    m, ncols = tab.shape[0] - 1, tab.shape[1] - 1
    red = tab[m]
    red[:ncols] = cost
    for i in range(m):
        if red[basis[i]] != 0.0:
            red -= red[basis[i]] * tab[i]
    for _ in range(max_iter):
        # Bland's entering column: the first with a negative reduced cost
        neg = red[:ncols] < -tol
        enter = int(np.argmax(neg))
        if not neg[enter]:
            return red
        # ratio test over the rows with a positive pivot entry, in row order;
        # ties broken by smallest basic variable index (Bland)
        col = tab[:m, enter]
        rows = (col > tol).nonzero()[0]
        ratios = tab[:m, -1][rows] / col[rows]
        leave, best, best_var = -1, np.inf, None
        for i, r in zip(rows.tolist(), ratios.tolist()):
            if r < best - tol or (abs(r - best) <= tol and (best_var is None or basis[i] < best_var)):
                leave, best, best_var = i, r, basis[i]
        if leave < 0:
            raise UnboundedError("unbounded objective")
        # red[enter] < -tol, so the same elimination updates the reduced costs
        _pivot(tab, leave, enter)
        basis[leave] = enter
    raise RuntimeError("simplex iteration cap exceeded")


def solve_lp(c, a_eq, b_eq, basis):
    """Return (x, value) minimizing c.x over {x >= 0 : A x = b}, in at most
    200 * (rows + columns + 10) pivots after the start.

    ``basis`` holds one column per row, each pivoted in turn on the unused row
    with the largest |entry|; a basis that cannot start raises ``ValueError``.
    """
    c = np.asarray(c, dtype=float)
    m, n = np.shape(a_eq)
    if np.shape(b_eq) != (m,) or c.shape != (n,):
        raise ValueError("LP dimension mismatch")
    if len(basis) != m or len(set(basis)) != m or not all(0 <= j < n for j in basis):
        raise ValueError(f"basis must be {m} distinct columns in [0, {n}), got {list(basis)}")

    tab = np.zeros((m + 1, n + 1))  # the last row is room for the reduced costs
    tab[:m, :n] = a_eq
    tab[:m, n] = b_eq
    by_row = [-1] * m
    for j in basis:
        size = np.abs(tab[:m, j])
        size[np.asarray(by_row) >= 0] = 0.0
        row = int(np.argmax(size))
        if not size[row] > PIVOT_TOL:
            raise ValueError(f"basis column {j} has no pivot above {PIVOT_TOL:g} in an unused row")
        _pivot(tab, row, j)
        by_row[row] = j
    start = np.min(tab[:m, n], initial=0.0)
    if not start >= -START_TOL:  # a NaN start fails too
        raise ValueError(f"basis start value {start:.3e} is below -{START_TOL:g}")

    _run_phase(tab, by_row, c, 200 * (m + n + 10))
    x = np.zeros(n)
    x[by_row] = tab[:m, n]
    # degenerate pivots can leave -1e-15 sized dust
    if not np.min(x) >= -1e-7:  # a NaN component fails too
        raise RuntimeError(f"negative component {np.min(x):.3e} in solution")
    x = np.maximum(x, 0.0)
    return x, float(c @ x)
