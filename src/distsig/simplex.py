"""Dense two-phase primal simplex with Bland's rule.

Solves min c.x subject to A x = b, x >= 0.  Sized for the tiny exact
transport programs in this package (hundreds of variables, tens of rows);
Bland's anti-cycling rule keeps it deterministic and finite.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-12


class InfeasibleError(RuntimeError):
    pass


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


def solve_lp(c, a_eq, b_eq):
    """Return (x, value) minimizing c.x over {x >= 0 : A x = b}.

    Each phase is capped at 200 * (rows + columns + 10) pivots.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_eq, dtype=float).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("LP dimension mismatch")
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    max_iter = 200 * (m + n + 10)

    # phase 1: artificial basis, drive the artificials to zero
    tab = np.hstack([a, np.eye(m), b[:, None]])
    tab = np.vstack([tab, np.zeros(n + m + 1)])  # room for the reduced costs
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    red = _run_phase(tab, basis, cost1, max_iter)
    phase1_val = -red[-1]
    if phase1_val > 1e-9:
        raise InfeasibleError(f"no feasible point (phase-1 value {phase1_val:.3e})")

    # kick residual artificials out of the basis; a row with no real pivot
    # is a redundant constraint and gets dropped
    tab = tab[:m]  # phase 2 sets up its own reduced costs
    keep = []
    for i in range(m):
        if basis[i] >= n:
            cols = (np.abs(tab[i, :n]) > PIVOT_TOL).nonzero()[0]
            if cols.size == 0:
                continue
            basis[i] = int(cols[0])
            _pivot(tab, i, basis[i])
        keep.append(i)
    tab = np.hstack([tab[keep][:, :n], tab[keep][:, -1:]])
    tab = np.vstack([tab, np.zeros(n + 1)])
    basis = [basis[i] for i in keep]

    _run_phase(tab, basis, c, max_iter)
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = tab[i, -1]
    # degenerate pivots can leave -1e-15 sized dust
    if np.min(x) < -1e-7:
        raise RuntimeError(f"negative component {np.min(x):.3e} in solution")
    x = np.maximum(x, 0.0)
    return x, float(c @ x)
