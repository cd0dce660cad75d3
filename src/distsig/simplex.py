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

    Only rows with a nonzero ``col`` entry are updated, each by the same
    ``row_i -= a_i * row`` as a row-by-row loop, so results (zero signs
    included) are bitwise equal to it.
    """
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    tab[rows] -= factors[rows, None] * tab[row]


def _run_phase(tab, basis, cost, max_iter):
    """Optimize the tableau in place for the given cost vector.

    tab rows are the constraint rows [coeffs | rhs]; basis maps row -> basic
    column.  Returns the reduced-cost row at optimality.
    """
    tol = PIVOT_TOL
    m, width = tab.shape
    ncols = width - 1
    red = np.zeros(width)
    red[:ncols] = cost
    for i in range(m):
        if red[basis[i]] != 0.0:
            red -= red[basis[i]] * tab[i]
    for _ in range(max_iter):
        candidates = (red[:ncols] < -tol).nonzero()[0]
        if candidates.size == 0:
            return red
        enter = int(candidates[0])
        # ratio test over the rows with a positive pivot entry, in row order;
        # ties broken by smallest basic variable index (Bland)
        rows = (tab[:, enter] > tol).nonzero()[0]
        ratios = tab[rows, -1] / tab[rows, enter]
        leave, best, best_var = -1, np.inf, None
        for i, r in zip(rows.tolist(), ratios.tolist()):
            if r < best - tol or (abs(r - best) <= tol and (best_var is None or basis[i] < best_var)):
                leave, best, best_var = i, r, basis[i]
        if leave < 0:
            raise UnboundedError("unbounded objective")
        _pivot(tab, leave, enter)
        red -= red[enter] * tab[leave]
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
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    red = _run_phase(tab, basis, cost1, max_iter)
    phase1_val = -red[-1]
    if phase1_val > 1e-9:
        raise InfeasibleError(f"no feasible point (phase-1 value {phase1_val:.3e})")

    # kick residual artificials out of the basis; a row with no real pivot
    # is a redundant constraint and gets dropped
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
