"""Small dense two-phase simplex solver.

Minimizes c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0, and returns
the optimal x with its objective, or raises :class:`InfeasibleError` or
:class:`UnboundedError`.  Entering and leaving variables follow Bland's
rule, so the iteration cannot cycle even on the degenerate right-hand sides
this package produces (constraint rows with b = 0).  Pivot tolerance is
1e-10.  Problems here are desk scale (tens of variables), so no
factorization or sparsity is attempted.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8


class InfeasibleError(Exception):
    """No point satisfies every constraint."""


class UnboundedError(Exception):
    """The feasible region allows the objective to decrease without limit."""


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * tab[row]
    basis[row] = col


def _iterate(tab: np.ndarray, basis: np.ndarray, ncols: int) -> None:
    """Run Bland-rule pivots until the cost row has no negative reduced cost.

    ``tab`` has m constraint rows then the cost row; column ncols is the rhs.
    """
    m = tab.shape[0] - 1
    while True:
        cost = tab[-1, :ncols]
        enter = -1
        for j in range(ncols):
            if cost[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return
        leave, best_ratio, best_basis = -1, np.inf, -1
        for i in range(m):
            a = tab[i, enter]
            if a > PIVOT_TOL:
                ratio = tab[i, ncols] / a
                if (ratio < best_ratio - PIVOT_TOL
                        or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < best_basis)):
                    leave, best_ratio, best_basis = i, ratio, int(basis[i])
        if leave < 0:
            raise UnboundedError(f"no blocking row for entering column {enter}")
        _pivot(tab, basis, leave, enter)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> tuple[np.ndarray, float]:
    """Two-phase dense simplex over nonnegative variables: the optimal values
    of the original variables and the optimal objective."""
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]

    def block(A, b):
        if A is None:
            return np.zeros((0, n)), np.zeros(0)
        return (np.asarray(A, dtype=np.float64).reshape(-1, n),
                np.asarray(b, dtype=np.float64).ravel())

    (A_ub, b_ub), (A_eq, b_eq) = block(A_ub, b_ub), block(A_eq, b_eq)
    n_slack, m = len(A_ub), len(A_ub) + len(A_eq)
    if m == 0:
        raise ValueError("no constraints")

    # inequality rows first, each with its own slack column, then equality
    # rows; a row whose rhs is negative is negated
    width = n + n_slack
    A = np.zeros((m, width), dtype=np.float64)
    A[:, :n] = np.vstack([A_ub, A_eq])
    A[np.arange(n_slack), n + np.arange(n_slack)] = 1.0
    b = np.concatenate([b_ub, b_eq])
    flip = b < 0.0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # initial basis: the slack columns of rows not negated, artificials elsewhere
    basis = np.where((np.arange(m) < n_slack) & ~flip, n + np.arange(m), -1)
    need_art = np.nonzero(basis < 0)[0]
    n_art = len(need_art)
    total = width + n_art
    tab = np.zeros((m + 1, total + 1), dtype=np.float64)
    tab[:m, :width] = A
    tab[:m, total] = b
    tab[need_art, width + np.arange(n_art)] = 1.0
    basis[need_art] = width + np.arange(n_art)

    if n_art:
        # phase 1: minimize the artificial sum, which is bounded below by 0
        tab[-1, width:total] = 1.0
        for i in range(m):
            if basis[i] >= width:
                tab[-1] -= tab[i]
        _iterate(tab, basis, total)
        if -tab[-1, total] > FEAS_TOL:
            raise InfeasibleError(f"phase 1 ends at artificial sum {-tab[-1, total]!r}")
        # drive leftover artificials out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] >= width:
                piv = -1
                for j in range(width):
                    if abs(tab[i, j]) > PIVOT_TOL:
                        piv = j
                        break
                if piv >= 0:
                    _pivot(tab, basis, i, piv)
                else:
                    drop_rows.append(i)  # redundant constraint
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            tab = np.vstack([tab[keep], tab[-1:]])
            basis = basis[keep]
            m = len(keep)

    # phase 2 over the real columns only
    tab2 = np.zeros((m + 1, width + 1), dtype=np.float64)
    tab2[:m, :width] = tab[:m, :width]
    tab2[:m, width] = tab[:m, total]
    tab2[-1, :n] = c
    for i in range(m):
        bj = int(basis[i])
        if tab2[-1, bj] != 0.0:
            tab2[-1] -= tab2[-1, bj] * tab2[i]
    _iterate(tab2, basis, width)

    x = np.zeros(width, dtype=np.float64)
    for i in range(m):
        x[int(basis[i])] = tab2[i, width]
    return x[:n].copy(), float(c @ x[:n])
