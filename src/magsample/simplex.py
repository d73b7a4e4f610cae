"""Dense tableau simplex for the small linear programs used in this package.

:func:`solve_inequality_lp` maximizes ``c @ x`` subject to ``A @ x <= b`` and
``x >= 0`` where ``b >= 0``, so the slack basis is an immediately feasible
start and no phase-one is needed. Each pivot is one rank-1 update of the
tableau, done with numpy alone through a preallocated buffer.
Pricing uses Dantzig's rule for speed and switches permanently to Bland's
rule (which cannot cycle) once the objective stalls over many consecutive
pivots; the leaving row always breaks ratio ties by smallest basis index,
Bland's anti-degeneracy choice.

The tableau only guides pivoting: its slack columns hold the basis inverse,
but with the round-off of every pivot on the path. So the final basis is
inverted by Gauss-Jordan with partial pivoting from the original data, and
the basic primal and dual values formed from that inverse are refined once
and verified directly: primal feasibility, dual feasibility of the
multipliers, complementary slackness, and the duality gap. A failure of any
check raises :class:`~magsample.errors.SolverError` carrying the offending
residual. No BLAS or LAPACK call feeds x or the multipliers, so their bytes
do not depend on the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

# Always None: there is no BLAS rank-1 path. perfbench records whether it is set.
_dger = None

_MAX_PIVOTS = 100000
_STALL_PIVOTS = 200
_PIVOT_TOL = 1e-9  # at 1e-11, round-off pivots could end on an infeasible basis
_COST_TOL = 1e-9
_PRIMAL_TOL = 1e-9
_DUAL_TOL = 1e-7
_GAP_TOL = 1e-6


@dataclass
class LpSolution:
    """Certified solution of an inequality-form LP."""

    x: np.ndarray          # primal variables, length n
    duals: np.ndarray      # multipliers of the <= rows, length m
    objective: float
    iterations: int
    basis: np.ndarray
    residuals: dict        # eq, neg, dual, gap, comp: the verified residuals


def lp_peak_bytes(m: int, n: int) -> int:
    """Bytes that :func:`solve_inequality_lp` holds at once for an m x n ``A``,
    besides ``A`` itself: what it holds while it pivots, the tableau, its scratch
    copy, and numpy's two buffers of ``np.getbufsize()`` doubles for the
    broadcast rank-1 product. Inverting the final basis and verifying the
    solution hold less."""
    return 8 * (2 * (m + 1) * (n + m + 1) + 2 * np.getbufsize())


def solve_inequality_lp(c, A, b) -> LpSolution:
    """Maximize ``c @ x`` s.t. ``A @ x <= b``, ``x >= 0`` (requires ``b >= 0``)."""
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise SolverError("inconsistent LP dimensions")
    if np.any(b < 0):
        raise SolverError("slack start requires a nonnegative right-hand side")

    basis, Binv, iterations = _pivot(c, A, b)

    # refine x_B and y once against the original data
    cfull = np.concatenate([c, np.zeros(m)])
    full = np.concatenate([A, np.eye(m)], axis=1)
    xfull = np.zeros(n + m)
    xfull[basis] = np.einsum("ij,j->i", Binv, b)
    xfull[basis] += np.einsum("ij,j->i", Binv, b - np.einsum("ij,j->i", full, xfull))
    y = np.einsum("i,ij->j", cfull[basis], Binv)
    y += np.einsum("i,ij->j", cfull[basis] - np.einsum("ij,i->j", full, y)[basis], Binv)
    # A row whose slack is basic has multiplier 0 by complementary slackness;
    # B^-1 leaves round-off there, which a caller would read as weight.
    y[basis[basis >= n] - n] = 0.0

    objective = float(c @ xfull[:n])
    eq_residual = float(np.max(np.abs(full @ xfull - b))) if m else 0.0
    neg_residual = float(max(0.0, -xfull.min())) if xfull.size else 0.0
    reduced = cfull - full.T @ y
    dual_residual = float(max(0.0, reduced.max()))
    gap = abs(objective - float(b @ y))
    comp = float(np.max(np.abs(xfull * reduced))) if xfull.size else 0.0

    residuals = {"eq": eq_residual, "neg": neg_residual, "dual": dual_residual,
                 "gap": gap, "comp": comp}

    if not (  # so that a NaN fails
        eq_residual <= 1e-6
        and neg_residual <= _PRIMAL_TOL
        and dual_residual <= _DUAL_TOL
        and gap <= _GAP_TOL * max(1.0, abs(objective))
        and comp <= 1e-6 * max(1.0, abs(objective))
    ):
        text = ", ".join(f"{k}={v:.2e}" for k, v in residuals.items())
        raise SolverError(f"final basis failed verification ({text})",
                          residual=max(eq_residual, neg_residual, dual_residual, comp))

    return LpSolution(x=xfull[:n], duals=y, objective=objective, iterations=iterations,
                      basis=basis, residuals=residuals)


def _pivot(c, A, b):
    """The final basis, its inverse and the pivot count: the inverse by Gauss-Jordan
    on ``[A_S | I]``, each column at its largest entry in a row whose slack leaves."""
    m, n = A.shape
    final, iterations = _final_basis(c, A, b)
    S = np.sort(final[final < n])
    R = np.concatenate([A[:, S], np.eye(m)], axis=1)
    scratch = np.empty_like(R)
    basis, leaving = np.arange(n, n + m), ~np.isin(np.arange(n, n + m), final)
    for k, j in enumerate(S):
        rows = np.flatnonzero(leaving)
        r = rows[np.argmax(np.abs(R[rows, k]))]
        _update(R, r, k, scratch)
        basis[r], leaving[r] = j, False
    del scratch
    return basis, R[:, S.size:].copy(), iterations


def _final_basis(c, A, b):
    """The final basis and the pivot count of the simplex on the tableau ``[A | I | b]``
    over ``-c`` from the slack basis; the tableau is freed before the inversion."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n:-1], T[:m, -1], T[m, :n] = A, np.eye(m), b, -c
    basis = np.arange(n, n + m)
    bland, stall, last_obj, iterations = False, 0, 0.0, 0
    scratch = np.empty_like(T)  # rank-1 update buffer, reused every pivot

    while True:
        red = T[m, : n + m]
        if bland:
            negs = np.flatnonzero(red < -_COST_TOL)
            if negs.size == 0:
                return basis, iterations
            j = int(negs[0])
        else:
            j = int(np.argmin(red))
            if red[j] >= -_COST_TOL:
                return basis, iterations
        if iterations >= _MAX_PIVOTS:
            raise SolverError(f"simplex iteration budget ({_MAX_PIVOTS}) exhausted",
                              residual=float(max(0.0, -red.min())))
        col = T[:m, j]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            raise SolverError(f"linear program is unbounded along variable {j}")
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min()]
        r = int(ties[np.argmin(basis[ties])])
        _update(T, r, j, scratch)
        basis[r] = j
        iterations += 1
        stall = stall + 1 if T[m, -1] <= last_obj + 1e-13 else 0
        bland = bland or stall >= _STALL_PIVOTS
        last_obj = T[m, -1]


def _update(T, r, j, scratch):
    """Pivot T on row r and column j: one rank-1 update through ``scratch``."""
    T[r] /= T[r, j]
    colv = T[:, j].copy()
    colv[r] = 0.0  # so row r, already divided, is left as it is
    np.multiply(colv[:, None], T[r][None, :], out=scratch)
    np.subtract(T, scratch, out=T)
    T[:, j] = 0.0
    T[r, j] = 1.0
