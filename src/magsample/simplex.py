"""Dense tableau simplex for the small linear programs used in this package.

:func:`solve_inequality_lp` maximizes ``c @ x`` subject to ``A @ x <= b`` and
``x >= 0`` where ``b >= 0``, so the slack basis is an immediately feasible
start and no phase-one is needed. Each pivot is one rank-1 update of the
tableau, done with numpy alone through a preallocated buffer.
Pricing uses Dantzig's rule for speed and switches permanently to Bland's
rule (which cannot cycle) once the objective stalls over many consecutive
pivots; the leaving row always breaks ratio ties by smallest basis index,
Bland's anti-degeneracy choice.

The reported solution is never read off the tableau. After termination the
final basis is refactorized against the original data and the solution is
verified directly: primal feasibility, dual feasibility of the multipliers,
complementary slackness, and the duality gap. A failure of any check raises
:class:`~magsample.errors.SolverError` carrying the offending residual.
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
    slacks: np.ndarray     # b - A @ x
    objective: float
    iterations: int
    basis: np.ndarray
    residuals: dict        # eq, neg, dual, gap, comp: the verified residuals


def lp_peak_bytes(m: int, n: int) -> int:
    """Bytes that :func:`solve_inequality_lp` holds at once for an m x n ``A``,
    besides ``A`` itself: the larger of what it holds while it pivots (the
    tableau, its scratch copy, and numpy's two buffers of ``np.getbufsize()``
    doubles for the broadcast rank-1 product) and ``[A | I]`` with the final
    basis matrix, when it is refactorized."""
    pivoting = 2 * (m + 1) * (n + m + 1) + 2 * np.getbufsize()
    return 8 * max(pivoting, m * (n + m) + m * m)


def solve_inequality_lp(c, A, b) -> LpSolution:
    """Maximize ``c @ x`` s.t. ``A @ x <= b``, ``x >= 0`` (requires ``b >= 0``)."""
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise SolverError("inconsistent LP dimensions")
    if np.any(b < 0):
        raise SolverError("slack start requires a nonnegative right-hand side")

    basis, iterations = _pivot(c, A, b)

    # Refactorize from the original data; the tableau only guided pivoting.
    cfull = np.concatenate([c, np.zeros(m)])
    full = np.concatenate([A, np.eye(m)], axis=1)
    B = full[:, basis]
    try:
        xb = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, cfull[basis])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular final basis: {exc}") from exc
    # A row whose slack is basic has multiplier 0 by complementary slackness;
    # the solve leaves round-off there, which a caller would read as weight.
    y[basis[basis >= n] - n] = 0.0
    xfull = np.zeros(n + m)
    xfull[basis] = xb

    objective = float(c @ xfull[:n])
    eq_residual = float(np.max(np.abs(full @ xfull - b))) if m else 0.0
    neg_residual = float(max(0.0, -xfull.min())) if xfull.size else 0.0
    reduced = cfull - full.T @ y
    dual_residual = float(max(0.0, reduced.max()))
    gap = abs(objective - float(b @ y))
    comp = float(np.max(np.abs(xfull * reduced))) if xfull.size else 0.0

    residuals = {"eq": eq_residual, "neg": neg_residual, "dual": dual_residual,
                 "gap": gap, "comp": comp}

    if (
        eq_residual > 1e-6
        or neg_residual > _PRIMAL_TOL
        or dual_residual > _DUAL_TOL
        or gap > _GAP_TOL * max(1.0, abs(objective))
        or comp > 1e-6 * max(1.0, abs(objective))
    ):
        raise SolverError(
            "final basis failed verification ("
            + ", ".join(f"{k}={v:.2e}" for k, v in residuals.items()) + ")",
            residual=max(eq_residual, neg_residual, dual_residual, comp),
        )

    return LpSolution(
        x=xfull[:n],
        duals=y,
        slacks=xfull[n:],
        objective=objective,
        iterations=iterations,
        basis=basis,
        residuals=residuals,
    )


def _pivot(c, A, b):
    """The final basis and the pivot count of the simplex on the tableau
    ``[A | I | b]`` over ``-c``, started from the slack basis. The tableau
    lives only here, so it is freed before the refactorization."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c

    basis = np.arange(n, n + m)
    bland = False
    stall = 0
    last_obj = 0.0
    iterations = 0
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
            raise SolverError(
                f"simplex iteration budget ({_MAX_PIVOTS}) exhausted",
                residual=float(max(0.0, -red.min())),
            )
        col = T[:m, j]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            raise SolverError(f"linear program is unbounded along variable {j}")
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min()]
        r = int(ties[np.argmin(basis[ties])])

        T[r] /= T[r, j]
        colv = T[:, j].copy()
        colv[r] = 0.0  # so row r, already divided, is left as it is
        np.multiply(colv[:, None], T[r][None, :], out=scratch)
        np.subtract(T, scratch, out=T)
        T[:, j] = 0.0
        T[r, j] = 1.0
        basis[r] = j
        iterations += 1

        stall = stall + 1 if T[m, -1] <= last_obj + 1e-13 else 0
        bland = bland or stall >= _STALL_PIVOTS
        last_obj = T[m, -1]
