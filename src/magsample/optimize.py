"""Optimized sampling distributions over a magnification range.

Two objectives are supported:

* max-average with entropy regularization, whose maximizer has the closed
  Gibbs form p(x) proportional to exp(tp(x) / lambda), where tp is the
  kernel's transfer potential;
* max-min, which maximizes the worst-case signal over all targets and is
  solved as a matrix game on a uniform grid of cell midpoints.

The max-min problem ``max t s.t. K q >= t, sum q = 1, q >= 0`` is a game
with value 1/Z. If K u = 1 and K'y = 1 have strictly positive solutions, the
game is completely mixed and its unique solution is q = u / Z, r = y / Z
with Z = sum(u) (Kaplansky 1945).

The game sees K through a lazy view, ``_Game``: its rows and columns are
evaluated through ``Kernel.__call__`` when a path asks for them and kept by
grid index. The dense n x n K is built at most once, only for the equalizer
and the full simplex, and only if its 8 n^2 bytes fit in ``_DENSE_BYTES``
(1 GiB, grid <= 11585); past that the game is a ParameterError. The path is
chosen from the kernel's structure; ``MaxMinSolution.solver`` names the one
that solved the game:

* ``"green"``: a kernel K(x, y) = p(min(x, y)) q(max(x, y)), such as info,
  declares p and q. K^-1 is tridiagonal (Gantmacher & Krein), so u comes from
  two difference passes, and K w from a prefix and a suffix sum: O(n) each.
* ``"toeplitz"``: a stationary kernel, K(x, y) = k(|x - y|), such as abs,
  declares so. On the uniform grid its K is the symmetric Toeplitz matrix of
  its first column. u comes from conjugate gradients with T. Chan's circulant
  preconditioner (Chan 1988), and K w from FFTs of twice the grid's length.
* ``"nodes"``: a kernel linear in each argument between declared nodes, such
  as a table, declares them. K q is then linear in the target between
  x-nodes and K'r in the source between y-nodes, so the game on the grid
  points next to the nodes, evaluated once, has the grid game's value and
  solution: one LP, if that block fits the double oracle's size bound.
* ``"equalizer"``: u by one LU of the dense K; y = u when K equals its
  transpose exactly, else y by a second solve.
* ``"double_oracle"``: the game is solved on a few sources and targets, grown
  by full-grid best responses (McMahan, Gordon & Blum 2003), from only the
  rows and columns of K that they add. Each restricted game is the LP pair
  ``min 1'u : K u >= 1`` / ``max 1'y : K'y <= 1`` on the dense simplex. This
  suits sparse solutions, such as those of tabulated kernels.
* ``"simplex"``: the same LP pair on the full grid, only for a restricted game
  that outgrows ``grid_n // _DO_SIZE_DIVISOR`` cells.

The structured paths come first. The Green's and Toeplitz paths run only if
their declaration matches ``Kernel.__call__`` on O(n) grid pairs; positivity
then follows from the declaration, and y = u. The node path takes positivity
from its block, which holds K's minimum. A path whose check fails, whose u is
not strictly positive or whose certificate does not close falls through, and
so does a node block past the size bound. Then an exactly symmetric K takes
the equalizer. Any other K first gets ``_PROBE_ROUNDS`` double-oracle rounds,
which finish sparse games such as those of tables with too many nodes, then
the equalizer, the double oracle resumed up to the size bound, and the full
simplex. A table's rows next to its nodes hold every column minimum, and so
its positivity, and usually a pair that shows K is not symmetric; without
such a witness, and for a kernel that declares nothing, the dense K decides.

On every path q and the adversary weights r certify optimality: min(K q) <=
t* <= max(K'r), computed with the path's own products by K (prefix sums,
FFTs, the full columns and rows of the support on the node and double-oracle
paths, or the dense K). README "Numerical notes" gives each path's cost and
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import SamplingDistribution
from .errors import DomainError, ParameterError, SolverError
from .kernels import Kernel, MagRange
from .signal import total_signal
from .simplex import solve_inequality_lp

MAX_AVG_ENTROPY = "maxavg"
MAX_MIN = "maxmin"

_CERT_GAP_TOL = 1e-6

# The double oracle gives up on the restricted game once its targets or sources
# number more than grid_n // _DO_SIZE_DIVISOR. Its cost grows steeply with that
# size k (k rounds, each a k x k LP); a completely mixed game would take n
# rounds, far more than the full-grid simplex's n pivots. At grid 1000 on
# 2 vCPU, growing to k = 125 takes about 0.8 s, as long as a full simplex of
# some 60 pivots on the sparse tabulated games, so the bound sits near
# break-even.
_DO_SIZE_DIVISOR = 8

# A game whose K is not exactly symmetric first gets this many double-oracle
# rounds, before any n x n solve. The benchmark's tabulated games, which now
# take the node path, finish in 13-25 rounds (seeds 2-21, grid 1000) when
# driven through the double oracle. A completely mixed game cannot finish
# on so few cells; at grid 1000 on 2 vCPU its 32 rounds take 16-19 ms, which
# it pays on top of the 25 ms LU of its equalizer.
_PROBE_ROUNDS = 32

# The dense K is built only if its 8 n^2 bytes fit in this: grid <= 11585.
_DENSE_BYTES = 1 << 30

# Rows of K per kernel call when the dense K is built, as signal builds its blocks.
_ROW_BLOCK = 256

# A declared structure must match Kernel.__call__ to this relative tolerance.
_DECLARATION_RTOL = 1e-12

# Conjugate gradients stop once ||1 - K u|| <= _CG_TOL * sqrt(n), ||1|| being
# sqrt(n), or give up after _CG_MAX_ITER iterations. With T. Chan's
# preconditioner the abs kernel takes 5-10 at grids 10 to 20000.
_CG_TOL = 1e-15
_CG_MAX_ITER = 100


@dataclass
class OptimizationConfig:
    """Objective, kernel, and discretization for a distribution search."""

    objective: str
    kernel: Kernel
    mag_range: MagRange = field(default_factory=MagRange)
    grid_n: int = 1000
    lam: float = 1.0

    def __post_init__(self):
        if self.objective not in (MAX_AVG_ENTROPY, MAX_MIN):
            raise ParameterError(
                f"objective must be {MAX_AVG_ENTROPY!r} or {MAX_MIN!r}, got {self.objective!r}"
            )
        if self.grid_n < 10:
            raise ParameterError(f"grid size must be >= 10, got {self.grid_n}")
        if self.objective == MAX_AVG_ENTROPY and not self.lam > 0.0:
            raise ParameterError(f"entropy weight must be positive, got {self.lam}")


@dataclass
class MaxMinSolution:
    """Max-min distribution with its certified worst-case signal."""

    distribution: SamplingDistribution
    achieved_t: float
    active_set: np.ndarray      # grid indices where the signal sits at achieved_t
    certificate_gap: float      # max(K r) - min(K q), bounds suboptimality
    iterations: int             # simplex pivots over every LP solved, the probe's included
    rounds: int                 # double-oracle rounds, the probe's included; 0 on the structured paths
    solver: str                 # "green", "toeplitz", "nodes", "equalizer", "double_oracle", "simplex"


def optimize_max_avg(cfg: OptimizationConfig) -> SamplingDistribution:
    """Closed-form Gibbs maximizer of total signal plus lam * entropy.

    The density is proportional to exp(tp(x) / lam), discretized as
    piecewise-constant cell values at cell midpoints and normalized to
    unit mass.
    """
    if cfg.objective != MAX_AVG_ENTROPY:
        raise ParameterError(f"config objective is {cfg.objective!r}, not {MAX_AVG_ENTROPY!r}")
    mids = cfg.mag_range.cell_midpoints(cfg.grid_n)
    tp = np.asarray(cfg.kernel.transfer_potential(mids, cfg.mag_range))
    weights = np.exp((tp - tp.max()) / cfg.lam)  # shift-invariant, avoids overflow
    return SamplingDistribution(cfg.mag_range, density=weights)


def optimize_max_min(cfg: OptimizationConfig) -> MaxMinSolution:
    """Maximizer of the worst-case signal over the grid, on the path the game allows."""
    if cfg.objective != MAX_MIN:
        raise ParameterError(f"config objective is {cfg.objective!r}, not {MAX_MIN!r}")
    mids = cfg.mag_range.cell_midpoints(cfg.grid_n)
    solver, rounds, iterations, bounds = _solve_game(
        _Game(cfg.kernel, mids), cfg.grid_n // _DO_SIZE_DIVISOR
    )
    q, signal, t_lo, t_hi = bounds
    gap = t_hi - t_lo
    if not _certified(gap):
        raise SolverError(
            f"optimality certificate failed: min(Kq)={t_lo:.9f}, max(Kr)={t_hi:.9f}",
            residual=gap,
        )

    cell_w = cfg.mag_range.width / cfg.grid_n
    dist = SamplingDistribution(cfg.mag_range, density=q / cell_w)
    active = np.flatnonzero(signal - t_lo < 1e-6)
    return MaxMinSolution(
        distribution=dist,
        achieved_t=t_lo,
        active_set=active,
        certificate_gap=gap,
        iterations=iterations,
        rounds=rounds,
        solver=solver,
    )


class _Game:
    """The game matrix K[i, j] = kernel(mids[i], mids[j]), evaluated as paths ask.

    Rows and columns come from ``Kernel.__call__`` and are kept by grid index.
    The dense K is built at most once, by ``dense``; from then on rows and
    columns are its slices, as they were before it was built, bit for bit.
    """

    def __init__(self, kernel: Kernel, mids: np.ndarray):
        self.kernel, self.mids, self.n = kernel, mids, mids.size
        self.K = None
        self._rows, self._cols = {}, {}
        self._minima = None
        # A kernel linear in each argument between declared nodes takes each
        # column's extremes over the grid at a grid end or at a grid point next
        # to an x-node, and each row's next to a y-node: 118 rows and 118
        # columns of 1000 for a 64-node table.
        nodes = kernel.linear_nodes()
        if nodes is None:
            self.node_rows = self.node_cols = None
        else:
            self.node_rows, self.node_cols = (_next_to(mids, x) for x in nodes)

    def rows(self, T):
        """K[T]: one row per grid index in T."""
        if self.K is not None:
            return self.K[T]
        new = [i for i in T if i not in self._rows]
        if new:
            block = self.kernel(self.mids[new, None], self.mids[None, :])
            self._rows.update(zip(new, block))
        return np.array([self._rows[i] for i in T])

    def cols(self, S):
        """K[:, S], in the layout NumPy gives that index (Fortran order), so
        products with it sum in the same order."""
        if self.K is not None:
            return self.K[:, S]
        new = [j for j in S if j not in self._cols]
        if new:  # one outer call, O(n) per column for a table too
            block = self.kernel(self.mids[:, None], self.mids[None, new])
            self._cols.update(zip(new, block.T))
        return np.array([self._cols[j] for j in S]).T

    def matches(self, i, j, declared):
        """Whether K[i, j] equals the declared values to _DECLARATION_RTOL."""
        values = self.kernel(self.mids[i], self.mids[j])
        return bool(np.all(np.abs(values - declared) <= _DECLARATION_RTOL * np.abs(declared)))

    def dense(self):
        """The n x n K, built 256 rows at a time and scanned for an entry <= 0."""
        if self.K is None:
            n = self.n
            if 8 * n * n > _DENSE_BYTES:
                raise ParameterError(
                    f"grid {n}: this game needs the dense {n} x {n} kernel matrix, "
                    f"{8 * n * n / 2**30:.2f} GiB, past the bound of "
                    f"{_DENSE_BYTES / 2**30:g} GiB (grid <= {math.isqrt(_DENSE_BYTES // 8)})"
                )
            K = np.empty((n, n))
            for lo in range(0, n, _ROW_BLOCK):
                block = K[lo : lo + _ROW_BLOCK]
                block[...] = self.kernel(self.mids[lo : lo + _ROW_BLOCK, None], self.mids[None, :])
                _check_positive(block)
            self.K = K
        return self.K

    def column_minima(self):
        """K.min(axis=0), from the node rows if the kernel declares nodes,
        else from the dense K; a DomainError if it has an entry <= 0."""
        if self._minima is None:
            if self.node_rows is None or self.K is not None:
                self._minima = self.dense().min(axis=0)
            else:
                self._minima = self.rows(self.node_rows).min(axis=0)
                _check_positive(self._minima)
        return self._minima

    def symmetric(self):
        """Whether K equals its transpose bit for bit.

        A table's node rows usually hold a pair K[i, j] != K[j, i], which
        decides it; with no such witness, the dense K does.
        """
        if self.node_rows is not None and self.K is None:
            block = self.rows(self.node_rows)[:, self.node_rows]
            if not np.array_equal(block, block.T):
                return False
        K = self.dense()
        return np.array_equal(K, K.T)

    def bounds(self, u, y, S, T):
        """``_bounds`` for u supported on S and y on T, from those columns and
        rows only; from the dense K, as ``_bounds``, once it is built."""
        if self.K is not None:
            return _bounds(self.K, u, y)
        return _certify(u, y, lambda q: self.cols(S) @ q[S], lambda r: self.rows(T).T @ r[T])


def _next_to(mids, nodes):
    """Grid indices of the grid ends and of the grid points on either side of each node."""
    k = np.searchsorted(mids, nodes)
    points = np.unique(np.concatenate(([0, mids.size - 1], k - 1, k)))
    return points[(points >= 0) & (points < mids.size)].tolist()


def _check_positive(values):
    if np.any(values <= 0.0):
        raise DomainError("max-min optimization requires a strictly positive kernel")


def _solve_game(game, max_size):
    """The solver name, rounds, pivots and bounds of the first path that solves the game."""
    factors = _green(game)
    if factors is not None:
        bounds = _symmetric_bounds(_green_solve(*factors), lambda w: _green_matvec(*factors, w))
        if bounds is not None:
            return "green", 0, 0, bounds
    column = _toeplitz(game)
    if column is not None:
        matvec = _toeplitz_matvec(column)
        bounds = _symmetric_bounds(_toeplitz_solve(column, matvec), matvec)
        if bounds is not None:
            return "toeplitz", 0, 0, bounds
    pivots, bounds = _node_game(game, max_size)
    if bounds is not None:
        return "nodes", 0, pivots, bounds
    symmetric = game.symmetric()
    S, T = [], []
    rounds = 0
    if not symmetric:
        rounds, more, uy = _double_oracle(game, S, T, max_size, _PROBE_ROUNDS)
        pivots += more
        if uy is not None:
            return "double_oracle", rounds, pivots, game.bounds(*uy, S, T)
    K = game.dense()
    bounds = _equalizer(K, symmetric)
    if bounds is not None:
        return "equalizer", rounds, pivots, bounds
    more, extra, uy = _double_oracle(game, S, T, max_size)
    rounds, pivots = rounds + more, pivots + extra
    if uy is not None:
        return "double_oracle", rounds, pivots, _bounds(K, *uy)
    ones = np.ones(K.shape[0])
    sol = solve_inequality_lp(ones, K.T, ones)
    u, y = np.maximum(sol.duals, 0.0), np.maximum(sol.x, 0.0)
    return "simplex", rounds, pivots + sol.iterations, _bounds(K, u, y)


def _certified(gap):
    return -1e-12 <= gap <= _CERT_GAP_TOL


def _check_pairs(n):
    """Row and column indices of the O(n) grid pairs on which a declared
    structure is checked: the diagonal, the first row, the last column, the
    sub-diagonal, and n pairs scattered by two fixed multiplicative walks."""
    k = np.arange(n)
    i = np.concatenate((k, np.zeros(n, int), k, k[1:], k * 40503 % n))
    j = np.concatenate((k, k, np.full(n, n - 1), k[:-1], (k * 65521 + n // 3) % n))
    return i, j


def _green(game):
    """The kernel's Green's factors (p, q) on the grid, or None unless it
    declares them, they are positive and they match the kernel."""
    factors = game.kernel.green_factors(game.mids)
    if factors is None or not (factors[0].min() > 0.0 and factors[1].min() > 0.0):
        return None
    i, j = _check_pairs(game.n)
    p, q = factors
    return factors if game.matches(i, j, p[np.minimum(i, j)] * q[np.maximum(i, j)]) else None


def _green_solve(p, q):
    """The solution u of K u = 1 for K_ij = p(x_min) q(x_max) on increasing x.

    K = D_q C diag(dg) C' D_q, with g = p / q, dg its differences from
    g_0 = 0 and C the lower-triangular ones, so K^-1 is tridiagonal
    (Gantmacher & Krein) and the solve takes two difference passes:
    z = diff(1 / q) / dg solves C' D_q u = z, and D_q u is the reverse
    differences of z. O(n), against O(n^3) for an LU.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # a repeated point
        inv_q = 1.0 / q
        z = np.diff(inv_q, prepend=0.0) / np.diff(p * inv_q, prepend=0.0)
        return (z - np.append(z[1:], 0.0)) * inv_q


def _green_matvec(p, q, w):
    """K w for K_ij = p(x_min) q(x_max) on increasing x, in O(n):
    (K w)_i = q_i sum_{j <= i} p_j w_j + p_i sum_{j > i} q_j w_j.

    The second sum is a suffix sum, accumulated from the top, as in
    ``signal._green_density_signal``: as a total minus a prefix sum it would
    cancel where the tail is small against the total.
    """
    suffix = np.append(np.cumsum((q * w)[:0:-1])[::-1], 0.0)
    return q * np.cumsum(p * w) + p * suffix


def _toeplitz(game):
    """K's first column, or None unless the kernel declares itself stationary,
    the column is positive and K is the symmetric Toeplitz matrix it gives."""
    if not game.kernel.stationary:
        return None
    n = game.n
    column = game.kernel(game.mids, np.full(n, game.mids[0]))
    if not column.min() > 0.0:
        return None
    i, j = _check_pairs(n)
    return column if game.matches(i, j, column[np.abs(i - j)]) else None


def _toeplitz_matvec(column):
    """w -> K w for the symmetric Toeplitz K of this first column: K is the
    leading block of a circulant of twice the size, applied by real FFTs."""
    n = column.size
    spectrum = np.fft.rfft(np.concatenate((column, [0.0], column[:0:-1])))
    return lambda w: np.fft.irfft(spectrum * np.fft.rfft(w, 2 * n), 2 * n)[:n]


def _toeplitz_solve(column, matvec):
    """u of K u = 1 for the symmetric Toeplitz K of this first column, by
    conjugate gradients, or None if K shows itself not positive definite or
    the iterations run out.

    The preconditioner is T. Chan's circulant, the one nearest K in the
    Frobenius norm, inverted by FFT. K is unchanged when the grid is
    reversed, and so is the exact u, so u is returned averaged with its
    reverse, which removes the round-off that breaks that symmetry.
    """
    n = column.size
    k = np.arange(1, n)
    circulant = np.concatenate(([column[0]], ((n - k) * column[1:] + k * column[:0:-1]) / n))
    eig = np.fft.rfft(circulant).real
    if not eig.min() > 0.0:
        return None
    u, r = np.zeros(n), np.ones(n)
    z = np.fft.irfft(np.fft.rfft(r) / eig, n)
    p, rz = z, r @ z
    for _ in range(_CG_MAX_ITER):
        Kp = matvec(p)
        pKp = p @ Kp
        if not pKp > 0.0:
            return None
        u += rz / pKp * p
        r -= rz / pKp * Kp
        if np.linalg.norm(r) <= _CG_TOL * math.sqrt(n):
            return (u + u[::-1]) * 0.5
        z = np.fft.irfft(np.fft.rfft(r) / eig, n)
        rz, rz_old = r @ z, rz
        p = z + rz / rz_old * p
    return None


def _symmetric_bounds(u, matvec):
    """Bounds of q = u / sum(u), r = q on a symmetric K given by its product,
    or None unless u is strictly positive and the certificate closes.

    With r = q, K'r is K q, so max(K'r) is the largest entry of the signal.
    """
    if u is None or not u.min() > 0.0:
        return None
    q = u / u.sum()
    signal = matvec(q)
    bounds = q, signal, float(signal.min()), float(signal.max())
    return bounds if _certified(bounds[3] - bounds[2]) else None


def _equalizer(K, symmetric):
    """Bounds of the completely mixed solution q = K^-1 1 / Z, or None if there is none."""
    ones = np.ones(K.shape[0])
    try:
        u = np.linalg.solve(K, ones)
        if not u.min() > 0.0:  # not completely mixed; K'y = 1 cannot help
            return None
        # an exactly symmetric K gives LAPACK the same input twice
        y = u if symmetric else np.linalg.solve(K.T, ones)
    except np.linalg.LinAlgError:
        return None
    return _mixed(K, u, y)


def _mixed(K, u, y):
    """Bounds of the solution u / sum(u), y / sum(y), or None unless both are
    strictly positive and pass the dense certificate."""
    if not (u.min() > 0.0 and y.min() > 0.0):
        return None
    bounds = _bounds(K, u, y)
    return bounds if _certified(bounds[3] - bounds[2]) else None


def _node_game(game, max_size):
    """The pivots and bounds of the game solved on its node rows I and columns J.

    For any q, K q is linear in the target between x-nodes, so its minimum
    over the grid lies in I; for any r, K'r is linear in the source between
    y-nodes, so its maximum lies in J. By minimax the I x J game has the grid
    game's value, and its solution is optimal on the grid. The block also
    holds K's minimum, and so its positivity. The bounds are None for a kernel
    without nodes, for I or J past ``max_size``, the double oracle's largest
    restricted game, and unless the certificate, from the support's full
    columns and rows, closes.
    """
    I, J = game.node_rows, game.node_cols
    if I is None or max(len(I), len(J)) > max_size:
        return 0, None
    block = game.kernel(game.mids[I, None], game.mids[None, J])
    _check_positive(block)
    # the module global, which tracers hook
    sol = solve_inequality_lp(np.ones(len(I)), block.T, np.ones(len(J)))
    u, y = np.zeros(game.n), np.zeros(game.n)
    u[J], y[I] = np.maximum(sol.duals, 0.0), np.maximum(sol.x, 0.0)
    bounds = game.bounds(u, y, np.flatnonzero(u).tolist(), np.flatnonzero(y).tolist())
    return sol.iterations, bounds if _certified(bounds[3] - bounds[2]) else None


def _double_oracle(game, S, T, max_size, max_rounds=math.inf):
    """Solve the game on growing source and target sets (McMahan, Gordon & Blum 2003).

    Each round solves the game restricted to targets T (rows) and sources S
    (columns), then adds the full-grid best responses to its two solutions:
    the target argmin(K q) and the source argmax(K'r). When both are already
    in T and S, the restricted solutions are optimal on the full grid. Only
    the rows T and the columns S of K are evaluated. The lists S and T grow in
    place, so a run stopped after ``max_rounds`` rounds resumes from them as
    if it had not stopped; a run also stops once T or S grows past
    ``max_size``. Empty lists start the run from the maximin source and its
    best response. Returns the rounds, the total pivots, and the unnormalized
    source masses u and target weights y on the full grid as a pair, or None
    for the pair when the run stopped.
    """
    if not S:  # start from the maximin source and its best response
        S.append(int(np.argmax(game.column_minima())))
        T.append(int(np.argmin(game.cols(S)[:, 0])))
    rounds = pivots = 0
    while max(len(S), len(T)) <= max_size and rounds < max_rounds:
        rows = game.rows(T)
        # the module global, which tracers hook
        sol = solve_inequality_lp(np.ones(len(T)), rows[:, S].T, np.ones(len(S)))
        rounds, pivots = rounds + 1, pivots + sol.iterations
        u_s, y_t = np.maximum(sol.duals, 0.0), np.maximum(sol.x, 0.0)
        i, j = int(np.argmin(game.cols(S) @ u_s)), int(np.argmax(rows.T @ y_t))
        if i in T and j in S:
            u, y = np.zeros(game.n), np.zeros(game.n)
            u[S], y[T] = u_s, y_t
            return rounds, pivots, (u, y)
        if i not in T:
            T.append(i)
        if j not in S:
            S.append(j)
    return rounds, pivots, None


def _bounds(K, u, y):
    """q = u / sum(u), its signal K q, min(K q) and max(K'r) for r = y / sum(y)."""
    return _certify(u, y, K.__matmul__, K.T.__matmul__)


def _certify(u, y, Kq, Ktr):
    """``_bounds`` with the products by K and by K' given as functions."""
    if u.sum() <= 0.0 or y.sum() <= 0.0:
        raise SolverError("degenerate game solution")
    q = u / u.sum()
    signal = Kq(q)
    return q, signal, float(signal.min()), float(Ktr(y / y.sum()).max())


def entropy(dist: SamplingDistribution) -> float:
    """Differential entropy of a density-only distribution.

    Exact for piecewise-constant densities (the integrand is constant on
    each cell); 0 * log(0) is taken as 0. Distributions with atoms are
    rejected, since point masses have entropy negative infinity.
    """
    if dist.has_atoms:
        raise DomainError("entropy is defined only for density-only distributions")
    if not dist.has_density:
        raise DomainError("distribution has no density part")
    v = dist.density
    pos = v > 0.0
    return float(-(v[pos] * np.log(v[pos])).sum() * dist.cell_width)


def regularized_objective(dist: SamplingDistribution, cfg: OptimizationConfig) -> float:
    """Total signal plus lam times entropy, the max-average objective."""
    return total_signal(dist, cfg.kernel) + cfg.lam * entropy(dist)
