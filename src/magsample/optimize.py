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

The game sees K through a lazy view, ``_Game``, which evaluates a block of K
through ``Kernel.__call__`` when a path asks for it and keeps none. The path is
chosen from the kernel's structure; ``MaxMinSolution.solver`` names the one
that solved the game:

* ``"green"``: a kernel K(x, y) = p(min(x, y)) q(max(x, y)), such as info,
  declares p and q. K^-1 is tridiagonal (Gantmacher & Krein), so u comes from
  two difference passes, and K w from a prefix and a suffix sum: O(n) each.
* ``"toeplitz"``: a stationary kernel, K(x, y) = k(|x - y|), such as abs,
  declares so. On the uniform grid its K is the symmetric Toeplitz matrix of
  its first column. u comes from conjugate gradients with T. Chan's circulant
  preconditioner (Chan 1988), and K w from FFTs of twice the grid's length.
* ``"nodes"``: the LP on a node block smaller than the grid (below).
* ``"equalizer"``: an LU of the whole grid's K.
* ``"simplex"``: the LP on the whole grid.

The paths run in this order. The two matrix-free paths run only if their
declaration matches ``Kernel.__call__`` on O(n) grid pairs
(``kernels.declaration_holds``; ``kernels.green_on``, as in signal, for Green's
factors, which must also be positive); positivity then follows from the
declaration, and y = u. A path whose check fails, whose u is not strictly
positive or whose certificate does not close falls through to the next:

1. the node block I x J, if the kernel is linear in each argument between
   declared nodes, as a table is. K q is then linear in the target between
   x-nodes, so its minimum over the grid lies in I, the grid points next to
   them; K'r is linear in the source between y-nodes, so its maximum lies in
   J. By minimax the block game has the grid game's value and solution, at
   any block size. The block also holds K's minimum, and so its positivity.
   It takes only the LP: an optimal adversary generically weights one point
   of each pair beside a node, so the block game is not completely mixed.
2. the whole grid, the dense K. The equalizer runs first: u = K^-1 1, and
   y = u when K equals its transpose exactly, else y by a second solve. A
   completely mixed game at grid 1000 takes 0.07 s this way against 5.0 s for
   the LP. Then the LP, which always ends the game.

Each LP is ``min 1'u : K u >= 1`` / ``max 1'y : K'y <= 1`` on the dense
simplex, whose tolerances are absolute: it gets its block scaled exactly, by a
power of two, to a largest entry in [1, 2). A block, and the LP's tableau, is
allocated only if its bytes fit in ``_DENSE_BYTES`` (1 GiB; the dense K fits
grid <= 11585, the LP on the whole grid grid <= 5791); past that the game is a
ParameterError.

On every path q and the adversary weights r certify optimality on the whole
grid: min(K q) <= t* <= max(K'r), computed with the path's own products by K
(prefix sums, FFTs, the full columns and rows of the support of a node block's
solution, or the dense K), and closes when they agree to ``_CERT_GAP_TOL`` of
t*. So no path compares K, u or t* with an absolute tolerance, and max-min is
invariant to the kernel's unit: K scaled by 2^k gives the same q bit for bit and
t* scaled exactly on the node block, equalizer and simplex. README "Numerical
notes" gives each path's cost and accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import SamplingDistribution
from .errors import DomainError, ParameterError, SolverError
from .kernels import (
    DEFAULT_GRID, GRID_BLOCK, Kernel, MagRange, check_covers, declaration_holds, green_on,
)
from .simplex import lp_peak_bytes, solve_inequality_lp

MAX_AVG_ENTROPY = "maxavg"
MAX_MIN = "maxmin"

_CERT_GAP_TOL = 1e-6

# A block of K, and the tableau of an LP on one, is allocated only if its bytes
# fit in this, 1 GiB: the dense K fits grid <= 11585, the LP on it grid <= 5791.
_DENSE_BYTES = 1 << 30

# Conjugate gradients stop once ||1 - K u|| <= _CG_TOL * sqrt(n), ||1|| being
# sqrt(n), or give up after _CG_MAX_ITER iterations. With T. Chan's
# preconditioner the abs kernel takes 5-10 at grids 10 to 20000.
_CG_TOL = 1e-15
_CG_MAX_ITER = 100


@dataclass(kw_only=True)
class OptimizationConfig:
    """Kernel and discretization for a distribution search; the function it
    is passed to, ``optimize_max_avg`` or ``optimize_max_min``, is the objective.
    A kernel not defined on the range is a RangeError here, before any work."""

    kernel: Kernel
    mag_range: MagRange = field(default_factory=MagRange)
    grid_n: int = DEFAULT_GRID
    lam: float = 1.0

    def __post_init__(self):
        check_covers(self.kernel, self.mag_range)
        if self.grid_n < 10:
            raise ParameterError(f"grid size must be >= 10, got {self.grid_n}")
        if not self.lam > 0.0:
            raise ParameterError(f"entropy weight must be positive, got {self.lam}")


@dataclass
class MaxMinSolution:
    """Max-min distribution with its certified worst-case signal. The distribution
    is invariant to the kernel's scale; achieved_t and certificate_gap scale with it."""

    distribution: SamplingDistribution
    # min(K q) on the cell midpoints, which the certificate bounds. signal
    # judges the distribution exactly on range.grid(n), range ends included,
    # and finds a lower minimum, at a range end: by 2.73% (info) and 0.26%
    # (abs) at grid 250, shrinking like 1/n (README "Numerical notes").
    achieved_t: float
    certificate_gap: float      # max(K r) - min(K q), bounds suboptimality
    iterations: int             # simplex pivots over every LP solved
    solver: str                 # "green", "toeplitz", "nodes", "equalizer", "simplex"


def optimize_max_avg(cfg: OptimizationConfig) -> SamplingDistribution:
    """Closed-form Gibbs maximizer of total signal plus lam * entropy.

    The density is proportional to exp(tp(x) / lam), discretized as
    piecewise-constant cell values at cell midpoints and normalized to
    unit mass.
    """
    mids = cfg.mag_range.cell_midpoints(cfg.grid_n)
    tp = np.asarray(cfg.kernel.transfer_potential(mids, cfg.mag_range))
    weights = np.exp((tp - tp.max()) / cfg.lam)  # shift-invariant, avoids overflow
    return SamplingDistribution(cfg.mag_range, density=weights)


def optimize_max_min(cfg: OptimizationConfig) -> MaxMinSolution:
    """Maximizer of the worst-case signal over the grid, on the path the game allows."""
    mids = cfg.mag_range.cell_midpoints(cfg.grid_n)
    solver, iterations, (q, _, t_lo, t_hi) = _solve_game(_Game(cfg.kernel, mids))
    gap = t_hi - t_lo
    if not _certified(t_lo, t_hi):
        raise SolverError(
            f"optimality certificate failed: min(Kq)={t_lo:.9f}, max(Kr)={t_hi:.9f}",
            residual=gap,
        )

    cell_w = cfg.mag_range.width / cfg.grid_n
    dist = SamplingDistribution(cfg.mag_range, density=q / cell_w)
    return MaxMinSolution(
        distribution=dist,
        achieved_t=t_lo,
        certificate_gap=gap,
        iterations=iterations,
        solver=solver,
    )


class _Game:
    """The game matrix K[i, j] = kernel(mids[i], mids[j]), evaluated as paths ask."""

    def __init__(self, kernel: Kernel, mids: np.ndarray):
        self.kernel, self.mids, self.n = kernel, mids, mids.size

    def block(self, I, J):
        """K[I][:, J], built GRID_BLOCK rows at a time and scanned for an entry <= 0."""
        x, y = self.mids[I], self.mids[J]
        _check_bytes(self.n, f"the {x.size} x {y.size} kernel matrix", 8 * x.size * y.size)
        K = np.empty((x.size, y.size))
        for lo in range(0, x.size, GRID_BLOCK):
            rows = K[lo : lo + GRID_BLOCK]
            rows[...] = self.kernel(x[lo : lo + GRID_BLOCK, None], y[None, :])
            _check_positive(rows)
        return K

    def bounds(self, I, J, u, y):
        """``_certify`` for u on the sources J and y on the targets I of a block
        of K, with K's full columns on u's support and its full rows on y's."""
        S, T = J[u != 0.0], I[y != 0.0]
        u_grid, y_grid = np.zeros(self.n), np.zeros(self.n)
        u_grid[J], y_grid[I] = u, y
        # Fortran order, as NumPy lays out K[:, S]: the products keep its sum
        # order, and so the bytes of achieved_t (C order moves it by an ulp on
        # 12 of 60 benchmark tables)
        cols = np.asfortranarray(self.kernel(self.mids[:, None], self.mids[None, S]))
        rows = self.kernel(self.mids[T, None], self.mids[None, :])
        return _certify(u_grid, y_grid, lambda q: cols @ q[S], lambda r: rows.T @ r[T])


def _next_to(mids, nodes):
    """Grid indices of the grid ends and of the grid points on either side of each node."""
    k = np.searchsorted(mids, nodes)
    points = np.unique(np.concatenate(([0, mids.size - 1], k - 1, k)))
    return points[(points >= 0) & (points < mids.size)]


def _check_positive(values):
    if np.any(values <= 0.0):
        raise DomainError("max-min optimization requires a strictly positive kernel")


def _check_bytes(grid_n, what, nbytes):
    """A ParameterError, before anything is allocated, if nbytes exceed _DENSE_BYTES."""
    if nbytes > _DENSE_BYTES:
        raise ParameterError(
            f"grid {grid_n}: {what} would take {nbytes / 2**30:.2f} GiB, past the bound "
            f"of {_DENSE_BYTES / 2**30:g} GiB (the dense kernel matrix fits grid <= "
            f"{math.isqrt(_DENSE_BYTES // 8)})"
        )


def _matrix_free(game):
    """(solver, u, w -> K w) of each matrix-free path whose declaration holds,
    in order; u may be None. Each K is symmetric, so y = u."""
    factors = green_on(game.kernel, game.mids)
    if factors is not None and factors[0].min() > 0.0 and factors[1].min() > 0.0:
        yield "green", _green_solve(*factors), lambda w: _green_matvec(*factors, w)
    column = _toeplitz(game)
    if column is not None:
        matvec = _toeplitz_matvec(column)
        yield "toeplitz", _toeplitz_solve(column, matvec), matvec


def _solve_game(game):
    """Solver name, pivots and bounds of the first path, in the order above, to solve the game."""
    for solver, u, matvec in _matrix_free(game):
        if u is not None and u.min() > 0.0:
            bounds = _certify(u, u, matvec, matvec)
            if _certified(*bounds[2:]):
                return solver, 0, bounds
    pivots = 0
    nodes = game.kernel.linear_nodes()
    if nodes is not None:
        I, J = (_next_to(game.mids, x) for x in nodes)
        if I.size * J.size < game.n * game.n:
            pivots, u, y = _lp(game, game.block(I, J))
            bounds = game.bounds(I, J, u, y)
            if _certified(*bounds[2:]):
                return "nodes", pivots, bounds
    grid = np.arange(game.n)
    K = game.block(grid, grid)
    uy = _equalizer(K)
    if uy is not None:
        bounds = _certify(*uy, K.__matmul__, K.T.__matmul__)
        if _certified(*bounds[2:]):
            return "equalizer", pivots, bounds
    lp_pivots, u, y = _lp(game, K)
    return "simplex", pivots + lp_pivots, _certify(u, y, K.__matmul__, K.T.__matmul__)


def _lp(game, block):
    """Pivots, u and y of ``min 1'u : K u >= 1`` / ``max 1'y : K'y <= 1`` on this
    block of K, clipped to be nonnegative."""
    m, n = block.shape
    _check_bytes(game.n, f"the simplex on the {m} x {n} game", lp_peak_bytes(n, m))
    # for the simplex's absolute tolerances, scaled exactly by a power of two
    # to a largest entry in [1, 2); the module global, which tracers hook
    scaled = np.ldexp(block.T, 1 - math.frexp(block.max())[1])
    sol = solve_inequality_lp(np.ones(m), scaled, np.ones(n))
    return sol.iterations, np.maximum(sol.duals, 0.0), np.maximum(sol.x, 0.0)


def _certified(t_lo, t_hi):
    """Whether min(K q) = t_lo and max(K'r) = t_hi agree to _CERT_GAP_TOL of t."""
    return -1e-12 * t_hi <= t_hi - t_lo <= _CERT_GAP_TOL * t_hi


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
    column = game.kernel(game.mids, np.full(game.n, game.mids[0]))
    if not column.min() > 0.0:
        return None
    holds = declaration_holds(game.kernel, game.mids, lambda i, j: column[np.abs(i - j)])
    return column if holds else None


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


def _equalizer(K):
    """(u, y) solving K u = 1 and K'y = 1, or None unless both are strictly positive."""
    ones = np.ones(K.shape[0])
    try:
        u = np.linalg.solve(K, ones)
        if not u.min() > 0.0:  # not completely mixed; K'y = 1 cannot help
            return None
        # an exactly symmetric K gives LAPACK the same input twice
        y = u if np.array_equal(K, K.T) else np.linalg.solve(K.T, ones)
    except np.linalg.LinAlgError:
        return None
    return (u, y) if y.min() > 0.0 else None


def _certify(u, y, Kq, Ktr):
    """q = u / sum(u), its signal K q, min(K q) and max(K'r) for r = y / sum(y),
    with the products by K and by K' given as functions."""
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
    v = dist.density
    pos = v > 0.0
    return float(-(v[pos] * np.log(v[pos])).sum() * dist.cell_width)
