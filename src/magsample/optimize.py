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
with Z = sum(u) (Kaplansky 1945). The path is chosen from the kernel's
structure and from K, not by a trial solve; ``MaxMinSolution.solver`` names
the one that solved the game:

* ``"green"``: a kernel K(x, y) = p(min(x, y)) q(max(x, y)), such as info,
  declares p and q. Its K is a Green's matrix with a tridiagonal inverse
  (Gantmacher & Krein), so u comes from two difference passes in O(n), not
  an n x n LU, and y = u since K is symmetric.
* ``"equalizer"``: u by one LU solve. When K equals its transpose exactly
  (abs on the midpoint grid), y is u, since the solve of K'y = 1 would hand
  LAPACK the same input; otherwise y takes a second solve.
* ``"double_oracle"``: the game is solved on a few sources and targets,
  grown by full-grid best responses (McMahan, Gordon & Blum 2003). Each
  restricted game is the LP pair ``min 1'u : K u >= 1`` /
  ``max 1'y : K'y <= 1`` on the dense simplex, which starts feasible at the
  slack basis. This suits sparse solutions, such as those of tabulated
  kernels, whose support is a few cells.
* ``"simplex"``: the same LP pair on the full grid, only for a restricted
  game that outgrows ``grid_n // _DO_SIZE_DIVISOR`` cells.

The order: the Green's solve when the kernel declares its factors; then, for
an exactly symmetric K, the equalizer. Any other K first gets
``_PROBE_ROUNDS`` double-oracle rounds, which finish the sparse tabulated
games without an n x n solve; a completely mixed game pays about 20 ms for
them at grid 1000, on top of a 25 ms LU (2 vCPU). Then the equalizer runs,
then the double oracle resumes from the probe's sets up to the size bound,
and past it the full simplex solves the game.

On every path the masses q and the adversary weights r certify optimality
independently of the solver: min(K q) <= t* <= max(K'r) pins the optimum
between two directly checkable numbers.
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
# rounds, before any n x n solve. The benchmark's tabulated games finish in
# 13-25 rounds (seeds 2-21, grid 1000). A completely mixed game cannot finish
# on so few cells; at grid 1000 on 2 vCPU its 32 rounds take 16-19 ms, which
# it pays on top of the 25 ms LU of its equalizer.
_PROBE_ROUNDS = 32


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
    rounds: int                 # double-oracle rounds, the probe's included; 0 on "green"
    solver: str                 # "green", "equalizer", "double_oracle" or "simplex"


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
    K = np.asarray(cfg.kernel(mids[:, None], mids[None, :]), dtype=float)
    if np.any(K <= 0.0):
        raise DomainError("max-min optimization requires a strictly positive kernel")

    solver, rounds, iterations, bounds = _solve_game(
        K, cfg.kernel.green_factors(mids), cfg.grid_n // _DO_SIZE_DIVISOR
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


def _solve_game(K, factors, max_size):
    """The solver name, rounds, pivots and bounds of the first path that solves K.

    ``factors`` are the kernel's Green's factors on the grid, or None.
    """
    if factors is not None:
        u = _green_solve(*factors)
        bounds = _mixed(K, u, u)  # K is symmetric, so y = u
        if bounds is not None:
            return "green", 0, 0, bounds
    symmetric = np.array_equal(K, K.T)
    S, T = [], []
    rounds = pivots = 0
    if not symmetric:
        rounds, pivots, uy = _double_oracle(K, S, T, max_size, _PROBE_ROUNDS)
        if uy is not None:
            return "double_oracle", rounds, pivots, _bounds(K, *uy)
    bounds = _equalizer(K, symmetric)
    if bounds is not None:
        return "equalizer", rounds, pivots, bounds
    more, extra, uy = _double_oracle(K, S, T, max_size)
    rounds, pivots = rounds + more, pivots + extra
    if uy is not None:
        return "double_oracle", rounds, pivots, _bounds(K, *uy)
    ones = np.ones(K.shape[0])
    sol = solve_inequality_lp(ones, K.T, ones)
    u, y = np.maximum(sol.duals, 0.0), np.maximum(sol.x, 0.0)
    return "simplex", rounds, pivots + sol.iterations, _bounds(K, u, y)


def _certified(gap):
    return -1e-12 <= gap <= _CERT_GAP_TOL


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


def _double_oracle(K, S, T, max_size, max_rounds=math.inf):
    """Solve the game on growing source and target sets (McMahan, Gordon & Blum 2003).

    Each round solves the game restricted to targets T (rows) and sources S
    (columns), then adds the full-grid best responses to its two solutions:
    the target argmin(K q) and the source argmax(K'r). When both are already
    in T and S, the restricted solutions are optimal on the full grid. The
    lists S and T grow in place, so a run stopped after ``max_rounds`` rounds
    resumes from them as if it had not stopped; a run also stops once T or S
    grows past ``max_size``. Empty lists start the run from the maximin
    source and its best response. Returns the rounds, the total pivots, and
    the unnormalized source masses u and target weights y on the full grid
    as a pair, or None for the pair when the run stopped.
    """
    if not S:  # start from the maximin source and its best response
        S.append(int(np.argmax(K.min(axis=0))))
        T.append(int(np.argmin(K[:, S[0]])))
    rounds = pivots = 0
    while max(len(S), len(T)) <= max_size and rounds < max_rounds:
        # the module global, which tracers hook
        sol = solve_inequality_lp(np.ones(len(T)), K[np.ix_(T, S)].T, np.ones(len(S)))
        rounds, pivots = rounds + 1, pivots + sol.iterations
        u_s, y_t = np.maximum(sol.duals, 0.0), np.maximum(sol.x, 0.0)
        i, j = int(np.argmin(K[:, S] @ u_s)), int(np.argmax(K[T].T @ y_t))
        if i in T and j in S:
            u, y = np.zeros(K.shape[0]), np.zeros(K.shape[0])
            u[S], y[T] = u_s, y_t
            return rounds, pivots, (u, y)
        if i not in T:
            T.append(i)
        if j not in S:
            S.append(j)
    return rounds, pivots, None


def _bounds(K, u, y):
    """q = u / sum(u), its signal K q, min(K q) and max(K'r) for r = y / sum(y)."""
    if u.sum() <= 0.0 or y.sum() <= 0.0:
        raise SolverError("degenerate game solution")
    q = u / u.sum()
    signal = K @ q
    return q, signal, float(signal.min()), float((K.T @ (y / y.sum())).max())


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
