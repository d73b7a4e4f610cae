"""Optimized sampling distributions over a magnification range.

Two objectives are supported:

* max-average with entropy regularization, whose maximizer has the closed
  Gibbs form p(x) proportional to exp(tp(x) / lambda), where tp is the
  kernel's transfer potential;
* max-min, which maximizes the worst-case signal over all targets and is
  solved as a matrix game on a uniform grid of cell midpoints.

The max-min problem ``max t s.t. K q >= t, sum q = 1, q >= 0`` is a game
with value 1/Z, solved on one of three paths, which ``MaxMinSolution.solver``
names:

* ``"equalizer"``: if K u = 1 and K'y = 1 have strictly positive solutions,
  the game is completely mixed and its unique solution is q = u / Z,
  r = y / Z with Z = sum(u) (Kaplansky 1945): two linear solves. The second
  is skipped when u already has a nonpositive entry, and also when K equals
  its transpose exactly (the info and abs kernels on the midpoint grid):
  then the solve of K'y = 1 would hand LAPACK the same input as K u = 1, so
  y is u bit for bit and is taken as u.
* ``"double_oracle"``: otherwise the game is solved on a few sources and
  targets, grown by full-grid best responses (McMahan, Gordon & Blum 2003).
  Each restricted game is the LP pair ``min 1'u : K u >= 1`` /
  ``max 1'y : K'y <= 1`` on the dense simplex, which starts feasible at the
  slack basis. This suits sparse solutions, such as those of tabulated
  kernels, whose support is a few cells.
* ``"simplex"``: the same LP pair on the full grid, only for a restricted
  game that outgrows ``grid_n // _DO_SIZE_DIVISOR`` cells.

On every path the masses q and the adversary weights r certify optimality
independently of the solver: min(K q) <= t* <= max(K'r) pins the optimum
between two directly checkable numbers.
"""

from __future__ import annotations

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
    iterations: int             # simplex pivots over every LP solved; 0 on the equalizer path
    rounds: int                 # double-oracle rounds; 0 on the equalizer path
    solver: str                 # "equalizer", "double_oracle" or "simplex"


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
    """Maximizer of the worst-case signal over the grid: equalizer, else double oracle."""
    if cfg.objective != MAX_MIN:
        raise ParameterError(f"config objective is {cfg.objective!r}, not {MAX_MIN!r}")
    mids = cfg.mag_range.cell_midpoints(cfg.grid_n)
    K = np.asarray(cfg.kernel(mids[:, None], mids[None, :]), dtype=float)
    if np.any(K <= 0.0):
        raise DomainError("max-min optimization requires a strictly positive kernel")

    solver, rounds, iterations = "equalizer", 0, 0
    bounds = _equalizer(K)
    if bounds is None:
        solver, rounds, iterations, u, y = _double_oracle(K, cfg.grid_n // _DO_SIZE_DIVISOR)
        bounds = _bounds(K, u, y)
    q, signal, t_lo, t_hi = bounds
    gap = t_hi - t_lo
    if not (-1e-12 <= gap <= _CERT_GAP_TOL):
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


def _equalizer(K):
    """Bounds of the completely mixed solution q = K^-1 1 / Z, or None if there is none."""
    ones = np.ones(K.shape[0])
    try:
        u = np.linalg.solve(K, ones)
        if not u.min() > 0.0:  # not completely mixed; K'y = 1 cannot help
            return None
        # an exactly symmetric K gives LAPACK the same input twice
        y = u if np.array_equal(K, K.T) else np.linalg.solve(K.T, ones)
    except np.linalg.LinAlgError:
        return None
    if not y.min() > 0.0:
        return None
    bounds = _bounds(K, u, y)
    return bounds if -1e-12 <= bounds[3] - bounds[2] <= _CERT_GAP_TOL else None


def _double_oracle(K, max_size):
    """Solve the game on growing source and target sets (McMahan, Gordon & Blum 2003).

    Each round solves the game restricted to targets T (rows) and sources S
    (columns), then adds the full-grid best responses to its two solutions:
    the target argmin(K q) and the source argmax(K'r). When both are already
    in T and S, the restricted solutions are optimal on the full grid. If T or
    S grows past ``max_size``, the full-grid simplex solves the game instead.
    Returns the solver name, the rounds, the total pivots, and the
    unnormalized source masses u and target weights y on the full grid.
    """
    n = K.shape[0]
    S = [int(np.argmax(K.min(axis=0)))]
    T = [int(np.argmin(K[:, S[0]]))]
    rounds = pivots = 0
    while max(len(S), len(T)) <= max_size:
        # the module global, which tracers hook
        sol = solve_inequality_lp(np.ones(len(T)), K[np.ix_(T, S)].T, np.ones(len(S)))
        rounds, pivots = rounds + 1, pivots + sol.iterations
        u_s, y_t = np.maximum(sol.duals, 0.0), np.maximum(sol.x, 0.0)
        i, j = int(np.argmin(K[:, S] @ u_s)), int(np.argmax(K[T].T @ y_t))
        if i in T and j in S:
            u, y = np.zeros(n), np.zeros(n)
            u[S], y[T] = u_s, y_t
            return "double_oracle", rounds, pivots, u, y
        if i not in T:
            T.append(i)
        if j not in S:
            S.append(j)
    ones = np.ones(n)
    sol = solve_inequality_lp(ones, K.T, ones)
    u, y = np.maximum(sol.duals, 0.0), np.maximum(sol.x, 0.0)
    return "simplex", rounds, pivots + sol.iterations, u, y


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
