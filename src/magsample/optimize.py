"""Optimized sampling distributions over a magnification range.

Two objectives are supported:

* max-average with entropy regularization, whose maximizer has the closed
  Gibbs form p(x) proportional to exp(tp(x) / lambda), where tp is the
  kernel's transfer potential;
* max-min, which maximizes the worst-case signal over all targets and is
  solved as a matrix game on a uniform grid of cell midpoints.

The max-min problem ``max t s.t. K q >= t, sum q = 1, q >= 0`` is a game
with value 1/Z. If K u = 1 and K'y = 1 have strictly positive solutions,
the game is completely mixed and its unique solution is the equalizer
q = u / Z, r = y / Z with Z = sum(u) (Kaplansky 1945): two linear solves.
Otherwise the LP pair ``min 1'u : K u >= 1`` / ``max 1'y : K'y <= 1`` goes
to the dense simplex, which starts feasible at the slack basis. Either way,
the masses q and the adversary weights r certify optimality independently
of the solver: min(K q) <= t* <= max(K'r) pins the optimum between two
directly checkable numbers.
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
    iterations: int             # simplex pivots; 0 on the equalizer path
    solver: str                 # "equalizer" or "simplex"


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
    """Maximizer of the worst-case signal over the grid: equalizer, else the LP."""
    if cfg.objective != MAX_MIN:
        raise ParameterError(f"config objective is {cfg.objective!r}, not {MAX_MIN!r}")
    mids = cfg.mag_range.cell_midpoints(cfg.grid_n)
    K = np.asarray(cfg.kernel(mids[:, None], mids[None, :]), dtype=float)
    if np.any(K <= 0.0):
        raise DomainError("max-min optimization requires a strictly positive kernel")

    ones = np.ones(cfg.grid_n)
    solver, iterations = "equalizer", 0
    try:
        u, y = np.linalg.solve(K, ones), np.linalg.solve(K.T, ones)
        ok = u.min() > 0.0 and y.min() > 0.0
    except np.linalg.LinAlgError:
        ok = False
    if ok:
        q, signal, t_lo, t_hi = _bounds(K, u, y)
        ok = -1e-12 <= t_hi - t_lo <= _CERT_GAP_TOL
    if not ok:
        sol = solve_inequality_lp(ones, K.T, ones)  # the module global, which tracers hook
        solver, iterations = "simplex", sol.iterations
        q, signal, t_lo, t_hi = _bounds(K, np.maximum(sol.duals, 0.0), np.maximum(sol.x, 0.0))
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
        solver=solver,
    )


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
