import ast
import hashlib
import math
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsample import (
    AbsDistanceKernel,
    DomainError,
    InfoOverlapKernel,
    Kernel,
    MagRange,
    ParameterError,
    SamplingDistribution,
    SolverError,
    TabulatedKernel,
    accumulated_signal,
    entropy,
    format_distribution,
    optimize_max_avg,
    optimize_max_min,
    parse_distribution,
    signal_summary,
)
from magsample import cli
from magsample import optimize as optimize_module
from magsample.cli import main
from magsample.kernels import green_on
from magsample.optimize import OptimizationConfig
from magsample.simplex import solve_inequality_lp

from conftest import MisdeclaredKernel, child_env, raw_info_kernel, regularized_objective

# Worst-case equalizer for the overlap kernel: in log-magnification the
# kernel is exp(-2|u - v|), whose equalizing distribution is flat plus
# boundary atoms, with worst-case value 1 / (1 + log(b/a)).
INFO_MAXMIN_T_ORACLE = 1.0 / (1.0 + np.log(8.0))


def _cfg(kernel, grid_n=400, lam=1.0):
    return OptimizationConfig(kernel=kernel, mag_range=MagRange(), grid_n=grid_n, lam=lam)


def test_config_validation(info_kernel):
    with pytest.raises(TypeError):  # every field is keyword-only
        OptimizationConfig(info_kernel)
    with pytest.raises(ParameterError):
        OptimizationConfig(kernel=info_kernel, grid_n=5)
    # the entropy weight is checked whichever objective the config is passed to
    for lam in (0.0, -1.0, float("nan")):
        with pytest.raises(ParameterError, match="entropy weight must be positive"):
            OptimizationConfig(kernel=info_kernel, lam=lam)


# -- entropy -------------------------------------------------------------------


def test_entropy_uniform(mag_range):
    u = SamplingDistribution.uniform(mag_range, 50)
    assert entropy(u) == pytest.approx(np.log(1.75), abs=1e-12)


def test_entropy_unit_width_uniform():
    u = SamplingDistribution.uniform(MagRange(0.5, 1.5), 10)
    assert entropy(u) == pytest.approx(0.0, abs=1e-12)


def test_entropy_rejects_atoms(du_dist, mag_range):
    with pytest.raises(DomainError):
        entropy(du_dist)
    mixed = SamplingDistribution(mag_range, atoms=[(1.0, 0.5)], density=[1.0])
    with pytest.raises(DomainError):
        entropy(mixed)


def test_entropy_handles_zero_cells(mag_range):
    d = SamplingDistribution(mag_range, density=[1.0, 0.0, 1.0, 0.0])
    v = 1.0 / (2 * (1.75 / 4))  # two live cells
    assert entropy(d) == pytest.approx(-np.log(v), abs=1e-12)


# -- max-average (Gibbs) ---------------------------------------------------------


def test_gibbs_large_lambda_is_nearly_uniform(info_kernel):
    dist = optimize_max_avg(_cfg(info_kernel, grid_n=1000, lam=100.0))
    assert np.max(np.abs(dist.density - 1.0 / 1.75)) < 0.005


def test_gibbs_density_ratio_matches_closed_form(info_kernel, mag_range):
    dist = optimize_max_avg(_cfg(info_kernel, grid_n=1000, lam=1.0))
    hi, lo = dist.density[mag_range.cell_of([1.338, 0.25], dist.cells)]
    ratio = hi / lo
    formula = np.exp(
        info_kernel.transfer_potential(1.338, mag_range)
        - info_kernel.transfer_potential(0.25, mag_range)
    )
    assert ratio == pytest.approx(formula, abs=0.01)
    assert ratio == pytest.approx(1.949, abs=0.01)


def test_gibbs_constant_kernel_is_uniform():
    xs = np.linspace(0.25, 2.0, 6)
    const = TabulatedKernel(xs, xs, np.full((6, 6), 0.37))
    for lam in (0.2, 1.0, 10.0):
        dist = optimize_max_avg(_cfg(const, grid_n=100, lam=lam))
        assert np.max(np.abs(dist.density - dist.density[0])) < 1e-12


def test_gibbs_entropy_below_uniform(info_kernel, mag_range):
    gibbs = optimize_max_avg(_cfg(info_kernel, lam=1.0))
    assert entropy(gibbs) < np.log(1.75)


def test_gibbs_beats_random_densities(info_kernel, abs_kernel, mag_range):
    g = np.random.default_rng(41)
    for kernel in (info_kernel, abs_kernel):
        for lam in (0.5, 1.0):
            cfg = _cfg(kernel, grid_n=200, lam=lam)
            best = regularized_objective(optimize_max_avg(cfg), cfg)
            for _ in range(100):
                rand = SamplingDistribution(mag_range, density=g.random(200) + 1e-3)
                assert best >= regularized_objective(rand, cfg) - 1e-6


def test_gibbs_beats_uniform(info_kernel, mag_range):
    cfg = _cfg(info_kernel, lam=1.0)
    gibbs = optimize_max_avg(cfg)
    uniform = SamplingDistribution.uniform(mag_range, cfg.grid_n)
    assert regularized_objective(gibbs, cfg) >= regularized_objective(uniform, cfg)


def test_gibbs_flattens_monotonically_in_lambda(info_kernel):
    devs = []
    for lam in (0.1, 0.5, 1.0, 5.0, 100.0):
        dist = optimize_max_avg(_cfg(info_kernel, lam=lam))
        devs.append(np.max(np.abs(dist.density - 1.0 / 1.75)))
    assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))


# -- max-min ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def maxmin_info(info_kernel):
    return optimize_max_min(
        OptimizationConfig(kernel=info_kernel, grid_n=200)
    )


def test_maxmin_feasibility(maxmin_info, info_kernel):
    sol = maxmin_info
    dist = sol.distribution
    assert dist.has_density and not dist.has_atoms
    assert np.all(dist.density >= 0.0)
    assert abs(dist.density.sum() * dist.cell_width - 1.0) <= 1e-9
    mids = dist.range.cell_midpoints(dist.cells)
    K = info_kernel(mids[:, None], mids[None, :])
    signal = K @ (dist.density * dist.cell_width)
    assert np.all(signal >= sol.achieved_t - 1e-7)


def test_maxmin_certificate(maxmin_info):
    assert 0.0 <= maxmin_info.certificate_gap < 1e-6
    assert maxmin_info.achieved_t == pytest.approx(INFO_MAXMIN_T_ORACLE, abs=0.005)


def test_maxmin_active_set_spans_grid(maxmin_info, info_kernel):
    # the targets whose signal sits at achieved_t, from a K q of its own
    dist = maxmin_info.distribution
    mids = dist.range.cell_midpoints(dist.cells)
    signal = info_kernel(mids[:, None], mids[None, :]) @ (dist.density * dist.cell_width)
    active = np.flatnonzero(signal - maxmin_info.achieved_t < 1e-6)
    assert active.size > 0
    assert active.max() - active.min() > 100  # equalized across the whole range


def test_maxmin_dominates_other_strategies(maxmin_info, info_kernel, mag_range, du_dist):
    competitors = [
        SamplingDistribution.uniform(mag_range),
        du_dist,
        optimize_max_avg(_cfg(info_kernel, grid_n=200, lam=0.5)),
        optimize_max_avg(_cfg(info_kernel, grid_n=200, lam=1.0)),
    ]
    for c in competitors:
        assert maxmin_info.achieved_t > accumulated_signal(c, info_kernel, 200).min_value


def test_maxmin_oversamples_boundaries(info_kernel, abs_kernel):
    for kernel in (info_kernel, abs_kernel):
        sol = optimize_max_min(
            OptimizationConfig(kernel=kernel, grid_n=200)
        )
        d = sol.distribution.density
        tenth = d.size // 10
        outer = 0.5 * (d[:tenth].mean() + d[-tenth:].mean())
        center = d[d.size // 2 - tenth // 2 : d.size // 2 + tenth // 2 + 1].mean()
        assert outer > 1.5 * center


def test_maxmin_signal_nearly_flat(maxmin_info, info_kernel):
    profile = accumulated_signal(maxmin_info.distribution, info_kernel, 200)
    assert profile.values.max() - profile.values.min() < 0.05 * profile.values.min()


@pytest.mark.parametrize("a, b", [(0.25, 2.0), (0.5, 1.0), (1.0, 4.0)])
@pytest.mark.parametrize("n", [100, 400, 1000])
def test_maxmin_info_approaches_the_continuum_solution(a, b, n, info_kernel):
    # On [a, b] the max-min distribution of the overlap kernel is the density
    # t*/x plus atoms of mass t*/2 at a and at b, with t* = 1 / (1 + ln(b/a)):
    # the density gives the signal t (1 - a^2/2x^2 - x^2/2b^2) and the atoms
    # add back t/2 (a/x)^2 + t/2 (x/b)^2. The grid solution converges at O(1/n),
    # with the atoms in the end cells.
    t_star = 1.0 / (1.0 + np.log(b / a))
    sol = optimize_max_min(
        OptimizationConfig(kernel=info_kernel, mag_range=MagRange(a, b), grid_n=n)
    )
    dist = sol.distribution
    q = dist.density * dist.cell_width
    assert abs(sol.achieved_t - t_star) <= 1.0 / n
    # an end cell's mass is off by at most a cell width relative to a
    assert np.max(np.abs(q[[0, -1]] - t_star / 2)) <= dist.cell_width / a
    x = dist.range.cell_midpoints(dist.cells)
    assert np.max(np.abs(x[1:-1] * dist.density[1:-1] - t_star)) <= 1.0 / n


# -- max-min solver paths: Green's, Toeplitz, the node block's LP, the whole grid's LU and LP


def _game(kernel, grid_n):
    mids = MagRange().cell_midpoints(grid_n)
    return np.asarray(kernel(mids[:, None], mids[None, :]), dtype=float)


def _lp_oracle(K):
    """Max-min masses and value straight from the simplex on the game LP."""
    ones = np.ones(K.shape[0])
    sol = solve_inequality_lp(ones, K.T, ones)
    q = sol.duals / sol.duals.sum()
    return q, float((K @ q).min())


def _check_certified(sol, K):
    q = sol.distribution.density * sol.distribution.cell_width
    assert -1e-12 <= sol.certificate_gap < 1e-6
    assert sol.achieved_t == pytest.approx(float((K @ q).min()), abs=1e-15)
    return q


@pytest.mark.parametrize("name", ["info", "abs"])
def test_maxmin_builtin_kernels_take_the_equalizer(name, info_kernel, abs_kernel):
    kernel = {"info": info_kernel, "abs": abs_kernel}[name]
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=200))
    # info declares its Green's factors, so its equalizer takes the O(n) solve;
    # abs declares itself stationary, so its equalizer takes the Toeplitz solve
    solver = {"info": "green", "abs": "toeplitz"}[name]
    assert sol.solver == solver and sol.iterations == 0
    K = _game(kernel, 200)
    q = _check_certified(sol, K)
    q_lp, t_lp = _lp_oracle(K)
    assert np.max(np.abs(q - q_lp)) <= 1e-12
    assert sol.achieved_t == pytest.approx(t_lp, abs=1e-12)


def test_green_solve_that_fails_its_certificate_falls_through(abs_kernel):
    # the factors are not of this K: their check against the kernel fails, and
    # the path of the abs kernel, which it inherits, solves the game
    cfg = OptimizationConfig(kernel=MisdeclaredKernel(), grid_n=200)
    assert green_on(cfg.kernel, MagRange().cell_midpoints(200)) is None
    sol = optimize_max_min(cfg)
    assert sol.solver == "toeplitz"
    cfg.kernel = abs_kernel
    assert sol.distribution.density.tobytes() == optimize_max_min(cfg).distribution.density.tobytes()


class _QuadraticDecayKernel(Kernel):
    """4 - (x - y)^2, declared stationary: positive on [0.25, 2], but its
    Toeplitz matrix is not positive definite."""

    stationary = True

    def _evaluate(self, x, y):
        return 4.0 - (x - y) ** 2


class _InverseOverlapKernel(Kernel):
    """(max(x, y) / min(x, y))^2, truly p(min) q(max) with p = x^-2 and
    q = x^2, declared so; but p / q decreases, so u is not positive."""

    def _evaluate(self, x, y):
        r = np.maximum(x, y) / np.minimum(x, y)
        return r * r

    def green_factors(self, x):
        x2 = x * x
        return 1.0 / x2, x2


@pytest.mark.parametrize("n", [11, 200])
@pytest.mark.parametrize("name", ["toeplitz", "green"])
def test_matrix_free_path_that_gives_up_falls_through(name, n):
    kernel = {"toeplitz": _QuadraticDecayKernel, "green": _InverseOverlapKernel}[name]()
    game = optimize_module._Game(kernel, MagRange().cell_midpoints(n))
    (solver, u, _), = optimize_module._matrix_free(game)  # the declaration holds
    if name == "toeplitz":
        assert u is None  # conjugate gradients give up
    else:
        assert u.min() < 0.0
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=n))
    assert (solver, sol.solver) == (name, "simplex")
    K = _game(kernel, n)
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


def _refined_solution(K, steps=3):
    """u of K u = 1: the LU's, refined by a few steps whose residuals
    1 - K u are computed in long double."""
    K_long, ones = K.astype(np.longdouble), np.ones(K.shape[0])
    u = np.linalg.solve(K, ones)
    for _ in range(steps):
        residual = 1.0 - K_long @ u.astype(np.longdouble)
        u = u + np.linalg.solve(K, residual.astype(float))
    return u


# The Toeplitz solve gives the solution of the Toeplitz matrix of K's first
# column, which differs from K by round-off (the grid is uniform only to
# round-off: up to 2e-13 relative on [1e-3, 1e3]), to a residual of 1e-15
# relative, averaged with its mirror image. So its error is about cond(K)
# times those plus its own round-off. Against the refined LU it measured at
# most 4.6 times the LU's own error (grid 11 on [0.25, 2] and on [0.5, 0.6]),
# and less than the LU's at grids 999 and 1000 on the narrow ranges.
_MIRROR_ERROR_FACTOR = 8


@pytest.mark.parametrize("a, b", [(0.25, 2.0), (0.5, 0.6), (1e-3, 1e3)])
@pytest.mark.parametrize("n", [10, 11, 200, 999, 1000])
def test_mirror_solve_matches_the_refined_lu(a, b, n, abs_kernel):
    # the Toeplitz solve, which returns the mirror-symmetric u
    mids = MagRange(a, b).cell_midpoints(n)
    K = np.asarray(abs_kernel(mids[:, None], mids[None, :]), dtype=float)
    reference = _refined_solution(K)

    def error(u):
        return np.max(np.abs(u - reference) / reference)

    game = optimize_module._Game(abs_kernel, mids)
    column = optimize_module._toeplitz(game)
    u = optimize_module._toeplitz_solve(column, optimize_module._toeplitz_matvec(column))
    assert u.shape == (n,) and u.min() > 0.0 and np.array_equal(u, u[::-1])
    lu_error = error(np.linalg.solve(K, np.ones(n)))
    assert error(u) <= _MIRROR_ERROR_FACTOR * max(lu_error, np.finfo(float).eps)
    blocks = _record_blocks(game)
    solver, pivots, (q, _, t_lo, t_hi) = optimize_module._solve_game(game)
    assert (solver, pivots, blocks) == ("toeplitz", 0, [])
    assert optimize_module._certified(t_lo, t_hi)
    # the FFT certificate agrees with the dense one
    _, _, dense_lo, dense_hi = _dense_bounds(K, q * n, q * n)
    assert t_lo == pytest.approx(dense_lo, rel=1e-13)
    assert t_hi == pytest.approx(dense_hi, rel=1e-13)


class _StationaryInfoKernel(InfoOverlapKernel):
    """The info kernel, declaring itself stationary and no Green's factors:
    symmetric, but not mirror-invariant."""

    stationary = True
    green_factors = Kernel.green_factors


class _StationaryTable(TabulatedKernel):
    """A table declaring itself stationary: neither symmetric nor mirror-invariant."""

    stationary = True


@pytest.mark.parametrize("name", ["symmetric", "asymmetric"])
def test_misdeclared_stationary_kernel_falls_through(name, info_kernel):
    if name == "symmetric":
        kernel, honest = _StationaryInfoKernel(), _StationaryInfoKernel()
        honest.stationary = False
        expected_solver = "equalizer"
    else:
        table = _asymmetric_table(2)
        kernel = _StationaryTable(table.xs, table.ys, table.values)
        honest, expected_solver = table, "nodes"
    n = 200
    K = _game(kernel, n)
    assert not np.array_equal(K, K[::-1, ::-1])
    # only the check of the declaration against the kernel stops the Toeplitz solve
    game = optimize_module._Game(kernel, MagRange().cell_midpoints(n))
    assert optimize_module._toeplitz(game) is None
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=n))
    assert sol.solver == expected_solver
    _check_certified(sol, K)
    want = optimize_max_min(OptimizationConfig(kernel=honest, grid_n=n))
    assert want.solver == expected_solver
    assert sol.distribution.density.tobytes() == want.distribution.density.tobytes()
    assert sol.iterations == want.iterations


def _record_blocks(game):
    """The shape of every block of K that ``game`` is asked for, in order."""
    shapes, block = [], game.block
    game.block = lambda I, J: shapes.append((I.size, J.size)) or block(I, J)
    return shapes


def _dense_bounds(K, u, y):
    """The certificate of (u, y) with the products by the dense K and K'."""
    return optimize_module._certify(u, y, K.__matmul__, K.T.__matmul__)


def _equalizer_reference(K):
    """The equalizer as first written: always two solves when u > 0."""
    ones = np.ones(K.shape[0])
    u = np.linalg.solve(K, ones)
    if not u.min() > 0.0:
        return None
    y = np.linalg.solve(K.T, ones)
    if not y.min() > 0.0:
        return None
    return _dense_bounds(K, u, y)


def _bounds_bytes(bounds):
    q, signal, t_lo, t_hi = bounds
    return q.tobytes(), signal.tobytes(), t_lo, t_hi


@pytest.fixture()
def solves(monkeypatch):
    """Every (u, y) the certificate checks, and the matrix shape of each linear solve."""
    record = {"pairs": [], "shapes": []}
    solve, certify = np.linalg.solve, optimize_module._certify

    def counted_solve(a, *args):
        record["shapes"].append(np.shape(a))
        return solve(a, *args)

    def recorded_certify(u, y, Kq, Ktr):
        record["pairs"].append((u, y))
        return certify(u, y, Kq, Ktr)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(optimize_module, "_certify", recorded_certify)
    return record


def _full_solves(record, n):
    return record["shapes"].count((n, n))


@pytest.mark.parametrize("name", ["info", "abs"])
def test_symmetric_game_takes_one_solve(name, info_kernel, abs_kernel, solves):
    kernel = {"info": info_kernel, "abs": abs_kernel}[name]
    K = _game(kernel, 300)
    assert np.array_equal(K, K.T)
    # no Green's factors and not stationary: the path a symmetric K takes without them
    game = optimize_module._Game(_undeclared(kernel), MagRange().cell_midpoints(300))
    blocks = _record_blocks(game)
    solver, _, got = optimize_module._solve_game(game)
    assert (solver, blocks) == ("equalizer", [(300, 300)])
    assert solves["shapes"] == [(300, 300)]
    (u, y), = solves["pairs"]
    assert y is u
    # a second solve of K'y = 1 gives u bit for bit, so the bounds are unchanged
    assert _bounds_bytes(got) == _bounds_bytes(_equalizer_reference(K))


def _undeclared(kernel):
    """The kernel, declaring no structure."""
    cls = type("Undeclared", (type(kernel),),
               {"stationary": False, "green_factors": Kernel.green_factors})
    return cls()


def _midpoint_table(values):
    """A table whose nodes are the cell midpoints of ``values``' grid, so that
    its node block is the whole grid, and the range's ends, where it repeats
    its edge values so that it covers the range the game's density spans."""
    mids = MagRange().cell_midpoints(len(values))
    nodes = np.concatenate(([MagRange().a], mids, [MagRange().b]))
    return TabulatedKernel(nodes, nodes, np.pad(values, 1, mode="edge"))


def _mixed_asymmetric_game(info_kernel, n):
    """D1 K D2 with smooth positive diagonals: still completely mixed, not symmetric."""
    mids = MagRange().cell_midpoints(n)
    return (1.0 + 0.05 * mids)[:, None] * _game(info_kernel, n) * (1.0 - 0.03 * mids)[None, :]


def test_asymmetric_mixed_game_takes_two_solves(info_kernel, solves):
    K = _mixed_asymmetric_game(info_kernel, 300)
    assert not np.array_equal(K, K.T)
    uy = optimize_module._equalizer(K)
    assert uy is not None and _full_solves(solves, 300) == 2
    got = _dense_bounds(K, *uy)
    (u, y), = solves["pairs"]
    assert y is not u and y.min() > 0.0
    assert _bounds_bytes(got) == _bounds_bytes(_equalizer_reference(K))


def test_asymmetric_mixed_game_ends_on_the_equalizer(info_kernel, solves):
    # through optimize_max_min, on a table whose nodes are the cell midpoints:
    # its node block is the whole grid
    n = 300
    values = _mixed_asymmetric_game(info_kernel, n)
    kernel = _midpoint_table(values)
    assert np.array_equal(_game(kernel, n), values)
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=n))
    assert sol.solver == "equalizer" and sol.iterations == 0
    assert _full_solves(solves, n) == 2
    q, _, t_lo, t_hi = _equalizer_reference(values)
    expected = SamplingDistribution(MagRange(), density=q / (MagRange().width / n))
    assert sol.distribution.density.tobytes() == expected.density.tobytes()
    assert (sol.achieved_t, sol.certificate_gap) == (t_lo, t_hi - t_lo)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 4.0), st.floats(1.5, 40.0), st.integers(10, 1500))
def test_green_solve_matches_the_lu(a, ratio, n):
    mag_range = MagRange(a, a * ratio)
    mids = mag_range.cell_midpoints(n)
    kernel = InfoOverlapKernel()
    K = np.asarray(kernel(mids[:, None], mids[None, :]), dtype=float)
    u = optimize_module._green_solve(*kernel.green_factors(mids))
    u_lu = np.linalg.solve(K, np.ones(n))
    assert np.max(np.abs(u - u_lu) / u_lu) <= 1e-7
    assert u.min() > 0.0
    _, _, t_lo, t_hi = _dense_bounds(K, u, u)
    assert abs(t_hi - t_lo) <= 1e-12


def _asymmetric_table(seed, n=64, decay=0.5):
    """Positive, asymmetric, noisy table with a sparse max-min solution."""
    xs = np.linspace(0.2, 2.1, n)
    d = np.log(xs[:, None] / xs[None, :])
    base = np.exp(-decay * np.abs(d) * np.where(d > 0, 1.4, 0.6))
    noise = np.random.default_rng(seed).uniform(0.95, 1.05, size=base.shape)
    return TabulatedKernel(xs, xs, base * noise)


def _solved(kernel, grid_n):
    """The solver, pivots and bounds of the game, and whether it asked for the
    whole grid's block."""
    game = optimize_module._Game(kernel, MagRange().cell_midpoints(grid_n))
    blocks = _record_blocks(game)
    solver, pivots, bounds = optimize_module._solve_game(game)
    return solver, pivots, bounds, (grid_n, grid_n) in blocks


def test_maxmin_sparse_game_takes_the_node_block():
    kernel = _asymmetric_table(2)
    K = _game(kernel, 200)
    assert np.linalg.solve(K, np.ones(200)).min() < 0.0  # not completely mixed
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=200))
    assert sol.solver == "nodes" and sol.iterations > 0
    q = _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)
    assert np.count_nonzero(q) <= 200 // 8  # the support stays small


def test_sparse_game_makes_no_full_solve(solves):
    # a node block of 118 of 200 points: one LP on it, and no linear solve
    kernel, n = _asymmetric_table(2), 200
    solver, pivots, (_, _, t_lo, t_hi), dense = _solved(kernel, n)
    assert (solver, dense) == ("nodes", False) and pivots > 0
    assert solves["shapes"] == []
    assert optimize_module._certified(t_lo, t_hi)
    assert t_lo == pytest.approx(_lp_oracle(_game(kernel, n))[1], abs=1e-12)


def test_long_sparse_game_is_solved_on_its_node_block(solves):
    # a faster decay spreads the support over more of the grid; the node
    # block still holds it, so the game takes no linear solve
    kernel, n = _asymmetric_table(2, decay=2.0), 400
    K = _game(kernel, n)
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=n))
    assert sol.solver == "nodes" and sol.iterations > 0
    assert solves["shapes"] == []
    solver, pivots, (q, _, t_lo, t_hi), dense = _solved(kernel, n)
    assert (solver, dense) == ("nodes", False) and sol.iterations == pivots
    expected = SamplingDistribution(MagRange(), density=q / (MagRange().width / n))
    assert sol.distribution.density.tobytes() == expected.density.tobytes()
    assert (sol.achieved_t, sol.certificate_gap) == (t_lo, t_hi - t_lo)
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


@pytest.mark.parametrize("seed", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("grid_n", [200, 317])
def test_maxmin_double_oracle_matches_full_lp(seed, grid_n):
    # the tables the double oracle solved while node blocks past grid // 8
    # were left to it; one LP on the node block solves them now
    kernel = _asymmetric_table(seed)
    K = _game(kernel, grid_n)
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=grid_n))
    assert sol.solver == "nodes" and not _solved(kernel, grid_n)[3]
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


@pytest.fixture()
def evaluated(monkeypatch):
    """The size of every block that TabulatedKernel._evaluate returns."""
    sizes = []
    evaluate = TabulatedKernel._evaluate

    def counted(self, x, y):
        out = evaluate(self, x, y)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(TabulatedKernel, "_evaluate", counted)
    return sizes


def _node_block(kernel, grid_n):
    mids = MagRange().cell_midpoints(grid_n)
    return tuple(optimize_module._next_to(mids, x) for x in kernel.linear_nodes())


@pytest.mark.parametrize("seed", range(2, 12))
def test_table_game_is_solved_on_its_node_block(seed, evaluated, monkeypatch):
    # the benchmark's 64-node table at grid 1000: a 118 x 118 block, one LP,
    # and a certificate from the support alone
    kernel, n = _asymmetric_table(seed), 1000
    supports = []
    bounds = optimize_module._Game.bounds

    def recorded(game, I, J, u, y):
        supports.append((np.count_nonzero(u), np.count_nonzero(y)))
        return bounds(game, I, J, u, y)

    monkeypatch.setattr(optimize_module._Game, "bounds", recorded)
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=n))
    assert sol.solver == "nodes" and sol.iterations > 0
    I, J = _node_block(kernel, n)
    assert (I.size, J.size) == (118, 118)
    (S, T), = supports
    assert sum(evaluated) <= I.size * J.size + (S + T) * n
    K = _game(kernel, n)
    _check_certified(sol, K)
    assert sol.certificate_gap <= 1e-12
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


@pytest.mark.parametrize("seed", range(1, 31))
def test_table_density_holds_no_round_off_cell(seed):
    # the benchmark's design tables, which its input generator seeds with
    # [seed, 0]. The LP's multipliers held round-off, 1.5e-16 to 7e-16 of
    # the peak, on rows whose slack was basic, and each was written out as a
    # density cell: on 9 of these tables with two BLAS threads, and on 7
    # with one (which tables depends on the thread count)
    sol = optimize_max_min(OptimizationConfig(kernel=_asymmetric_table([seed, 0]), grid_n=1000))
    density = sol.distribution.density
    live = density[density > 0.0]
    assert live.min() >= 1e-9 * live.max()
    assert sol.certificate_gap <= 1e-12


def _irregular_nodes(draw):
    """Table nodes: one below the range or on its end, one above it or on its
    end, inner ones at random, and two closer than a cell of the finest grid
    drawn."""
    inner = draw(st.lists(st.floats(0.26, 1.99), min_size=1, max_size=4))
    twin = draw(st.floats(0.26, 1.99))
    offset = draw(st.floats(1e-6, 1.0)) * MagRange().width / 400
    nodes = [draw(st.floats(0.1, 0.25)), *inner, twin, twin + offset, draw(st.floats(2.0, 2.5))]
    return np.unique(nodes)


@st.composite
def _node_tables(draw):
    xs, ys = _irregular_nodes(draw), _irregular_nodes(draw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TabulatedKernel(xs, ys, rng.uniform(0.05, 2.0, (xs.size, ys.size)))


@settings(max_examples=40, deadline=None)
@given(_node_tables(), st.integers(128, 400))
def test_node_block_solves_irregular_tables(kernel, grid_n):
    # at most 6 nodes in range: at most 14 node rows and columns
    solver, _, (_, _, t_lo, t_hi), dense = _solved(kernel, grid_n)
    assert solver == "nodes" and not dense
    K = _game(kernel, grid_n)
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=grid_n))
    assert (sol.solver, sol.achieved_t) == (solver, t_lo)
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


class _LyingTable(TabulatedKernel):
    """A table that declares only its end nodes: not linear between them."""

    def linear_nodes(self):
        return self.xs[[0, -1]], self.ys[[0, -1]]


class _NodelessTable(TabulatedKernel):
    """A table that declares no nodes."""

    linear_nodes = Kernel.linear_nodes


@pytest.mark.parametrize(
    "source, message",
    [(np.zeros, "^degenerate game solution$"),
     (lambda m: np.eye(m)[0], r"^optimality certificate failed: min\(Kq\)=")],
    ids=["no-mass", "pure-source"],
)
def test_whole_grid_solution_is_certified_not_trusted(monkeypatch, source, message):
    # the LP on the whole grid ends the game, so its answer is returned only
    # with a certificate that closes
    table, n = _asymmetric_table(2), 40
    monkeypatch.setattr(optimize_module, "_equalizer", lambda K: None)

    def lp(c, A, b):  # the duals are the source masses, x the adversary's
        return types.SimpleNamespace(duals=source(len(b)), x=np.ones(len(c)), iterations=0)

    monkeypatch.setattr(optimize_module, "solve_inequality_lp", lp)
    cfg = OptimizationConfig(grid_n=n,
                             kernel=_NodelessTable(table.xs, table.ys, table.values))
    with pytest.raises(SolverError, match=message):
        optimize_max_min(cfg)


def test_table_with_lying_nodes_falls_through(monkeypatch):
    table, n = _asymmetric_table(2), 200
    kernel = _LyingTable(table.xs, table.ys, table.values)
    assert [b.tolist() for b in _node_block(kernel, n)] == [[0, n - 1]] * 2
    shapes = []
    lp = optimize_module.solve_inequality_lp
    monkeypatch.setattr(optimize_module, "solve_inequality_lp",
                        lambda c, A, b: shapes.append(A.shape) or lp(c, A, b))
    # the 2 x 2 block game is not the grid game, and its certificate shows it
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=n))
    assert sol.solver == "simplex" and shapes == [(2, 2), (n, n)]
    K = _game(kernel, n)
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


def test_undeclared_asymmetric_table_takes_the_simplex():
    table, n = _asymmetric_table(2), 200
    kernel = _NodelessTable(table.xs, table.ys, table.values)
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=n))
    assert sol.solver == "simplex" and sol.iterations > 0
    K = _game(kernel, n)
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 7),
    st.lists(st.floats(0.05, 2.0), min_size=49, max_size=49),
    st.integers(10, 120),
)
def test_maxmin_value_matches_full_lp_on_random_tables(nodes, values, grid_n):
    xs = np.linspace(0.25, 2.0, nodes)
    table = np.array(values[: nodes * nodes]).reshape(nodes, nodes)
    kernel = TabulatedKernel(xs, xs, table)
    K = _game(kernel, grid_n)
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=grid_n))
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


def test_maxmin_large_support_falls_back_to_simplex(info_kernel):
    # A game on the cell midpoints, so its node block is the whole grid: the
    # info kernel with source 0 replaced by half of source 1. K is singular,
    # so the equalizer fails, and the optimal support keeps most of the grid.
    n = 80
    mids = MagRange().cell_midpoints(n)
    values = np.asarray(info_kernel(mids[:, None], mids[None, :]), dtype=float)
    values[:, 0] = 0.5 * values[:, 1]
    kernel = _midpoint_table(values)
    K = _game(kernel, n)
    assert np.array_equal(K, values)
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=n))
    assert sol.solver == "simplex"
    q = _check_certified(sol, K)
    assert np.count_nonzero(q) > n // 8
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


def test_maxmin_singular_game_falls_back_to_simplex():
    # the constant table, declaring no nodes: its dense K is singular
    xs = np.array([0.25, 2.0])
    const = _NodelessTable(xs, xs, np.full((2, 2), 0.37))
    K = _game(const, 10)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(K, np.ones(10))
    sol = optimize_max_min(OptimizationConfig(kernel=const, grid_n=10))
    assert sol.solver == "simplex"
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(0.37, abs=1e-12)


def _info_table(n=64):
    """The info kernel tabulated on the design tables' n nodes."""
    xs = np.linspace(0.2, 2.1, n)
    return TabulatedKernel(xs, xs, InfoOverlapKernel()(xs[:, None], xs[None, :]))


@pytest.mark.parametrize(
    "table, scale",
    [("design", 2.0**20), ("design", 2.0**-40), ("design", 1e-12), ("design", 1e9),
     ("info", 1e9)],
)
def test_maxmin_is_certified_at_any_kernel_scale(table, scale):
    # The game's solution does not depend on the kernel's unit. While the
    # simplex took the block as it came, its absolute tolerances saw every
    # entry of the x2^-40 and x1e-12 tables as too small to pivot on, and
    # called the LP unbounded; the x1e9 tables ended on a basis that failed
    # verification (info) or on a certificate that did not close (design)
    base = _asymmetric_table([4, 0]) if table == "design" else _info_table()
    want = optimize_max_min(OptimizationConfig(kernel=base, grid_n=1000))
    kernel = TabulatedKernel(base.xs, base.ys, base.values * scale)
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=1000))
    assert sol.solver == want.solver == "nodes"
    assert abs(sol.certificate_gap) <= 1e-12 * sol.achieved_t
    assert sol.achieved_t == pytest.approx(scale * want.achieved_t, rel=1e-12)
    q = sol.distribution.density * sol.distribution.cell_width
    assert sol.achieved_t == pytest.approx(float((_game(kernel, 1000) @ q).min()), rel=1e-14)


def _scalable_game(path, seed):
    """A table whose game ``path`` solves, and the grid to solve it at."""
    if path == "nodes":
        return _asymmetric_table([seed, 0]), 1000
    if path == "simplex":
        table = _asymmetric_table([seed, 0])
        return _NodelessTable(table.xs, table.ys, table.values), 80
    n = 60 + seed
    return _midpoint_table(_mixed_asymmetric_game(InfoOverlapKernel(), n)), n


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["nodes", "simplex", "equalizer"]), st.integers(1, 30),
       st.integers(-500, 500))
def test_maxmin_bytes_do_not_depend_on_a_power_of_two_kernel_scale(path, seed, k):
    # K scaled by 2^k scales every product by K exactly: the LU's u and the
    # certificate's bounds scale by 2^-k and 2^k, and the simplex sees the
    # same block, scaled to a largest entry in [1, 2)
    table, n = _scalable_game(path, seed)
    scaled = type(table)(table.xs, table.ys, np.ldexp(table.values, k))
    want, got = (optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=n))
                 for kernel in (table, scaled))
    assert got.solver == want.solver == path
    assert got.distribution.density.tobytes() == want.distribution.density.tobytes()
    assert got.achieved_t == math.ldexp(want.achieved_t, k)
    assert got.certificate_gap == math.ldexp(want.certificate_gap, k)
    assert got.iterations == want.iterations


# Bytes of `optimize --objective maxmin` on a tabulated kernel, written by the
# LP on its node block. The optimal q of such a game is not unique, so a
# different solver path may give other bytes at the same achieved_t.
TABULATED_MAXMIN_SHA256 = "65035ce8d1c0f7c18b85a5c1c8ea1f8af54b760d4418516c96082812eeef188e"


def test_tabulated_maxmin_msdist_golden_digest(tmp_path, monkeypatch):
    kernel = _asymmetric_table(2, n=16)
    assert _solved(kernel, 200)[0] == "nodes"
    lines = ["x,y,value"]
    for i, x in enumerate(kernel.xs):
        for j, y in enumerate(kernel.ys):
            lines.append(f"{float(x)!r},{float(y)!r},{float(kernel.values[i, j])!r}")
    (tmp_path / "tab.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["optimize", "--objective", "maxmin", "--grid", "200",
                 "--kernel", "custom:tab.csv", "--out", "tab.msdist"]) == 0
    digest = hashlib.sha256((tmp_path / "tab.msdist").read_bytes()).hexdigest()
    assert digest == TABULATED_MAXMIN_SHA256


_MAXMIN_BLAS_PROBE = """
import hashlib, sys
sys.path.insert(0, {tests!r})
from magsample import format_distribution, optimize_max_min
from magsample.optimize import OptimizationConfig
from test_optimize import _NodelessTable, _asymmetric_table
t4 = _asymmetric_table([4, 0])
nodeless = _NodelessTable(t4.xs, t4.ys, t4.values)
for kernel, grid_n in ((t4, 1000), (_asymmetric_table([5, 0]), 1000), (nodeless, 600)):
    sol = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=grid_n))
    text = format_distribution(sol.distribution, [repr(sol.achieved_t)])
    print(sol.solver, hashlib.sha256(text.encode()).hexdigest())
"""


def test_maxmin_bytes_do_not_depend_on_blas_threads():
    # the LP on two node blocks and on the whole grid, at one and at two
    # BLAS threads; the digests of each solution must match
    probe = _MAXMIN_BLAS_PROBE.format(tests=str(Path(__file__).resolve().parent))
    digests = []
    for threads in ("1", "2"):
        env = dict(child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.split())
    assert digests[0][::2] == ["nodes", "nodes", "simplex"]
    assert digests[0] == digests[1]


# Bytes of `optimize --objective maxmin` on the built-in kernels at grid 200,
# written by the Green's solve (info) and the Toeplitz solve (abs).
BUILTIN_MAXMIN_SHA256 = {
    "info": "583c38381d8235713cfed77a9d1c2830e78848165dc13d882a673c73f9d0ec0b",
    "abs": "e894dca6492f9784ae005cd017d9b5016bfed5606c908a7de8b1be4eb53e326d",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_MAXMIN_SHA256))
def test_builtin_maxmin_msdist_golden_digest(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert main(["optimize", "--objective", "maxmin", "--grid", "200",
                 "--kernel", name, "--out", "mm.msdist"]) == 0
    digest = hashlib.sha256((tmp_path / "mm.msdist").read_bytes()).hexdigest()
    assert digest == BUILTIN_MAXMIN_SHA256[name]


class _LinearDecayKernel(AbsDistanceKernel):
    """1 - |x - y|, declared stationary: negative past a distance of 1."""

    def _evaluate(self, x, y):
        return 1.0 - np.abs(x - y)


@pytest.mark.parametrize("declared", [True, False])
def test_maxmin_kernel_with_a_nonpositive_entry_exits_1(declared, tmp_path, monkeypatch, capsys):
    # the Toeplitz path declines a column that is not positive; the dense K
    # of the path after it has the entry <= 0
    kernel = _LinearDecayKernel() if declared else _undeclared(_LinearDecayKernel())
    with pytest.raises(DomainError):
        optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=100))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "kernel_from_string", lambda selector: kernel)
    assert main(["optimize", "--objective", "maxmin", "--grid", "100", "--out", "mm.msdist"]) == 1
    assert "strictly positive" in capsys.readouterr().err


def test_dense_game_past_the_bound_exits_2_before_allocating(tmp_path, monkeypatch, capsys):
    # symmetric and without a declared structure: only the equalizer, on the
    # dense K, can solve it, and at grid 12000 that K would take 1.07 GiB
    kernel = _undeclared(InfoOverlapKernel())
    evaluated = []
    monkeypatch.setattr(type(kernel), "_evaluate",
                        lambda self, x, y: evaluated.append(1) or InfoOverlapKernel._evaluate(self, x, y))
    monkeypatch.setattr(cli, "kernel_from_string", lambda selector: kernel)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code = main(["optimize", "--objective", "maxmin", "--grid", "12000", "--out", "mm.msdist"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "1.07 GiB" in err and "grid <= 11585" in err
    assert not evaluated and peak < 10e6
    assert not (tmp_path / "mm.msdist").exists()


def test_simplex_past_the_bound_exits_2_before_allocating(tmp_path, monkeypatch, capsys):
    # no nodes and not completely mixed: only the LP on the whole grid solves
    # it. At grid 400 its 1.28 MB K fits a bound of 4 MiB, and the LP's
    # tableau with its scratch copy, 5.3 MB, does not.
    table, n = _asymmetric_table(2), 400
    kernel = _NodelessTable(table.xs, table.ys, table.values)
    monkeypatch.setattr(optimize_module, "_DENSE_BYTES", 4 << 20)
    monkeypatch.setattr(cli, "kernel_from_string", lambda selector: kernel)
    monkeypatch.chdir(tmp_path)
    lp_bytes = optimize_module.lp_peak_bytes(n, n)
    tracemalloc.start()
    try:
        code = main(["optimize", "--objective", "maxmin", "--grid", str(n), "--out", "mm.msdist"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "the simplex on the 400 x 400 game" in capsys.readouterr().err
    # K is kept, so had the LP started, K, its tableau and the scratch copy,
    # together more than lp_bytes, would have been held at once
    assert 8 * n * n < peak < lp_bytes
    assert not (tmp_path / "mm.msdist").exists()


def _quoted_bounds(text):
    """The GiB and grid figures of the size bounds that ``text`` quotes."""
    gib = re.findall(r"(\d+(?:\.\d+)?)\s+GiB", text)
    grids = re.findall(r"(?:fits\s+grid|grid\s+(?:<=|≤)|past\s+grid|grid\s+grid)\s+(\d+)", text)
    return set(gib), set(map(int, grids))


def test_docs_quote_the_size_bounds_the_code_sets():
    bound = optimize_module._DENSE_BYTES
    dense_grid = math.isqrt(bound // 8)  # the dense K takes 8 n^2 bytes
    lp_grid = dense_grid
    while optimize_module.lp_peak_bytes(lp_grid, lp_grid) > bound:
        lp_grid -= 1
    source = Path(optimize_module.__file__).read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(source) if line.startswith("_DENSE_BYTES ="))
    start = at
    while source[start - 1].startswith("#"):
        start -= 1
    docs = {
        "README.md": (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"),
        "cli": cli.__doc__,
        "optimize": optimize_module.__doc__,
        "_DENSE_BYTES comment": "\n".join(source[start:at]),
    }
    for name, text in docs.items():
        assert _quoted_bounds(text) == ({f"{bound / 2**30:g}"}, {dense_grid, lp_grid}), name


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM needs /proc")
@pytest.mark.parametrize("name", ["info", "abs"])
def test_maxmin_at_grid_20000_runs_in_linear_memory(name, tmp_path):
    # one dense K at grid 20000 would take 3.2 GB. The child reads its own
    # peak resident set, VmHWM: ru_maxrss would start from the forking parent's.
    code = (
        "from magsample.cli import main\n"
        f"code = main(['optimize', '--objective', 'maxmin', '--grid', '20000', "
        f"'--kernel', '{name}', '--out', 'mm.msdist'])\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(code, int(status.split()[0]) * 1024)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    code, peak = map(int, out.stdout.split())
    assert code == 0 and peak < 200e6
    assert "density 20000" in (tmp_path / "mm.msdist").read_text()


@pytest.mark.parametrize("kernel", [InfoOverlapKernel(), AbsDistanceKernel()], ids=["info", "abs"])
def test_achieved_t_is_above_the_written_files_signal_minimum(kernel):
    # achieved_t certifies the game on cell midpoints; signal judges the
    # written density exactly on range.grid(n), whose ends lie outside the
    # midpoints, and finds less there. The gap is O(1/n): info 2.73% at grid
    # 250 and 0.70% at 1000, abs 0.26% and 0.064%, both at a range end.
    gaps = []
    for grid_n in (250, 1000):
        solution = optimize_max_min(OptimizationConfig(kernel=kernel, grid_n=grid_n))
        written = parse_distribution(format_distribution(solution.distribution))
        profile = accumulated_signal(written, kernel, grid_n)
        assert profile.min_value < solution.achieved_t
        assert profile.argmin_y in (written.range.a, written.range.b)
        gaps.append((solution.achieved_t - profile.min_value) / solution.achieved_t)
    assert 3.0 < gaps[0] / gaps[1] < 5.0


def test_regularized_objective_is_signal_plus_entropy(info_kernel, mag_range):
    # the uniform density 1/w on a range of width w: its total signal is the
    # double integral of K over the range divided by w (a trapezoid on 2001
    # points, which errs by 1.3e-7), and its entropy is log(w)
    cfg = _cfg(info_kernel, grid_n=100, lam=2.0)
    d = SamplingDistribution.uniform(mag_range, 100)
    xs = mag_range.grid(2001)
    double = np.trapezoid(np.trapezoid(raw_info_kernel(xs[:, None], xs), xs), xs)
    expected = double / mag_range.width + 2.0 * np.log(mag_range.width)
    assert regularized_objective(d, cfg) == pytest.approx(expected, abs=5e-7)


def _solver_names_in_code():
    """The solver names ``optimize`` can return: the leading string of each
    tuple that a function of the module returns or yields."""
    tree = ast.parse(Path(optimize_module.__file__).read_text(encoding="utf-8"))
    return {
        node.value.elts[0].value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Return, ast.Yield)) and isinstance(node.value, ast.Tuple)
        and node.value.elts and isinstance(node.value.elts[0], ast.Constant)
        and isinstance(node.value.elts[0].value, str)
    }


def test_docs_list_the_solvers_the_code_returns():
    solvers = _solver_names_in_code()
    assert solvers == {"green", "toeplitz", "nodes", "equalizer", "simplex"}
    # the docstring's bullets, one per path
    assert set(re.findall(r'^\* ``"(\w+)"``:', optimize_module.__doc__, re.M)) == solvers
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    notes = readme.split("\n## Numerical notes\n", 1)[1].split("\n## ", 1)[0]
    listed = next(item for item in notes.split("\n* ") if "MaxMinSolution.solver" in item)
    listed = listed.split("MaxMinSolution.solver", 1)[1].split(".", 1)[0]
    assert set(re.findall(r'`"(\w+)"`', listed)) == solvers
